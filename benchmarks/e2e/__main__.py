"""``python -m benchmarks.e2e``: same as ``benchmarks/e2e/run.py``."""

import sys

from .run import main

sys.exit(main())
