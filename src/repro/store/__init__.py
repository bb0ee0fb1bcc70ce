"""Content-addressed result store and cross-study tuning cache.

See DESIGN.md §12 for the on-disk layout, the key schema, and the
invalidation rules.  ``run_study(result_store=...)`` (the CLI's
``--result-store``) short-circuits whole cells through it.
"""

from .keys import canonical_json, cell_identity, fingerprint_of
from .store import (
    STORE_ENV,
    STORE_FORMAT_VERSION,
    ResultStore,
    default_store_dir,
)

__all__ = [
    "canonical_json",
    "cell_identity",
    "fingerprint_of",
    "ResultStore",
    "default_store_dir",
    "STORE_ENV",
    "STORE_FORMAT_VERSION",
]
