# True positives for REP009: imported names nothing reads.
import os  # finding: never used
import xml.dom  # finding: binds ``xml``, never used
from collections import OrderedDict  # finding: only named in a string
from typing import List, Optional  # finding: Optional never used

import numpy as np  # finding: alias never used

LABEL = "OrderedDict"


def total(values: List[float]) -> float:
    from json import dumps  # finding: function-local, never used

    return sum(values)
