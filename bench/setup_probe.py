"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what a run does once before its operations: importing the
library, building the shared structure, loading rewriting systems and
writing rule files.  ``worker.py`` starts this several times per run and
reports the median.
"""

# Standard modules the benchmark's own code needs are imported before the
# clock starts, so that only the library's imports are timed.
import array  # noqa: F401
import collections  # noqa: F401
import contextlib  # noqa: F401
import io  # noqa: F401
import json
import random  # noqa: F401
import re  # noqa: F401
import statistics  # noqa: F401
import sys
import tempfile
import time
from pathlib import Path

t0 = time.perf_counter()
import stackings.cli  # noqa: E402,F401

from api import Api  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
name = sys.argv[1]
params = json.loads((HERE / "spec.json").read_text())["workloads"][name]
with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".bench-tmp-") as tmp:
    WORKLOADS[name](params, 0).setup(Api(), Path(tmp))
    elapsed = time.perf_counter() - t0
print(elapsed)
