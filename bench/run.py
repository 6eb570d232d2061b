"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run gets a fresh interpreter with a
pinned PYTHONHASHSEED, because ``Word`` hashes mix in string hashes and set
and dict orders would otherwise change from run to run.  The library is
imported from the checkout's ``src``; without it the run fails.  The last
line of standard output is the JSON result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "src" / "stackings" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    env = dict(os.environ, PYTHONHASHSEED=spec["hash_seed"], PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *sys.argv[1:]],
            env=env, cwd=ROOT, timeout=spec["timeout_s"],
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {spec['timeout_s']} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
