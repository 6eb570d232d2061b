"""One benchmark run of one workload, in the interpreter ``run.py`` started.

Untraced (``--trace 0``), it runs whole cycles of operations until
``--seconds`` have passed and reports the end-to-end metrics.  Traced
(``--trace 1``), it runs every operation of the workload's ``traced_cycles``
cycles untraced and then with spans on, and reports the per-layer metrics and
the tracing overhead (traced time over untraced time, minus one).  The cycle
counts are set so that a traced run takes about as long as an untraced one.

``failed`` counts every operation that failed; ``correct`` is false when one
failed that is not a known defect listed in spec.json.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())

import stackings  # noqa: E402

if not Path(stackings.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: imported stackings from {stackings.__file__}, not from {ROOT / 'src'}")

from api import Api, traced_cli  # noqa: E402
from spans import Tracer, layer_metrics, layer_self_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Pass:
    """Operations run, their latencies and what failed."""

    def __init__(self) -> None:
        self.ops = 0
        self.latencies: list[float] = []
        self.work = 0
        self.failures: list[tuple[int, list[str]]] = []
        self.unexpected = 0

    @property
    def failed_frac(self) -> float:
        """Failed operations over attempted ones; a failure is an exception,
        an output that disagrees with the reference or a wrong exit code."""
        return len(self.failures) / self.ops


def run_op(wl, api, state, op, res: Pass) -> None:
    """One operation.  Only the library calls are timed; the check is not."""
    api.begin_op()
    t0 = perf_counter()
    try:
        out = wl.run(api, state, op)
        problems = None
    except Exception as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    res.latencies.append(perf_counter() - t0)
    api.end_op()
    if problems is None:
        problems = wl.check(op, out)
        res.work += wl.work_done(op, out)
    if problems:
        res.failures.append((res.ops, problems))
        if not wl.known_defect(op):
            res.unexpected += 1
            print(f"FAILED op {res.ops}: {problems[0]}", file=sys.stderr)
    res.ops += 1


def run_pass(wl, api, state, seconds: float) -> Pass:
    """Whole cycles until ``seconds`` have passed."""
    res = Pass()
    began = perf_counter()
    c = 0
    while c == 0 or perf_counter() - began < seconds:
        for op in wl.cycle(c):
            run_op(wl, api, state, op, res)
        c += 1
    return res


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup_seconds(name: str, repeats: int) -> list[float]:
    """Set-up time of ``repeats`` fresh interpreters, each timing its own
    imports and set-up."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def untraced(wl, seconds: float, tmp: Path) -> tuple[dict, Pass, list[str]]:
    setups = setup_seconds(wl.name, SPEC["setup_repeats"])
    api = Api()
    state = wl.setup(api, tmp)
    res = run_pass(wl, api, state, seconds)
    busy = sum(res.latencies)
    level = wl.params["tail_percentile"]
    beyond = sum(1 for x in res.latencies if x > percentile(res.latencies, level))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res.ops / busy, "1/s"),
        "op_p50_ms": (statistics.median(res.latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(res.latencies, level) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"op_tail_ms is p{level}: {beyond} of {res.ops} samples lie beyond it",
        f"setup_s is the median of {len(setups)} fresh interpreters",
        f"failed_frac = {res.failed_frac:.6f} ({len(res.failures)} of {res.ops})",
    ]
    if wl.work_unit:
        notes.append(f"{wl.work_unit}_per_s = {res.work / busy:.6g} 1/s ({res.work} {wl.work_unit})")
    if beyond < 10:
        notes.append(f"warning: fewer than 10 samples beyond p{level}")
    return metrics, res, notes


def traced(wl, tmp: Path, seed: int) -> tuple[dict, Pass, list[str]]:
    """Up to ten operations of the first cycle warm the interpreter up.  Then
    every operation of the next ``traced_cycles`` cycles runs untraced and at
    once again traced, each side on its own set-up, so the counts repeat
    exactly for a seed and both sides of the overhead see the same machine."""
    plain = Api()
    warm = wl.setup(plain, tmp)
    for op in wl.cycle(0)[:10]:
        run_op(wl, plain, warm, op, Pass())
    tracer = Tracer()
    api = Api(tracer)
    plain_state, traced_state = wl.setup(plain, tmp), wl.setup(api, tmp)
    first, second = Pass(), Pass()
    for c in range(1, wl.params["traced_cycles"] + 1):
        for op in wl.cycle(c):
            run_op(wl, plain, plain_state, op, first)
            with traced_cli(api):
                run_op(wl, api, traced_state, op, second)
    overhead = sum(second.latencies) / sum(first.latencies) - 1
    metrics = layer_metrics(tracer, overhead)
    tracer.write(ROOT / ".bench_out" / f"spans-{wl.name}-seed{seed}.jsonl")

    group = wl.params["predicted_dominant"]
    layers = layer_self_seconds(tracer, group)
    top = max(layers, key=layers.get)
    busy = sum(second.latencies)
    notes = [f"traced {second.ops} operations ({len(tracer.start)} spans), overhead {overhead:.3f}"]
    notes += [f"  self time {k}: {v:.4f} s ({v / busy:.1%})"
              for k, v in sorted(layers.items(), key=lambda kv: -kv[1])]
    verdict = "holds" if top == group else f"does not hold: {top} is larger"
    notes.append(f"prediction: {group} has the largest self time on {wl.name}: {verdict}")
    both = Pass()
    both.ops = first.ops + second.ops
    both.failures = first.failures + second.failures
    both.unexpected = first.unexpected + second.unexpected
    return metrics, both, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](SPEC["workloads"][args.workload], args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        if args.trace:
            metrics, res, notes = traced(wl, Path(tmp), args.seed)
        else:
            metrics, res, notes = untraced(wl, args.seconds, Path(tmp))

    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": res.unexpected == 0,
        "attempted": res.ops,
        "failed": len(res.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
