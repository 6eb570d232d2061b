"""Spans and counters recorded around the benchmark's calls into the library.

A span holds a name, a start and an end (``perf_counter_ns``), the span that
was open when it started, and the operation it belongs to.  Spans stay in
memory, in flat arrays, until the run ends.  Integer nanoseconds make self
time (duration minus the time the span's children cover) exact, so it is
never negative.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1  # the operation spans now belong to; -1 outside one
        self.ops_begun = 0
        self._open: list[int] = [-1]
        self.counts: Counter[str] = Counter()
        # (span index, faces) of every diagram build, for the per-face costs
        self.builds: list[tuple[int, int]] = []
        # (span index, command) of every CLI call, for per-command latency
        self.cli_calls: list[tuple[int, str]] = []

    def wrap(self, name: str, fn, record=None):
        """``fn`` with a span around each call.  ``record(tracer, index,
        args, result)`` runs after the span closes, so its cost is not
        charged to the layer."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.op.append(self.op_id)
            self.end.append(0)
            self._open.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._open.pop()
            if record is not None:
                record(self, idx, args, result)
            return result

        return traced

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def self_times(self) -> list[int]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, total ns, self ns)."""
        own = self.self_times()
        out = {name: [0, 0, 0] for name in self.names}
        for idx, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += self.end[idx] - self.start[idx]
            row[2] += own[idx]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """All spans as JSON lines, written once at the end of the run."""
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, nid in enumerate(self.name):
                fh.write(
                    json.dumps(
                        [idx, self.names[nid], self.start[idx], self.end[idx],
                         self.parent[idx], self.op[idx], own[idx]]
                    )
                    + "\n"
                )


CLI_COMMANDS = ("nf", "wp", "vkd", "verify", "ac-check", "thompson-nf", "export-ball")

# Diagrams with at most SMALL_AREA faces and with at least LARGE_AREA faces;
# the ratio of their build cost per face shows how construction scales.
SMALL_AREA = 64
LARGE_AREA = 250


def _per_face_us(tracer: Tracer, keep) -> float:
    ns = faces = 0
    for idx, f in tracer.builds:
        if f > 0 and keep(f):
            ns += tracer.duration(idx)
            faces += f
    return ns / faces / 1e3 if faces else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from one traced pass."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0, 0))[0]

    def secs(name):
        return tot.get(name, (0, 0, 0))[1] / 1e9

    def self_secs(name):
        return tot.get(name, (0, 0, 0))[2] / 1e9

    c = tracer.counts
    requests = c["stacking.nf_requests"]
    out: dict[str, tuple[float, str]] = {
        "builtin.nf_calls": (calls("builtin.nf"), "count"),
        "builtin.nf_s": (secs("builtin.nf"), "s"),
        "builtin.nf_letters_in": (c["builtin.nf_letters_in"], "count"),
        "builtin.phi_calls": (calls("builtin.phi"), "count"),
        "builtin.phi_s": (secs("builtin.phi"), "s"),
        "rewriting.nf_calls": (calls("rewriting.nf"), "count"),
        "rewriting.nf_s": (secs("rewriting.nf"), "s"),
        "rewriting.nf_letters_in": (c["rewriting.nf_letters_in"], "count"),
        "rewriting.load_s": (secs("rewriting.load"), "s"),
        "stacking.nf_requests": (requests, "count"),
        "stacking.nf_cache_hit_ratio": (
            1 - c["stacking.nf_misses"] / requests if requests else 0.0,
            "ratio",
        ),
        "stacking.reduce_s": (secs("stacking.reduce"), "s"),
        "stacking.reduce_self_s": (self_secs("stacking.reduce"), "s"),
        "stacking.reduce_steps": (c["stacking.reduce_steps"], "count"),
        "stacking.verify_s": (secs("stacking.verify"), "s"),
        "stacking.verify_self_s": (self_secs("stacking.verify"), "s"),
        "stacking.geodesic_s": (secs("stacking.geodesic"), "s"),
        "stacking.relators_s": (secs("stacking.relators"), "s"),
        "stacking.inconclusive": (c["stacking.inconclusive"], "count"),
        "cayley.ball_s": (secs("cayley.ball"), "s"),
        "cayley.ball_self_s": (self_secs("cayley.ball"), "s"),
        "cayley.ball_elements": (c["cayley.ball_elements"], "count"),
        "cayley.ball_edges": (c["cayley.ball_edges"], "count"),
        "vankampen.build_s": (secs("vankampen.build"), "s"),
        "vankampen.build_self_s": (self_secs("vankampen.build"), "s"),
        "vankampen.validate_s": (secs("vankampen.validate"), "s"),
        "vankampen.validate_self_s": (self_secs("vankampen.validate"), "s"),
        "vankampen.export_s": (secs("vankampen.export"), "s"),
        "vankampen.faces": (c["vankampen.faces"], "count"),
        "vankampen.export_bytes": (c["vankampen.export_bytes"], "bytes"),
        "vankampen.build_us_per_face.small": (
            _per_face_us(tracer, lambda f: f <= SMALL_AREA), "us"),
        "vankampen.build_us_per_face.large": (
            _per_face_us(tracer, lambda f: f >= LARGE_AREA), "us"),
        "cli.main_s": (sum(tracer.duration(i) for i, _ in tracer.cli_calls) / 1e9, "s"),
    }
    for cmd in CLI_COMMANDS:
        lat = [tracer.duration(i) / 1e6 for i, name in tracer.cli_calls if name == cmd]
        out[f"cli.{cmd}.p50_ms"] = (statistics.median(lat) if lat else 0.0, "ms")
    out["cli.exit_mismatches"] = (c["cli.exit_mismatches"], "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def layer_self_seconds(tracer: Tracer, group: str) -> dict[str, float]:
    """Self time by layer (the first part of a span name), with the spans
    named ``group`` or starting with ``group.`` counted apart under
    ``group``."""
    out: dict[str, float] = {}
    for name, (_, _, own) in tracer.totals().items():
        key = group if name == group or name.startswith(group + ".") else name.split(".")[0]
        out[key] = out.get(key, 0.0) + own / 1e9
    return out
