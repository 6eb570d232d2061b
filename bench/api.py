"""The library entry points the workloads call, plain or traced.

``Api(None)`` hands out the library's own functions.  ``Api(tracer)`` hands
out the same functions with a span around each call, and instruments every
structure it builds: the structure's ``normal_form_fn`` and ``phi_fn`` get
spans, and its ``normal_form`` (the memoizing front) counts requests.
``traced_cli`` points the names that ``stackings.cli`` imported at the traced
versions for the length of a ``with`` block, so CLI calls are traced at the
same boundaries.
"""

from __future__ import annotations

from contextlib import contextmanager

import stackings
import stackings.cli

from spans import CLI_COMMANDS, Tracer

# Entry point -> span name, for the functions traced as they are.
SPANS = {
    "stacking_reduce_steps": "stacking.reduce",
    "verify_flow_properties": "stacking.verify",
    "verify_geodesic_stacking": "stacking.geodesic",
    "stacking_relation_set": "stacking.relators",
    "build_ball": "cayley.ball",
    "build_filling_diagram": "vankampen.build",
    "validate_diagram": "vankampen.validate",
    "export_diagram": "vankampen.export",
    "almost_convexity_check": "builtin.ac_check",
    "thompson_f_in_C": "builtin.thompson",
    "z2_system": "rewriting.load",
    "bs12_system": "rewriting.load",
    "load_rewriting_system": "rewriting.load",
}

# Structure constructors -> the layer that does a structure's normal-form work.
STRUCTURES = {
    "bs1p_structure": "builtin",
    "crs_structure": "rewriting",
    "shortlex_ac_structure": "builtin",
}


def _steps(t, idx, args, result):
    t.counts["stacking.reduce_steps"] += result[1]


def _inconclusive(t, idx, args, result):
    t.counts["stacking.inconclusive"] += result.inconclusive


def _ball(t, idx, args, result):
    t.counts["cayley.ball_elements"] += len(result.elements)
    t.counts["cayley.ball_edges"] += len(result.edges)


def _faces(t, idx, args, result):
    t.counts["vankampen.faces"] += len(result.faces)
    t.builds.append((idx, len(result.faces)))


def _exported(t, idx, args, result):
    t.counts["vankampen.export_bytes"] += len(result)


# Entry point -> what its result adds to the counters.
RECORDS = {
    "stacking_reduce_steps": _steps,
    "verify_flow_properties": _inconclusive,
    "verify_geodesic_stacking": _inconclusive,
    "build_ball": _ball,
    "build_filling_diagram": _faces,
    "export_diagram": _exported,
}


class Api:
    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        for name in (*SPANS, *STRUCTURES, "reduce_to_irreducible"):
            setattr(self, name, getattr(stackings, name))
        self.cli_main = stackings.cli.main
        if tracer is None:
            return
        for name, span in SPANS.items():
            setattr(self, name, tracer.wrap(span, getattr(stackings, name), RECORDS.get(name)))
        for name, layer in STRUCTURES.items():
            setattr(self, name, self._instrumented(getattr(stackings, name), layer))
        self.reduce_to_irreducible = self._nf(
            stackings.reduce_to_irreducible, "rewriting", word_arg=1, miss=False
        )
        self._cli = {
            cmd: tracer.wrap(f"cli.{cmd}", stackings.cli.main, self._record_cli(cmd))
            for cmd in CLI_COMMANDS
        }
        self.cli_main = lambda argv: self._cli[argv[0]](argv)

    def count(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.counts[name] += 1

    def begin_op(self) -> None:
        """Spans from here on belong to the next operation."""
        if self.tracer is not None:
            self.tracer.op_id = self.tracer.ops_begun
            self.tracer.ops_begun += 1

    def end_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id = -1

    @staticmethod
    def _record_cli(cmd: str):
        def record(t, idx, args, result):
            t.cli_calls.append((idx, cmd))

        return record

    def _nf(self, fn, layer: str, word_arg: int, miss: bool):
        """``fn`` traced as ``<layer>.nf``, counting the letters handed in
        and, for a structure's oracle, the memo misses that reached it."""

        def record(t, idx, args, result):
            t.counts[f"{layer}.nf_letters_in"] += len(args[word_arg])
            if miss:
                t.counts["stacking.nf_misses"] += 1

        return self.tracer.wrap(f"{layer}.nf", fn, record)

    def _instrumented(self, build, layer: str):
        """Constructor ``build``, traced, returning structures whose oracle
        calls are traced and whose memo requests are counted."""
        t = self.tracer
        traced_build = t.wrap("builtin.structure", build)

        def construct(*args, **kwargs):
            s = traced_build(*args, **kwargs)
            s.normal_form_fn = self._nf(s.normal_form_fn, layer, word_arg=0, miss=True)
            s.phi_fn = t.wrap("builtin.phi", s.phi_fn)
            memo_front = s.normal_form

            def normal_form(w):
                t.counts["stacking.nf_requests"] += 1
                return memo_front(w)

            s.normal_form = normal_form
            return s

        return construct


@contextmanager
def traced_cli(api: Api):
    """Route the library calls made by ``stackings.cli`` through ``api``."""
    if api.tracer is None:
        yield
        return
    names = [n for n in (*SPANS, *STRUCTURES, "reduce_to_irreducible") if hasattr(stackings.cli, n)]
    saved = {n: getattr(stackings.cli, n) for n in names}
    try:
        for n in names:
            setattr(stackings.cli, n, getattr(api, n))
        yield
    finally:
        for n, fn in saved.items():
            setattr(stackings.cli, n, fn)
