"""Command-line front end.

Commands: nf, wp, vkd, verify, ac-check, thompson-nf, export-ball.
Structures are addressed by name: ``bs1p:<p>``, ``crs:<file>`` and
``shortlex-ac:<file>:<radius>:<k>`` (the file holds a rewriting system used
as the word-problem oracle).

Exit codes: 0 success/true, 1 false/verification failed, 2 precondition
violation, 3 budget exceeded, 4 internal validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .builtin import (
    almost_convexity_check,
    bs1p_structure,
    crs_structure,
    shortlex_ac_structure,
    thompson_alphabet,
    thompson_f_in_C,
)
from .cayley import ball_to_json, build_ball
from .errors import (
    AlmostConvexityError,
    BudgetExceededError,
    DiagramError,
    FormatError,
    OutsideExploredRegionError,
    StackingsError,
    StructureError,
)
from .rewriting import DEFAULT_BUDGET, load_rewriting_system
from .stacking import (
    FlowFunction,
    StackingStructure,
    stacking_reduce_steps,
    stacking_relation_set,
    verify_flow_properties,
    verify_geodesic_stacking,
)
from .vankampen import build_filling_diagram, export_diagram, validate_diagram
from .words import Word

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_VALIDATION = 4


def resolve_structure(spec: str, budget: int = DEFAULT_BUDGET) -> StackingStructure:
    """Builtin stacking structure named by a CLI spec string."""
    if spec.startswith("bs1p:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"bad structure spec {spec!r}") from None
        return bs1p_structure(p)
    if spec.startswith("crs:"):
        return _crs_from_file(spec.split(":", 1)[1], budget)
    if spec.startswith("shortlex-ac:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise FormatError(
                f"bad structure spec {spec!r}; expected shortlex-ac:<file>:<radius>:<k>"
            )
        _, path, radius, k = parts
        try:
            radius_i, k_i = int(radius), int(k)
        except ValueError:
            raise FormatError(f"bad structure spec {spec!r}") from None
        return shortlex_ac_structure(_crs_from_file(path, budget), radius_i, k_i)
    raise FormatError(f"unknown structure spec {spec!r}")


def _crs_from_file(path: str, budget: int) -> StackingStructure:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None
    return crs_structure(load_rewriting_system(text), budget)


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        Path(out).write_bytes(data)


def _write_report(report, path: str | None) -> None:
    """Write ``report``, a dict or a record with ``to_json``, to ``path``
    as JSON; encode nothing when no path is given."""
    if path is not None:
        text = json.dumps(report, indent=2) if isinstance(report, dict) else report.to_json()
        Path(path).write_text(text + "\n")


def cmd_nf(args) -> int:
    s = resolve_structure(args.structure, args.budget)
    nf, steps = stacking_reduce_steps(s, s.alphabet.word(args.word), args.budget)
    text = str(nf)
    print(text)
    print(f"steps: {steps}")
    _write_report({"normal_form": text, "steps": steps}, args.report)
    return EXIT_OK


def cmd_wp(args) -> int:
    s = resolve_structure(args.structure, args.budget)
    nf, steps = stacking_reduce_steps(s, s.alphabet.word(args.word), args.budget)
    trivial = len(nf) == 0
    print("trivial" if trivial else "nontrivial")
    _write_report({"trivial": trivial, "normal_form": str(nf), "steps": steps}, args.report)
    return EXIT_OK if trivial else EXIT_FALSE


def cmd_vkd(args) -> int:
    s = resolve_structure(args.structure, args.budget)
    w = s.alphabet.word(args.word)
    nf, _ = stacking_reduce_steps(s, w, args.budget)
    if len(nf) != 0:
        print(f"word is not trivial: normal form {nf}", file=sys.stderr)
        return EXIT_PRECONDITION
    memo: dict = {}
    d = build_filling_diagram(s, w, memo=memo, budget=args.budget)
    relators = stacking_relation_set(
        s, [(Word(s.alphabet, src), a) for (src, a), _ in memo.values()]
    )
    report = validate_diagram(d, relators, w, s)
    _write_report(report, args.report)
    if not report.passed:
        print(report.summary(), file=sys.stderr)
        return EXIT_VALIDATION
    _write_output(export_diagram(d, args.format), args.out)
    print(f"faces: {len(d.faces)}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    s = resolve_structure(args.structure, args.budget)
    flow = FlowFunction(s)
    region = build_ball(s, args.radius + 1)
    ball = region.restricted(args.radius)
    report = verify_flow_properties(flow, ball, region)
    print(report.summary())
    passed = report.passed
    if args.structure.startswith("shortlex-ac:"):
        geo = verify_geodesic_stacking(flow, ball, region)
        print(geo.summary())
        passed = passed and geo.passed
        if args.report is not None:
            report = {
                "passed": passed,
                "flow": json.loads(report.to_json()),
                "geodesic": json.loads(geo.to_json()),
            }
    _write_report(report, args.report)
    return EXIT_OK if passed else EXIT_FALSE


def cmd_ac_check(args) -> int:
    s = resolve_structure(args.structure, args.budget)
    report = almost_convexity_check(s, args.radius, args.k)
    print(report.summary())
    _write_report(report, args.report)
    return EXIT_OK if report.passed else EXIT_FALSE


def cmd_thompson_nf(args) -> int:
    accepted = thompson_f_in_C(thompson_alphabet().word(args.word))
    print("accepted" if accepted else "rejected")
    _write_report({"accepted": accepted}, args.report)
    return EXIT_OK if accepted else EXIT_FALSE


def cmd_export_ball(args) -> int:
    ball = build_ball(resolve_structure(args.structure, args.budget), args.radius)
    _write_output((ball_to_json(ball) + "\n").encode(), args.out)
    report = {"radius": ball.radius, "elements": len(ball.elements), "edges": len(ball.edges)}
    _write_report(report, args.report)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first one.  Each
    subcommand's ``fn`` is its ``cmd_*`` function, which looks up the
    library names it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="stackings",
        description="Stackable structures: normal forms, van Kampen diagrams, "
        "flow-function verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, structure=True, word=False, radius=False):
        if structure:
            p.add_argument("--structure", required=True, help="bs1p:<p> | crs:<file> | shortlex-ac:<file>:<radius>:<k>")
        if word:
            p.add_argument("--word", required=True, help="quoted whitespace-separated tokens")
        if radius:
            p.add_argument("--radius", type=int, required=True)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--report", default=None, help="write full JSON report here")

    p = sub.add_parser("nf", help="normal form by stacking reduction")
    common(p, word=True)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("wp", help="word problem: trivial (exit 0) or not (exit 1)")
    common(p, word=True)
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("vkd", help="build and export a van Kampen filling diagram")
    common(p, word=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=["json", "dot", "svg"])
    p.set_defaults(fn=cmd_vkd)

    p = sub.add_parser("verify", help="verify flow-function axioms on a ball")
    common(p, radius=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ac-check", help="almost convexity check on spheres")
    common(p, radius=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_ac_check)

    p = sub.add_parser("thompson-nf", help="Thompson's F normal-form language membership")
    common(p, structure=False, word=True)
    p.set_defaults(fn=cmd_thompson_nf)

    p = sub.add_parser("export-ball", help="dump a Cayley ball as JSON")
    common(p, radius=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export_ball)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.budget <= 0:
        print("budget must be positive", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, OutsideExploredRegionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (StructureError, DiagramError, AlmostConvexityError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StackingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
