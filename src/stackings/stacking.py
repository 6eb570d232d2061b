"""Stacking structures, bounded flow functions, and their verification.

A stacking structure packages a normal-form oracle, a stacking map ``phi``
defined on recursive edges, and a length bound ``k``.  The induced flow
function fixes tree (degenerate) edges and sends a recursive edge to the
path from its source labeled by ``phi``.  The stacking reduction procedure
rewrites the leftmost letter sitting on a recursive edge until none
remains, then freely reduces; for a valid structure the result is the
normal form and its prefixes are again normal forms.

The (F2r) well-foundedness axiom is not finitely decidable; the verifier
reports acyclicity of the flow relation restricted to a finite ball, which
refutes (F2r) on a cycle but is otherwise necessary-only evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .cayley import Ball, DirectedEdge, EdgeKind, alpha, classify
from .errors import BudgetExceededError, StructureError
from .rewriting import DEFAULT_BUDGET
from .words import Alphabet, Word, symmetrized_closure

__all__ = [
    "StackingStructure",
    "FlowFunction",
    "stacking_reduce",
    "stacking_reduce_steps",
    "stacking_relation_set",
    "s_phi_membership",
    "word_problem_via_stacking",
    "FlowReport",
    "GeodesicReport",
    "verify_flow_properties",
    "verify_geodesic_stacking",
]


@dataclass
class StackingStructure:
    """Normal-form oracle plus stacking map with bound ``k``.

    ``phi_fn(y_g, a)`` receives the canonical word of the source and the
    edge label and is consulted only on recursive edges.  Oracles must be
    pure; normal forms are memoized internally.
    """

    alphabet: Alphabet
    normal_form_fn: Callable[[Word], Word]
    phi_fn: Callable[[Word, int], Word]
    bound_k: int
    name: str = ""
    _nf_cache: dict[tuple[int, ...], Word] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.normal_form(self.alphabet.empty())) != 0:
            raise StructureError("normal form of the empty word must be empty")

    def normal_form(self, w: Word) -> Word:
        cached = self._nf_cache.get(w.letters)
        if cached is None:
            cached = self.normal_form_fn(w)
            self._nf_cache[w.letters] = cached
        return cached

    def in_normal_forms(self, w: Word) -> bool:
        return self.normal_form(w) == w

    def is_degenerate(self, w: Word, a: int) -> bool:
        y = self.normal_form(w)
        return classify(y, a, self.normal_form(y.append(a))) is EdgeKind.DEGENERATE

    def phi(self, w: Word, a: int) -> Word:
        """Stacking map image for the recursive edge from rep(w) labeled a."""
        y = self.normal_form(w)
        if self.is_degenerate(y, a):
            raise StructureError(f"phi undefined on degenerate edge ({y}, {self.alphabet.tokens[a]})")
        img = self.phi_fn(y, a)
        if img.letters == (a,):
            raise StructureError(
                f"phi on ({y}, {self.alphabet.tokens[a]}) returned the edge label itself"
            )
        return img


@dataclass
class FlowFunction:
    """Total extension of the stacking map: identity on tree edges."""

    structure: StackingStructure

    @property
    def bound_k(self) -> int:
        return self.structure.bound_k

    def label(self, w: Word, a: int) -> Word:
        """The word labeling the flow path of the edge from rep(w) by a."""
        s = self.structure
        if s.is_degenerate(w, a):
            return s.alphabet.letter(a)
        return s.phi(w, a)

    def path(self, w: Word, a: int) -> list[tuple[Word, int]]:
        """Edges of the flow path as (source canonical, label) pairs."""
        s = self.structure
        y = s.normal_form(w)
        out: list[tuple[Word, int]] = []
        for b in self.label(y, a):
            out.append((y, b))
            y = s.normal_form(y.append(b))
        return out


def stacking_reduce(
    s: StackingStructure, w: Word, budget: int = DEFAULT_BUDGET
) -> Word:
    """Normal form of ``w`` by the stacking reduction procedure.

    Repeatedly replaces the leftmost letter lying on a recursive edge by its
    phi image, then freely reduces.  The result is cross-checked against the
    normal-form oracle.
    """
    return stacking_reduce_steps(s, w, budget)[0]


def stacking_reduce_steps(
    s: StackingStructure, w: Word, budget: int = DEFAULT_BUDGET
) -> tuple[Word, int]:
    """As :func:`stacking_reduce`, also returning the number of rewrite steps."""
    letters = list(w.letters)
    alphabet = s.alphabet
    prefix_forms: list[Word] = [alphabet.empty()]  # canonical forms y_{w[:pos]}
    pos = 0
    steps = 0
    while pos < len(letters):
        y = prefix_forms[pos]
        a = letters[pos]
        y_next = s.normal_form(y.append(a))
        if classify(y, a, y_next) is EdgeKind.DEGENERATE:
            prefix_forms.append(y_next)
            pos += 1
            continue
        img = s.phi(y, a)
        letters[pos : pos + 1] = list(img.letters)
        steps += 1
        if steps > budget:
            raise BudgetExceededError(
                f"well-foundedness violated within budget on {w!r}"
            )
    result = Word(alphabet, tuple(letters)).free_reduce()
    expected = s.normal_form(w)
    if result != expected:
        raise StructureError(
            f"stacking reduction produced {result} but oracle says {expected}"
        )
    return result, steps


def word_problem_via_stacking(
    s: StackingStructure, w: Word, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff ``w`` represents the identity."""
    return len(stacking_reduce(s, w, budget)) == 0


def stacking_relation_set(
    s: StackingStructure, edge_sample: Iterable[tuple[Word, int]]
) -> set[Word]:
    """Closure of { phi(e) a^{-1} } over the sampled recursive edges, given
    as (source word, letter) pairs, under inversion, cyclic conjugation, and
    free reduction, except the empty word.

    The image set is finite but not effectively enumerable from the oracles
    alone, hence the explicit sample.  Every member has length <= k + 1.
    """
    seeds: list[Word] = []
    for src, a in edge_sample:
        img = s.phi(src, a)
        seeds.append((img.append(s.alphabet.inv(a))).free_reduce())
    closed = symmetrized_closure(seeds)
    for r in closed:
        if len(r) > s.bound_k + 1:
            raise StructureError(f"relator {r} longer than k+1 = {s.bound_k + 1}")
    return closed


def s_phi_membership(s: StackingStructure, w: Word, a: int, x: Word) -> bool:
    """Membership in the decision set: x is the flow label of the edge from
    rep(w) by a (the letter itself on degenerate edges, phi otherwise)."""
    return x == FlowFunction(s).label(w, a)


# ---------------------------------------------------------------------------
# Verification on finite balls.


def _edge_name(alphabet: Alphabet, src: Word, a: int) -> dict:
    return {"source": str(src), "label": alphabet.tokens[a]}


@dataclass
class FlowReport:
    radius: int
    k: int
    edges_checked: int = 0
    f1_failures: list[dict] = field(default_factory=list)
    f2d_failures: list[dict] = field(default_factory=list)
    bound_failures: list[dict] = field(default_factory=list)
    strictness_failures: list[dict] = field(default_factory=list)
    cycle: list[dict] | None = None
    inconclusive: int = 0

    @property
    def passed(self) -> bool:
        return not (
            self.f1_failures
            or self.f2d_failures
            or self.bound_failures
            or self.strictness_failures
            or self.cycle is not None
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "radius": self.radius,
                "k": self.k,
                "passed": self.passed,
                "edges_checked": self.edges_checked,
                "inconclusive": self.inconclusive,
                "F1_failures": self.f1_failures,
                "F2d_failures": self.f2d_failures,
                "bound_failures": self.bound_failures,
                "strictness_failures": self.strictness_failures,
                "flow_cycle": self.cycle,
            },
            indent=2,
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"flow axioms on B({self.radius}) with k={self.k}: {status} "
            f"({self.edges_checked} edges, {len(self.f1_failures)} F1, "
            f"{len(self.f2d_failures)} F2d, {len(self.bound_failures)} bound, "
            f"{len(self.strictness_failures)} strictness failures, "
            f"cycle={'yes' if self.cycle else 'no'}, "
            f"{self.inconclusive} inconclusive)"
        )


def _region_path(region: Ball, src: Word, label: Word) -> list[DirectedEdge] | None:
    """The path from ``src`` spelling ``label`` as region edges, or None if
    it leaves the region."""
    edges: list[DirectedEdge] = []
    y = src
    for b in label:
        e = region.edge(y, b)
        if e is None:
            return None
        edges.append(e)
        y = e.target.canonical
    return edges


def verify_flow_properties(
    flow: FlowFunction, ball: Ball, region: Ball | None = None
) -> FlowReport:
    """Check (F1), (F2d), boundedness, phi strictness, and ball-restricted
    acyclicity of the flow relation.

    ``region`` must be a larger explored ball containing the flow paths of
    the ball's edges; edges whose path escapes it are reported as
    inconclusive, not failed.  Acyclicity on a finite ball is necessary-only
    evidence for (F2r); a cycle is a definite refutation.
    """
    s = flow.structure
    region = region or ball
    report = FlowReport(radius=ball.radius, k=s.bound_k)
    # Each edge's flow label and region path, computed once for both passes.
    flow_paths: dict[tuple[tuple[int, ...], int], tuple[Word, list[DirectedEdge] | None]] = {}

    def label_and_path(src: Word, a: int) -> tuple[Word, list[DirectedEdge] | None]:
        key = (src.letters, a)
        if key not in flow_paths:
            label = flow.label(src, a)
            flow_paths[key] = label, _region_path(region, src, label)
        return flow_paths[key]

    for e in ball.edges:
        report.edges_checked += 1
        src, a = e.source.canonical, e.label
        name = _edge_name(s.alphabet, src, a)
        label, path = label_and_path(src, a)
        if e.classification is EdgeKind.DEGENERATE:
            if label.letters != (a,):
                report.f2d_failures.append(name)
                continue
        else:
            if label.letters == (a,):
                report.strictness_failures.append(name)
            if len(label) > s.bound_k:
                report.bound_failures.append(name)
        # (F1): the path starts at the source and ends at the target.
        end = s.normal_form(src * label)
        if end != e.target.canonical:
            report.f1_failures.append(name)
        if path is None:
            report.inconclusive += 1

    # Flow relation restricted to recursive edges explored in the region.
    successors: dict[tuple[tuple[int, ...], int], list[tuple[tuple[int, ...], int]]] = {}
    for e in region.edges:
        if e.classification is not EdgeKind.RECURSIVE:
            continue
        key = (e.source.canonical.letters, e.label)
        _, path = label_and_path(e.source.canonical, e.label)
        if path is None:
            successors[key] = []
            continue
        successors[key] = [
            (p.source.canonical.letters, p.label)
            for p in path
            if p.classification is EdgeKind.RECURSIVE
        ]

    color: dict[tuple[tuple[int, ...], int], int] = {}
    stack_trace: list[tuple[tuple[int, ...], int]] = []

    def visit(node) -> list | None:
        color[node] = 1
        stack_trace.append(node)
        for nxt in successors.get(node, ()):
            c = color.get(nxt, 0)
            if c == 1:
                return stack_trace[stack_trace.index(nxt) :]
            if c == 0:
                cyc = visit(nxt)
                if cyc is not None:
                    return cyc
        stack_trace.pop()
        color[node] = 2
        return None

    for node in successors:
        if color.get(node, 0) == 0:
            cyc = visit(node)
            if cyc is not None:
                report.cycle = [
                    _edge_name(s.alphabet, Word(s.alphabet, ltrs), a)
                    for ltrs, a in cyc
                ]
                break
    return report


@dataclass
class GeodesicReport:
    radius: int
    k: int
    elements_checked: int = 0
    edges_checked: int = 0
    nongeodesic: list[str] = field(default_factory=list)
    alpha_failures: list[dict] = field(default_factory=list)
    inconclusive: int = 0

    @property
    def passed(self) -> bool:
        return not (self.nongeodesic or self.alpha_failures)

    def to_json(self) -> str:
        return json.dumps(
            {
                "radius": self.radius,
                "k": self.k,
                "passed": self.passed,
                "elements_checked": self.elements_checked,
                "edges_checked": self.edges_checked,
                "nongeodesic_normal_forms": self.nongeodesic,
                "alpha_failures": self.alpha_failures,
                "inconclusive": self.inconclusive,
            },
            indent=2,
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"geodesic stacking on B({self.radius}): {status} "
            f"({self.elements_checked} elements, {self.edges_checked} recursive edges, "
            f"{len(self.nongeodesic)} non-geodesic normal forms, "
            f"{len(self.alpha_failures)} alpha violations, "
            f"{self.inconclusive} inconclusive)"
        )


def verify_geodesic_stacking(
    flow: FlowFunction, ball: Ball, region: Ball | None = None
) -> GeodesicReport:
    """Check that normal forms are geodesic and that the edge weight alpha
    strictly decreases along the flow on recursive edges."""
    s = flow.structure
    region = region or ball
    report = GeodesicReport(radius=ball.radius, k=s.bound_k)

    for g in ball.sorted_elements():
        report.elements_checked += 1
        if len(g.canonical) != g.distance:
            report.nongeodesic.append(
                f"{g.canonical} has length {len(g.canonical)} but distance {g.distance}"
            )

    for e in ball.edges:
        if e.classification is not EdgeKind.RECURSIVE:
            continue
        report.edges_checked += 1
        src = e.source.canonical
        path = _region_path(region, src, flow.label(src, e.label))
        if path is None:
            report.inconclusive += 1
            continue
        for p in path:
            if p.classification is EdgeKind.RECURSIVE and not alpha(p) < alpha(e):
                report.alpha_failures.append(
                    {
                        "edge": _edge_name(s.alphabet, e.source.canonical, e.label),
                        "path_edge": _edge_name(
                            s.alphabet, p.source.canonical, p.label
                        ),
                        "alpha_edge": str(alpha(e)),
                        "alpha_path_edge": str(alpha(p)),
                    }
                )
    return report
