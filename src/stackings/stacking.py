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
from typing import Callable, Hashable, Iterable, NamedTuple

from .cayley import (
    Ball,
    DirectedEdge,
    EdgeKind,
    FunctionOracle,
    NormalFormTree,
    alpha,
)
from .errors import BudgetExceededError, StructureError
from .rewriting import DEFAULT_BUDGET
from .words import Alphabet, Word, symmetrized_closure

__all__ = [
    "StackingStructure",
    "FlowFunction",
    "stacking_reduce_steps",
    "stacking_relation_set",
    "FlowReport",
    "GeodesicReport",
    "verify_flow_properties",
    "verify_geodesic_stacking",
]


@dataclass
class StackingStructure:
    """Normal-form oracle plus stacking map with bound ``k``.

    ``phi_fn(node, a)`` receives the ``tree`` node of the source and the
    edge label and is consulted only on recursive edges.  Without a
    ``tree``, the tree is the :class:`FunctionOracle` of ``normal_form_fn``,
    looked up on each call.  Oracles must be pure; word-level normal forms
    are the tree's, and the tree keeps them.
    """

    alphabet: Alphabet
    normal_form_fn: Callable[[Word], Word]
    phi_fn: Callable[[Hashable, int], Word]
    bound_k: int
    name: str = ""
    tree: NormalFormTree | None = field(default=None, repr=False)
    # (node, a) -> rewrite steps, of each recursive edge whose reduction ended at its target
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tree is None:
            self.tree = FunctionOracle(self.alphabet, lambda w: self.normal_form_fn(w))

    def normal_form(self, w: Word) -> Word:
        return self.tree.normal_form(w)

    def is_degenerate(self, w: Word, a: int) -> bool:
        tree = self.tree
        return tree.move(tree.node(w), a)[1]

    def phi(self, w: Word, a: int) -> Word:
        """Stacking map image for the recursive edge from rep(w) labeled a."""
        tree = self.tree
        y = tree.node(w)
        if tree.move(y, a)[1]:
            raise StructureError(
                f"phi undefined on degenerate edge ({tree.word(y)}, {self.alphabet.tokens[a]})"
            )
        return self.phi_at(y, a)

    def phi_at(self, y: Hashable, a: int) -> Word:
        """``phi_fn`` on the recursive edge from the tree node ``y`` by
        ``a``; an image that is empty or the edge label itself is refused."""
        img = self.phi_fn(y, a)
        if img.letters in ((), (a,)):
            got = "the edge label itself" if img.letters else "the empty word"
            raise StructureError(
                f"phi on ({self.tree.word(y)}, {self.alphabet.tokens[a]}) returned {got}"
            )
        return img


@dataclass
class FlowFunction:
    """Total extension of the stacking map: identity on tree edges.

    Verification keeps the label of each edge it meets by the source's tree
    node and the letter, so phi runs once per edge for all the checks made
    with one flow.
    """

    structure: StackingStructure
    _labels: dict[tuple[Hashable, int], Word] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def label(self, w: Word, a: int) -> Word:
        """The word labeling the flow path of the edge from rep(w) by a."""
        s = self.structure
        tree = s.tree
        y = tree.node(w)
        if tree.move(y, a)[1]:
            return s.alphabet.letter(a)
        return s.phi_at(y, a)

    def path(self, w: Word, a: int) -> list[tuple[Word, int]]:
        """Edges of the flow path as (source canonical, label) pairs."""
        s = self.structure
        y = s.normal_form(w)
        out: list[tuple[Word, int]] = []
        for b in self.label(y, a):
            out.append((y, b))
            y = s.normal_form(y.append(b))
        return out


def stacking_reduce_steps(
    s: StackingStructure, w: Word, budget: int = DEFAULT_BUDGET
) -> tuple[Word, int]:
    """Normal form of ``w`` by the stacking reduction procedure, and the
    number of rewrite steps; ``w`` is trivial exactly when the normal form
    is empty.

    Repeatedly replaces the leftmost letter lying on a recursive edge by its
    phi image, then freely reduces.  The result is cross-checked against the
    fold of the normal-form tree's ``step`` over ``w``.

    The letters read so far always spell a path of degenerate edges, so the
    loop keeps only the node at its end and a stack of unread letters, and
    spells a word once, for the result.  Each letter read costs one
    ``move`` of the tree, which gives both the next node and whether the
    edge is a tree edge; phi is asked only on a recursive one.  A word whose
    prefixes have normal forms too long to reach within ``budget`` steps is
    refused before the loop starts.

    The structure keeps the step count of each completed reduction of a
    recursive edge that ended at the edge's target, for one lookup the next
    time.  An image's letters are all read before any under them, so counts,
    errors and budget boundaries are the same on a cold structure and a warm
    one, and a cyclic flow, which completes none, still runs out of budget.
    Memory grows with the distinct recursive edges met.
    """
    tree, k = s.tree, s.bound_k
    move, depth = tree.move, tree.depth
    # Each letter read moves one edge of the tree and each step adds at most
    # k - 1 letters, so reaching the deepest prefix normal form takes more
    # than ``budget`` steps when it lies deeper than this.
    expected, deepest = tree.root, 0
    for expected in tree.walk(expected, w.letters):
        deepest = max(deepest, depth(expected))
    if deepest - len(w) > (k - 1) * budget:
        raise BudgetExceededError(
            f"stacking reduction needs more than {budget} steps on {w!r}: "
            f"a prefix has a normal form of length {deepest}"
        )
    phi_at, kept = s.phi_at, s._steps
    # each image pushed lies on a None, and its edge, prior steps and target on ``frames``
    unread: list[int | None] = list(reversed(w.letters))
    frames: list[tuple[tuple[Hashable, int], int, Hashable]] = []
    y = tree.root
    steps = 0
    while unread:
        a = unread.pop()
        if a is None:
            edge, before, target = frames.pop()
            if y == target:  # a run that ends elsewhere is taken again
                kept[edge] = steps - before
            continue
        y_next, tree_edge = move(y, a)
        if tree_edge:
            y = y_next
            continue
        n = kept.get((y, a))
        if n is None:
            img = phi_at(y, a)
            if len(img.letters) > k:
                raise StructureError(
                    f"phi on ({tree.word(y)}, {s.alphabet.tokens[a]}) returned {img}, "
                    f"longer than k = {k}"
                )
            frames.append(((y, a), steps, y_next))
            unread.append(None)
            unread.extend(reversed(img.letters))
            n = 1
        else:
            y = y_next
        steps += n
        if steps > budget:
            raise BudgetExceededError(
                f"well-foundedness violated within budget on {w!r}"
            )
    if y != expected:
        raise StructureError(
            f"stacking reduction produced {tree.word(y)} but oracle says "
            f"{tree.word(expected)}"
        )
    return tree.word(y), steps


def stacking_relation_set(
    s: StackingStructure, edge_sample: Iterable[tuple[Word, int]]
) -> set[Word]:
    """Closure of { phi(e) a^{-1} } over the sampled recursive edges, given
    as (source word, letter) pairs, under inversion, cyclic conjugation, and
    free reduction, except the empty word.

    The image set is finite but not effectively enumerable from the oracles
    alone, hence the explicit sample.  Every member has length <= k + 1.
    """
    # one seed per distinct (image, letter); every sampled edge is still checked
    images = dict.fromkeys((s.phi(src, a), a) for src, a in edge_sample)
    closed = symmetrized_closure(img.append(s.alphabet.inv(a)) for img, a in images)
    for r in closed:
        if len(r) > s.bound_k + 1:
            raise StructureError(f"relator {r} longer than k+1 = {s.bound_k + 1}")
    return closed


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


class _FlowEdge(NamedTuple):
    """The flow of one edge, on the structure's normal-form tree."""

    target: Hashable  # the node of its step by the edge's letter
    label: Word  # the letter itself on a degenerate edge, phi on a recursive one
    end: Hashable  # the node where the flow path from the edge's source ends
    path: list[DirectedEdge] | None  # the flow path's region edges; None if it leaves


def _flow_edges(flow: FlowFunction, region: Ball) -> Callable[[DirectedEdge], _FlowEdge]:
    """The flow of an edge of ``region``, or of a ball inside it, computed
    once per edge: the flow path from the source's node takes at most k
    steps, and the label is the flow's kept one if it has it.

    The region must be a ball of the structure's own normal forms.  Its
    edges are the steps its search took, so the path follows them while it
    stays in the region and calls ``step`` only beyond it.
    """
    s, labels = flow.structure, flow._labels
    tree, phi_fn = s.tree, s.phi_fn
    step, move, tree_node = tree.step, tree.move, tree.node
    letter = [s.alphabet.letter(a) for a in range(len(s.alphabet))]
    node = {key: tree_node(g.canonical) for key, g in region.elements.items()}
    steps = {}
    for e in region.edges:
        src, a, tgt, _ = e
        steps[node[src.canonical.letters], a] = e, node[tgt.canonical.letters]
    flows: dict[tuple[tuple[int, ...], int], _FlowEdge] = {}  # by the source's letters

    def flow_edge(e: DirectedEdge) -> _FlowEdge:
        src, a, tgt, _ = e
        key = src.canonical.letters, a
        f = flows.get(key)
        if f is not None:
            return f
        y = node.get(key[0])
        if y is None:
            y = tree_node(src.canonical)
        taken = steps.get((y, a))  # the region's own step, to the edge's target
        t = taken[1] if taken is not None else node.get(tgt.canonical.letters)
        if t is None:
            t = tree_node(tgt.canonical)
        label = labels.get((y, a))
        if label is None:
            label = labels[y, a] = letter[a] if move(y, a)[1] else phi_fn(y, a)
        end, path = y, []
        for b in label.letters:
            taken = steps.get((end, b)) if path is not None else None
            if taken is None:
                path = None
                end = step(end, b)
            else:
                path.append(taken[0])
                end = taken[1]
        f = flows[key] = tuple.__new__(_FlowEdge, (t, label, end, path))  # no Python __new__
        return f

    return flow_edge


def verify_flow_properties(
    flow: FlowFunction, ball: Ball, region: Ball
) -> FlowReport:
    """Check (F1), (F2d), boundedness, phi strictness, and ball-restricted
    acyclicity of the flow relation.

    ``region`` must be a larger explored ball containing the flow paths of
    the ball's edges; edges whose path escapes it are reported as
    inconclusive, not failed.  Acyclicity on a finite ball is necessary-only
    evidence for (F2r); a cycle is a definite refutation.  Both balls are
    balls of the structure's own normal forms.
    """
    s = flow.structure
    report = FlowReport(radius=ball.radius, k=s.bound_k)
    flow_edge = _flow_edges(flow, region)

    al = s.alphabet
    inconclusive = 0
    for e in ball.edges:
        src, a, _, kind = e
        target, label, end, path = flow_edge(e)
        letters = label.letters
        if kind is EdgeKind.DEGENERATE:
            if letters != (a,):
                report.f2d_failures.append(_edge_name(al, src.canonical, a))
                continue
        else:
            if letters == (a,):
                report.strictness_failures.append(_edge_name(al, src.canonical, a))
            if len(letters) > s.bound_k:
                report.bound_failures.append(_edge_name(al, src.canonical, a))
        # (F1): the path starts at the source and ends at the target.
        if end != target:
            report.f1_failures.append(_edge_name(al, src.canonical, a))
        if path is None:
            inconclusive += 1
    report.edges_checked = len(ball.edges)
    report.inconclusive = inconclusive

    # Flow relation restricted to recursive edges explored in the region.  A
    # flow path holds the region's own edge objects, so edges are keyed by id.
    recursive = EdgeKind.RECURSIVE
    edge = {id(e): e for e in region.edges if e.classification is recursive}
    successors = {
        i: [id(p) for p in flow_edge(e).path or () if p.classification is recursive]
        for i, e in edge.items()
    }
    cyc = _first_cycle(successors)
    if cyc is not None:
        report.cycle = [_edge_name(al, edge[i].source.canonical, edge[i].label) for i in cyc]
    return report


def _first_cycle(successors: dict) -> list | None:
    """The first cycle that a depth-first search of ``successors`` meets,
    from the node where it closes to the last node on the search's path.

    The search starts from each node in turn, in the dict's order, and keeps
    its path on an explicit stack, so a long flow chain needs no recursion.
    """
    state: dict = {}  # 1 while a node is on the path, 2 once it is done
    for start in successors:
        if start in state:
            continue
        state[start] = 1
        path, todo = [start], [iter(successors[start])]
        while todo:
            for nxt in todo[-1]:
                seen = state.get(nxt)
                if seen == 1:
                    return path[path.index(nxt) :]
                if seen is None:
                    state[nxt] = 1
                    path.append(nxt)
                    todo.append(iter(successors.get(nxt, ())))
                    break
            else:
                state[path.pop()] = 2
                todo.pop()
    return None


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
    flow: FlowFunction, ball: Ball, region: Ball
) -> GeodesicReport:
    """Check that normal forms are geodesic and that the edge weight alpha
    strictly decreases along the flow on recursive edges."""
    s = flow.structure
    report = GeodesicReport(radius=ball.radius, k=s.bound_k)
    flow_edge = _flow_edges(flow, region)

    report.elements_checked = len(ball.elements)
    for canonical, distance in ball.sorted_elements():
        if len(canonical) != distance:
            report.nongeodesic.append(
                f"{canonical} has length {len(canonical)} but distance {distance}"
            )

    for e in ball.edges:
        src, a, tgt, kind = e
        if kind is not EdgeKind.RECURSIVE:
            continue
        report.edges_checked += 1
        path = flow_edge(e).path
        if path is None:
            report.inconclusive += 1
            continue
        twice = src.distance + tgt.distance  # alpha(e) doubled
        for p in path:
            p_src, _, p_tgt, p_kind = p
            if p_kind is EdgeKind.RECURSIVE and p_src.distance + p_tgt.distance >= twice:
                report.alpha_failures.append(
                    {
                        "edge": _edge_name(s.alphabet, src.canonical, a),
                        "path_edge": _edge_name(s.alphabet, p_src.canonical, p.label),
                        "alpha_edge": str(alpha(e)),
                        "alpha_path_edge": str(alpha(p)),
                    }
                )
    return report
