"""Finite balls of a Cayley graph built from a normal-form oracle.

Elements are keyed by their canonical (normal form) word, so construction is
deterministic and the oracle is queried once per frontier element and letter.
Edges are classified as degenerate or recursive relative to the oracle's
normal form set: degenerate edges are exactly those whose endpoints' normal
forms differ by appending one letter, and they make up the spanning tree
determined by a prefix-closed normal form set.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Protocol, runtime_checkable

from .errors import StackingsError, StructureError
from .words import Alphabet, Word

__all__ = [
    "NormalFormOracle",
    "FunctionOracle",
    "free_group_oracle",
    "GroupElement",
    "EdgeKind",
    "DirectedEdge",
    "Ball",
    "build_ball",
    "classify",
    "alpha",
    "tree_path",
    "ball_to_json",
]


@runtime_checkable
class NormalFormOracle(Protocol):
    """Anything that maps a word to the canonical word of its group element."""

    alphabet: Alphabet

    def normal_form(self, w: Word) -> Word: ...


@dataclass(frozen=True)
class FunctionOracle:
    alphabet: Alphabet
    fn: Callable[[Word], Word]

    def normal_form(self, w: Word) -> Word:
        return self.fn(w)


def free_group_oracle(alphabet: Alphabet) -> FunctionOracle:
    """Free reduction as a normal-form oracle (free group on the pairs)."""
    return FunctionOracle(alphabet, lambda w: w.free_reduce())


@dataclass(frozen=True)
class GroupElement:
    canonical: Word
    distance: int


class EdgeKind(enum.Enum):
    DEGENERATE = "degenerate"
    RECURSIVE = "recursive"


@dataclass(frozen=True)
class DirectedEdge:
    source: GroupElement
    label: int
    target: GroupElement
    classification: EdgeKind

    def reversed(self) -> "DirectedEdge":
        inv = self.source.canonical.alphabet.inv(self.label)
        return DirectedEdge(self.target, inv, self.source, self.classification)

    def __str__(self) -> str:
        tok = self.source.canonical.alphabet.tokens[self.label]
        return f"({self.source.canonical} --{tok}--> {self.target.canonical})"


def classify(y_g: Word, label: int, y_ga: Word) -> EdgeKind:
    """Degenerate iff y_g a = y_{ga} or y_g = y_{ga} a^{-1} as words."""
    if y_g.append(label) == y_ga:
        return EdgeKind.DEGENERATE
    if y_g == y_ga.append(y_g.alphabet.inv(label)):
        return EdgeKind.DEGENERATE
    return EdgeKind.RECURSIVE


@dataclass
class Ball:
    """The exact metric ball B(radius) with all edges between its elements.

    ``tree_parent`` maps a non-identity element to the degenerate edge from
    its normal form's one-letter-shorter prefix; entries exist only when
    that prefix element also lies in the ball (always, when normal forms
    are geodesic).
    """

    radius: int
    alphabet: Alphabet
    elements: dict[tuple[int, ...], GroupElement]
    edges: list[DirectedEdge]
    edge_index: dict[tuple[tuple[int, ...], int], DirectedEdge]
    tree_parent: dict[tuple[int, ...], DirectedEdge] = field(default_factory=dict)

    def element(self, canonical: Word) -> GroupElement:
        try:
            return self.elements[canonical.letters]
        except KeyError:
            raise StackingsError(f"element {canonical} not in ball") from None

    def __contains__(self, canonical: Word) -> bool:
        return canonical.letters in self.elements

    def edge(self, source: Word, label: int) -> DirectedEdge | None:
        return self.edge_index.get((source.letters, label))

    def sphere(self, n: int) -> list[GroupElement]:
        return [g for g in self.sorted_elements() if g.distance == n]

    def sorted_elements(self) -> list[GroupElement]:
        return sorted(self.elements.values(), key=lambda g: g.canonical.shortlex_key())


def build_ball(oracle: NormalFormOracle, n: int, max_elements: int = 10**6) -> Ball:
    """Breadth-first construction of B(n); distances are exact graph metric."""
    alphabet = oracle.alphabet
    root = oracle.normal_form(alphabet.empty())
    if len(root) != 0:
        raise StructureError("normal form of the empty word must be empty")

    elements: dict[tuple[int, ...], GroupElement] = {(): GroupElement(alphabet.empty(), 0)}
    frontier = [alphabet.empty()]
    for dist in range(1, n + 1):
        nxt: list[Word] = []
        for y in sorted(frontier, key=Word.shortlex_key):
            for a in range(len(alphabet)):
                target = oracle.normal_form(y.append(a))
                if target.letters not in elements:
                    if len(elements) >= max_elements:
                        raise StackingsError(
                            f"memory cap of {max_elements} elements exceeded"
                        )
                    elements[target.letters] = GroupElement(target, dist)
                    nxt.append(target)
        frontier = nxt

    edges: list[DirectedEdge] = []
    edge_index: dict[tuple[tuple[int, ...], int], DirectedEdge] = {}
    for g in sorted(elements.values(), key=lambda e: e.canonical.shortlex_key()):
        for a in range(len(alphabet)):
            y_ga = oracle.normal_form(g.canonical.append(a))
            target = elements.get(y_ga.letters)
            if target is None:
                continue
            e = DirectedEdge(g, a, target, classify(g.canonical, a, y_ga))
            edges.append(e)
            edge_index[(g.canonical.letters, a)] = e

    tree_parent: dict[tuple[int, ...], DirectedEdge] = {}
    for g in elements.values():
        if len(g.canonical) == 0:
            continue
        prefix = g.canonical[: len(g.canonical) - 1]
        e = edge_index.get((prefix.letters, g.canonical.letters[-1]))
        if e is not None:
            if e.classification is not EdgeKind.DEGENERATE:
                raise StructureError(f"prefix edge {e} is not degenerate")
            tree_parent[g.canonical.letters] = e

    return Ball(n, alphabet, elements, edges, edge_index, tree_parent)


def alpha(e: DirectedEdge) -> Fraction:
    """Average distance of the edge's endpoints to the identity; lies in
    the half-integers."""
    return Fraction(e.source.distance + e.target.distance, 2)


def tree_path(ball: Ball, g: GroupElement) -> Word:
    """Spell the normal form of g by following tree-parent edges to the
    identity; agrees with g's canonical word."""
    letters: list[int] = []
    cur = g
    while len(cur.canonical) != 0:
        e = ball.tree_parent.get(cur.canonical.letters)
        if e is None:
            raise StackingsError(
                f"tree parent of {cur.canonical} not explored in this ball"
            )
        letters.append(e.label)
        cur = e.source
    word = Word(ball.alphabet, tuple(reversed(letters)))
    if word != g.canonical:
        raise StructureError(f"tree path {word} disagrees with canonical {g.canonical}")
    return word


def ball_to_json(ball: Ball) -> str:
    """Debug dump: elements with distances, edges with classifications."""
    data = {
        "radius": ball.radius,
        "generators": list(ball.alphabet.tokens),
        "elements": [
            {"word": str(g.canonical), "distance": g.distance}
            for g in ball.sorted_elements()
        ],
        "edges": [
            {
                "source": str(e.source.canonical),
                "label": ball.alphabet.tokens[e.label],
                "target": str(e.target.canonical),
                "classification": e.classification.value,
            }
            for e in sorted(
                ball.edges,
                key=lambda e: (e.source.canonical.shortlex_key(), e.label),
            )
        ],
    }
    return json.dumps(data, indent=2)
