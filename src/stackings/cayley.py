"""Finite balls of a Cayley graph built from a normal-form oracle.

The normal forms of a stacking are prefix-closed, so they are the nodes of
the tree that the degenerate edges span (a :class:`NormalFormTree`).  A ball
is one breadth-first search over the nodes of such a tree: a stacking
structure's own, or a :class:`FunctionOracle`, the tree of the normal-form
words of a function.  The tree is moved once per element and letter, which
gives the edge's target and its kind.  An edge is degenerate when one
endpoint is the other's parent by the edge's letter, and recursive
otherwise.  Elements are keyed by their canonical (normal form) word, so
construction is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .errors import BudgetExceededError, OutsideExploredRegionError, StackingsError, StructureError
from .words import Alphabet, Word

__all__ = [
    "FunctionOracle",
    "NormalFormTree",
    "GroupElement",
    "EdgeKind",
    "DirectedEdge",
    "Ball",
    "build_ball",
    "alpha",
    "ball_to_json",
]


class NormalFormTree:
    """The normal forms of a stacking as the nodes of the tree that its
    degenerate edges span.

    Normal forms are prefix-closed, so every node but ``root`` is its
    ``parent`` followed by its ``last`` letter.  A subclass chooses the
    hashable nodes, equal exactly when their normal forms are, and gives
    the one primitive ``move(node, a)``: the node of the normal form of
    ``node`` times ``a``, with the kind of the edge, so whoever classifies
    an edge asks the tree once.  It also gives ``parent``, ``last`` and
    ``depth``; ``step(node, a)`` is the node of the move alone.  Every node
    spells its normal form as the tuple ``node.letters``.

    The tree is the memo of its normal forms.  ``word`` keeps the ``Word``
    of every node it spelled, so it spells each node once, and the node of
    that normal form; ``node`` keeps the node of each word it walked from
    the root.  The node of ``y a`` for a kept ``y`` is one ``step`` and is
    not kept, so a caller that keeps the words it asks (a
    :class:`FunctionOracle` over ``normal_form``) finds each kept once.  A
    tree whose steps spend a budget spends one budget on a whole ``walk``;
    a step from a kept prefix, the last step of that walk, spends no more.

    The tree also keeps, as ``_ball``, the largest ball that
    :func:`build_ball` searched on it.
    """

    def __init__(self, alphabet: Alphabet, root: Hashable) -> None:
        self.alphabet = alphabet
        self.root = root
        self._nodes: dict[tuple[int, ...], Hashable] = {(): root}
        self._words: dict[Hashable, Word] = {root: alphabet.empty()}
        self._ball: Ball | None = None

    def move(self, y, a: int) -> tuple:
        """``(node, tree_edge)``: the node of ``y`` times ``a``, and whether
        the edge is a tree (degenerate) edge, that node being the child of
        ``y`` by ``a`` or ``y`` the child of it by the inverse of ``a``."""
        raise NotImplementedError

    def step(self, y, a: int):
        return self.move(y, a)[0]

    def parent(self, node):
        """The node one letter shorter; None at the root."""
        raise NotImplementedError

    def last(self, node) -> int:
        raise NotImplementedError

    def depth(self, node) -> int:
        raise NotImplementedError

    def walk(self, node, letters: Iterable[int]) -> Iterator:
        """The nodes of ``node`` followed by each nonempty prefix of
        ``letters``, shortest first."""
        for a in letters:
            node = self.step(node, a)
            yield node

    def word(self, node) -> Word:
        """The normal form of ``node``; the same ``Word`` for every request."""
        y = self._words.get(node)
        if y is None:
            y = self._words[node] = Word(self.alphabet, node.letters)
            self._nodes[y.letters] = node
        return y

    def node(self, w: Word):
        """The node of the element that ``w`` spells: one step from its
        kept prefix, or a walk from the root, which is kept for ``w``."""
        letters = w.letters
        node = self._nodes.get(letters)
        if node is None:
            node = self._nodes.get(letters[:-1])
            if node is not None:
                return self.step(node, letters[-1])
            node = self.root
            for node in self.walk(node, letters):
                pass
            self._nodes[letters] = node
        return node

    def normal_form(self, w: Word) -> Word:
        node = self.node(w)
        y = self._words.get(node)
        return self.word(node) if y is None else y


class FunctionOracle(NormalFormTree):
    """The tree of the normal-form words of ``fn``, a pure function from a
    word to the normal form of its element: a node is such a word.  A move
    looks its letters up, and builds a ``Word`` only for a word not met
    before.

    ``fn`` is asked once per distinct word.  The empty word is asked first,
    at construction, and a nonempty normal form of it is refused.
    """

    def __init__(self, alphabet: Alphabet, fn: Callable[[Word], Word]) -> None:
        super().__init__(alphabet, alphabet.empty())
        self.fn = fn
        if fn(self.root).letters:
            raise StructureError("normal form of the empty word must be empty")

    def node(self, w: Word) -> Word:
        y = self._nodes.get(w.letters)
        if y is None:
            y = self._nodes[w.letters] = self.fn(w)
        return y

    def parent(self, y: Word) -> Word | None:
        return Word(y.alphabet, y.letters[:-1]) if y.letters else None

    def last(self, y: Word) -> int:
        return y.letters[-1]

    def depth(self, y: Word) -> int:
        return len(y.letters)

    def move(self, y: Word, a: int) -> tuple[Word, bool]:
        # the Word handed to fn shares the tuple kept as the key, and the
        # step is the child of y exactly when its letters are that key
        letters = y.letters + (a,)
        t = self._nodes.get(letters)
        if t is None:
            t = self._nodes[letters] = self.fn(Word(self.alphabet, letters))
        u, v = y.letters, t.letters
        if v == letters:
            return t, True
        return t, len(v) + 1 == len(u) and u[-1] == self.alphabet.inverse[a] and u[:-1] == v

    def word(self, y: Word) -> Word:
        return y

    def normal_form(self, w: Word) -> Word:
        return self.node(w)


class GroupElement(NamedTuple):
    canonical: Word
    distance: int


class EdgeKind(enum.Enum):
    DEGENERATE = "degenerate"
    RECURSIVE = "recursive"


class DirectedEdge(NamedTuple):
    source: GroupElement
    label: int
    target: GroupElement
    classification: EdgeKind

    def __str__(self) -> str:
        tok = self.source.canonical.alphabet.tokens[self.label]
        return f"({self.source.canonical} --{tok}--> {self.target.canonical})"


@dataclass
class Ball:
    """The exact metric ball B(radius) with all edges between its elements."""

    radius: int
    alphabet: Alphabet
    elements: dict[tuple[int, ...], GroupElement]
    edges: list[DirectedEdge]
    edge_index: dict[tuple[tuple[int, ...], int], DirectedEdge]

    def element(self, canonical: Word) -> GroupElement:
        try:
            return self.elements[canonical.letters]
        except KeyError:
            raise StackingsError(f"element {canonical} not in ball") from None

    def __contains__(self, canonical: Word) -> bool:
        return canonical.letters in self.elements

    def edge(self, source: Word, label: int) -> DirectedEdge | None:
        return self.edge_index.get((source.letters, label))

    def sorted_elements(self) -> list[GroupElement]:
        return sorted(self.elements.values(), key=lambda g: g.canonical.shortlex_key())

    def restricted(self, radius: int) -> "Ball":
        """The ball B(radius) inside this ball, equal to the one
        :func:`build_ball` would search: its spheres are found first, and in
        the same order, by the search for a larger radius."""
        within = max(radius, 0)  # the search keeps the root at any radius
        edges = [
            e for e in self.edges if e.source.distance <= within and e.target.distance <= within
        ]
        return Ball(
            radius,
            self.alphabet,
            {k: g for k, g in self.elements.items() if g.distance <= within},
            edges,
            {(e.source.canonical.letters, e.label): e for e in edges},
        )


def build_ball(oracle, n: int, max_elements: int = 10**6) -> Ball:
    """Breadth-first construction of B(n); distances are exact graph metric.

    ``oracle`` is a :class:`NormalFormTree`, or has one as its ``tree`` (a
    stacking structure).  The search runs over the tree's nodes by its
    ``move``, which classifies each edge as it is found.  Finding more than
    ``max_elements`` elements exceeds the search's budget.  On the last
    pass, which finds no element, a move refused as off a finite tree's
    region (:class:`OutsideExploredRegionError`) leaves the ball.

    The tree keeps the largest ball searched on it, and returns that ball
    itself from the search.  A radius no larger than the kept ball's is its
    :meth:`Ball.restricted`, with no move: every move of that search was a
    move of the larger one, so the ball, and any error, is the one a new
    search would give.  The kept ball lives as long as the tree.
    """
    tree = getattr(oracle, "tree", oracle)
    kept = tree._ball
    if kept is not None and n <= kept.radius:
        ball = kept.restricted(n)
        if len(ball.elements) > max_elements:
            raise BudgetExceededError(f"memory cap of {max_elements} elements exceeded")
        return ball
    alphabet = tree.alphabet
    move, word, parent, last_letter = tree.move, tree.word, tree.parent, tree.last
    letters = range(len(alphabet))
    record = tuple.__new__  # a record without the Python-level __new__ of its class
    degenerate, recursive = EdgeKind.DEGENERATE, EdgeKind.RECURSIVE

    def shortlex(found: tuple[Hashable, GroupElement]) -> tuple[int, tuple[int, ...]]:
        return found[1].canonical.shortlex_key()

    # The element of each node found, in the order of discovery; and the
    # edges from every node by each letter, None where the move leaves the
    # ball.  The last pass moves from the last sphere and finds no element.
    element = {tree.root: record(GroupElement, (word(tree.root), 0))}
    steps: dict[Hashable, list[DirectedEdge | None]] = {}
    frontier = list(element.items())
    last = max(n, 0) + 1
    for dist in range(1, last + 1):
        nxt = []
        for y, g in sorted(frontier, key=shortlex):
            out = steps[y] = []
            for a in letters:
                try:
                    t, tree_edge = move(y, a)
                except OutsideExploredRegionError:
                    if dist < last:
                        raise
                    out.append(None)  # the move leaves the ball
                    continue
                h = element.get(t)
                if h is None and dist < last:
                    if len(element) >= max_elements:
                        raise BudgetExceededError(f"memory cap of {max_elements} elements exceeded")
                    h = element[t] = record(GroupElement, (word(t), dist))
                    nxt.append((t, h))
                kind = degenerate if tree_edge else recursive
                out.append(None if h is None else record(DirectedEdge, (g, a, h, kind)))
        frontier = nxt

    # The tree's edge from each element's parent, where both lie in the
    # ball, must be degenerate; the root's parent is None, which has no steps.
    for y in element:
        out = steps.get(parent(y))
        e = out[last_letter(y)] if out is not None else None
        if e is not None and e.classification is recursive:
            raise StructureError(f"prefix edge {e} is not degenerate")

    edges: list[DirectedEdge] = []
    edge_index: dict[tuple[tuple[int, ...], int], DirectedEdge] = {}
    for y, g in sorted(element.items(), key=shortlex):
        key = g.canonical.letters
        for a, e in enumerate(steps[y]):
            if e is not None:
                edges.append(e)
                edge_index[key, a] = e

    elements = {g.canonical.letters: g for g in element.values()}
    ball = tree._ball = Ball(n, alphabet, elements, edges, edge_index)
    return ball


def alpha(e: DirectedEdge) -> Fraction:
    """Average distance of the edge's endpoints to the identity; lies in
    the half-integers."""
    return Fraction(e.source.distance + e.target.distance, 2)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of the encoded ``items`` as ``json.dumps(..., indent=2)``
    lays it out at ``indent``.  The json writers build their text with it,
    as that call's indented form runs the pure-Python encoder."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def ball_to_json(ball: Ball) -> str:
    """Debug dump: elements with distances, edges with classifications, in
    the layout of ``json.dumps(obj, indent=2)``, written by :func:`_json_list`."""
    tokens = [encode_basestring_ascii(t) for t in ball.alphabet.tokens]
    elements = [
        '{\n      "word": %s,\n      "distance": %d\n    }'
        % (encode_basestring_ascii(str(g.canonical)), g.distance)
        for g in ball.sorted_elements()
    ]
    edges = [
        '{\n      "source": %s,\n      "label": %s,\n      "target": %s,\n'
        '      "classification": "%s"\n    }'
        % (
            encode_basestring_ascii(str(e.source.canonical)),
            tokens[e.label],
            encode_basestring_ascii(str(e.target.canonical)),
            e.classification.value,
        )
        for e in sorted(ball.edges, key=lambda e: (e.source.canonical.shortlex_key(), e.label))
    ]
    return '{\n  "radius": %d,\n  "generators": %s,\n  "elements": %s,\n  "edges": %s\n}' % (
        ball.radius,
        _json_list(tokens, "  "),
        _json_list(elements, "  "),
        _json_list(edges, "  "),
    )
