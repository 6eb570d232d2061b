"""Concrete stackable structures and language recognizers.

* ``bs1p_structure``: the solvable Baumslag-Solitar group BS(1,p) with its
  explicit stacking map; normal forms t^{-i} a^m t^k are computed
  arithmetically on (i, m, k) with arbitrary-precision m, since m grows
  like p^|w|.
* ``crs_structure``: the stacking induced by a minimal finite complete
  rewriting system (normal forms = irreducible words, phi from the unique
  prefix-rewriting rule), stepping the system's own trie.
* ``shortlex_ac_structure``: the shortlex stacking of an almost convex
  pair, on the tree of the shortlex words of a precomputed ball.
* ``almost_convexity_check``: check of the almost convexity condition on
  spheres up to a radius, by bounded searches of one ball.
* ``thompson_f_in_C``: the deterministic PDA recognizer for the normal
  form language of Thompson's group F (recognizer only; no stacking map).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .cayley import Ball, FunctionOracle, NormalFormTree, build_ball
from .errors import (
    AlmostConvexityError,
    FormatError,
    OutsideExploredRegionError,
    StructureError,
)
from .rewriting import DEFAULT_BUDGET, IrreducibleTree, RewritingSystem
from .stacking import StackingStructure
from .words import Alphabet, Word

__all__ = [
    "bs1p_alphabet",
    "BS1pElement",
    "bs1p_structure",
    "crs_structure",
    "shortlex_ac_structure",
    "ACReport",
    "almost_convexity_check",
    "thompson_alphabet",
    "expsum_x0",
    "thompson_f_in_C",
]


# ---------------------------------------------------------------------------
# BS(1,p) = < a, t | t a t^-1 = a^p >

# Letter indices in bs1p_alphabet().
_A, _A_INV, _T, _T_INV = range(4)
# _node(BS1pElement, (i, m, k)) skips the Python-level __new__ of BS1pElement
_node = tuple.__new__


def bs1p_alphabet() -> Alphabet:
    return Alphabet.from_pairs(("a", "A", "t", "T"), [("a", "A"), ("t", "T")])


class BS1pElement(NamedTuple):
    """Group element in normal form t^-i a^m t^k, with p not dividing m
    unless i or k vanishes."""

    i: int
    m: int
    k: int

    @property
    def letters(self) -> tuple[int, ...]:
        """The normal form over ``bs1p_alphabet()``."""
        a = _A if self.m > 0 else _A_INV
        return (_T_INV,) * self.i + (a,) * abs(self.m) + (_T,) * self.k


def _bs_normalize(p: int, i: int, m: int, k: int) -> BS1pElement:
    while i > 0 and k > 0 and m % p == 0:
        i -= 1
        k -= 1
        m //= p
    return _node(BS1pElement, (i, m, k))


class _BS1pTree(NormalFormTree):
    """A node is its element (i, m, k), so a move is one multiplication,
    whose case tells the edge's kind, and the parent, last letter and depth
    of a node are arithmetic.  The phi images have p + 2 letters each, so
    they are built on first use."""

    def __init__(self, p: int) -> None:
        super().__init__(bs1p_alphabet(), BS1pElement(0, 0, 0))
        self.p = p

    @cached_property
    def _t_images(self) -> dict[tuple[bool, int], Word]:
        """phi of t^eta from t^-i a^m, by (m > 0, letter): (a^{-nu p} t a^nu)^eta."""
        images = {}
        for positive, a, a_inv in ((True, _A, _A_INV), (False, _A_INV, _A)):
            img = Word(self.alphabet, (a_inv,) * self.p + (_T, a))
            images[positive, _T] = img
            images[positive, _T_INV] = img.inverse()
        return images

    @cached_property
    def _a_images(self) -> dict[int, Word]:
        """phi of a^eta from t^-i a^m t^k (k > 0): t^-1 a^{eta p} t."""
        return {a: Word(self.alphabet, (_T_INV,) + (a,) * self.p + (_T,)) for a in (_A, _A_INV)}

    def move(self, g: BS1pElement, a: int) -> tuple[BS1pElement, bool]:
        # a or A is a tree edge exactly when k = 0; t is recursive exactly
        # when i > 0, m != 0 and p | m (so k = 0); T is recursive exactly
        # when k = 0 and m != 0
        i, m, k = g
        p = self.p
        if a == _T:
            if i and not m % p:
                return _node(BS1pElement, (i - 1, m // p, 0)), not m
            return _node(BS1pElement, (i, m, k + 1)), True
        if a == _T_INV:
            if k:
                return _node(BS1pElement, (i, m, k - 1)), True
            return _node(BS1pElement, (i + 1, m * p, 0)), not m
        if not k:
            return _node(BS1pElement, (i, m + 1 if a == _A else m - 1, 0)), True
        return _bs_normalize(p, i, m + p**k if a == _A else m - p**k, k), False

    def parent(self, g: BS1pElement) -> BS1pElement | None:
        i, m, k = g
        if k:
            return _node(BS1pElement, (i, m, k - 1))
        if m:
            return _node(BS1pElement, (i, m - 1 if m > 0 else m + 1, 0))
        if i:
            return _node(BS1pElement, (i - 1, 0, 0))
        return None

    def last(self, g: BS1pElement) -> int:
        return _T if g.k else _A if g.m > 0 else _A_INV if g.m else _T_INV

    def depth(self, g: BS1pElement) -> int:
        return g.i + abs(g.m) + g.k

    def phi(self, g: BS1pElement, letter: int) -> Word:
        # exactly the edges that move calls recursive
        i, m, k = g
        if letter == _T_INV and m and not k or letter == _T and i and m and not m % self.p:
            return self._t_images[m > 0, letter]
        if k and letter in (_A, _A_INV):
            return self._a_images[letter]
        raise StructureError(f"edge ({self.word(g)}, {self.alphabet.tokens[letter]}) is not recursive")


def bs1p_structure(p: int) -> StackingStructure:
    """The explicit stacking for BS(1,p), p >= 2, with bound k = p + 2.

    Recursive edges fall into two schemas: from t^-i a^m (m != 0) by
    t^-1, and by t when also i > 0 and p | m, with image
    (a^{-nu p} t a^nu)^eta for t^eta, nu the sign of m; and from
    t^-i a^m t^k (k > 0) by a^eta, with image t^-1 a^{eta p} t.  Every
    other edge is a tree edge.

    Its normal-form tree's nodes are the elements (i, m, k).
    """
    if p < 2:
        raise FormatError("bs1p requires p >= 2")
    tree = _BS1pTree(p)
    return StackingStructure(
        tree.alphabet, tree.normal_form, tree.phi, bound_k=p + 2, name=f"bs1p:{p}", tree=tree
    )


# ---------------------------------------------------------------------------
# Stacking from a minimal finite complete rewriting system (prefix rewriting).


def crs_structure(S: RewritingSystem, budget: int = DEFAULT_BUDGET) -> StackingStructure:
    """Stacking whose normal forms are the irreducible words of ``S``.

    ``S`` must be minimal and complete (run ``minimize`` and
    ``check_complete`` first).  On a recursive edge from g by a, the word
    y_g a is reducible and its shortest reducible prefix is the whole word;
    minimality gives a unique factorization y_g = w u~ with a rule
    u~ a -> v, and phi is u~^-1 v.

    Its normal-form tree is the system's own trie of irreducible words,
    which every structure on ``S`` and every reduction of ``S`` step and
    grow; ``budget`` bounds the rewriting steps of one normal form, as in
    :func:`reduce_to_irreducible`.
    """
    if not S.claimed_complete:
        raise StructureError("crs_structure requires a system claimed complete")
    tree = IrreducibleTree(S, budget)
    bound_k = max((len(r.lhs) + len(r.rhs) for r in S.rules), default=1)
    return StackingStructure(
        S.alphabet, tree.normal_form, tree.phi, bound_k=bound_k, name="crs", tree=tree
    )


# ---------------------------------------------------------------------------
# Shortlex stacking of an almost convex pair, on a finite ball.


class _ShortlexTree(FunctionOracle):
    """The tree of the shortlex normal forms on B(radius), from a normal-form
    tree (or anything with a ``tree``) used only for element identity: a
    node is the shortlex least word of its element.  A move inside the
    ball reads the edge the ball's search took."""

    def __init__(self, oracle, radius: int, k_ac: int):
        self.base = getattr(oracle, "tree", oracle)
        self.radius, self.k_ac = radius, k_ac
        self.ball = ball = build_ball(self.base, radius)
        # slex maps an oracle key to its shortlex word.  The shortlex word of
        # h is the least slex(g) a over the edges g -a-> h that step one
        # sphere out; sources are taken sphere by sphere, so slex(g) is
        # final before its out-edges are read.
        self.slex: dict[tuple[int, ...], Word] = {(): self.base.alphabet.empty()}
        for e in sorted(ball.edges, key=lambda e: e.source.distance):
            g, h = e.source, e.target
            if h.distance != g.distance + 1:
                continue
            z = self.slex[g.canonical.letters].append(e.label)
            best = self.slex.get(h.canonical.letters)
            if best is None or z.letters < best.letters:
                self.slex[h.canonical.letters] = z
        # key maps a shortlex word's letters back to the oracle key.
        self.key = {z.letters: key for key, z in self.slex.items()}
        base, slex = self.base, self.slex

        # canonical holds the base tree and slex, not the tree itself, so
        # that the tree, whose fn it is, is freed by reference count
        def canonical(w: Word) -> Word:
            try:
                return slex[base.normal_form(w).letters]
            except KeyError:
                raise OutsideExploredRegionError(
                    f"{w} leaves the explored ball of radius {radius}"
                ) from None

        super().__init__(base.alphabet, canonical)

    def move(self, y: Word, a: int) -> tuple[Word, bool]:
        e = self.ball.edge_index.get((self.key[y.letters], a))
        if e is None:  # the ball holds every edge between its elements
            raise OutsideExploredRegionError(
                f"{y.append(a)} leaves the explored ball of radius {self.radius}"
            )
        t = self.slex[e.target.canonical.letters]
        u, v = y.letters, t.letters
        return t, v == u + (a,) or u == v + (self.alphabet.inverse[a],)

    def least_connecting_word(
        self, start: Word, goal: Word, max_len: int, ball_bound: int
    ) -> Word | None:
        """Shortlex least word of length <= max_len labeling a path from
        start to goal lying in the ball B(ball_bound).

        Lying in the (continuous) ball rules out edges whose endpoints are
        both on the bounding sphere, since their midpoints fall outside;
        this is what makes alpha strictly decrease along the result.
        """
        way = _paths_to(self.ball, self.key[goal.letters], ball_bound, max_len, False)
        g = self.key[start.letters]
        if g not in way:
            return None
        letters = []
        while way[g] is not None:
            b, g = way[g]
            letters.append(b)
        return Word(self.alphabet, tuple(letters))

    def phi(self, y: Word, a: int) -> Word:
        # the distance of an element is the length of its shortlex word
        alphabet, y_ga = self.alphabet, self.step(y, a)
        n_g, n_ga = len(y), len(y_ga)

        def search(start: Word, goal: Word, bound: int) -> Word:
            found = self.least_connecting_word(start, goal, self.k_ac, bound)
            if found is None:
                raise AlmostConvexityError(
                    f"almost convexity refuted at radius {bound} with constant {self.k_ac}"
                )
            return found

        if n_g == n_ga:
            return search(y, y_ga, n_g)
        if n_ga == n_g + 1:
            return search(y, y_ga[:-1], n_g).append(y_ga.letters[-1])
        if n_g == n_ga + 1:
            c = alphabet.inv(y.letters[-1])
            return Word(alphabet, (c,)) * search(y[:-1], y_ga, n_ga)
        raise StructureError("edge endpoints differ in distance by more than one")


def _paths_to(
    ball: Ball, goal: tuple[int, ...], bound: int, max_len: int, sphere_edges: bool
) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]] | None]:
    """The shortest paths to ``goal`` of at most ``max_len`` edges inside
    B(bound), by the key of each element of ``ball`` that has one: the
    first letter and the next element's key of the shortlex least of them
    (None at ``goal``).

    A path may start anywhere, but each of its edges must enter B(bound)
    and, unless ``sphere_edges``, not join two elements of the sphere
    S(bound).  Edges come in inverse pairs, so the search runs back from
    ``goal``, one distance to it at a time.
    """
    elements, edge_index = ball.elements, ball.edge_index
    inverse = ball.alphabet.inverse
    way: dict = {goal: None}
    frontier = [goal]
    for _ in range(max_len):
        found: dict = {}
        for v in frontier:
            d = elements[v].distance
            if d > bound:
                continue
            along_sphere = not sphere_edges and d == bound
            for b, a in enumerate(inverse):  # v -b-> u is u -a-> v reversed
                e = edge_index.get((v, b))
                if e is None or (along_sphere and e.target.distance == bound):
                    continue
                u = e.target.canonical.letters
                if u not in way and (u not in found or a < found[u][0]):
                    found[u] = (a, v)
        way.update(found)
        frontier = list(found)
    return way


def shortlex_ac_structure(oracle, ball_radius: int, k_ac: int) -> StackingStructure:
    """Shortlex stacking of an almost convex pair, defined on B(ball_radius).

    ``oracle`` is a normal-form tree, or has one as its ``tree``, of a
    solution to the word problem (its forms are used only to identify
    elements).  The normal forms of the structure, its tree's nodes, are
    the shortlex least representatives; phi images are the shortlex least
    connecting words found by searching the ball, constrained to stay in
    the right ball.  Raises :class:`AlmostConvexityError` when no in-ball
    connecting word of length <= k_ac exists, refuting almost convexity at
    this radius.  A negative ``k_ac`` is a :class:`FormatError`.
    """
    if k_ac < 0:
        raise FormatError("shortlex-ac requires k >= 0")
    tree = _ShortlexTree(oracle, ball_radius, k_ac)
    name = f"shortlex-ac(r={ball_radius},k={k_ac})"
    return StackingStructure(
        tree.alphabet, tree.normal_form, tree.phi, bound_k=k_ac + 1, name=name, tree=tree
    )


# ---------------------------------------------------------------------------
# Almost convexity (sphere pairs joined inside the ball).


@dataclass
class ACReport:
    n_max: int
    k: int
    pairs_checked: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_max": self.n_max,
                "k": self.k,
                "passed": self.passed,
                "pairs_checked": self.pairs_checked,
                "failures": self.failures,
            },
            indent=2,
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"almost convexity up to n={self.n_max} with k={self.k}: {status} "
            f"({self.pairs_checked} sphere pairs)"
        )
        if self.failures:
            w = self.failures[0]
            out += f"; witness at n={w['n']}: {w['g']} vs {w['h']}"
        return out


def almost_convexity_check(oracle, n_max: int, k_ac: int) -> ACReport:
    """For every n <= n_max and every pair of sphere-S(n) elements at Cayley
    distance <= 2, search for a connecting path of length <= k_ac inside
    B(n); failures are reported with witness pairs.  ``oracle`` is a
    normal-form tree, or has one as its ``tree``."""
    report = ACReport(n_max=n_max, k=k_ac)
    if n_max == 0:
        return report
    ball = build_ball(oracle, n_max + 1)
    elements, edge_index = ball.elements, ball.edge_index
    letters = range(len(ball.alphabet))

    def neighbours(v: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [e.target.canonical.letters for a in letters if (e := edge_index.get((v, a)))]

    by_shortlex = ball.sorted_elements()
    for n in range(1, n_max + 1):
        for g in by_shortlex:
            if g.distance != n:
                continue
            gl = g.canonical.letters
            # the elements within two edges of g; the ball holds every path of
            # two edges from g to S(n), whose middle lies in B(n + 1)
            near = neighbours(gl)
            close = {hl for v in near for hl in neighbours(v)}.union(near)
            pairs = sorted(hl for hl in close if hl > gl and elements[hl].distance == n)
            if not pairs:
                continue
            # paths inside B(n), the combinatorial ball, may run along S(n)
            reach = _paths_to(ball, gl, n, k_ac, True)
            for hl in pairs:
                report.pairs_checked += 1
                if hl not in reach:
                    report.failures.append(
                        {"n": n, "g": str(g.canonical), "h": str(elements[hl].canonical)}
                    )
    return report


# ---------------------------------------------------------------------------
# Thompson's group F: the normal form language recognizer.


def thompson_alphabet() -> Alphabet:
    return Alphabet.from_pairs(("x0", "X0", "x1", "X1"), [("x0", "X0"), ("x1", "X1")])


def expsum_x0(w: Word) -> int:
    """Exponent sum of x0 in w."""
    toks = w.alphabet.tokens
    return sum(1 if toks[i] == "x0" else -1 if toks[i] == "X0" else 0 for i in w)


def _require_f_alphabet(w: Word) -> tuple[int, int, int, int]:
    try:
        return tuple(w.alphabet.index(t) for t in ("x0", "X0", "x1", "X1"))  # type: ignore[return-value]
    except FormatError:
        raise FormatError("word is not over the Thompson F alphabet x0/X0/x1/X1") from None


def thompson_f_in_C(w: Word) -> bool:
    """Membership in the normal form language for Thompson's F: product of
    the forbidden-subword automaton with the x0-counter PDA, which pushes an
    x0^-1 on reading X0 and pops on x0.  Both reject for good, the PDA on a
    pop at the stack-start symbol, so the word is rejected at the first
    rejection of either."""
    x0, X0, x1, X1 = _require_f_alphabet(w)
    inv = {x0: X0, X0: x0, x1: X1, X1: x1}
    prev2 = prev1 = None
    stack = 0
    for c in w:
        if c not in inv:
            raise FormatError(f"letter {w.alphabet.tokens[c]} is not one of x0/X0/x1/X1")
        if prev1 is not None and inv[prev1] == c:
            return False
        if prev2 == x0 and prev1 == x0 and c in (x1, X1):
            return False
        if c == X0:
            stack += 1
        elif c == x0:
            if stack == 0:
                return False
            stack -= 1
        prev2, prev1 = prev1, c
    return True
