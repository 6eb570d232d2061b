"""Concrete stackable structures and language recognizers.

* ``bs1p_structure``: the solvable Baumslag-Solitar group BS(1,p) with its
  explicit stacking map; normal forms t^{-i} a^m t^k are computed
  arithmetically on (i, m, k) with arbitrary-precision m, since m grows
  like p^|w|.
* ``crs_structure``: the stacking induced by a minimal finite complete
  rewriting system (normal forms = irreducible words, phi from the unique
  prefix-rewriting rule).
* ``shortlex_ac_structure``: the shortlex stacking of an almost convex
  pair, defined on a precomputed ball.
* ``almost_convexity_check``: brute-force check of the almost convexity
  condition on spheres up to a radius.
* ``thompson_f_in_C``: the deterministic PDA recognizer for the normal
  form language of Thompson's group F (recognizer only; no stacking map).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .cayley import NormalFormOracle, build_ball
from .errors import (
    AlmostConvexityError,
    FormatError,
    OutsideExploredRegionError,
    StructureError,
)
from .rewriting import DEFAULT_BUDGET, RewritingSystem, _rules_ending_at, reduce_to_irreducible
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
    "PdaState",
    "expsum_x0",
    "thompson_f_in_C",
]


# ---------------------------------------------------------------------------
# BS(1,p) = < a, t | t a t^-1 = a^p >


def bs1p_alphabet() -> Alphabet:
    return Alphabet.from_pairs(("a", "A", "t", "T"), [("a", "A"), ("t", "T")])


@dataclass(frozen=True)
class BS1pElement:
    """Group element in normal form t^-i a^m t^k, with p not dividing m
    unless i or k vanishes."""

    i: int
    m: int
    k: int


def _bs_normalize(p: int, i: int, m: int, k: int) -> BS1pElement:
    while i > 0 and k > 0 and m % p == 0:
        i -= 1
        k -= 1
        m //= p
    return BS1pElement(i, m, k)


def _bs_mul(p: int, g: BS1pElement, eta_a: int, eta_t: int) -> BS1pElement:
    """Right-multiply by a^eta_a or t^eta_t (exactly one of them nonzero)."""
    i, m, k = g.i, g.m, g.k
    if eta_a:
        return _bs_normalize(p, i, m + eta_a * p**k, k)
    if eta_t > 0:
        return _bs_normalize(p, i, m, k + 1)
    if k > 0:
        return BS1pElement(i, m, k - 1)
    return BS1pElement(i + 1, m * p, 0)


def bs1p_structure(p: int) -> StackingStructure:
    """The explicit stacking for BS(1,p), p >= 2, with bound k = p + 2.

    Recursive edges fall into two schemas: from t^-i a^m (m != 0) by
    t^eta, with image (a^{-nu p} t a^nu)^eta, nu the sign of m; and from
    t^-i a^m t^k (k > 0) by a^eta, with image t^-1 a^{eta p} t.

    The structure keeps the element (i, m, k) of each normal form it
    returns, so the normal form of y a and phi(y, a), for such a normal
    form y, cost one multiplication instead of a replay of the word.
    """
    if p < 2:
        raise FormatError("bs1p requires p >= 2")
    alphabet = bs1p_alphabet()
    A, A_INV, T, T_INV = (alphabet.index(x) for x in ("a", "A", "t", "T"))
    deltas = {A: (1, 0), A_INV: (-1, 0), T: (0, 1), T_INV: (0, -1)}

    # Element of every normal form returned so far, keyed by its letters.
    known: dict[tuple[int, ...], BS1pElement] = {(): BS1pElement(0, 0, 0)}

    def to_element(w: Word) -> BS1pElement:
        """A lookup for a normal form returned before, one step from its
        prefix when that is one, and a replay of the word otherwise."""
        letters = w.letters
        g = known.get(letters)
        if g is not None:
            return g
        g = known.get(letters[:-1])
        if g is not None:
            return _bs_mul(p, g, *deltas[letters[-1]])
        g = BS1pElement(0, 0, 0)
        for letter in letters:
            g = _bs_mul(p, g, *deltas[letter])
        return g

    def to_word(g: BS1pElement) -> Word:
        letters = (
            (T_INV,) * g.i
            + ((A,) if g.m > 0 else (A_INV,)) * abs(g.m)
            + (T,) * g.k
        )
        return Word(alphabet, letters)

    def normal_form(w: Word) -> Word:
        g = to_element(w)
        y = to_word(g)
        known[y.letters] = g
        return y

    def phi(y: Word, letter: int) -> Word:
        g = to_element(y)
        if letter in (T, T_INV):
            eta = 1 if letter == T else -1
            if g.k != 0 or g.m == 0 or -g.i + eta > 0:
                raise StructureError(f"edge ({y}, {alphabet.tokens[letter]}) is not recursive")
            nu = 1 if g.m > 0 else -1
            base = Word(
                alphabet,
                ((A_INV if nu > 0 else A),) * p + (T,) + ((A if nu > 0 else A_INV),),
            )
            return base if eta == 1 else base.inverse()
        eta = 1 if letter == A else -1
        if g.k <= 0:
            raise StructureError(f"edge ({y}, {alphabet.tokens[letter]}) is not recursive")
        return Word(alphabet, (T_INV,) + ((A if eta > 0 else A_INV),) * p + (T,))

    return StackingStructure(
        alphabet, normal_form, phi, bound_k=p + 2, name=f"bs1p:{p}"
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
    """
    if not S.claimed_complete:
        raise StructureError("crs_structure requires a system claimed complete")
    alphabet = S.alphabet

    def normal_form(w: Word) -> Word:
        return reduce_to_irreducible(S, w, budget)

    def phi(y: Word, a: int) -> Word:
        word = y.append(a)
        matches = list(_rules_ending_at(S, list(word.letters), len(word)))
        if len(matches) > 1:
            raise StructureError("two rules apply: system not minimal")
        if not matches:
            raise StructureError(f"no rule factors {word}: system not minimal/complete")
        rule = matches[0]
        return rule.lhs[:-1].inverse() * rule.rhs

    bound_k = max((len(r.lhs) + len(r.rhs) for r in S.rules), default=1)
    return StackingStructure(alphabet, normal_form, phi, bound_k=bound_k, name="crs")


# ---------------------------------------------------------------------------
# Shortlex stacking of an almost convex pair, on a finite ball.


class _ShortlexBall:
    """Shortlex normal forms and distances on B(radius), from a word-problem
    oracle presented as a normal-form function used only for element
    identity."""

    def __init__(self, oracle: NormalFormOracle, radius: int):
        self.alphabet = oracle.alphabet
        self.radius = radius
        self.oracle = oracle
        ball = build_ball(oracle, radius)
        # slex maps an oracle key to its shortlex word.  The shortlex word of
        # h is the least slex(g) a over the edges g -a-> h that step one
        # sphere out; sources are taken sphere by sphere, so slex(g) is
        # final before its out-edges are read.
        self.slex: dict[tuple[int, ...], Word] = {(): self.alphabet.empty()}
        for e in sorted(ball.edges, key=lambda e: e.source.distance):
            g, h = e.source, e.target
            if h.distance != g.distance + 1:
                continue
            z = self.slex[g.canonical.letters].append(e.label)
            best = self.slex.get(h.canonical.letters)
            if best is None or z.letters < best.letters:
                self.slex[h.canonical.letters] = z
        self.dist: dict[tuple[int, ...], int] = {  # shortlex letters -> distance
            z.letters: ball.elements[key].distance for key, z in self.slex.items()
        }

    def canonical(self, w: Word) -> Word:
        key = self.oracle.normal_form(w).letters
        try:
            return self.slex[key]
        except KeyError:
            raise OutsideExploredRegionError(
                f"{w} leaves the explored ball of radius {self.radius}"
            ) from None

    def distance(self, canonical: Word) -> int:
        return self.dist[canonical.letters]

    def least_connecting_word(
        self, start: Word, goal: Word, max_len: int, ball_bound: int
    ) -> Word | None:
        """Shortlex least word of length <= max_len labeling a path from
        start to goal lying in the ball B(ball_bound).

        Lying in the (continuous) ball rules out edges whose endpoints are
        both on the bounding sphere, since their midpoints fall outside;
        this is what makes alpha strictly decrease along the result.
        """
        for n in range(max_len + 1):
            for combo in product(range(len(self.alphabet)), repeat=n):
                cur = start
                prev_dist = self.distance(start)
                ok = True
                for b in combo:
                    try:
                        cur = self.canonical(cur.append(b))
                    except OutsideExploredRegionError:
                        ok = False
                        break
                    d = self.distance(cur)
                    if d > ball_bound or (d == ball_bound and prev_dist == ball_bound):
                        ok = False
                        break
                    prev_dist = d
                if ok and cur == goal:
                    return Word(self.alphabet, combo)
        return None


def shortlex_ac_structure(
    oracle: NormalFormOracle, ball_radius: int, k_ac: int
) -> StackingStructure:
    """Shortlex stacking of an almost convex pair, defined on B(ball_radius).

    ``oracle`` solves the word problem (any normal-form function works; its
    forms are used only to identify elements).  The normal forms of the
    structure are the shortlex least representatives; phi images are found
    by exhaustive shortlex search constrained to stay in the right ball.
    Raises :class:`AlmostConvexityError` when no in-ball connecting word of
    length <= k_ac exists, refuting almost convexity at this radius.
    """
    box = _ShortlexBall(oracle, ball_radius)
    alphabet = box.alphabet

    def normal_form(w: Word) -> Word:
        return box.canonical(w)

    def phi(y: Word, a: int) -> Word:
        y_ga = box.canonical(y.append(a))
        n_g, n_ga = box.distance(y), box.distance(y_ga)

        def search(start: Word, goal: Word, bound: int) -> Word:
            found = box.least_connecting_word(start, goal, k_ac, bound)
            if found is None:
                raise AlmostConvexityError(
                    f"almost convexity refuted at radius {bound} with constant {k_ac}"
                )
            return found

        if n_g == n_ga:
            return search(y, y_ga, n_g)
        if n_ga == n_g + 1:
            b = y_ga.letters[-1]
            h = y_ga[: len(y_ga) - 1]
            return search(y, h, n_g).append(b)
        if n_g == n_ga + 1:
            c = y.letters[-1]
            g_prime = y[: len(y) - 1]
            return Word(alphabet, (alphabet.inv(c),)) * search(g_prime, y_ga, n_ga)
        raise StructureError("edge endpoints differ in distance by more than one")

    return StackingStructure(
        alphabet,
        normal_form,
        phi,
        bound_k=k_ac + 1,
        name=f"shortlex-ac(r={ball_radius},k={k_ac})",
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


def almost_convexity_check(
    oracle: NormalFormOracle, n_max: int, k_ac: int, max_elements: int = 10**6
) -> ACReport:
    """For every n <= n_max and every pair of sphere-S(n) elements at Cayley
    distance <= 2, search for a connecting path of length <= k_ac inside
    B(n); failures are reported with witness pairs."""
    report = ACReport(n_max=n_max, k=k_ac)
    if n_max == 0:
        return report
    ball = build_ball(oracle, n_max + 1, max_elements=max_elements)

    neighbors: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in ball.edges:
        neighbors.setdefault(e.source.canonical.letters, []).append(
            e.target.canonical.letters
        )

    for n in range(1, n_max + 1):
        sphere = [g for g in ball.sorted_elements() if g.distance == n]
        in_ball_n = {
            g.canonical.letters for g in ball.elements.values() if g.distance <= n
        }
        for g in sphere:
            gl = g.canonical.letters
            close: set[tuple[int, ...]] = set()
            for u in neighbors.get(gl, ()):
                if ball.elements[u].distance == n:
                    close.add(u)
                for v in neighbors.get(u, ()):
                    if ball.elements[v].distance == n:
                        close.add(v)
            close.discard(gl)
            for hl in sorted(close):
                if hl < gl:
                    continue  # unordered pairs once
                report.pairs_checked += 1
                # breadth-first search within B(n), depth <= k_ac
                frontier = {gl}
                seen = {gl}
                found = hl == gl
                for _ in range(k_ac):
                    nxt: set[tuple[int, ...]] = set()
                    for u in frontier:
                        for v in neighbors.get(u, ()):
                            if v in in_ball_n and v not in seen:
                                nxt.add(v)
                                seen.add(v)
                    if hl in nxt:
                        found = True
                        break
                    frontier = nxt
                if not found:
                    report.failures.append(
                        {
                            "n": n,
                            "g": str(ball.elements[gl].canonical),
                            "h": str(ball.elements[hl].canonical),
                        }
                    )
    return report


# ---------------------------------------------------------------------------
# Thompson's group F: the normal form language recognizer.


def thompson_alphabet() -> Alphabet:
    return Alphabet.from_pairs(("x0", "X0", "x1", "X1"), [("x0", "X0"), ("x1", "X1")])


@dataclass
class PdaState:
    """Counter PDA: pushes an x0^-1 on reading X0, pops on x0, fails on a
    pop at the stack-start symbol.  Fail is absorbing; acceptance means the
    machine is still in its initial state."""

    failed: bool = False
    stack: int = 0

    def step(self, token: str) -> None:
        if self.failed:
            return
        if token == "X0":
            self.stack += 1
        elif token == "x0":
            if self.stack == 0:
                self.failed = True
            else:
                self.stack -= 1

    @property
    def accepting(self) -> bool:
        return not self.failed


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
    the forbidden-subword automaton with the x0-counter PDA."""
    x0, X0, x1, X1 = _require_f_alphabet(w)
    pda = PdaState()
    prev1: int | None = None
    prev2: int | None = None
    regular_ok = True
    inv = {x0: X0, X0: x0, x1: X1, X1: x1}
    for c in w:
        if regular_ok:
            if prev1 is not None and inv[prev1] == c:
                regular_ok = False
            elif prev2 == x0 and prev1 == x0 and c in (x1, X1):
                regular_ok = False
        if not regular_ok and pda.failed:
            return False
        pda.step(w.alphabet.tokens[c])
        prev2, prev1 = prev1, c
    return regular_ok and pda.accepting

