"""Independent oracles used to freeze derived values into the tests.

Everything here is deliberately naive and written against definitions, not
against the library's algorithms: affine-map evaluation for BS(1,2) and its
companion rewriting system, brute-force free reduction by trying all
cancellation orders, pseudo-random trivial-word generation by relator and
cancellation insertion, an exhaustive minimal-area search by bounded
relator application, shortlex representatives by enumerating all words,
leftmost-occurrence rewriting with a brute-force subword search, the two
clauses of the Thompson's F normal form language evaluated directly, and
the seashell filling built letter by letter from whole diagrams.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from stackings import VanKampenDiagram, Word, degenerate_diagram, seashell_glue
from stackings.words import Alphabet, symmetrized_closure


# ---------------------------------------------------------------------------
# Faithful affine representation of BS(1,p): a -> x + 1, t -> p x, acting on
# p-adic rationals; d -> x + 2 extends it to the companion CRS alphabet of
# BS(1,2).  A word c1..cn evaluates to f_c1 after f_c2 after ... after f_cn.

_GEN_MAPS = {
    "a": (0, Fraction(1)),
    "A": (0, Fraction(-1)),
    "d": (0, Fraction(2)),
    "D": (0, Fraction(-2)),
    "t": (1, Fraction(0)),
    "T": (-1, Fraction(0)),
}


def affine_eval(w: Word, p: int = 2) -> tuple[int, Fraction]:
    """(e, q) with w acting as x -> p^e x + q; equal pairs iff equal in G."""
    e, q = 0, Fraction(0)
    for c in w:
        ce, cq = _GEN_MAPS[w.alphabet.tokens[c]]
        e, q = e + ce, Fraction(p) ** e * cq + q
    return e, q


def affine_trivial(w: Word) -> bool:
    return affine_eval(w) == (0, Fraction(0))


# ---------------------------------------------------------------------------
# Brute-force free reduction: try every order of removing adjacent inverse
# pairs; all orders must agree (confluence witnessed by exhaustion).


def free_reduce_all_orders(w: Word) -> set[tuple[int, ...]]:
    inv = w.alphabet.inverse
    results: set[tuple[int, ...]] = set()
    seen: set[tuple[int, ...]] = set()
    stack = [w.letters]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        pairs = [
            i for i in range(len(cur) - 1) if cur[i + 1] == inv[cur[i]]
        ]
        if not pairs:
            results.add(cur)
            continue
        for i in pairs:
            stack.append(cur[:i] + cur[i + 2 :])
    return results


# ---------------------------------------------------------------------------
# Pseudo-random trivial words: start from the empty word and repeatedly
# splice in a symmetrized relator or a cancelling pair.


def random_trivial_words(
    alphabet: Alphabet,
    relators: list[Word],
    count: int,
    max_len: int,
    seed: int,
) -> list[Word]:
    rng = random.Random(seed)
    rels = sorted(symmetrized_closure(relators), key=Word.shortlex_key)
    out: list[Word] = []
    while len(out) < count:
        letters: tuple[int, ...] = ()
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(letters) + 1)
            if rng.random() < 0.5:
                ins = rng.choice(rels).letters
            else:
                c = rng.randrange(len(alphabet))
                ins = (c, alphabet.inv(c))
            letters = letters[:pos] + ins + letters[pos:]
        if len(letters) <= max_len:
            out.append(Word(alphabet, letters))
    return out


# ---------------------------------------------------------------------------
# Exhaustive minimal-area search: breadth-first over freely reduced words,
# one relator application per level (replace a subword s by s' whenever
# s s'^-1 lies in the symmetrized relator set, including s or s' empty).


def min_area_at_most(w: Word, relators: list[Word], max_faces: int) -> int | None:
    """Smallest number of relator applications turning w into the empty
    word, or None if more than ``max_faces`` are needed."""
    rels = sorted(symmetrized_closure(relators), key=Word.shortlex_key)
    # all (s, s') factorizations: r = s * s'^-1  =>  replace s with s'
    swaps: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for r in rels:
        for cut in range(len(r) + 1):
            s = r.letters[:cut]
            s_prime = Word(r.alphabet, r.letters[cut:]).inverse().letters
            swaps.append((s, s_prime))
    level = {w.free_reduce().letters}
    if () in level:
        return 0
    seen = set(level)
    for faces in range(1, max_faces + 1):
        nxt: set[tuple[int, ...]] = set()
        for cur in level:
            for s, s_prime in swaps:
                for i in range(len(cur) - len(s) + 1):
                    if cur[i : i + len(s)] != s:
                        continue
                    cand = Word(
                        w.alphabet, cur[:i] + s_prime + cur[i + len(s) :]
                    ).free_reduce()
                    if cand.letters not in seen:
                        nxt.add(cand.letters)
                        seen.add(cand.letters)
        if () in nxt:
            return faces
        level = nxt
    return None


def all_words(alphabet: Alphabet, max_len: int):
    """Every word over the alphabet with length <= max_len, shortlex order."""
    for n in range(max_len + 1):
        for combo in product(range(len(alphabet)), repeat=n):
            yield Word(alphabet, combo)


# ---------------------------------------------------------------------------
# Rewriting by leftmost occurrence: rewrite the leftmost occurrence of any
# lhs (lowest rule index on ties) until none is left.  For a complete system
# every strategy reaches the same irreducible word.


def has_lhs_subword(S, w: Word) -> bool:
    """True iff some rule lhs occurs as a subword, by trying every subword."""
    lhss = {r.lhs.letters for r in S.rules}
    letters, n = w.letters, len(w)
    return any(letters[i:j] in lhss for i in range(n) for j in range(i + 1, n + 1))


def leftmost_reduce(S, w: Word, budget: int = 10**6) -> Word:
    """Irreducible form of ``w`` by leftmost-occurrence rewriting; raises
    RuntimeError if it needs more than ``budget`` rewrites."""
    letters = w.letters
    for _ in range(budget + 1):
        hit = next(
            (
                (pos, rule)
                for pos in range(len(letters))
                for rule in S.rules
                if letters[pos : pos + len(rule.lhs)] == rule.lhs.letters
            ),
            None,
        )
        if hit is None:
            return Word(w.alphabet, letters)
        pos, rule = hit
        letters = letters[:pos] + rule.rhs.letters + letters[pos + len(rule.lhs) :]
    raise RuntimeError(f"more than {budget} rewrites on {w}")


# ---------------------------------------------------------------------------
# Shortlex representatives: enumerate every word of length <= radius in
# shortlex order and keep the first one per element.


def shortlex_representatives(
    alphabet: Alphabet, key, radius: int
) -> dict[tuple[int, ...], Word]:
    """Element key (``key(w)``, hashable) -> shortlex least word of length
    <= radius representing it."""
    first: dict = {}
    for w in all_words(alphabet, radius):
        first.setdefault(key(w), w)
    return first


# ---------------------------------------------------------------------------
# Thompson's F normal form language, by its definition: no forbidden
# subword, and every prefix has x0-exponent-sum <= 0.


def thompson_f_direct(w: Word) -> bool:
    x0, X0, x1, X1 = (w.alphabet.index(t) for t in ("x0", "X0", "x1", "X1"))
    letters = w.letters
    forbidden2 = {(x0, X0), (X0, x0), (x1, X1), (X1, x1)}
    for i in range(len(letters) - 1):
        if (letters[i], letters[i + 1]) in forbidden2:
            return False
    for i in range(len(letters) - 2):
        if letters[i] == x0 and letters[i + 1] == x0 and letters[i + 2] in (x1, X1):
            return False
    s = 0
    for c in letters:
        if c == x0:
            s += 1
        elif c == X0:
            s -= 1
        if s > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Seashell filling letter by letter: each degenerate segment is built whole
# by `degenerate_diagram` and folded on by `seashell_glue`, each recursive
# piece by plain recursion on the flow, memoized per undirected edge.


def seashell_fill_reference(s, w: Word) -> tuple[VanKampenDiagram, dict]:
    """(diagram, memo) of the seashell filling of the trivial word ``w``."""
    memo: dict = {}

    def piece(y: Word, a: int) -> VanKampenDiagram:
        fwd = (y.letters, a)
        bwd = (s.normal_form(y.append(a)).letters, s.alphabet.inv(a))
        key = (min(fwd, bwd), max(fwd, bwd))
        if key in memo:
            stored, d = memo[key]
            return d if stored == fwd else d.mirror()
        phi = s.phi(y, a)
        d = walk(None, y, phi)
        # the boundary reads [out y][phi][back]: close phi with an a-edge
        out, mid = d.boundary[: len(y)], d.boundary[len(y) : len(y) + len(phi)]
        back = d.boundary[len(y) + len(phi) :]
        eid = max(d.edge_map) + 1
        fid = max((f for f, _ in d.faces), default=0) + 1
        edge = (eid, d.traverse(mid[0])[0], d.traverse(mid[-1])[1], a)
        d = VanKampenDiagram(
            d.alphabet, d.vertices, d.edges + (edge,),
            d.faces + ((fid, mid + (-eid,)),), d.basepoint, out + (eid,) + back,
        )
        memo[key] = (fwd, d)
        return d

    def walk(d, cur: Word, word: Word) -> VanKampenDiagram:
        for x in word:
            if s.is_degenerate(cur, x):
                p = degenerate_diagram((cur, x), s)
            else:
                p = piece(cur, x)
            d = p if d is None else seashell_glue(d, p, cur)
            cur = s.normal_form(cur.append(x))
        return d

    al = s.alphabet
    empty = VanKampenDiagram(al, ((1, al.empty()),), (), (), 1, ())
    return walk(empty, al.empty(), w), memo
