"""Independent oracles used to freeze derived values into the tests.

Everything here is deliberately naive and written against definitions,
not against the library's algorithms: affine-map evaluation for BS(1,2)
and its companion rewriting system, brute-force free reduction by trying
all cancellation orders, pseudo-random trivial-word generation by
relator and cancellation insertion, an exhaustive minimal-area search by
bounded relator application, the word that cancels a letter by trying
every word, shortlex representatives by enumerating all words, Cayley
balls by enumerating all words, leftmost-occurrence rewriting with a
brute-force subword search, one prefix rewriting step by trying every
subword, the two clauses of the Thompson's F normal
form language evaluated directly, the seashell filling built letter by
letter from whole diagrams, with its own segments, mirror and gluing,
the basepoint-path check of a diagram's vertex words walked from the
basepoint one vertex at a time, the five validation checks of a diagram
on words, a structure's normal-form tree stepped
from its root, the kind of a tree's edge read off its parent and last
letter, stacking reduction on whole words, and Cayley balls and
flow verification on whole words, edges classified by comparing words,
the objects a diagram's and a ball's json exports encode, Tutte's layout of a
diagram by exact elimination over the rationals, almost convexity by trying
every word and searching every pair, symmetrized relator sets by
their definition on whole words, and a stacking's relator set by one seed per sampled edge.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from stackings import (
    ACReport,
    Ball,
    DiagramError,
    DirectedEdge,
    EdgeKind,
    FlowReport,
    GeodesicReport,
    GroupElement,
    OutsideExploredRegionError,
    StackingStructure,
    StackingsError,
    StructureError,
    ValidationReport,
    VanKampenDiagram,
    Word,
    alpha,
)
from stackings.words import Alphabet, cyclic_rotations


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
    rels = sorted(symmetrized_closure_reference(relators), key=Word.shortlex_key)
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
    rels = sorted(symmetrized_closure_reference(relators), key=Word.shortlex_key)
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
# Cayley balls by enumeration: an element's distance is the length of the
# shortest word of length <= radius that represents it.


def ball_reference(oracle, radius: int):
    """(distances, edges) of B(radius): element letters -> distance; and
    (source, label, target, degenerate?) for every edge between elements,
    sources in shortlex order, then by label."""
    al = oracle.alphabet
    dist: dict = {}
    for w in all_words(al, radius):
        dist.setdefault(oracle.normal_form(w).letters, len(w))
    edges = []
    for g in sorted(dist, key=lambda g: (len(g), g)):
        for a in range(len(al)):
            h = oracle.normal_form(Word(al, g).append(a)).letters
            if h in dist:
                edges.append((g, a, h, g + (a,) == h or g == h + (al.inv(a),)))
    return dist, edges


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
    RuntimeError if it needs more than ``budget`` rewrites.

    After a rewrite at ``pos`` the scan resumes ``max |lhs| - 1`` letters
    earlier: no occurrence started before ``pos``, and one that starts
    earlier than that ends before the rewritten letters."""
    letters = w.letters
    reach = max(len(rule.lhs) for rule in S.rules) - 1
    start = 0
    for _ in range(budget + 1):
        hit = next(
            (
                (pos, rule)
                for pos in range(start, len(letters))
                for rule in S.rules
                if letters[pos : pos + len(rule.lhs)] == rule.lhs.letters
            ),
            None,
        )
        if hit is None:
            return Word(w.alphabet, letters)
        pos, rule = hit
        letters = letters[:pos] + rule.rhs.letters + letters[pos + len(rule.lhs) :]
        start = max(0, pos - reach)
    raise RuntimeError(f"more than {budget} rewrites on {w}")


# ---------------------------------------------------------------------------
# One prefix rewriting step by trying every subword: the shortest prefix with
# an lhs as a subword ends with that lhs, and the lowest-index rule whose lhs
# ends there rewrites it.


def prefix_rewrite_step_reference(S, w: Word) -> Word | None:
    """``w`` after one prefix rewriting step; None if it is irreducible."""
    first = {}  # lhs -> (index, rule) of the lowest-index rule with it
    for i, rule in enumerate(S.rules):
        first.setdefault(rule.lhs.letters, (i, rule))
    lengths = sorted({len(lhs) for lhs in first})
    letters = w.letters
    for end in range(1, len(letters) + 1):
        hits = [first[x] for n in lengths if n <= end and (x := letters[end - n : end]) in first]
        if hits:
            rule = min(hits, key=lambda hit: hit[0])[1]
            return Word(w.alphabet, letters[: end - len(rule.lhs)] + rule.rhs.letters + letters[end:])
    return None


# ---------------------------------------------------------------------------
# The irreducible form of a letter by trying every word: the shortlex least
# word z, avoiding one letter, whose product with the inverse letter b
# rewrites to the empty word.


def search_inverse_word_reference(S, b: int, exclude: int, max_len: int) -> Word | None:
    """The leftmost-rewriting irreducible form of the shortlex least word z
    of at most ``max_len`` letters, none of them ``exclude``, with b z
    rewriting to the empty word; None if there is none."""
    letters = [i for i in range(len(S.alphabet)) if i != exclude]
    for n in range(1, max_len + 1):
        for combo in product(letters, repeat=n):
            z = Word(S.alphabet, combo)
            if len(leftmost_reduce(S, S.alphabet.letter(b) * z)) == 0:
                return leftmost_reduce(S, z)
    return None


def trie_letters_reference(node) -> tuple[int, ...]:
    """The word of a node of a system's trie of irreducible words, read by
    walking its parents up to the root."""
    out = []
    while node.parent is not None:
        out.append(node.letter)
        node = node.parent
    return tuple(reversed(out))


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
# Seashell filling letter by letter, on whole diagrams: each degenerate
# segment is written out as a path from the basepoint and back, each
# recursive piece is built by plain recursion on the flow, memoized per
# undirected edge, and every diagram is folded onto the one before it by
# `seashell_glue`.


def empty_diagram(alphabet: Alphabet) -> VanKampenDiagram:
    """The diagram of the empty word: the basepoint alone."""
    return VanKampenDiagram(alphabet, ((1, alphabet.empty()),), (), (), 1, ())


def segment(s, y: Word, a: int) -> VanKampenDiagram:
    """The zero-face diagram of the degenerate edge (y, a): the path that
    spells the longer of y and the normal form of y a, out from the
    basepoint and back.  Vertex i + 1 is its prefix of length i."""
    y_ga = s.normal_form(y.append(a))
    if classify(y, a, y_ga) is not EdgeKind.DEGENERATE:
        raise DiagramError(f"edge ({y}, {s.alphabet.tokens[a]}) is not degenerate")
    z = max(y, y_ga, key=len)
    m = len(z)
    return VanKampenDiagram(
        s.alphabet,
        tuple((i + 1, z[:i]) for i in range(m + 1)),
        tuple((i + 1, i + 1, i + 2, x) for i, x in enumerate(z.letters)),
        (),
        1,
        tuple(range(1, m + 1)) + tuple(range(-m, 0)),
    )


def mirror(d: VanKampenDiagram) -> VanKampenDiagram:
    """Same complex with the boundary walk reversed; the boundary word
    becomes its formal inverse."""
    return VanKampenDiagram(
        d.alphabet,
        d.vertices,
        d.edges,
        d.faces,
        d.basepoint,
        tuple(-x for x in reversed(d.boundary)),
    )


def seashell_glue(
    d1: VanKampenDiagram, d2: VanKampenDiagram, shared: Word
) -> VanKampenDiagram:
    """Fold d2 onto d1 along a shared simple path from the basepoints.

    d1's boundary must end with a subpath labeled shared^{-1} and d2's must
    begin with one labeled shared; the two subpaths are identified edge by
    edge, basepoints merged, and the new boundary is d1's with its tail
    excised followed by d2's with its head excised.  d2's other cells get
    ids above d1's largest.
    """
    if d1.alphabet != d2.alphabet:
        raise DiagramError("cannot glue diagrams over different alphabets")
    b1, b2 = d1.boundary, d2.boundary
    n = len(shared)
    if n > len(b1) or n > len(b2):
        raise DiagramError("shared path longer than a boundary")
    # d1 side: walking backward from the basepoint spells `shared`; the
    # k-th shared edge (k = 1..n) is boundary entry -k from the end,
    # against its boundary direction.
    v1_prev, v2_prev = d1.basepoint, d2.basepoint
    seen_path = {d1.basepoint}
    vmap = {d2.basepoint: d1.basepoint}  # d2 vertex -> d1 vertex
    emap: dict[int, int] = {}  # traversal in d2 -> traversal in d1
    for k in range(1, n + 1):
        t, u = b1[-k], b2[k - 1]
        letter = shared.letters[k - 1]
        a1_start, a1_end, a1_letter = d1.traverse(-t)
        a2_start, a2_end, a2_letter = d2.traverse(u)
        if a1_letter != letter or a2_letter != letter:
            raise DiagramError(
                f"fold label mismatch at position {k} of shared path {shared}"
            )
        if a1_start != v1_prev or a2_start != v2_prev:
            raise DiagramError(f"shared path is not a boundary subpath at position {k}")
        if a1_end in seen_path:
            raise DiagramError(f"shared path {shared} is not simple")
        seen_path.add(a1_end)
        if d1.vertex_words[a1_end] != d2.vertex_words[a2_end]:
            raise DiagramError(
                f"vertex label mismatch along fold: {d1.vertex_words[a1_end]} "
                f"vs {d2.vertex_words[a2_end]}"
            )
        v1_prev, v2_prev = a1_end, a2_end
        emap[u], emap[-u] = -t, t
        vmap[a2_end] = a1_end
    v_off, e_off = max(d1.vertex_words, default=0), max(d1.edge_map, default=0)
    f_off = max((fid for fid, _ in d1.faces), default=0)

    def remap(walk) -> tuple[int, ...]:
        return tuple([emap.get(x) or (x + e_off if x > 0 else x - e_off) for x in walk])

    return VanKampenDiagram(
        d1.alphabet,
        d1.vertices + tuple((v_off + vid, w) for vid, w in d2.vertices if vid not in vmap),
        d1.edges + tuple(
            (e_off + eid, vmap.get(src, v_off + src), vmap.get(dst, v_off + dst), x)
            for eid, src, dst, x in d2.edges
            if eid not in emap
        ),
        d1.faces + tuple((f_off + fid, remap(walk)) for fid, walk in d2.faces),
        d1.basepoint,
        b1[: len(b1) - n] + remap(b2[n:]),
    )


def seashell_fill_reference(s, w: Word) -> tuple[VanKampenDiagram, dict]:
    """(diagram, memo) of the seashell filling of the trivial word ``w``."""
    memo: dict = {}

    def piece(y: Word, a: int) -> VanKampenDiagram:
        fwd = (y.letters, a)
        bwd = (s.normal_form(y.append(a)).letters, s.alphabet.inv(a))
        key = (min(fwd, bwd), max(fwd, bwd))
        if key in memo:
            stored, d = memo[key]
            return d if stored == fwd else mirror(d)
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
            nxt = s.normal_form(cur.append(x))
            if classify(cur, x, nxt) is EdgeKind.DEGENERATE:
                p = segment(s, cur, x)
            else:
                p = piece(cur, x)
            d = p if d is None else seashell_glue(d, p, cur)
            cur = nxt
        return d

    return walk(empty_diagram(s.alphabet), s.alphabet.empty(), w), memo


# ---------------------------------------------------------------------------
# A diagram's or a ball's json export as the object that
# ``json.dumps(obj, indent=2)`` encodes: ids, elements and edges in order,
# words and letters as text.


def diagram_json_obj(d: VanKampenDiagram) -> dict:
    return {
        "basepoint": d.basepoint,
        "vertices": [{"id": vid, "word": str(w)} for vid, w in sorted(d.vertices)],
        "edges": [
            {"id": eid, "from": src, "to": dst, "label": d.alphabet.tokens[label]}
            for eid, src, dst, label in sorted(d.edges)
        ],
        "faces": [{"id": fid, "boundary": list(walk)} for fid, walk in sorted(d.faces)],
        "boundary": list(d.boundary),
    }


def ball_json_obj(ball: Ball) -> dict:
    tokens = ball.alphabet.tokens
    return {
        "radius": ball.radius,
        "generators": list(tokens),
        "elements": [
            {"word": str(g.canonical), "distance": g.distance}
            for g in sorted(ball.elements.values(), key=lambda g: g.canonical.shortlex_key())
        ],
        "edges": [
            {
                "source": str(e.source.canonical),
                "label": tokens[e.label],
                "target": str(e.target.canonical),
                "classification": e.classification.value,
            }
            for e in sorted(ball.edges, key=lambda e: (e.source.canonical.shortlex_key(), e.label))
        ],
    }


# ---------------------------------------------------------------------------
# Tutte's barycentric layout solved exactly: the boundary walk's distinct
# vertices on the unit circle in walk order, each other vertex at the mean of
# its neighbours (with multiplicity), by dense Gauss-Jordan elimination over
# the rationals, pivoting on the first nonzero entry of each column.


def tutte_layout_reference(d: VanKampenDiagram) -> dict[int, tuple[float, float]]:
    ends = {eid: (src, dst) for eid, src, dst, _ in d.edges}
    walk = [d.basepoint]
    for sgn in d.boundary:
        src, dst = ends[abs(sgn)]
        walk.append(dst if sgn > 0 else src)
    ring: list[int] = []
    for v in walk[:-1] or walk:
        if v not in ring:
            ring.append(v)
    circle = {
        v: (math.cos(2 * math.pi * j / len(ring)), math.sin(2 * math.pi * j / len(ring)))
        for j, v in enumerate(ring)
    }
    free = sorted(vid for vid, _ in d.vertices if vid not in circle)
    col = {v: i for i, v in enumerate(free)}
    m = len(free)
    # row i: the equation of free[i], with the two right-hand sides in columns m, m + 1
    rows = [[Fraction(0)] * (m + 2) for _ in range(m)]
    degree = dict.fromkeys(free, 0)
    for _, src, dst, _ in d.edges:
        for v, u in ((src, dst), (dst, src)):
            if v in col:
                degree[v] += 1
                row = rows[col[v]]
                row[col[v]] += 1
                if u in col:
                    row[col[u]] -= 1
                else:
                    row[m] += Fraction(circle[u][0])
                    row[m + 1] += Fraction(circle[u][1])
    for v in free:
        if degree[v] == 0:  # no neighbours: the origin
            rows[col[v]][col[v]] = Fraction(1)
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(m):
            f = rows[r][c]
            if r != c and f != 0:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    layout = {v: (float(rows[col[v]][m]), float(rows[col[v]][m + 1])) for v in free}
    layout.update(circle)
    return layout


# ---------------------------------------------------------------------------
# The five validation checks on words, as the library made them before it
# walked tree nodes: each walk steps ``traverse`` entry by entry, and the
# ends of the basepoint paths are kept per prefix of a vertex word.


def _is_closed_walk_at(d: VanKampenDiagram, walk: tuple[int, ...], start: int) -> bool:
    cur = start
    for sgn in walk:
        if abs(sgn) not in d.edge_map:
            return False
        src, dst, _ = d.traverse(sgn)
        if src != cur:
            return False
        cur = dst
    return cur == start


def validate_reference(
    d: VanKampenDiagram,
    relators: set[Word],
    w: Word,
    s: StackingStructure,
) -> ValidationReport:
    """The five checks: boundary label, face labels, Euler/connectivity,
    basepoint-path vertex labels, and incidence consistency."""
    details: list[str] = []

    # (v) incidence consistency first, since the others walk the complex
    vids = set(d.vertex_words)
    consistent = len(vids) == len(d.vertices) and len(d.edge_map) == len(d.edges)
    for eid, src, dst, label in d.edges:
        if src not in vids or dst not in vids or not 0 <= label < len(d.alphabet):
            consistent = False
            details.append(f"edge {eid} has dangling endpoint or bad label")
    if d.basepoint not in vids:
        consistent = False
        details.append("basepoint is not a vertex")
    if consistent and not _is_closed_walk_at(d, d.boundary, d.basepoint):
        consistent = False
        details.append("boundary is not a closed walk at the basepoint")
    if consistent:
        for fid, walk in d.faces:
            if not walk or not _is_closed_walk_at(d, walk, d.traverse(walk[0])[0]):
                consistent = False
                details.append(f"face {fid} boundary is not a closed walk")

    # (i) boundary label
    boundary_ok = consistent and d.boundary_word() == w
    if consistent and not boundary_ok:
        details.append(f"boundary word {d.boundary_word()} != {w}")

    # (ii) each face label is a relator up to rotation/inversion
    faces_ok = consistent
    if consistent:
        inv = d.alphabet.inverse
        closed: set[tuple[int, ...]] = set()
        for r in relators:
            for x in (r.letters, tuple(inv[c] for c in reversed(r.letters))):
                closed.update(x[i:] + x[:i] for i in range(len(x)))
        for fid, walk in d.faces:
            letters = tuple(d.traverse(e)[2] for e in walk)
            if letters not in closed:
                faces_ok = False
                details.append(f"face {fid} label {Word(d.alphabet, letters)} is not a relator")

    # (iii) Euler characteristic and connectivity; the labelled adjacency
    # (vertex -> (letter read, end vertex)) built here also serves (iv)
    euler_ok = consistent and d.euler_characteristic() == 1
    if consistent and not euler_ok:
        details.append(f"V - E + F = {d.euler_characteristic()} != 1")
    if consistent:
        outgoing: dict[int, list[tuple[int, int]]] = {vid: [] for vid in vids}
        for _, src, dst, label in d.edges:
            outgoing[src].append((label, dst))
            outgoing[dst].append((d.alphabet.inv(label), src))
        seen = {d.basepoint}
        stack = [d.basepoint]
        while stack:
            for _, u in outgoing[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != vids:
            euler_ok = False
            details.append("1-skeleton is not connected")

    # (iv) vertex words are normal forms and label in-diagram basepoint paths.
    # The ends of the paths from the basepoint spelling L are S(L): S of the
    # empty word is the basepoint and S(L x) is the set of x-neighbours of
    # S(L), each found once, from the longest prefix already known.
    paths_ok = consistent
    if consistent:
        ends: dict[tuple[int, ...], set[int]] = {(): {d.basepoint}}

        def spelled(letters: tuple[int, ...]) -> set[int]:
            k = len(letters)
            while letters[:k] not in ends:
                k -= 1
            frontier = ends[letters[:k]]
            while k < len(letters) and frontier:
                x = letters[k]
                frontier = {dst for v in frontier for lab, dst in outgoing[v] if lab == x}
                k += 1
                ends[letters[:k]] = frontier
            return frontier

        for vid, word in d.vertices:
            if s.normal_form(word) != word:
                paths_ok = False
                details.append(f"vertex {vid} word {word} is not a normal form")
            elif vid not in spelled(word.letters):
                paths_ok = False
                details.append(f"vertex {vid} word {word} labels no basepoint path")

    return ValidationReport(
        boundary_matches=boundary_ok,
        faces_are_relators=faces_ok,
        euler_and_connected=euler_ok,
        basepoint_paths=paths_ok,
        incidence_consistent=consistent,
        details=details,
    )


# ---------------------------------------------------------------------------
# Basepoint paths vertex by vertex: each vertex word is a normal form and
# spells a path in the 1-skeleton from the basepoint to that vertex, found by
# following every edge that reads the next letter.


def basepoint_path_details(d: VanKampenDiagram, s) -> list[str]:
    """The failures of the basepoint-path check, one per offending vertex,
    in vertex order."""
    outgoing: dict = {vid: [] for vid, _ in d.vertices}
    for _, src, dst, label in d.edges:
        outgoing[src].append((label, dst))
        outgoing[dst].append((d.alphabet.inv(label), src))
    details = []
    for vid, word in d.vertices:
        if s.normal_form(word) != word:
            details.append(f"vertex {vid} word {word} is not a normal form")
            continue
        frontier = {d.basepoint}
        for letter in word:
            frontier = {dst for v in frontier for lab, dst in outgoing[v] if lab == letter}
        if vid not in frontier:
            details.append(f"vertex {vid} word {word} labels no basepoint path")
    return details


# ---------------------------------------------------------------------------
# The node of a word in a structure's normal-form tree, stepped from the
# root, past the memo that word-level requests go through; and the kind of
# a tree's edge, read off its parent and last letter.


def fold(s, w: Word):
    node = s.tree.root
    for a in w:
        node = s.tree.step(node, a)
    return node


def move_reference(tree, y, a: int) -> tuple:
    """``(step(y, a), tree_edge)`` by the tree's shape alone: the edge is a
    tree edge when its target is the child of ``y`` by ``a``, or ``y`` the
    child of its target by the inverse of ``a``."""
    t = tree.step(y, a)
    parent, last = tree.parent, tree.last
    return t, (parent(t) == y and last(t) == a) or (
        parent(y) == t and last(y) == tree.alphabet.inverse[a]
    )


# ---------------------------------------------------------------------------
# Stacking reduction on whole words: every prefix normal form is asked of
# the structure's word-level oracle, a degenerate edge is recognized by
# comparing words, and each phi image is spliced into the letter list.


def stacking_reduce_reference(s, w: Word, budget: int = 10**6) -> tuple[Word, int]:
    """(normal form of ``w``, number of phi steps) by rewriting the leftmost
    letter that lies on a recursive edge until none is left; raises
    RuntimeError after more than ``budget`` steps."""
    inv = s.alphabet.inverse
    letters = list(w.letters)
    prefix_forms = [s.alphabet.empty()]
    pos = steps = 0
    while pos < len(letters):
        y, a = prefix_forms[pos], letters[pos]
        y_next = s.normal_form(y.append(a))
        if y.append(a) == y_next or y == y_next.append(inv[a]):
            prefix_forms.append(y_next)
            pos += 1
            continue
        letters[pos : pos + 1] = s.phi(y, a).letters
        steps += 1
        if steps > budget:
            raise RuntimeError(f"more than {budget} phi steps on {w}")
    return Word(s.alphabet, tuple(letters)).free_reduce(), steps


# ---------------------------------------------------------------------------
# Cayley balls and flow verification on whole words: the ball asks its
# oracle for the normal form of each element times each letter and
# classifies an edge by comparing words; the verifier asks the structure's
# word-level oracle for each flow label and for the normal form of the
# source times the label.


def classify(y_g: Word, label: int, y_ga: Word) -> EdgeKind:
    """Degenerate iff y_g a = y_{ga} or y_g = y_{ga} a^{-1} as words."""
    if y_g.append(label) == y_ga:
        return EdgeKind.DEGENERATE
    if y_g == y_ga.append(y_g.alphabet.inv(label)):
        return EdgeKind.DEGENERATE
    return EdgeKind.RECURSIVE


def build_ball_reference(oracle, n: int, max_elements: int = 10**6) -> Ball:
    """B(n), searched breadth first over normal-form words."""
    alphabet = oracle.alphabet
    if len(oracle.normal_form(alphabet.empty())) != 0:
        raise StructureError("normal form of the empty word must be empty")
    elements = {(): GroupElement(alphabet.empty(), 0)}
    targets = {}
    frontier = [alphabet.empty()]
    for dist in range(1, n + 1):
        nxt = []
        for y in sorted(frontier, key=Word.shortlex_key):
            for a in range(len(alphabet)):
                target = targets[y.letters, a] = oracle.normal_form(y.append(a))
                if target.letters not in elements:
                    if len(elements) >= max_elements:
                        raise StackingsError(f"memory cap of {max_elements} elements exceeded")
                    elements[target.letters] = GroupElement(target, dist)
                    nxt.append(target)
        frontier = nxt

    edges = []
    edge_index = {}
    for g in sorted(elements.values(), key=lambda e: e.canonical.shortlex_key()):
        for a in range(len(alphabet)):
            y_ga = targets.get((g.canonical.letters, a))
            if y_ga is None:  # g lies on the last sphere
                y_ga = oracle.normal_form(g.canonical.append(a))
            target = elements.get(y_ga.letters)
            if target is None:
                continue
            e = DirectedEdge(g, a, target, classify(g.canonical, a, y_ga))
            edges.append(e)
            edge_index[(g.canonical.letters, a)] = e

    for g in elements.values():
        if len(g.canonical) == 0:
            continue
        prefix = g.canonical[: len(g.canonical) - 1]
        e = edge_index.get((prefix.letters, g.canonical.letters[-1]))
        if e is not None and e.classification is not EdgeKind.DEGENERATE:
            raise StructureError(f"prefix edge {e} is not degenerate")
    return Ball(n, alphabet, elements, edges, edge_index)


def _edge_name(alphabet, src: Word, a: int) -> dict:
    return {"source": str(src), "label": alphabet.tokens[a]}


def _region_path(region: Ball, src: Word, label: Word):
    edges = []
    y = src
    for b in label:
        e = region.edge(y, b)
        if e is None:
            return None
        edges.append(e)
        y = e.target.canonical
    return edges


def _raw_label(s: StackingStructure, e: DirectedEdge) -> Word:
    """The flow label of ``e`` read as the verifier reads it, with no check
    of the stacking map's contract, so that a bad image can be reported:
    the letter on a degenerate edge, else ``phi_fn`` at the source's node."""
    if e.classification is EdgeKind.DEGENERATE:
        return s.alphabet.letter(e.label)
    return s.phi_fn(s.tree.node(e.source.canonical), e.label)


def verify_flow_reference(flow, ball: Ball, region: Ball | None = None) -> FlowReport:
    """The flow report, with each label read raw by :func:`_raw_label` and
    (F1) checked by the normal form of the source times the label."""
    s = flow.structure
    region = region or ball
    report = FlowReport(radius=ball.radius, k=s.bound_k)
    flow_paths = {}

    def label_and_path(e: DirectedEdge):
        key = (e.source.canonical.letters, e.label)
        if key not in flow_paths:
            label = _raw_label(s, e)
            flow_paths[key] = label, _region_path(region, e.source.canonical, label)
        return flow_paths[key]

    for e in ball.edges:
        report.edges_checked += 1
        src, a = e.source.canonical, e.label
        name = _edge_name(s.alphabet, src, a)
        label, path = label_and_path(e)
        if e.classification is EdgeKind.DEGENERATE:
            if label.letters != (a,):
                report.f2d_failures.append(name)
                continue
        else:
            if label.letters == (a,):
                report.strictness_failures.append(name)
            if len(label) > s.bound_k:
                report.bound_failures.append(name)
        if s.normal_form(src * label) != e.target.canonical:
            report.f1_failures.append(name)
        if path is None:
            report.inconclusive += 1

    successors = {}
    for e in region.edges:
        if e.classification is not EdgeKind.RECURSIVE:
            continue
        key = (e.source.canonical.letters, e.label)
        _, path = label_and_path(e)
        successors[key] = [
            (p.source.canonical.letters, p.label)
            for p in path or ()
            if p.classification is EdgeKind.RECURSIVE
        ]

    cyc = first_cycle_reference(successors)
    if cyc is not None:
        report.cycle = [_edge_name(s.alphabet, Word(s.alphabet, ltrs), a) for ltrs, a in cyc]
    return report


def first_cycle_reference(successors: dict) -> list | None:
    """The first cycle a recursive depth-first search of ``successors``
    meets, from each node in dict order: the search path from the node
    where the cycle closes to its end."""
    color = {}
    stack_trace = []

    def visit(node):
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
                return cyc
    return None


def verify_geodesic_reference(flow, ball: Ball, region: Ball | None = None) -> GeodesicReport:
    """The geodesic report, with each label read raw by :func:`_raw_label`."""
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
        path = _region_path(region, src, _raw_label(s, e))
        if path is None:
            report.inconclusive += 1
            continue
        for p in path:
            if p.classification is EdgeKind.RECURSIVE and not alpha(p) < alpha(e):
                report.alpha_failures.append(
                    {
                        "edge": _edge_name(s.alphabet, e.source.canonical, e.label),
                        "path_edge": _edge_name(s.alphabet, p.source.canonical, p.label),
                        "alpha_edge": str(alpha(e)),
                        "alpha_path_edge": str(alpha(p)),
                    }
                )
    return report


# ---------------------------------------------------------------------------
# Almost convexity by trying every word: the shortlex least connecting word
# is the first word, in shortlex order, whose path stays in the ball; the
# check searches, per sphere pair, breadth first along enumerated edges.


def least_connecting_word_reference(
    box, start: Word, goal: Word, max_len: int, ball_bound: int
) -> Word | None:
    """Shortlex least word of length <= max_len labeling a path from start
    to goal in B(ball_bound) of ``box`` (a shortlex tree), never along an
    edge with both ends on the bounding sphere.  A shortlex word is
    geodesic, so its length is its element's distance."""
    for w in all_words(box.alphabet, max_len):
        cur, prev_dist, ok = start, len(start), True
        for b in w.letters:
            try:
                cur = box.fn(cur.append(b))
            except OutsideExploredRegionError:
                ok = False
                break
            d = len(cur)
            if d > ball_bound or (d == ball_bound and prev_dist == ball_bound):
                ok = False
                break
            prev_dist = d
        if ok and cur == goal:
            return w
    return None


def almost_convexity_reference(oracle, n_max: int, k_ac: int) -> ACReport:
    """The almost convexity report from the enumerated ball B(n_max + 1):
    every pair of S(n) elements at distance <= 2, in shortlex order of the
    first and key order of the second, searched breadth first in B(n)."""
    report = ACReport(n_max=n_max, k=k_ac)
    if n_max == 0:
        return report
    dist, edges = ball_reference(oracle, n_max + 1)
    neighbors: dict = {}
    for g, _, h, _ in edges:
        neighbors.setdefault(g, set()).add(h)
    words = {g: Word(oracle.alphabet, g) for g in dist}
    for n in range(1, n_max + 1):
        for g in sorted((g for g in dist if dist[g] == n), key=lambda g: (len(g), g)):
            close = {v for u in neighbors[g] for v in neighbors[u] | {u} if dist[v] == n}
            for h in sorted(close - {g}):
                if h < g:
                    continue
                report.pairs_checked += 1
                seen, frontier = {g}, {g}
                for _ in range(k_ac):
                    frontier = {
                        v for u in frontier for v in neighbors[u] if dist[v] <= n
                    } - seen
                    seen |= frontier
                if h not in seen:
                    report.failures.append({"n": n, "g": str(words[g]), "h": str(words[h])})
    return report


def symmetrized_closure_reference(seed) -> set[Word]:
    """Closure of a word set under inversion, cyclic conjugation and free
    reduction, except the empty word, on whole words."""
    pending = [w.free_reduce() for w in seed]
    out: set[Word] = set()
    while pending:
        w = pending.pop()
        if len(w) == 0 or w in out:
            continue
        out.add(w)
        for c in [*cyclic_rotations(w), w.inverse()]:
            c = c.free_reduce()
            if len(c) > 0 and c not in out:
                pending.append(c)
    return out


def is_symmetrized(relators: set[Word]) -> bool:
    """Whether every relator is nonempty and freely reduced, and the set
    holds its inverse and its cyclic rotations."""
    return all(
        len(r) > 0
        and r.is_freely_reduced()
        and r.inverse() in relators
        and all(c in relators for c in cyclic_rotations(r))
        for r in relators
    )


def stacking_relation_set_reference(s, edge_sample) -> set[Word]:
    """The closure of phi(e) a^-1, one seed per sampled edge (source word,
    letter), under inversion, cyclic conjugation and free reduction; a
    member longer than k + 1 is a StructureError."""
    seeds = [s.phi(src, a).append(s.alphabet.inv(a)).free_reduce() for src, a in edge_sample]
    closed = symmetrized_closure_reference(seeds)
    for r in closed:
        if len(r) > s.bound_k + 1:
            raise StructureError(f"relator {r} longer than k+1 = {s.bound_k + 1}")
    return closed
