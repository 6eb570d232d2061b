"""Van Kampen diagrams as combinatorial planar 2-complexes.

A diagram stores vertices labeled by normal-form words, one record per
undirected edge with a signed-id traversal convention (+k traverses edge k
along its stored direction, -k against it), faces as closed signed walks,
a basepoint, and the boundary walk.  All construction goes through one
mutable builder that folds on tree segments and recursive pieces along
basepoint paths (seashell gluing) and caps each recursive edge with its
2-cell, so planarity and contractibility hold by construction;
``validate_diagram`` audits them via the Euler characteristic.

Diagrams need not be reduced, and spur edges (bounding no face) are kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Generator

from .cayley import EdgeKind, classify
from .errors import BudgetExceededError, DiagramError, FormatError
from .rewriting import DEFAULT_BUDGET
from .stacking import StackingStructure
from .words import Alphabet, Word

__all__ = [
    "VanKampenDiagram",
    "degenerate_diagram",
    "recursive_diagram",
    "seashell_glue",
    "build_filling_diagram",
    "ValidationReport",
    "validate_diagram",
    "area",
    "export_diagram",
    "import_diagram",
]


@dataclass(frozen=True)
class VanKampenDiagram:
    """Immutable combinatorial map.

    ``vertices``: (id, normal-form word) pairs; ``edges``: (id, from-vertex,
    to-vertex, letter); ``faces``: (id, closed signed-edge walk);
    ``boundary``: closed signed-edge walk starting and ending at
    ``basepoint``.
    """

    alphabet: Alphabet
    vertices: tuple[tuple[int, Word], ...]
    edges: tuple[tuple[int, int, int, int], ...]
    faces: tuple[tuple[int, tuple[int, ...]], ...]
    basepoint: int
    boundary: tuple[int, ...]

    @cached_property
    def vertex_words(self) -> dict[int, Word]:
        return {vid: w for vid, w in self.vertices}

    @cached_property
    def edge_map(self) -> dict[int, tuple[int, int, int]]:
        return {eid: (src, dst, label) for eid, src, dst, label in self.edges}

    def traverse(self, signed: int) -> tuple[int, int, int]:
        """(start vertex, end vertex, letter read) of a signed traversal."""
        src, dst, label = self.edge_map[abs(signed)]
        if signed > 0:
            return src, dst, label
        return dst, src, self.alphabet.inv(label)

    def walk_word(self, walk: tuple[int, ...]) -> Word:
        return Word(self.alphabet, tuple(self.traverse(s)[2] for s in walk))

    def boundary_word(self) -> Word:
        return self.walk_word(self.boundary)

    def face_word(self, face_walk: tuple[int, ...]) -> Word:
        return self.walk_word(face_walk)

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def mirror(self) -> "VanKampenDiagram":
        """Same complex with the boundary walk reversed; the boundary word
        becomes its formal inverse."""
        return VanKampenDiagram(
            self.alphabet,
            self.vertices,
            self.edges,
            self.faces,
            self.basepoint,
            tuple(-s for s in reversed(self.boundary)),
        )


def area(d: VanKampenDiagram) -> int:
    """Number of 2-cells."""
    return len(d.faces)


def _empty_diagram(alphabet: Alphabet) -> VanKampenDiagram:
    return VanKampenDiagram(alphabet, ((1, Word(alphabet, ())),), (), (), 1, ())


def _segment_diagram(s: StackingStructure, spelled: Word) -> VanKampenDiagram:
    """Path diagram spelling ``spelled`` from the basepoint, boundary going
    out along the path and straight back."""
    alphabet = s.alphabet
    vertices = tuple(
        (i + 1, s.normal_form(spelled[:i])) for i in range(len(spelled) + 1)
    )
    edges = tuple(
        (i + 1, i + 1, i + 2, spelled.letters[i]) for i in range(len(spelled))
    )
    m = len(spelled)
    boundary = tuple(range(1, m + 1)) + tuple(range(-m, 0))
    return VanKampenDiagram(alphabet, vertices, edges, (), 1, boundary)


def degenerate_diagram(e: tuple[Word, int], s: StackingStructure) -> VanKampenDiagram:
    """Zero-face segment for a degenerate edge; boundary word is
    y_g a y_{ga}^{-1} with the doubled step collapsed into the segment."""
    w, a = e
    y_g = s.normal_form(w)
    if not s.is_degenerate(y_g, a):
        raise DiagramError(
            f"edge ({y_g}, {s.alphabet.tokens[a]}) is not degenerate"
        )
    y_ga = s.normal_form(y_g.append(a))
    longer = y_ga if len(y_ga) > len(y_g) else y_g
    return _segment_diagram(s, longer)


def recursive_diagram(
    e: tuple[Word, int],
    s: StackingStructure,
    memo: dict | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VanKampenDiagram:
    """Normal-form diagram of a recursive edge, by Noetherian recursion on
    the flow: seashell-glue the diagrams of the edges of Phi(e), then attach
    one 2-cell labeled by the stacking relator phi(e) a^{-1}.

    Memoized per undirected edge; the orientation constructed first is
    stored and the reverse orientation is served as its mirror.  A cyclic
    flow or an explosion of distinct edges exhausts ``budget``.
    """
    if memo is None:
        memo = {}
    w, a = e
    y_g = s.normal_form(w)
    if s.is_degenerate(y_g, a):
        raise DiagramError(f"edge ({y_g}, {s.alphabet.tokens[a]}) is not recursive")
    return _piece_diagram(s, *_recursive_diagram((y_g, a), s, memo, _fresh_state(budget)))


def _fresh_state(budget: int) -> dict:
    return {"budget": budget, "in_progress": set()}


class _DiagramBuilder:
    """A diagram under construction, stored relative to a spur.

    The spur is a path of ``depth`` edges from the basepoint that the
    boundary walk goes out along first and comes back along last.  Its
    vertices have ids 1 to depth + 1 (the basepoint is 1 when the depth is
    positive) and its edges ids 1 to depth, edge d joining the vertex at
    depth d - 1 to the one at depth d.  The spur is not stored: ``boundary``
    holds the arc between, a closed walk at the spur's top vertex, and the
    vertex, edge and face lists hold the rest of the diagram in the order of
    the whole diagram.  The largest ids in use count the spur, and
    ``vertex_words``/``edge_map`` are kept up to date in place.

    The piece of a recursive edge (y_g, a) is a finished builder whose
    ``ends`` are (y_g, y_{ga}).  Its spur spells a common prefix of the two,
    and its arc reads the rest of y_g, then a, then the rest of y_{ga}
    backwards, so gluing it costs the size of the piece above the spur and
    not the length of y_g.  A builder with an empty spur that stores its
    basepoint is a whole diagram, and ``freeze`` hands its lookups over to
    the immutable diagram, so it is not used after that.
    """

    def __init__(
        self, alphabet: Alphabet, depth: int, vmax: int, emax: int, fmax: int = 0,
        basepoint: int = 1,
    ):
        self.alphabet = alphabet
        self.depth = depth
        self.basepoint = basepoint
        self.vertices: list[tuple[int, Word]] = []
        self.edges: list[tuple[int, int, int, int]] = []
        self.faces: list[tuple[int, tuple[int, ...]]] = []
        self.boundary: list[int] = []
        self.vertex_words: dict[int, Word] = {}
        self.edge_map: dict[int, tuple[int, int, int]] = {}
        self.vmax, self.emax, self.fmax = vmax, emax, fmax
        self.ends: tuple[Word, Word] | None = None

    @classmethod
    def of_diagram(cls, d: VanKampenDiagram) -> "_DiagramBuilder":
        b = cls(
            d.alphabet, 0, max(d.vertex_words, default=0), max(d.edge_map, default=0),
            max((fid for fid, _ in d.faces), default=0), d.basepoint,
        )
        b._fill(d, list(d.boundary))
        return b

    @classmethod
    def of_piece(cls, p: "_DiagramBuilder", flip: bool) -> "_DiagramBuilder":
        """A copy of the piece ``p``, mirrored if ``flip``."""
        b = cls(p.alphabet, p.depth, p.vmax, p.emax, p.fmax)
        b._fill(p, p.arc(flip))
        return b

    def _fill(self, d, boundary: list[int]) -> None:
        self.vertices = list(d.vertices)
        self.edges = list(d.edges)
        self.faces = list(d.faces)
        self.boundary = boundary
        self.vertex_words = dict(d.vertex_words)
        self.edge_map = dict(d.edge_map)

    traverse = VanKampenDiagram.traverse  # reads only alphabet and edge_map

    def arc(self, flip: bool) -> list[int]:
        """The arc, read backwards if ``flip`` (the mirror's arc)."""
        return [-sgn for sgn in reversed(self.boundary)] if flip else list(self.boundary)

    def add_vertex(self, vid: int, w: Word) -> None:
        self.vertices.append((vid, w))
        self.vertex_words[vid] = w
        self.vmax = max(self.vmax, vid)

    def add_edge(self, eid: int, src: int, dst: int, label: int) -> None:
        self.edges.append((eid, src, dst, label))
        self.edge_map[eid] = (src, dst, label)
        self.emax = max(self.emax, eid)

    def add_face(self, fid: int, walk: tuple[int, ...]) -> None:
        self.faces.append((fid, walk))
        self.fmax = max(self.fmax, fid)

    def _lower(self, depth: int, spur: list[tuple[Word, int]]) -> None:
        """Store the spur above ``depth`` and make it part of the arc.

        ``spur`` holds the vertex word and the edge letter at each depth from
        ``depth + 1`` up.  The stored vertices and edges go in front of the
        others, where the whole diagram lists the spur.
        """
        h = self.depth
        ids = range(depth + 1, h + 1)
        vertices = [(d + 1, w) for d, (w, _) in zip(ids, spur)]
        edges = [(d, d, d + 1, x) for d, (_, x) in zip(ids, spur)]
        self.vertices[:0] = vertices
        self.edges[:0] = edges
        self.vertex_words.update(vertices)
        self.edge_map.update((eid, (src, dst, x)) for eid, src, dst, x in edges)
        self.boundary[:0] = ids
        self.boundary.extend(range(-h, -depth))
        self.depth = depth
        self.vmax, self.emax = max(self.vmax, h + 1), max(self.emax, h)

    def tree_step(self, y: Word, x: int, y_next: Word) -> None:
        """Fold on the segment of the degenerate edge from ``y`` by ``x``,
        where the boundary ends with the back path of ``y``.

        The fold of the whole segment keeps only its last edge and vertex,
        so only those are added, under the ids the fold gives them; a step
        back along the tree adds nothing, as the back path of ``y`` already
        reads ``x`` and then the back path of ``y_next``, unless it steps
        down the spur, whose top edge then joins the arc.
        """
        n, b, h = len(y), self.boundary, self.depth
        if len(y_next) < n:
            if n == h:
                self._lower(h - 1, [(y, y.letters[-1])])
            return
        at = len(b) - (n - h)
        if n > h:
            src = self.traverse(b[at])[0]
        else:  # the spur's top vertex
            src = h + 1 if h else self.basepoint
        vid, eid = self.vmax + n + 2, self.emax + n + 1
        self.add_vertex(vid, y_next)
        self.add_edge(eid, src, vid, x)
        b[at:at] = (eid, -eid)

    def glue(self, p: "_DiagramBuilder", flip: bool, y: Word) -> None:
        """Fold on the piece ``p``, mirrored if ``flip``, along the back
        path of ``y``, with the ids and boundary of folding on the whole
        piece."""
        source, target = p.ends
        if (target if flip else source).letters != y.letters:
            raise DiagramError(f"the piece glued at {y} starts at another vertex")
        self._fold(p, p.arc(flip), len(y))

    def _fold(self, p: "_DiagramBuilder", arc: list[int], n: int) -> None:
        """Fold on the diagram ``p`` with the arc ``arc``, whose out path of
        length ``n`` is identified with the back path at the end of this
        boundary.

        The entries of the back path are found by their index in the
        boundary: the one at depth d, above the spur, is the (d - depth)-th
        from the end and leads from depth d to depth d - 1.  New vertices,
        edges and faces get ``vmax + vid``, ``emax + eid`` and
        ``fmax + fid``.  Edges may end on p's spur, but faces and arcs never
        use spur edges: an arc is built from tree steps, caps and the arcs
        of pieces, all above their spurs.
        """
        hp = p.depth
        if hp < self.depth:
            # p's out path supplies the words and letters of this spur above hp
            steps = [p.traverse(u)[1:] for u in arc[: self.depth - hp]]
            self._lower(hp, [(p.vertex_words[v], x) for v, x in steps])
        b, h = self.boundary, self.depth
        end = len(b)
        vmap = {p.basepoint: self.basepoint}  # p vertex -> vertex here
        emap: dict[int, int] = {}  # traversal in p -> traversal here
        for d in range(hp + 1, n + 1):
            u, t = arc[d - hp - 1], -b[end - (d - h)]
            emap[u], emap[-u] = t, -t
            vmap[p.traverse(u)[1]] = self.traverse(t)[1]

        v_off, e_off, f_off = self.vmax, self.emax, self.fmax

        def spur_vertex(v: int) -> int:  # p's spur vertex at depth v - 1
            return v if v - 1 <= h else self.traverse(b[end - (v - 1 - h)])[0]

        def remap(walk) -> tuple[int, ...]:
            return tuple([emap.get(x) or (x + e_off if x > 0 else x - e_off) for x in walk])

        vertices = [(v_off + vid, w) for vid, w in p.vertices if vid not in vmap]
        vmap.update((vid - v_off, vid) for vid, _ in vertices)  # p's id -> new id
        get = vmap.get
        edges = [
            (e_off + eid, get(src) or spur_vertex(src), get(dst) or spur_vertex(dst), x)
            for eid, src, dst, x in p.edges
            if eid not in emap
        ]
        faces = [(f_off + fid, remap(walk)) for fid, walk in p.faces]
        self.vertices += vertices
        self.vertex_words.update(vertices)
        self.edges += edges
        self.edge_map.update((eid, (src, dst, x)) for eid, src, dst, x in edges)
        self.faces += faces
        # ids are unique, so the largest tuple has the largest id
        self.vmax = max(self.vmax, max(vertices, default=(0,))[0])
        self.emax = max(self.emax, max(edges, default=(0,))[0])
        self.fmax = max(self.fmax, max(faces, default=(0,))[0])
        b[end - (n - h) : end - (hp - h)] = remap(arc[n - hp :])

    def cap(self, out_len: int, mid_len: int, a: int) -> None:
        """Close the arc of ``mid_len`` boundary entries after the first
        ``out_len`` with a new ``a``-edge and the 2-cell it encloses."""
        b, i = self.boundary, out_len - self.depth
        mid = tuple(b[i : i + mid_len])
        eid, fid = self.emax + 1, self.fmax + 1
        self.add_edge(eid, self.traverse(mid[0])[0], self.traverse(mid[-1])[1], a)
        self.add_face(fid, mid + (-eid,))
        b[i : i + mid_len] = (eid,)

    def freeze(self) -> VanKampenDiagram:
        d = VanKampenDiagram(
            self.alphabet,
            tuple(self.vertices),
            tuple(self.edges),
            tuple(self.faces),
            self.basepoint,
            tuple(self.boundary),
        )
        # seed the diagram's cached lookups with the ones built here
        d.__dict__.update(vertex_words=self.vertex_words, edge_map=self.edge_map)
        return d


def _piece_diagram(s: StackingStructure, p: _DiagramBuilder, flip: bool) -> VanKampenDiagram:
    """The whole diagram of the piece ``p``, mirrored if ``flip``: its spur,
    with the normal forms of the prefixes of y_g as words, then the rest."""
    y, h = p.ends[0], p.depth
    d = VanKampenDiagram(
        p.alphabet,
        tuple((i + 1, s.normal_form(y[:i])) for i in range(h + 1)) + tuple(p.vertices),
        tuple((i, i, i + 1, y.letters[i - 1]) for i in range(1, h + 1)) + tuple(p.edges),
        tuple(p.faces),
        1,
        tuple(range(1, h + 1)) + tuple(p.boundary) + tuple(range(-h, 0)),
    )
    return d.mirror() if flip else d


def _seashell_walk(
    s: StackingStructure, b: _DiagramBuilder | None, start: Word, word: Word
) -> Generator[tuple[Word, int], tuple[_DiagramBuilder, bool], _DiagramBuilder]:
    """Fold one normal-form diagram per letter of ``word`` into ``b`` (or
    start it from the first one), each at the normal form of the prefix read
    so far from ``start``, which must be a normal form.

    A generator: it yields each recursive edge as a (source, letter) pair,
    is sent that edge's piece and whether to mirror it, and returns the
    builder.  A walk that starts with a tree letter starts from a spur that
    spells ``start``.
    """
    cur = start
    for x in word:
        nxt = s.normal_form(cur.append(x))
        if classify(cur, x, nxt) is EdgeKind.DEGENERATE:
            if b is None:
                # no ids in use, so the step's ids are the segment's own
                b = _DiagramBuilder(s.alphabet, len(cur), 0, 0)
            b.tree_step(cur, x, nxt)
        else:
            p, flip = yield cur, x
            if b is None:
                b = _DiagramBuilder.of_piece(p, flip)
            else:
                b.glue(p, flip, cur)
        cur = nxt
    return b


def _recursive_diagram(
    pair: tuple[Word, int], s: StackingStructure, memo: dict, state: dict
) -> tuple[_DiagramBuilder, bool]:
    """Piece of the recursive edge ``pair`` from a normal form, and whether
    it is the memoized piece of the reverse orientation, to be mirrored.

    The edges under construction sit on an explicit stack, each with its
    suspended seashell walk, so the depth of the flow is not limited by
    Python's recursion limit.
    """
    frames: list[tuple[Word, Word, int, tuple, int, Generator]] = []
    while True:
        y_g, a = pair
        y_ga = s.normal_form(y_g.append(a))
        fwd, bwd = (y_g.letters, a), (y_ga.letters, s.alphabet.inv(a))
        key = min(fwd, bwd), max(fwd, bwd)
        if key in memo:
            stored_pair, p = memo[key]
            d = (p, stored_pair != fwd)
        else:
            if key in state["in_progress"]:
                raise BudgetExceededError(
                    f"cyclic flow at edge ({y_g}, {s.alphabet.tokens[a]}): "
                    "well-foundedness violated"
                )
            state["budget"] -= 1
            if state["budget"] < 0:
                raise BudgetExceededError("diagram recursion budget exceeded")
            state["in_progress"].add(key)
            phi = s.phi(y_g, a)
            walk = _seashell_walk(s, None, y_g, phi)
            frames.append((y_g, y_ga, a, key, len(phi), walk))
            d = None  # a new walk is started by sending it None
        while frames:
            y_g, y_ga, a, key, mid_len, walk = frames[-1]
            try:
                pair = walk.send(d)
                break
            except StopIteration as done:
                # phi represents a nontrivial element, so phi != empty and
                # the walk built a piece.  Its boundary is [out y_g][one
                # entry per phi letter][back y_{ga}^-1]; capping the phi arc
                # with a new a-edge encloses the 2-cell labeled phi a^-1.
                p = done.value
                p.cap(len(y_g), mid_len, a)
                p.ends = (y_g, y_ga)
                d = (p, False)
            frames.pop()
            state["in_progress"].discard(key)
            memo[key] = ((y_g.letters, a), p)
        else:
            return d


def seashell_glue(
    d1: VanKampenDiagram, d2: VanKampenDiagram, shared: Word
) -> VanKampenDiagram:
    """Fold d2 onto d1 along a shared simple path from the basepoints.

    d1's boundary must end with a subpath labeled shared^{-1} and d2's must
    begin with one labeled shared; the two subpaths are identified edge by
    edge, basepoints merged, and the new boundary is d1's with its tail
    excised followed by d2's with its head excised.
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
    b = _DiagramBuilder.of_diagram(d1)
    b._fold(_DiagramBuilder.of_diagram(d2), list(b2), n)
    return b.freeze()


def build_filling_diagram(
    s: StackingStructure,
    w: Word,
    memo: dict | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VanKampenDiagram:
    """Van Kampen diagram with boundary word exactly ``w`` (seashell
    filling): one normal-form diagram per letter of w, glued in sequence
    along the normal forms of the prefixes.  Each letter's recursive piece
    gets its own ``budget``."""
    if len(s.normal_form(w)) != 0:
        raise DiagramError(f"word {w} is not trivial in the group")
    if memo is None:
        memo = {}
    walk = _seashell_walk(
        s, _DiagramBuilder.of_diagram(_empty_diagram(s.alphabet)), s.alphabet.empty(), w
    )
    d = None
    try:
        while True:
            pair = walk.send(d)
            d = _recursive_diagram(pair, s, memo, _fresh_state(budget))
    except StopIteration as done:
        # close up: the final back path spells the normal form of w, which is empty
        return done.value.freeze()


# ---------------------------------------------------------------------------
# Validation.


@dataclass
class ValidationReport:
    boundary_matches: bool
    faces_are_relators: bool
    euler_and_connected: bool
    basepoint_paths: bool
    incidence_consistent: bool
    details: list[str]

    @property
    def passed(self) -> bool:
        return (
            self.boundary_matches
            and self.faces_are_relators
            and self.euler_and_connected
            and self.basepoint_paths
            and self.incidence_consistent
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": {
                    "boundary_matches": self.boundary_matches,
                    "faces_are_relators": self.faces_are_relators,
                    "euler_and_connected": self.euler_and_connected,
                    "basepoint_paths": self.basepoint_paths,
                    "incidence_consistent": self.incidence_consistent,
                },
                "details": self.details,
            },
            indent=2,
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"diagram validation: {status}"
        if self.details:
            out += "; " + "; ".join(self.details)
        return out


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


def validate_diagram(
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
            if not s.in_normal_forms(word):
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
# Export / import.


def _diagram_json_obj(d: VanKampenDiagram) -> dict:
    return {
        "basepoint": d.basepoint,
        "vertices": [
            {"id": vid, "word": str(w)} for vid, w in sorted(d.vertices)
        ],
        "edges": [
            {"id": eid, "from": src, "to": dst, "label": d.alphabet.tokens[label]}
            for eid, src, dst, label in sorted(d.edges)
        ],
        "faces": [
            {"id": fid, "boundary": list(walk)} for fid, walk in sorted(d.faces)
        ],
        "boundary": list(d.boundary),
    }


def export_diagram(d: VanKampenDiagram, format: str = "json") -> bytes:
    """Serialize: full combinatorial map (json), labeled 1-skeleton (dot),
    or a Tutte-style planar drawing with shaded faces (svg)."""
    if format == "json":
        return (json.dumps(_diagram_json_obj(d), indent=2) + "\n").encode()
    if format == "dot":
        lines = ["graph diagram {"]
        for vid, w in sorted(d.vertices):
            label = str(w) if len(w) else "1"
            shape = ' shape="doublecircle"' if vid == d.basepoint else ""
            lines.append(f'  v{vid} [label="{label}"{shape}];')
        for eid, src, dst, label in sorted(d.edges):
            lines.append(f'  v{src} -- v{dst} [label="{d.alphabet.tokens[label]}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    if format == "svg":
        return _render_svg(d)
    raise FormatError(f"unknown diagram export format {format!r}")


def import_diagram(data: bytes | str, alphabet: Alphabet) -> VanKampenDiagram:
    """Inverse of the json export (the alphabet is supplied externally)."""
    obj = json.loads(data)
    try:
        vertices = tuple(
            (v["id"], alphabet.word(v["word"])) for v in obj["vertices"]
        )
        edges = tuple(
            (e["id"], e["from"], e["to"], alphabet.index(e["label"]))
            for e in obj["edges"]
        )
        faces = tuple((f["id"], tuple(f["boundary"])) for f in obj["faces"])
        return VanKampenDiagram(
            alphabet, vertices, edges, faces, obj["basepoint"], tuple(obj["boundary"])
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed diagram json: {exc}") from None


def _render_svg(d: VanKampenDiagram, size: int = 480) -> bytes:
    import numpy as np

    vids = [vid for vid, _ in sorted(d.vertices)]
    idx = {vid: i for i, vid in enumerate(vids)}
    n = len(vids)
    pos = np.zeros((n, 2))

    # pin the boundary walk's vertices on a circle, in walk order
    outer: list[int] = [d.basepoint]
    for sgn in d.boundary:
        outer.append(d.traverse(sgn)[1])
    outer = list(dict.fromkeys(outer[:-1] if len(outer) > 1 else outer))
    for j, vid in enumerate(outer):
        ang = 2 * np.pi * j / max(len(outer), 1)
        pos[idx[vid]] = (np.cos(ang), np.sin(ang))

    interior = [i for i in range(n) if vids[i] not in set(outer)]
    if interior:
        # Tutte: each interior vertex at the barycenter of its neighbors
        nbrs: dict[int, list[int]] = {i: [] for i in range(n)}
        for _, src, dst, _ in d.edges:
            nbrs[idx[src]].append(idx[dst])
            nbrs[idx[dst]].append(idx[src])
        m = len(interior)
        loc = {v: r for r, v in enumerate(interior)}
        A = np.zeros((m, m))
        b = np.zeros((m, 2))
        for v in interior:
            r = loc[v]
            deg = max(len(nbrs[v]), 1)
            A[r, r] = deg
            for u in nbrs[v]:
                if u in loc:
                    A[r, loc[u]] -= 1
                else:
                    b[r] += pos[u]
        sol = np.linalg.solve(A, b)
        for v in interior:
            pos[v] = sol[loc[v]]

    pad, half = 40, size / 2
    xy = pos * (half - pad) + half
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for fid, walk in sorted(d.faces):
        pts = " ".join(
            f"{xy[idx[d.traverse(sg)[0]]][0]:.1f},{xy[idx[d.traverse(sg)[0]]][1]:.1f}"
            for sg in walk
        )
        out.append(f'<polygon points="{pts}" fill="#cfe2ff" stroke="none"/>')
    for eid, src, dst, label in sorted(d.edges):
        x1, y1 = xy[idx[src]]
        x2, y2 = xy[idx[dst]]
        out.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="#333" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{(x1 + x2) / 2:.1f}" y="{(y1 + y2) / 2:.1f}" '
            f'font-size="11" fill="#a33">{d.alphabet.tokens[label]}</text>'
        )
    for vid in vids:
        x, y = xy[idx[vid]]
        fill = "#000" if vid == d.basepoint else "#666"
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{fill}"/>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
