"""Van Kampen diagrams as combinatorial planar 2-complexes.

A diagram stores vertices labeled by normal-form words, one record per
undirected edge with a signed-id traversal convention (+k traverses edge k
along its stored direction, -k against it), faces as closed signed walks,
a basepoint, and the boundary walk.  ``edge_diagram`` builds the diagram of
one edge (a degenerate edge's segment or a recursive edge's piece) and
``build_filling_diagram`` the filling of a trivial word, both with one
mutable builder on the structure's normal-form tree nodes that folds on
tree segments, and by reference on recursive pieces, along basepoint paths
(seashell gluing) and caps each recursive edge with its 2-cell, so
planarity and contractibility hold by construction; freezing the builder
writes every diagram the library makes (``import_diagram`` reads one),
each cell once, with its node spelled as a word, and ``validate_diagram``
audits the result via the Euler characteristic.

Diagrams need not be reduced, and spur edges (bounding no face) are kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .cayley import _json_list
from .errors import BudgetExceededError, DiagramError, FormatError
from .rewriting import DEFAULT_BUDGET
from .stacking import StackingStructure
from .words import Alphabet, Word

__all__ = [
    "VanKampenDiagram",
    "edge_diagram",
    "build_filling_diagram",
    "ValidationReport",
    "validate_diagram",
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

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)


def edge_diagram(
    e: tuple[Word, int],
    s: StackingStructure,
    memo: dict | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VanKampenDiagram:
    """Normal-form diagram of the edge ``e = (word, letter)`` of ``s``, with
    boundary word y_g a y_{ga}^{-1}.

    A degenerate edge gives the zero-face segment of one tree step of the
    builder.  A recursive edge gives its piece, by Noetherian recursion on
    the flow: seashell-glue the diagrams of the edges of Phi(e), then attach
    one 2-cell labeled by the stacking relator phi(e) a^{-1}.  Pieces are
    memoized per undirected edge in ``memo``; the orientation constructed
    first is stored and the reverse orientation is its piece read
    backwards.  A cyclic flow or an explosion of distinct edges exhausts
    ``budget``.
    """
    if memo is None:
        memo = {}
    w, a = e
    return _seashell(s, None, s.tree.node(w), (a,), memo, budget).freeze(s.tree)


class _Glue:
    """A finished piece folded into a builder, by reference.

    Its cells keep their own ids: in the builder's frame a vertex ``v`` of
    the piece is ``vmap[v]`` if the fold identified it (with the shared
    path, the basepoint or the builder's spur) and ``v_off + v`` otherwise,
    and likewise for edges with ``emap`` (keyed by signed traversal) and
    ``e_off``; faces are ``f_off + fid``.  A glue without maps is the copy
    a walk starts from: the piece's cells are the builder's own.
    """

    __slots__ = ("piece", "v_off", "e_off", "f_off", "vmap", "emap")

    def __init__(self, piece, v_off: int, e_off: int, f_off: int, vmap, emap) -> None:
        self.piece = piece
        self.v_off, self.e_off, self.f_off = v_off, e_off, f_off
        self.vmap, self.emap = vmap, emap

    def frame(self, outer: tuple) -> tuple:
        """The piece's frame in the frozen diagram, from the builder's.

        A frame is (vertex map, vertex offset, edge map, edge offset, face
        offset): a cell's id in the frozen diagram is its id plus the
        offset, except for the vertices and edges in the maps, which are
        those identified on the way up and the spur vertices.  Only a
        piece's arc can be identified further up, so the maps of the piece
        cost its own maps and its arc, not the cells under it.
        """
        if self.vmap is None:
            return outer
        vm0, ov0, em0, oe0, of0 = outer
        p, v_off, e_off = self.piece, self.v_off, self.e_off
        vm = {v: vm0.get(u, u + ov0) for v, u in self.vmap.items()}
        em = {x: em0.get(t) or (t + oe0 if t > 0 else t - oe0) for x, t in self.emap.items()}
        if vm0:
            for v in p.arc_vertices:
                u = vm0.get(v + v_off)
                if u is not None and v not in vm:
                    vm[v] = u
        if em0:
            for e in p.arc_edges:
                t = em0.get(e + e_off)
                if t is not None and e not in em:
                    em[e], em[-e] = t, -t
        return vm, ov0 + v_off, em, oe0 + e_off, of0 + self.f_off


class _DiagramBuilder:
    """A diagram under construction on normal-form tree nodes, stored
    relative to a spur.

    The spur is a path of ``depth`` edges from the basepoint 1 that the
    boundary walk goes out along first and comes back along last; it spells
    a prefix of the node ``start`` the builder's walk starts from.  Its
    vertices have ids 1 to depth + 1 and its edges ids 1 to depth, edge d
    joining the vertex at depth d - 1 to the one at depth d.  The spur is
    not stored: ``boundary`` holds the arc between, a closed walk at the
    spur's top vertex, and the largest ids in use count the spur.

    A cell is recorded once, where it is made, and written once, by
    ``freeze``: ``events`` holds the tree steps, caps and glues in order,
    and a glue is a :class:`_Glue` reference to its piece.  Lowering the spur records no cells: the spur's
    cells from ``depth`` up to ``top``, the depth the builder started at,
    are the diagram's first cells, and their ids, letters and nodes (the
    ancestors of ``start``) follow from their depths.  A fold identifies
    most of them, and ``freeze`` writes the rest.  The builder keeps only
    what folding reads: the endpoints and letters of the edges that have
    been on the arc (``edge_map``), and the spur vertices that its cells use
    (``spur_refs``, which may also hold vertices of the lowered spur).

    The piece of a recursive edge (y_g, a) is a finished builder whose
    ``ends`` are the nodes (y_g, y_{ga}).  Its spur spells a common prefix
    of the two, and its arc reads the rest of y_g, then a, then the rest of
    y_{ga} backwards, so gluing it costs its arc and not its cells, nor the
    length of y_g.
    """

    __slots__ = (
        "alphabet", "start", "depth", "top", "events", "boundary", "edge_map",
        "vmax", "emax", "fmax", "spur_refs", "ends", "arc_edges", "arc_vertices", "vtop",
    )

    def __init__(self, alphabet: Alphabet, start, depth: int, vmax: int, emax: int, fmax: int = 0):
        self.alphabet = alphabet
        self.start = start
        self.depth = self.top = depth
        self.events: list = []
        self.boundary: list[int] = []
        self.edge_map: dict[int, tuple[int, int, int]] = {}
        self.vmax, self.emax, self.fmax = vmax, emax, fmax
        self.spur_refs: set[int] = set()
        self.ends: tuple | None = None

    @classmethod
    def of_piece(cls, p: "_DiagramBuilder", flip: bool) -> "_DiagramBuilder":
        """A builder that starts as the piece ``p``, mirrored if ``flip``."""
        b = cls(p.alphabet, p.ends[flip], p.depth, p.vmax, p.emax, p.fmax)
        b.events.append(_Glue(p, 0, 0, 0, None, None))
        b.boundary = p.arc(flip)
        b.edge_map = {e: p.edge_map[e] for e in p.arc_edges}
        b.spur_refs = set(p.spur_refs)
        return b

    traverse = VanKampenDiagram.traverse  # reads only alphabet and edge_map

    def arc(self, flip: bool) -> list[int]:
        """The arc, read backwards if ``flip`` (the mirror's arc)."""
        return [-sgn for sgn in reversed(self.boundary)] if flip else list(self.boundary)

    def _lower(self, depth: int, letters: list[int]) -> None:
        """Make the spur above ``depth``, whose edges read ``letters``, part
        of the arc."""
        h = self.depth
        ids = range(depth + 1, h + 1)
        self.edge_map.update((d, (d, d + 1, x)) for d, x in zip(ids, letters))
        self.boundary[:0] = ids
        self.boundary.extend(range(-h, -depth))
        self.spur_refs.add(depth + 1)  # by the lowest edge made part of the arc
        self.depth = depth
        self.vmax, self.emax = max(self.vmax, h + 1), max(self.emax, h)

    def tree_step(self, n: int, x: int, y_next, n_next: int) -> None:
        """Fold on the segment of the degenerate edge by ``x`` from the
        node at depth ``n``, where the boundary ends with that node's back
        path, to ``y_next`` at depth ``n_next``.

        The fold of the whole segment keeps only its last edge and vertex,
        so only those are added, under the ids the fold gives them; a step
        back along the tree adds nothing, as the back path already reads
        ``x`` and then the back path of ``y_next``, unless it steps down the
        spur, whose top edge then joins the arc.
        """
        b, h = self.boundary, self.depth
        if n_next < n:
            if n == h:
                self._lower(h - 1, [self.alphabet.inverse[x]])
            return
        at = len(b) - (n - h)
        if n > h:
            src = self.traverse(b[at])[0]
        else:  # the spur's top vertex
            src = h + 1
            self.spur_refs.add(src)
        vid, eid = self.vmax + n + 2, self.emax + n + 1
        self.events.append((vid, y_next, eid, src, x))
        self.edge_map[eid] = (src, vid, x)
        self.vmax, self.emax = vid, eid
        b[at:at] = (eid, -eid)

    def glue(self, p: "_DiagramBuilder", flip: bool, y, n: int) -> None:
        """Fold on the piece ``p``, mirrored if ``flip``, along the back
        path of the node ``y`` at depth ``n``: the out path of the piece's
        arc, of length ``n``, is identified with the back path at the end of
        this boundary.

        The entries of the back path are found by their index in the
        boundary: the one at depth d, above the spur, is the (d - depth)-th
        from the end and leads from depth d to depth d - 1.  The fold maps
        the piece's vertices on the shared path, its basepoint and the spur
        vertices its cells use onto vertices here, and the other cells get
        ``vmax + vid``, ``emax + eid`` and ``fmax + fid``; only the arc is
        mapped now.  Faces and arcs never use spur edges: an arc is built
        from tree steps, caps and the arcs of pieces, all above their spurs.
        """
        if p.ends[flip] != y:
            raise DiagramError(f"the piece glued at {y} starts at another vertex")
        arc = p.arc(flip)
        hp = p.depth
        pe, se = p.edge_map, self.edge_map
        if hp < self.depth:
            # p's out path reads the letters of this spur above hp
            self._lower(hp, [pe[u][2] if u > 0 else self.alphabet.inverse[pe[-u][2]]
                             for u in arc[: self.depth - hp]])
        b, h = self.boundary, self.depth
        end = len(b)
        vmap = {1: 1}  # p vertex -> vertex here
        emap: dict[int, int] = {}  # traversal in p -> traversal here
        for k in range(n - hp):  # the shared edge at depth hp + 1 + k
            u, t = arc[k], -b[end - (hp + 1 + k - h)]
            emap[u], emap[-u] = t, -t
            vmap[pe[u][1] if u > 0 else pe[-u][0]] = se[t][1] if t > 0 else se[-t][0]
        for v in p.spur_refs:  # p's spur vertex at depth v - 1
            if v - 1 <= h:
                vmap[v] = v
                self.spur_refs.add(v)
            else:
                vmap[v] = self.traverse(b[end - (v - 1 - h)])[0]
        v_off, e_off, f_off = self.vmax, self.emax, self.fmax
        self.events.append(_Glue(p, v_off, e_off, f_off, vmap, emap))
        get = vmap.get
        for e in p.arc_edges:  # the lookups of p's arc beyond the shared path
            if e not in emap:
                src, dst, c = pe[e]
                se[e + e_off] = (get(src, src + v_off), get(dst, dst + v_off), c)
        b[end - (n - h) : end - (hp - h)] = [
            emap.get(x) or (x + e_off if x > 0 else x - e_off) for x in arc[n - hp :]
        ]
        # The largest ids of the cells written, which the identified ones are
        # not.  p's largest edge is its cap, which lies between the two out
        # paths of its arc and so is never identified.
        self.vmax = v_off + next(v for v in p.vtop if v not in vmap)
        self.emax, self.fmax = e_off + p.emax, f_off + p.fmax

    def cap(self, out_len: int, mid_len: int, a: int) -> None:
        """Close the arc of ``mid_len`` boundary entries after the first
        ``out_len`` with a new ``a``-edge and the 2-cell it encloses."""
        b, i = self.boundary, out_len - self.depth
        mid = tuple(b[i : i + mid_len])
        eid, fid = self.emax + 1, self.fmax + 1
        src, dst = self.traverse(mid[0])[0], self.traverse(mid[-1])[1]
        self.spur_refs.update(v for v in (src, dst) if v <= self.depth + 1)
        self.events.append((eid, src, dst, a, fid, mid + (-eid,)))
        self.edge_map[eid] = (src, dst, a)
        self.emax, self.fmax = eid, fid
        b[i : i + mid_len] = (eid,)

    def finish(self, ends: tuple) -> None:
        """Make this builder, just capped, the piece of the edge with end
        nodes ``ends``, and keep what gluing it reads: its arc's vertices
        and edges, the spur vertices its cells use, and ``vtop``, its
        vertex ids in decreasing order down to the largest that is not on
        the arc, or 0 if all are (the largest that a fold writes is the
        first that it does not identify).

        Ids grow from one event to the next, and the lowered spur has the
        smallest, so ``vtop`` is read off the events backwards; an interior
        vertex of a glued piece stays interior, so the piece's own ``vtop``
        ends every scan that reaches it.
        """
        self.ends = ends
        top = self.depth + 1  # ids up to the spur's top vertex are spur vertices
        edge_map = self.edge_map
        self.arc_edges = set(map(abs, self.boundary))
        self.arc_vertices = {v for e in self.arc_edges for v in edge_map[e][:2] if v > top}
        self.spur_refs = tuple(v for v in self.spur_refs if v <= top)
        arc, vtop = self.arc_vertices, []
        for ev in reversed(self.events):
            if type(ev) is _Glue:
                skip, off = ev.vmap or (), ev.v_off
                ids = [v + off for v in ev.piece.vtop if v and v not in skip]
            elif len(ev) == 5:  # a tree step
                ids = ev[:1]
            else:  # a cap adds no vertex
                continue
            for v in ids:
                vtop.append(v)
                if v not in arc:
                    self.vtop = vtop
                    return
        for v in range(self.top + 1, self.depth + 1, -1):  # the lowered spur
            vtop.append(v)
            if v not in arc:
                self.vtop = vtop
                return
        vtop.append(0)
        self.vtop = vtop

    def freeze(self, tree) -> VanKampenDiagram:
        """The whole diagram: the spur, then every cell once, with the nodes
        spelled as words.  The builder is left as it is."""
        word, parent = tree.word, tree.parent
        h = self.depth
        letters = word(self.start).letters[:h]
        nodes = [tree.root, *tree.walk(tree.root, letters)]
        vertices = [(i + 1, word(y)) for i, y in enumerate(nodes)]
        edges = [(i + 1, i + 1, i + 2, x) for i, x in enumerate(letters)]
        faces: list[tuple[int, tuple[int, ...]]] = []

        def spill(b: _DiagramBuilder, frame: tuple) -> None:
            """The cells of b's lowered spur that no fold identified."""
            vm, ov, em, oe, _ = frame
            lowered = range(b.depth + 1, b.top + 1)
            if all(d + 1 in vm and d in em for d in lowered):
                return
            y = b.start  # its ancestors label the spur
            for _ in range(tree.depth(y) - b.top):
                y = parent(y)
            labels = {}
            for d in reversed(lowered):
                labels[d] = y
                y = parent(y)
            for d in lowered:
                if d + 1 not in vm:
                    vertices.append((d + 1 + ov, word(labels[d])))
                if d not in em:
                    edges.append((d + oe, vm.get(d, d + ov), vm.get(d + 1, d + 1 + ov), b.edge_map[d][2]))

        frame = ({}, 0, {}, 0, 0)
        spill(self, frame)
        stack = [(iter(self.events), frame)]
        while stack:
            events, frame = stack[-1]
            vm, ov, em, oe, of = frame
            for ev in events:
                if type(ev) is _Glue:
                    inner = ev.frame(frame)
                    spill(ev.piece, inner)
                    stack.append((iter(ev.piece.events), inner))
                    break
                if len(ev) == 5:  # a tree step
                    vid, y, eid, src, x = ev
                    if vid not in vm:
                        vertices.append((vid + ov, word(y)))
                    if eid not in em:
                        edges.append((eid + oe, vm.get(src, src + ov), vm.get(vid, vid + ov), x))
                else:  # a cap
                    eid, src, dst, a, fid, walk = ev
                    if eid not in em:
                        edges.append((eid + oe, vm.get(src, src + ov), vm.get(dst, dst + ov), a))
                    if em or oe:
                        walk = tuple([em.get(x) or (x + oe if x > 0 else x - oe) for x in walk])
                    faces.append((fid + of, walk))
            else:
                stack.pop()
        return VanKampenDiagram(
            self.alphabet,
            tuple(vertices),
            tuple(edges),
            tuple(faces),
            1,
            tuple(range(1, h + 1)) + tuple(self.boundary) + tuple(range(-h, 0)),
        )


def _seashell(
    s: StackingStructure, b: _DiagramBuilder | None, start, letters, memo: dict, budget: int
) -> _DiagramBuilder:
    """Fold one normal-form diagram per letter of ``letters`` into ``b`` (or
    start it from the first one), each at the tree node of the prefix read
    so far from the node ``start``, and return the builder.

    A degenerate letter is a tree step.  A recursive letter glues its piece
    from ``memo``, built first if missing by a walk over its phi image,
    capped with the edge's 2-cell.  The suspended walks sit on an explicit
    stack, so the depth of the flow is not limited by Python's recursion
    limit.  The pieces built for one letter of ``letters`` spend one
    ``budget``; an edge met again while its piece is built is a cyclic flow.
    A walk that starts with a tree letter starts from a spur that spells
    its first node.
    """
    tree, alphabet = s.tree, s.alphabet
    move, depth, word = tree.move, tree.depth, tree.word
    inverse = alphabet.inverse
    stack: list[tuple] = []  # the suspended walks
    in_progress: set = set()  # the memo keys of their edges, empty with the stack
    cur, n, todo, edge = start, depth(start), iter(letters), None
    while True:
        x = next(todo, None)
        if x is None:
            if not stack:
                return b
            # The walk over phi(y_g, a) is over.  phi_at refused an empty
            # image, so the walk built a piece.  Its boundary is
            # [out y_g][one entry per phi letter][back y_{ga}^-1]; capping the
            # phi arc with a new a-edge encloses the 2-cell labeled phi a^-1.
            p, (nxt, key, mid_len) = b, edge
            b, cur, n, todo, edge = stack.pop()
            p.cap(n, mid_len, key[1])  # y_g is at depth n
            p.finish((cur, nxt))
            in_progress.discard(key)
            memo[key] = ((word(cur).letters, key[1]), p)
            flip = False
        else:
            nxt, tree_edge = move(cur, x)
            if tree_edge:
                if b is None:
                    # no ids in use, so the step's ids are the segment's own
                    b = _DiagramBuilder(alphabet, cur, n, 0, 0)
                n_next = depth(nxt)
                b.tree_step(n, x, nxt, n_next)
                cur, n = nxt, n_next
                continue
            # an edge is stored once, keyed by the orientation built first
            key, bwd = (cur, x), (nxt, inverse[x])
            hit = memo.get(key)
            flip = hit is None
            if flip:
                hit = memo.get(bwd)
            if hit is None:
                if key in in_progress or bwd in in_progress:
                    raise BudgetExceededError(
                        f"cyclic flow at edge ({word(cur)}, {alphabet.tokens[x]}): "
                        "well-foundedness violated"
                    )
                if not stack:  # a letter of ``letters`` starts a new budget
                    left = budget
                left -= 1
                if left < 0:
                    raise BudgetExceededError("diagram recursion budget exceeded")
                in_progress.add(key)
                phi = s.phi_at(cur, x)
                stack.append((b, cur, n, todo, edge))
                b, todo, edge = None, iter(phi.letters), (nxt, key, len(phi))
                continue
            p = hit[1]
        if b is None:
            b = _DiagramBuilder.of_piece(p, flip)
        else:
            b.glue(p, flip, cur, n)
        cur, n = nxt, depth(nxt)


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
    tree = s.tree
    if tree.depth(tree.node(w)) != 0:
        raise DiagramError(f"word {w} is not trivial in the group")
    if memo is None:
        memo = {}
    # the empty diagram is a spur of depth 0 at the basepoint, vertex 1; the
    # last back path spells the normal form of w, which is empty
    empty = _DiagramBuilder(s.alphabet, tree.root, 0, 1, 0)
    return _seashell(s, empty, tree.root, w.letters, memo, budget).freeze(tree)


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
# Export / import.


def _diagram_json(d: VanKampenDiagram) -> str:
    """The json export's text, written directly in the layout of
    ``json.dumps(obj, indent=2)`` (whose indented form runs the pure-Python
    encoder): ``%d`` for ids and the C string encoder for words and tokens."""
    tokens = [encode_basestring_ascii(t) for t in d.alphabet.tokens]
    vertices = [
        '{\n      "id": %d,\n      "word": %s\n    }' % (vid, encode_basestring_ascii(str(w)))
        for vid, w in sorted(d.vertices)
    ]
    edges = [
        '{\n      "id": %d,\n      "from": %d,\n      "to": %d,\n      "label": %s\n    }'
        % (eid, src, dst, tokens[label])
        for eid, src, dst, label in sorted(d.edges)
    ]
    faces = [
        '{\n      "id": %d,\n      "boundary": %s\n    }'
        % (fid, _json_list(["%d" % x for x in walk], "      "))
        for fid, walk in sorted(d.faces)
    ]
    return '{\n  "basepoint": %d,\n  "vertices": %s,\n  "edges": %s,\n  "faces": %s,\n  "boundary": %s\n}\n' % (
        d.basepoint,
        _json_list(vertices, "  "),
        _json_list(edges, "  "),
        _json_list(faces, "  "),
        _json_list(["%d" % x for x in d.boundary], "  "),
    )


def export_diagram(d: VanKampenDiagram, format: str = "json") -> bytes:
    """Serialize: full combinatorial map (json), labeled 1-skeleton (dot),
    or a Tutte-style planar drawing with shaded faces (svg)."""
    if format == "json":
        return _diagram_json(d).encode()
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
    try:
        obj = json.loads(data)
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
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed diagram json: {exc}") from None


def _render_svg(d: VanKampenDiagram) -> bytes:
    import numpy as np

    size = 480  # pixels per side
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
