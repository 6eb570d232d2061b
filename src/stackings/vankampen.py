"""Van Kampen diagrams as combinatorial planar 2-complexes.

A diagram stores vertices labeled by normal-form words, one record per
undirected edge with a signed-id traversal convention (+k traverses edge k
along its stored direction, -k against it), faces as closed signed walks,
a basepoint, and the boundary walk.  ``edge_diagram`` builds the diagram of
one edge (a degenerate edge's segment or a recursive edge's piece) and
``build_filling_diagram`` the filling of a trivial word, both with one
mutable builder on the structure's normal-form tree nodes that folds on
tree segments, and by reference on recursive pieces (a piece's out path
as one range of depths), along basepoint paths (seashell gluing) and caps
each recursive edge with its 2-cell, so planarity and contractibility hold
by construction; freezing the builder writes every diagram the library
makes, each cell once, with its node spelled as a word.
``validate_diagram`` audits a diagram, its vertex words as tree nodes.

Diagrams need not be reduced, and spur edges (bounding no face) are kept.
"""

from __future__ import annotations

import heapq
import json
import math
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
    ``e_off``; faces are ``f_off + fid``.  An unflipped glue maps the
    piece's out path, whose edge ids are their depths, as a range: the
    builder's back path entries over those depths, top first, and their
    start vertices are ``shared`` and ``shared_v``.  A glue without maps is
    the copy a walk starts from: the piece's cells are the builder's own.
    """

    __slots__ = ("piece", "v_off", "e_off", "f_off", "vmap", "emap", "shared", "shared_v")

    def __init__(self, piece, offsets: tuple, vmap, emap, shared=(), shared_v=()) -> None:
        self.piece, (self.v_off, self.e_off, self.f_off) = piece, offsets
        self.vmap, self.emap, self.shared, self.shared_v = vmap, emap, shared, shared_v

    def frame(self, outer: tuple) -> tuple:
        """The piece's frame in the frozen diagram, from the builder's:
        (vertex map, vertex offset, edge map, edge offset, face offset, top
        of the range, and (glue, outer frame) if there is a range).  A cell
        keeps its id plus the offset unless a map has it (the spur vertices
        and the cells identified on the way up, which can only be on the
        piece's arc) or it is in the range (see :func:`_vertex`)."""
        if self.vmap is None:
            return outer
        p, v_off, e_off = self.piece, self.v_off, self.e_off
        vm = {v: _vertex(outer, u) for v, u in self.vmap.items()}
        em = {x: _edge(outer, t) for x, t in self.emap.items()}
        hi = p.depth + len(self.shared)
        if outer[2]:  # only a frame that maps edges identifies cells of the arc
            vm0, em0 = outer[0], outer[2]
            for v in [*p.arc_vertices, *range(hi + 2, p.out + 2)]:
                u = vm0.get(v + v_off)
                if u is not None and v not in vm:
                    vm[v] = u
            for e in [*map(abs, p.boundary[p.out - p.depth :]), *range(hi + 1, p.out + 1)]:
                t = em0.get(e + e_off)
                if t is not None and e not in em:
                    em[e], em[-e] = t, -t
        up = (self, outer) if self.shared else None
        return vm, outer[1] + v_off, em, outer[3] + e_off, outer[4] + self.f_off, hi, up


def _vertex(frame: tuple, v: int) -> int:
    """The id in the frozen diagram of the vertex ``v`` of a frame's piece."""
    while True:
        vm, ov, _, _, _, hi, up = frame
        u = vm.get(v)
        if u is not None:
            return u
        if up is None or v > hi + 1:
            return v + ov
        glue, frame = up
        v = glue.shared_v[hi + 1 - v]


def _edge(frame: tuple, x: int) -> int:
    """The id in the frozen diagram of the traversal ``x`` of a frame's piece."""
    while True:
        _, _, em, oe, _, hi, up = frame
        t = em.get(x)
        if t is not None:
            return t
        if up is None or not -hi <= x <= hi:
            return x + oe if x > 0 else x - oe
        glue, frame = up
        t = glue.shared[hi - abs(x)]
        x = -t if x > 0 else t


class _DiagramBuilder:
    """A diagram under construction on normal-form tree nodes, stored
    relative to a spur.

    The spur is a path of ``depth`` edges from the basepoint 1 that the
    boundary walk goes out along first and comes back along last; it spells
    a prefix of the node ``start`` the builder's walk starts from.  Its
    vertices have ids 1 to depth + 1 and its edges ids 1 to depth, edge d
    joining the vertex at depth d - 1 to the one at depth d.  The spur is
    not stored: ``boundary`` holds the arc between, a closed walk at the
    spur's top vertex, ``starts`` the vertex each entry starts from, and
    the largest ids in use count the spur.

    A cell is recorded once, where it is made, and written once, by
    ``freeze``: ``events`` holds the tree steps, caps and glues in order,
    and a glue is a :class:`_Glue` reference to its piece.  Lowering the
    spur records no cells: the spur's cells from ``depth`` up to ``top``,
    the depth the builder started at, are the diagram's first cells, and
    their ids, letters and nodes (the ancestors of ``start``) follow from
    their depths.  They start the arc, as its out path up to ``out`` (above
    ``top`` only in a builder that starts as a piece).  A fold identifies
    most of them, and ``freeze`` writes the rest.  ``spur_refs`` holds the
    spur vertices that cells use (and maybe some of the lowered spur).

    The piece of a recursive edge (y_g, a) is a finished builder whose
    ``ends`` are the nodes (y_g, y_{ga}).  Its spur spells a common prefix
    of the two, and its arc is [out path][cap edge][back path]: the rest of
    y_g, then a, then the rest of y_{ga} backwards.  An unflipped glue maps
    the out path as one range and copies the rest of the arc, so gluing
    costs neither the piece's cells nor the length of y_g.
    """

    __slots__ = (
        "alphabet", "start", "depth", "top", "out", "events", "boundary", "starts",
        "vmax", "emax", "fmax", "spur_refs", "ends", "arc_vertices", "vtop",
    )

    def __init__(self, alphabet: Alphabet, start, depth: int, vmax: int, emax: int, fmax: int = 0):
        self.alphabet = alphabet
        self.start = start
        self.depth = self.top = self.out = depth
        self.events: list = []
        self.boundary: list[int] = []
        self.starts: list[int] = []
        self.vmax, self.emax, self.fmax = vmax, emax, fmax
        self.spur_refs: set[int] = set()
        self.ends: tuple | None = None

    @classmethod
    def of_piece(cls, p: "_DiagramBuilder", flip: bool) -> "_DiagramBuilder":
        """A builder that starts as the piece ``p``, mirrored if ``flip``."""
        b = cls(p.alphabet, p.ends[flip], p.depth, p.vmax, p.emax, p.fmax)
        b.out = p.depth if flip else p.out
        b.events.append(_Glue(p, (0, 0, 0), None, None))
        b.boundary, b.starts = map(list, p.arc(flip))
        b.spur_refs = set(p.spur_refs)
        return b

    def arc(self, flip: bool) -> tuple[list[int], list[int]]:
        """The arc and its starts, read backwards if ``flip`` (the mirror's
        arc); the builder's own lists if not."""
        if not flip:
            return self.boundary, self.starts
        return [-x for x in reversed(self.boundary)], [self.depth + 1, *reversed(self.starts[1:])]

    def _lower(self, depth: int) -> None:
        """Make the spur above ``depth`` part of the arc."""
        h = self.depth
        self.boundary[:0] = self.starts[:0] = range(depth + 1, h + 1)
        self.boundary.extend(range(-h, -depth))
        self.starts.extend(range(h + 1, depth + 1, -1))
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
                self._lower(h - 1)
            return
        at = len(b) - (n - h)
        if n > h:
            src = self.starts[at]
        else:  # the spur's top vertex
            src = h + 1
            self.spur_refs.add(src)
        vid, eid = self.vmax + n + 2, self.emax + n + 1
        self.events.append((vid, y_next, eid, src, x))
        self.vmax, self.emax = vid, eid
        b[at:at] = (eid, -eid)
        self.starts[at:at] = (src, vid)

    def glue(self, p: "_DiagramBuilder", flip: bool, y, n: int) -> None:
        """Fold on the piece ``p``, mirrored if ``flip``, along the back
        path of the node ``y`` at depth ``n``: the out path of the piece's
        arc, of length ``n``, is identified with the back path at the end of
        this boundary.

        The back path's entry at depth d, above the spur, is the
        (d - depth)-th from the end of the boundary and leads down from
        depth d.  The fold maps the piece's basepoint, the spur vertices its
        cells use and the shared path, by range or one by one, onto cells
        here; the others get ``vmax + vid``, ``emax + eid`` and ``fmax +
        fid``.  Only the arc is mapped now.  Faces and arcs use no spur edge.
        """
        if p.ends[flip] != y:
            raise DiagramError(f"the piece glued at {y} starts at another vertex")
        arc, arc_v = p.arc(flip)
        hp = p.depth
        m = 0 if flip else p.out - hp  # the out path's edges mapped as a range
        if hp < self.depth:
            self._lower(hp)
        b, bv, h = self.boundary, self.starts, self.depth
        end = len(b)
        lo, hi = end - (n - h), end - (hp - h)  # the back path above hp
        vmap = {1: 1}  # p vertex -> vertex here
        if m:  # the top of the range, which p's cap starts from
            vmap[hp + m + 1] = bv[hi - m]
        emap: dict[int, int] = {}  # traversal in p -> traversal here
        for k in range(m, n - hp):  # the shared edge at depth hp + 1 + k
            u, j = arc[k], end - (hp + 1 + k - h)
            emap[u], emap[-u] = -b[j], b[j]
            vmap[arc_v[k + 1]] = bv[j]
        for v in p.spur_refs:  # p's spur vertex at depth v - 1
            if v - 1 <= h:
                vmap[v] = v
                self.spur_refs.add(v)
            else:
                vmap[v] = bv[end - (v - 1 - h)]
        offsets = v_off, e_off, f_off = self.vmax, self.emax, self.fmax
        self.events.append(_Glue(p, offsets, vmap, emap, b[hi - m : hi], bv[hi - m : hi]))
        b[lo:hi] = [emap.get(x) or (x + e_off if x > 0 else x - e_off) for x in arc[n - hp :]]
        bv[lo:hi] = [vmap.get(v) or v + v_off for v in arc_v[n - hp :]]
        # The largest ids of the cells written, which the identified ones are
        # not.  p's largest edge is its cap, which lies between the two out
        # paths of its arc and so is never identified.
        self.vmax = v_off + next(v for v in p.vtop if v not in vmap and not hp + 1 < v <= hp + m + 1)
        self.emax, self.fmax = e_off + p.emax, f_off + p.fmax

    def cap(self, out_len: int, mid_len: int, a: int) -> None:
        """Close the arc of ``mid_len`` boundary entries after the first
        ``out_len`` with a new ``a``-edge and the 2-cell it encloses (the
        last entry may end the boundary, at the spur's top vertex)."""
        b, bv, i = self.boundary, self.starts, out_len - self.depth
        mid = tuple(b[i : i + mid_len])
        eid, fid = self.emax + 1, self.fmax + 1
        src, dst = bv[i], bv[i + mid_len] if i + mid_len < len(bv) else self.depth + 1
        self.spur_refs.update(v for v in (src, dst) if v <= self.depth + 1)
        self.events.append((eid, src, dst, a, fid, mid + (-eid,)))
        self.emax, self.fmax = eid, fid
        b[i : i + mid_len] = (eid,)
        bv[i : i + mid_len] = (src,)

    def finish(self, ends: tuple) -> None:
        """Make this builder, just capped, the piece of the edge with end
        nodes ``ends``, and keep what gluing it reads: its arc's vertices
        past the out path, the spur vertices its cells use, and ``vtop``,
        its vertex ids in decreasing order down to the largest that is not
        on the arc, or 0 if all are (the largest that a fold writes is the
        first that it does not identify).

        Ids grow from one event to the next, and the lowered spur has the
        smallest, so ``vtop`` is read off the events backwards; an interior
        vertex of a glued piece stays interior, so the piece's own ``vtop``
        ends every scan that reaches it.
        """
        self.ends = ends
        top = self.depth + 1  # ids up to the spur's top vertex are spur vertices
        arc = self.arc_vertices = set(self.starts[self.out - self.depth :]) - {top}
        self.spur_refs = tuple(v for v in self.spur_refs if v <= top)
        vtop = []
        for ev in reversed(self.events):
            if type(ev) is _Glue:
                skip, off, lo = ev.vmap or (), ev.v_off, ev.piece.depth + 1
                hi = lo + len(ev.shared)
                ids = [v + off for v in ev.piece.vtop if v and v not in skip and not lo < v <= hi]
            elif len(ev) == 5:  # a tree step
                ids = ev[:1]
            else:  # a cap adds no vertex
                continue
            for v in ids:
                vtop.append(v)
                if v not in arc:
                    self.vtop = vtop
                    return
        vtop += [*range(self.top + 1, self.depth + 1, -1), 0]  # the lowered spur is on the arc
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
            vm, ov, em, oe, _, hi, up = frame
            lowered = range(b.depth + 1, b.top + 1)
            if not lowered or up and hi - len(up[0].shared) <= b.depth and b.top <= hi:
                return  # none, or all in the frame's range
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
                    src, dst = vm.get(d, d + ov), vm.get(d + 1, d + 1 + ov)
                    edges.append((d + oe, src, dst, tree.last(labels[d])))

        frame = ({}, 0, {}, 0, 0, 0, None)
        spill(self, frame)
        stack = [(iter(self.events), frame)]
        while stack:
            events, frame = stack[-1]
            vm, ov, em, oe, of, hi, _ = frame
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
                        src = vm.get(src) or (src + ov if src > hi + 1 else _vertex(frame, src))
                        edges.append((eid + oe, src, vm.get(vid, vid + ov), x))
                else:  # a cap
                    eid, src, dst, a, fid, walk = ev
                    if eid not in em:
                        src = vm.get(src) or (src + ov if src > hi + 1 else _vertex(frame, src))
                        dst = vm.get(dst) or (dst + ov if dst > hi + 1 else _vertex(frame, dst))
                        edges.append((eid + oe, src, dst, a))
                    if em or oe or hi:
                        walk = tuple([em.get(x) or (x + oe if x > hi else x - oe if x < -hi
                                                    else _edge(frame, x)) for x in walk])
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


def validate_diagram(
    d: VanKampenDiagram,
    relators: set[Word],
    w: Word,
    s: StackingStructure,
) -> ValidationReport:
    """The five checks: boundary label, face labels, Euler/connectivity,
    basepoint-path vertex labels, and incidence consistency.

    The boundary and each face are walked once through one table, signed
    edge id -> (start, end, letter).  A vertex word is resolved once to its
    tree node, a normal form when that node spells it; the ends of its
    basepoint paths are its parent's, stepped by its last letter, kept per
    node, so no word is sliced.
    """
    details: list[str] = []
    alphabet, inv = d.alphabet, d.alphabet.inverse

    # (v) incidence consistency first, since the others walk the complex;
    # the labelled adjacency (vertex -> (letter read, end vertex)) serves too
    vids = set(d.vertex_words)
    consistent = len(vids) == len(d.vertices) and len(d.edge_map) == len(d.edges)
    table: dict[int, tuple[int, int, int]] = {}
    outgoing: dict[int, list[tuple[int, int]]] = {vid: [] for vid in vids}
    for eid, src, dst, label in d.edges:
        if src not in vids or dst not in vids or not 0 <= label < len(alphabet):
            consistent = False
            details.append(f"edge {eid} has dangling endpoint or bad label")
        else:
            table[eid], table[-eid] = (src, dst, label), (dst, src, inv[label])
            outgoing[src].append((label, dst))
            outgoing[dst].append((inv[label], src))
    if d.basepoint not in vids:
        consistent = False
        details.append("basepoint is not a vertex")

    def letters(walk: tuple[int, ...], start: int) -> tuple[int, ...] | None:
        """The letters of ``walk`` if it is a closed walk at ``start``."""
        cur, out = start, []
        for x in walk:
            if (step := table.get(x)) is None or step[0] != cur:
                return None
            cur = step[1]
            out.append(step[2])
        return tuple(out) if cur == start else None

    boundary = letters(d.boundary, d.basepoint) if consistent else ()
    if boundary is None:
        consistent = False
        details.append("boundary is not a closed walk at the basepoint")
    face_words = []
    for fid, walk in d.faces if consistent else ():
        face_words.append(letters(walk, table[walk[0]][0]) if walk and walk[0] in table else None)
        if face_words[-1] is None:
            consistent = False
            details.append(f"face {fid} boundary is not a closed walk")

    # (i) boundary label
    boundary_ok = consistent and Word(alphabet, boundary) == w
    if consistent and not boundary_ok:
        details.append(f"boundary word {Word(alphabet, boundary)} != {w}")

    # (ii) each face label is a relator up to rotation/inversion
    faces_ok = consistent
    if consistent:
        closed: set[tuple[int, ...]] = set()
        for r in relators:
            for x in (r.letters, tuple(inv[c] for c in reversed(r.letters))):
                closed.update(x[i:] + x[:i] for i in range(len(x)))
        for (fid, _), fw in zip(d.faces, face_words):
            if fw not in closed:
                faces_ok = False
                details.append(f"face {fid} label {Word(alphabet, fw)} is not a relator")

    # (iii) Euler characteristic and connectivity
    euler_ok = consistent and d.euler_characteristic() == 1
    if consistent and not euler_ok:
        details.append(f"V - E + F = {d.euler_characteristic()} != 1")
    if consistent:
        seen, stack = {d.basepoint}, [d.basepoint]
        while stack:
            for _, u in outgoing[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != vids:
            euler_ok = False
            details.append("1-skeleton is not connected")

    # (iv) vertex words are normal forms and label in-diagram basepoint paths
    paths_ok = consistent
    tree = s.tree
    ends = {tree.root: {d.basepoint}}  # node -> the ends of its basepoint paths
    for vid, word in d.vertices if consistent else ():
        y = tree.node(word)
        if tree.word(y) != word:
            paths_ok = False
            details.append(f"vertex {vid} word {word} is not a normal form")
            continue
        above = []
        while y not in ends:
            above.append(y)
            y = tree.parent(y)
        reached = ends[y]
        for y in reversed(above):
            x = tree.last(y)
            reached = ends[y] = {u for v in reached for lab, u in outgoing[v] if lab == x}
        if vid not in reached:
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
    or a Tutte-style planar drawing with shaded faces (svg).  The svg of a
    diagram that ``_tutte_layout`` cannot lay out, or with a face walk over
    a missing edge, is a ``DiagramError``."""
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
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed diagram json: {exc}") from None


def _tutte_layout(d: VanKampenDiagram) -> dict[int, tuple[float, float]]:
    """Tutte's barycentric layout (Tutte, "How to draw a graph", 1963): the
    boundary walk's vertices on the unit circle in walk order, and every
    other vertex at the barycentre of its neighbours, counted with
    multiplicity (a vertex with none at the origin).

    The interior positions solve the Dirichlet Laplacian, which is symmetric
    positive definite once every interior edge reaches the boundary.  It is
    eliminated without pivoting in minimum-degree order (George & Liu, SIAM
    Review 1989), one dict per row, the row with the fewest entries first
    and ties by vertex id, so memory is O(V + fill) and the result is
    deterministic.  A diagram whose edges name a missing vertex, or with an
    edge that reaches no boundary vertex, is a ``DiagramError``.
    """
    nbrs: dict[int, list[int]] = {vid: [] for vid, _ in d.vertices}
    for eid, src, dst, _ in d.edges:
        if src not in nbrs or dst not in nbrs:
            raise DiagramError(f"edge {eid} has an endpoint that is not a vertex")
        nbrs[src].append(dst)
        nbrs[dst].append(src)
    if d.basepoint not in nbrs or any(abs(sgn) not in d.edge_map for sgn in d.boundary):
        raise DiagramError("the boundary walk names a missing vertex or edge")

    # pin the boundary walk's vertices on a circle, in walk order
    outer: list[int] = [d.basepoint]
    for sgn in d.boundary:
        outer.append(d.traverse(sgn)[1])
    outer = list(dict.fromkeys(outer[:-1] if len(outer) > 1 else outer))
    pinned = set(outer)
    pos = dict.fromkeys(nbrs, (0.0, 0.0))
    for j, vid in enumerate(outer):
        ang = 2 * math.pi * j / len(outer)
        pos[vid] = (math.cos(ang), math.sin(ang))

    reached, todo = set(pinned), list(outer)
    while todo:
        for u in nbrs[todo.pop()]:
            if u not in reached:
                reached.add(u)
                todo.append(u)
    if any(vs and v not in reached for v, vs in nbrs.items()):
        raise DiagramError("an edge of the diagram reaches no boundary vertex")

    # row v: deg(v) x_v - (x_u over interior neighbours u) = sum of pinned neighbours
    rows: dict[int, dict[int, float]] = {}
    rhs: dict[int, tuple[float, float]] = {}
    for v, vs in nbrs.items():
        if v in pinned:
            continue
        row, bx, by = {v: float(max(len(vs), 1))}, 0.0, 0.0
        for u in vs:
            if u in pinned:
                ux, uy = pos[u]
                bx += ux
                by += uy
            else:
                row[u] = row.get(u, 0.0) - 1.0
        rows[v], rhs[v] = row, (bx, by)

    heap = [(len(row), v) for v, row in rows.items()]
    heapq.heapify(heap)
    eliminated = []
    while heap:
        size, p = heapq.heappop(heap)
        row = rows.get(p)
        if row is None or len(row) != size:
            continue  # a stale entry: p was eliminated or its row has changed
        del rows[p]
        piv, (px, py) = row[p], rhs[p]
        for j in row:
            if j != p:
                rj = rows[j]
                f = rj.pop(p) / piv
                for k, a in row.items():
                    if k != p:
                        rj[k] = rj.get(k, 0.0) - f * a
                jx, jy = rhs[j]
                rhs[j] = (jx - f * px, jy - f * py)
                heapq.heappush(heap, (len(rj), j))
        eliminated.append((p, row))
    for p, row in reversed(eliminated):
        x, y = rhs[p]
        for k, a in row.items():
            if k != p:
                kx, ky = pos[k]
                x -= a * kx
                y -= a * ky
        pos[p] = (x / row[p], y / row[p])
    return pos


def _render_svg(d: VanKampenDiagram) -> bytes:
    size = 480  # pixels per side
    pad, half = 40, size / 2
    xy = {
        vid: (x * (half - pad) + half, y * (half - pad) + half)
        for vid, (x, y) in _tutte_layout(d).items()
    }
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    # the point each signed edge starts at
    start = {eid: xy[src] for eid, src, _, _ in d.edges}
    start.update((-eid, xy[dst]) for eid, _, dst, _ in d.edges)
    if any(sgn not in start for _, walk in d.faces for sgn in walk):
        raise DiagramError("a face walk names a missing edge")
    for fid, walk in sorted(d.faces):
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in map(start.__getitem__, walk))
        out.append(f'<polygon points="{pts}" fill="#cfe2ff" stroke="none"/>')
    for eid, src, dst, label in sorted(d.edges):
        x1, y1 = xy[src]
        x2, y2 = xy[dst]
        out.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="#333" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{(x1 + x2) / 2:.1f}" y="{(y1 + y2) / 2:.1f}" '
            f'font-size="11" fill="#a33">{d.alphabet.tokens[label]}</text>'
        )
    for vid, (x, y) in sorted(xy.items()):
        fill = "#000" if vid == d.basepoint else "#666"
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{fill}"/>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()
