"""Van Kampen diagrams as combinatorial planar 2-complexes.

A diagram stores vertices labeled by normal-form words, one record per
undirected edge with a signed-id traversal convention (+k traverses edge k
along its stored direction, -k against it), faces as closed signed walks,
a basepoint, and the boundary walk.  All construction goes through the two
normal-form diagram builders and basepoint-folding seashell gluings, so
planarity and contractibility hold by construction; ``validate_diagram``
audits them via the Euler characteristic.

Diagrams need not be reduced, and spur edges (bounding no face) are kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .cayley import DirectedEdge
from .errors import BudgetExceededError, DiagramError, FormatError
from .stacking import FlowFunction, StackingStructure, stacking_reduce
from .words import Alphabet, Word, cyclic_rotations

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


def _edge_pair(e, s: StackingStructure) -> tuple[Word, int]:
    """Normalize an edge given as a DirectedEdge or (word, letter) pair to
    (canonical source word, letter)."""
    if isinstance(e, DirectedEdge):
        return s.normal_form(e.source.canonical), e.label
    w, a = e
    return s.normal_form(w), a


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


def degenerate_diagram(e, s: StackingStructure) -> VanKampenDiagram:
    """Zero-face segment for a degenerate edge; boundary word is
    y_g a y_{ga}^{-1} with the doubled step collapsed into the segment."""
    y_g, a = _edge_pair(e, s)
    if not s.is_degenerate(y_g, a):
        raise DiagramError(
            f"edge ({y_g}, {s.alphabet.tokens[a]}) is not degenerate"
        )
    y_ga = s.normal_form(y_g.append(a))
    longer = y_ga if len(y_ga) > len(y_g) else y_g
    return _segment_diagram(s, longer)


def recursive_diagram(
    e,
    f: FlowFunction,
    memo: dict | None = None,
    budget: int = 10**5,
) -> VanKampenDiagram:
    """Normal-form diagram of a recursive edge, by Noetherian recursion on
    the flow: seashell-glue the diagrams of the edges of Phi(e), then attach
    one 2-cell labeled by the stacking relator phi(e) a^{-1}.

    Memoized per undirected edge; the orientation constructed first is
    stored and the reverse orientation is served as its mirror.  A cyclic
    flow or an explosion of distinct edges exhausts ``budget``.
    """
    s = f.structure
    if memo is None:
        memo = {}
    return _recursive_diagram(_edge_pair(e, s), s, memo, _fresh_state(budget))


def _fresh_state(budget: int) -> dict:
    return {"budget": budget, "in_progress": set()}


def _undirected_key(s: StackingStructure, y_g: Word, a: int) -> tuple:
    y_ga = s.normal_form(y_g.append(a))
    fwd = (y_g.letters, a)
    bwd = (y_ga.letters, s.alphabet.inv(a))
    return min(fwd, bwd), max(fwd, bwd)


def _seashell_walk(
    s: StackingStructure, d: VanKampenDiagram | None, start: Word, word: Word, piece
) -> VanKampenDiagram | None:
    """Glue one normal-form diagram per letter of ``word`` onto ``d`` (or
    start from the first one), each at the normal form of the prefix read
    so far from ``start``; ``piece`` builds the diagram of a recursive edge."""
    cur = start
    for x in word:
        nxt = s.normal_form(cur.append(x))
        if s.is_degenerate(cur, x):
            p = degenerate_diagram((cur, x), s)
        else:
            p = piece((cur, x))
        d = p if d is None else seashell_glue(d, p, cur)
        cur = nxt
    return d


def _recursive_diagram(
    pair: tuple[Word, int], s: StackingStructure, memo: dict, state: dict
) -> VanKampenDiagram:
    y_g, a = pair
    if s.is_degenerate(y_g, a):
        raise DiagramError(f"edge ({y_g}, {s.alphabet.tokens[a]}) is not recursive")
    key = _undirected_key(s, y_g, a)
    if key in memo:
        stored_pair, d = memo[key]
        return d if stored_pair == (y_g.letters, a) else d.mirror()
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
    d = _seashell_walk(
        s, None, y_g, phi, lambda e: _recursive_diagram(e, s, memo, state)
    )
    assert d is not None  # phi represents a nontrivial element, so phi != empty

    # The glued boundary is [out y_g][one entry per phi letter][back y_{ga}^-1].
    # Cap the phi arc with a new a-edge; the enclosed region is the 2-cell
    # labeled phi a^-1.
    out_len, mid_len = len(y_g), len(phi)
    mid = d.boundary[out_len : out_len + mid_len]
    p_vertex = d.traverse(mid[0])[0]
    q_vertex = d.traverse(mid[-1])[1]
    new_eid = max(d.edge_map, default=0) + 1
    new_fid = max((fid for fid, _ in d.faces), default=0) + 1
    edges = d.edges + ((new_eid, p_vertex, q_vertex, a),)
    faces = d.faces + ((new_fid, mid + (-new_eid,)),)
    boundary = d.boundary[:out_len] + (new_eid,) + d.boundary[out_len + mid_len :]
    result = VanKampenDiagram(d.alphabet, d.vertices, edges, faces, d.basepoint, boundary)

    state["in_progress"].discard(key)
    memo[key] = ((y_g.letters, a), result)
    return result


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
    n = len(shared)
    if n > len(d1.boundary) or n > len(d2.boundary):
        raise DiagramError("shared path longer than a boundary")

    # d1 side: walking backward from the basepoint spells `shared`; the k-th
    # shared edge (k = 1..n) is boundary entry -k from the end, against its
    # boundary direction.
    t = [d1.boundary[len(d1.boundary) - k] for k in range(1, n + 1)]
    u = [d2.boundary[k - 1] for k in range(1, n + 1)]

    vmap: dict[int, int] = {d2.basepoint: d1.basepoint}  # d2 vertex -> d1 vertex
    emap_fwd: dict[int, int] = {}  # d2 edge id -> signed d1 traversal of its stored direction
    v1_prev, v2_prev = d1.basepoint, d2.basepoint
    seen_path = {d1.basepoint}
    for k in range(1, n + 1):
        letter = shared.letters[k - 1]
        a1_start, a1_end, a1_letter = d1.traverse(-t[k - 1])
        a2_start, a2_end, a2_letter = d2.traverse(u[k - 1])
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
        vmap[a2_end] = a1_end
        emap_fwd[abs(u[k - 1])] = -t[k - 1] if u[k - 1] > 0 else t[k - 1]
        v1_prev, v2_prev = a1_end, a2_end

    v_offset = max((vid for vid, _ in d1.vertices), default=0)
    e_offset = max(d1.edge_map, default=0)
    f_offset = max((fid for fid, _ in d1.faces), default=0)
    for vid, w in d2.vertices:
        if vid not in vmap:
            vmap[vid] = v_offset + vid

    def remap_signed(sgn: int) -> int:
        eid = abs(sgn)
        if eid in emap_fwd:
            return emap_fwd[eid] if sgn > 0 else -emap_fwd[eid]
        return (e_offset + eid) if sgn > 0 else -(e_offset + eid)

    vertices = d1.vertices + tuple(
        (vmap[vid], w) for vid, w in d2.vertices if vmap[vid] > v_offset
    )
    edges = d1.edges + tuple(
        (e_offset + eid, vmap[src], vmap[dst], label)
        for eid, src, dst, label in d2.edges
        if eid not in emap_fwd
    )
    faces = d1.faces + tuple(
        (f_offset + fid, tuple(remap_signed(x) for x in walk))
        for fid, walk in d2.faces
    )
    boundary = d1.boundary[: len(d1.boundary) - n] + tuple(
        remap_signed(x) for x in d2.boundary[n:]
    )
    return VanKampenDiagram(d1.alphabet, vertices, edges, faces, d1.basepoint, boundary)


def build_filling_diagram(
    s: StackingStructure,
    w: Word,
    memo: dict | None = None,
    budget: int = 10**5,
) -> VanKampenDiagram:
    """Van Kampen diagram with boundary word exactly ``w`` (seashell
    filling): one normal-form diagram per letter of w, glued in sequence
    along the normal forms of the prefixes.  Each letter's recursive piece
    gets its own ``budget``."""
    if len(stacking_reduce(s, w)) != 0:
        raise DiagramError(f"word {w} is not trivial in the group")
    if memo is None:
        memo = {}
    d = _seashell_walk(
        s,
        _empty_diagram(s.alphabet),
        s.alphabet.empty(),
        w,
        lambda e: _recursive_diagram(e, s, memo, _fresh_state(budget)),
    )
    # close up: the final back path spells the normal form of w, which is empty
    return d


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


def _path_from(
    outgoing: dict[int, list[tuple[int, int]]], start: int, target: int, word: Word
) -> bool:
    """Is there a path in the 1-skeleton from ``start`` to ``target``
    spelling ``word``?"""
    frontier = {start}
    for letter in word:
        frontier = {
            dst
            for v in frontier
            for lab, dst in outgoing[v]
            if lab == letter
        }
        if not frontier:
            return False
    return target in frontier


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
        for fid, walk in d.faces:
            fw = d.face_word(walk)
            variants = set(cyclic_rotations(fw)) | set(cyclic_rotations(fw.inverse()))
            if not (variants & relators):
                faces_ok = False
                details.append(f"face {fid} label {fw} is not a relator")

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

    # (iv) vertex words are normal forms and label in-diagram basepoint paths
    paths_ok = consistent
    if consistent:
        for vid, word in d.vertices:
            if not s.in_normal_forms(word):
                paths_ok = False
                details.append(f"vertex {vid} word {word} is not a normal form")
            elif not _path_from(outgoing, d.basepoint, vid, word):
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
