import dataclasses
import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from oracles import (
    basepoint_path_details,
    diagram_json_obj,
    empty_diagram,
    mirror,
    random_trivial_words,
    seashell_fill_reference,
    seashell_glue,
    segment,
    stacking_relation_set_reference,
    tutte_layout_reference,
    validate_reference,
)
from stackings import (
    Alphabet,
    BudgetExceededError,
    DiagramError,
    EdgeKind,
    FormatError,
    StackingStructure,
    StructureError,
    VanKampenDiagram,
    Word,
    bs1p_structure,
    build_ball,
    build_filling_diagram,
    edge_diagram,
    export_diagram,
    import_diagram,
    reduce_to_irreducible,
    stacking_relation_set,
    validate_diagram,
    z2_system,
)
from stackings import vankampen


def commutator(al, n):
    """[t^n a T^n, a], trivial in BS(1,p) since conjugates of a commute."""
    u = ["t"] * n + ["a"] + ["T"] * n
    u_inv = ["t"] * n + ["A"] + ["T"] * n
    return al.word(" ".join(u + ["a"] + u_inv + ["A"]))


# Structures of each kind whose fillings are checked against the reference
# fold, with defining relators to draw trivial words from: the normal forms
# of the shortlex structure are a ball's, so its words stay short.
FILL_STRUCTURES = {
    "bs1p:3": ["t a T A A A"],
    "crs:bs12": ["t a T A A", "d A A"],
    "shortlex-ac:z2:8:2": ["a b A B"],
}


@pytest.fixture(scope="session")
def fill_structures(structures):
    return {name: structures[name]() for name in FILL_STRUCTURES}


def fill_words(s, name, count, max_len, seed):
    al = s.alphabet
    words = random_trivial_words(al, [al.word(r) for r in FILL_STRUCTURES[name]], count, max_len, seed)
    if name.startswith("shortlex"):
        return words + [
            al.word(" ".join(["a"] * i + ["b"] * j + ["A"] * i + ["B"] * j))
            for i in range(4) for j in range(4)
        ]
    return words + [commutator(al, n) for n in range(5)]


def assert_json_export(d):
    """The hand-written json export is what ``json.dumps`` prints."""
    expected = json.dumps(diagram_json_obj(d), indent=2) + "\n"
    assert export_diagram(d, "json") == expected.encode()


class TestDegenerateDiagram:
    def test_one_edge_segment(self, bs2):
        al = bs2.alphabet
        d = edge_diagram((al.empty(), al.index("a")), bs2)
        assert len(d.faces) == 0
        assert d.vertices == ((1, al.empty()), (2, al.word("a")))
        assert d.boundary == (1, -1)
        assert str(d.boundary_word()) == "a A"

    def test_truncation_direction(self, bs2):
        # from "a t" back by T: the longer endpoint spells the segment
        al = bs2.alphabet
        d = edge_diagram((al.word("a t"), al.index("T")), bs2)
        assert len(d.faces) == 0
        assert str(d.boundary_word()) == "a t T A"

    @pytest.mark.parametrize("name, radius", [
        ("bs1p:2", 6), ("bs1p:3", 5), ("crs:z2", 6), ("crs:bs12", 4), ("shortlex-ac:z2:8:2", 5),
    ])
    def test_every_edge_of_a_ball_is_the_reference_segment(self, structures, name, radius):
        # the builder's tree step writes the segment the reference spells
        # out from the edge's words
        s = structures[name]()
        edges = [e for e in build_ball(s, radius).edges if e.classification is EdgeKind.DEGENERATE]
        assert edges
        for e in edges:
            y, a = e.source.canonical, e.label
            assert edge_diagram((y, a), s) == segment(s, y, a)


class TestRecursiveDiagram:
    def test_single_face_for_t_a(self, bs2):
        al = bs2.alphabet
        d = edge_diagram((al.word("t"), al.index("a")), bs2)
        assert len(d.faces) == 1
        assert str(d.boundary_word()) == "t a T A A"
        assert str(d.walk_word(d.faces[0][1])) == "T a a t A"
        assert len(d.vertices) == 5 and len(d.edges) == 5

    def test_z2_commutator_face(self, z2struct):
        al = z2struct.alphabet
        d = edge_diagram((al.word("b"), al.index("a")), z2struct)
        assert len(d.faces) == 1
        assert str(d.walk_word(d.faces[0][1])) == "B a b A"

    def test_memo_serves_reverse_orientation_as_mirror(self, bs2):
        al = bs2.alphabet
        memo = {}
        d = edge_diagram((al.word("t"), al.index("a")), bs2, memo=memo)
        rev = edge_diagram(
            (bs2.normal_form(al.word("t a")), al.index("A")), bs2, memo=memo
        )
        assert len(rev.faces) == len(d.faces)
        assert rev.boundary_word() == d.boundary_word().inverse()

    def test_mirror_reverses_boundary(self, bs2):
        al = bs2.alphabet
        d = edge_diagram((al.word("t"), al.index("a")), bs2)
        m = mirror(d)
        assert m.boundary_word() == d.boundary_word().inverse()
        assert len(m.faces) == len(d.faces) and m.euler_characteristic() == 1

    def test_cyclic_flow_detected(self, bs2):
        al = bs2.alphabet
        bad = StackingStructure(
            al, bs2.normal_form, lambda y, a: al.word("a a A"), bound_k=4
        )
        # the budget is far from spent: the edge (t, a) is met again while
        # its own piece is being built
        with pytest.raises(BudgetExceededError, match="cyclic flow"):
            edge_diagram((al.word("t"), al.index("a")), bad, budget=10**6)

    def test_one_budget_for_all_pieces(self, bs2):
        # the piece of (t t, a) is built from three pieces, its own included
        al = bs2.alphabet
        e = (al.word("t t"), al.index("a"))
        assert len(edge_diagram(e, bs2, budget=3).faces) == 3
        with pytest.raises(BudgetExceededError, match="recursion budget exceeded"):
            edge_diagram(e, bs2, budget=2)


class TestSeashellGlue:
    def test_wedge_on_empty_shared_path(self, bs2):
        al = bs2.alphabet
        seg = segment(bs2, al.empty(), al.index("a"))
        g = seashell_glue(empty_diagram(al), seg, al.empty())
        assert str(g.boundary_word()) == "a A"

    def test_label_mismatch_rejected(self, bs2):
        al = bs2.alphabet
        seg_a = segment(bs2, al.empty(), al.index("a"))
        seg_t = segment(bs2, al.empty(), al.index("t"))
        with pytest.raises(DiagramError):
            seashell_glue(seg_a, seg_t, al.word("a"))

    def test_area_is_additive(self, bs2):
        al = bs2.alphabet
        memo = {}
        d1 = edge_diagram((al.word("t"), al.index("a")), bs2, memo=memo)
        # continue from normal form a a t by another a: area 1 piece
        d2 = edge_diagram(
            (bs2.normal_form(al.word("t a")), al.index("a")), bs2, memo=memo
        )
        glued = seashell_glue(d1, d2, bs2.normal_form(al.word("t a")))
        assert len(glued.faces) == len(d1.faces) + len(d2.faces)
        assert glued.euler_characteristic() == 1


class TestFilling:
    def test_area_three_example(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        assert len(d.faces) == 3
        assert d.boundary_word() == w

    def test_area_zero_and_one(self, bs2):
        al = bs2.alphabet
        assert len(build_filling_diagram(bs2, al.word("a A")).faces) == 0
        assert len(build_filling_diagram(bs2, al.word("t a T A A")).faces) == 1

    def test_phi_called_once_per_memoized_edge(self):
        # the trivial-word precondition asks the oracle; phi runs only to
        # build the recursive pieces
        s = bs1p_structure(2)
        calls = []
        phi_fn = s.phi_fn
        s.phi_fn = lambda y, a: calls.append((y, a)) or phi_fn(y, a)
        memo = {}
        build_filling_diagram(s, s.alphabet.word("t t a T T A A A A"), memo=memo)
        assert len(calls) == len(memo) == 3

    def test_nontrivial_word_rejected(self, bs2):
        with pytest.raises(DiagramError):
            build_filling_diagram(bs2, bs2.alphabet.word("a"))

    def test_budget_is_per_letter(self, bs2):
        # The pieces each recursive letter of w builds, counted by filling
        # its edge with edge_diagram on one memo in the order of w, as
        # the filling does: more in all than for any one letter.
        al, tree = bs2.alphabet, bs2.tree
        w = commutator(al, 2)
        memo: dict = {}
        counts, y = [], tree.root
        for x in w.letters:
            y_next, tree_edge = tree.move(y, x)
            if not tree_edge:
                before = len(memo)
                edge_diagram((tree.word(y), x), bs2, memo=memo)
                counts.append(len(memo) - before)
            y = y_next
        most = max(counts)
        assert len(memo) > most
        assert build_filling_diagram(bs2, w, budget=most).boundary_word() == w
        with pytest.raises(BudgetExceededError, match="recursion budget exceeded"):
            build_filling_diagram(bs2, w, budget=most - 1)

    def test_filling_validates(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(d, rels, w, bs2)
        assert report.passed and not report.details


class TestAgainstFoldReference:
    """The builder's tree steps and glues give the diagram, ids and memo of
    folding every segment whole, letter by letter."""

    @staticmethod
    def assert_same_filling(s, w):
        expected, expected_memo = seashell_fill_reference(s, w)
        memo = {}
        d = build_filling_diagram(s, w, memo=memo)
        assert export_diagram(d, "json") == export_diagram(expected, "json")
        assert d == expected  # the cells in the same order, too
        assert_json_export(d)
        # the library keys its memo on nodes, the reference on words
        assert [v[0] for v in memo.values()] == [v[0] for v in expected_memo.values()]

    @pytest.mark.parametrize("n", range(7))
    def test_bs12_commutators(self, bs2, n):
        self.assert_same_filling(bs2, commutator(bs2.alphabet, n))

    def test_random_trivial_words(self, bs2):
        al = bs2.alphabet
        for w in random_trivial_words(al, [al.word("t a T A A")], 60, 30, seed=11):
            self.assert_same_filling(bs2, w)

    @settings(max_examples=40, deadline=None)
    @given(i=hs.integers(0, 8), j=hs.integers(0, 8))
    def test_z2_commutators(self, z2struct, i, j):
        al = z2struct.alphabet
        text = " ".join(["a"] * i + ["b"] * j + ["A"] * i + ["B"] * j)
        self.assert_same_filling(z2struct, al.word(text))

    @pytest.mark.parametrize("name", FILL_STRUCTURES)
    def test_other_structures(self, fill_structures, name):
        # bs1p:3, the rewriting system of BS(1,2), and a structure without
        # a tree of its own (its nodes are its normal-form words)
        s = fill_structures[name]
        for w in fill_words(s, name, 20, 24, seed=3):
            self.assert_same_filling(s, w)

    def test_pieces_that_start_as_pieces(self, monkeypatch):
        # the pieces of a-edges start as the mirror of another piece or as
        # the piece itself; an unflipped glue of one that started mirrored
        # maps the spur it lowered as a range and the rest edge by edge
        glues = []
        glue = vankampen._DiagramBuilder.glue

        def recording(self, p, flip, y, n):
            glues.append((flip, p.depth < p.out < n, p.out == p.depth < n))
            glue(self, p, flip, y, n)

        monkeypatch.setattr(vankampen._DiagramBuilder, "glue", recording)
        s = detour_structure()
        al = s.alphabet
        words = ["b a a A A B", "a a a a b a a B A A A A A A", "a a a a b b a a B B A A A A A A"]
        for w in [al.word(t) for t in words] + random_trivial_words(al, [al.word("a b A B")], 30, 24, seed=3):
            self.assert_same_filling(s, w)
        # (flipped, out path partly a range, out path not a range at all)
        assert {(True, False, False), (False, True, False), (False, False, True)} <= set(glues)

    @settings(max_examples=60, deadline=None)
    @given(name=hs.sampled_from(["bs1p:2", *FILL_STRUCTURES]), seed=hs.integers(0, 2**32))
    def test_random_trivial_words_hypothesis(self, bs2, fill_structures, name, seed):
        s = bs2 if name == "bs1p:2" else fill_structures[name]
        al = s.alphabet
        relators = ["t a T A A"] if name == "bs1p:2" else FILL_STRUCTURES[name]
        (w,) = random_trivial_words(al, [al.word(r) for r in relators], 1, 30, seed)
        self.assert_same_filling(s, w)


def detour_structure():
    """Z^2 on the normal forms a^i b^j, with a stacking map whose a-edges
    start on a recursive edge: phi(a^i b^j, a) = A b^-j A^k a^(k+2) b^j, with
    k 1 for even i and 3 for odd i, through the edge (a^i b^j, A), whose phi
    b^-j A b^j is all tree edges.  So a piece can start as another piece,
    mirrored or not, and then lower its spur further: its out path is then
    not only the spur it lowered."""
    S = z2_system()
    al = S.alphabet
    a, b = al.index("a"), al.index("b")

    def phi_fn(y, x):
        i, j = (sum(1 if c == d else -1 for c in y.letters if c in (d, al.inv(d))) for d in (a, b))
        b_j = Word(al, (b if j > 0 else al.inv(b),) * abs(j))
        if x != a:
            return b_j.inverse() * al.letter(x) * b_j
        k = 1 + 2 * (i % 2)
        return al.word("A") * b_j.inverse() * Word(al, (al.inv(a),) * k + (a,) * (k + 2)) * b_j

    return StackingStructure(al, lambda w: reduce_to_irreducible(S, w), phi_fn, bound_k=40)


def conjugate_commutators(al, count, seed):
    """[x a x^-1, y a y^-1] in BS(1,2) with random conjugators of 2 to 7
    letters, freely reduced: trivial, since conjugates of a commute."""
    rng = random.Random(seed)
    a = al.letter(al.index("a"))

    def conjugate():
        x = Word(al, tuple(rng.randrange(len(al)) for _ in range(rng.randint(2, 7))))
        return (x * a * x.inverse()).free_reduce()

    out = []
    for _ in range(count):
        u, v = conjugate(), conjugate()
        out.append((u * v * u.inverse() * v.inverse()).free_reduce())
    return out


# The sha256 of the json export of the commutator fillings past the rows
# that TestAgainstFoldReference folds: a change to how fillings are built
# that keeps the diagrams keeps these bytes.
COMMUTATOR_JSON_SHA256 = {
    7: "b3f00b63f5f3ad6eba1840fe340d9715bec67e6e86f387863a43bbc26cbbac2a",
    8: "cc64937aaff4b62ce171b314a191663783675425b33aea9af1e223a63c669f41",
    9: "aa77cd841d25270af19f80ad27a4228a25dc8e34ec6624820894e073e279041e",
    10: "6902daab3451cddb2860a70a455812809ba2a7cf61e832b365dd50de5dea937f",
}


@pytest.mark.parametrize("n", sorted(COMMUTATOR_JSON_SHA256))
def test_commutator_exports_pinned(bs2, n):
    d = build_filling_diagram(bs2, commutator(bs2.alphabet, n))
    digest = hashlib.sha256(export_diagram(d, "json")).hexdigest()
    assert digest == COMMUTATOR_JSON_SHA256[n]


def pinned_diagrams(structures):
    """The fillings of the bs1p:2 commutators for n = 1..6 and of the words
    the fold reference is checked on, then the diagram of every edge of B(2)
    for bs1p:2 and crs:z2, each on a fresh structure."""
    bs2 = structures["bs1p:2"]()
    for n in range(1, 7):
        yield build_filling_diagram(bs2, commutator(bs2.alphabet, n))
    for name in FILL_STRUCTURES:
        s = structures[name]()
        for w in fill_words(s, name, 20, 24, seed=3):
            yield build_filling_diagram(s, w)
    for name in ("bs1p:2", "crs:z2"):
        s = structures[name]()
        for e in build_ball(s, 2).edges:
            yield edge_diagram((e.source.canonical, e.label), s)


# One sha256 over the json and dot exports of ``pinned_diagrams``: a change
# to how diagrams are built that keeps the diagrams keeps this digest.
DIAGRAMS_SHA256 = "f42f11eecd2f374d3982de06fc63a2fbfa5d5a47f299c610eb121d780965f77e"


def test_diagram_exports_pinned(structures):
    digest = hashlib.sha256()
    for d in pinned_diagrams(structures):
        digest.update(export_diagram(d, "json"))
        digest.update(export_diagram(d, "dot"))
    assert digest.hexdigest() == DIAGRAMS_SHA256


# The sha256 over the svg exports of ``pinned_diagrams``, and of the svg
# export of the commutator fillings: the layout's floats are printed to one
# decimal, so a change to how it is solved that moves no point past a
# rounding boundary keeps these bytes.
SVG_SHA256 = "15c653d3a56a77e9948312582f5a93494b0d031af7ecba76d211f020be556ee7"
COMMUTATOR_SVG_SHA256 = {
    9: "961504e1d591be3a5ce53cf5fc953ccf3596a6a4008dc532a852b669b533171a",
    10: "ce0e90cfad77f3b34876d4fe57fd82cee8706c8bde441b599b42e409a53bb57c",
}


def test_svg_exports_pinned(structures):
    digest = hashlib.sha256()
    for d in pinned_diagrams(structures):
        digest.update(export_diagram(d, "svg"))
    assert digest.hexdigest() == SVG_SHA256


@pytest.mark.parametrize("n", sorted(COMMUTATOR_SVG_SHA256))
def test_commutator_svg_pinned(bs2, n):
    d = build_filling_diagram(bs2, commutator(bs2.alphabet, n))
    assert hashlib.sha256(export_diagram(d, "svg")).hexdigest() == COMMUTATOR_SVG_SHA256[n]


class TestTutteLayout:
    """The svg layout against the exact dense solve of the oracles, and
    Tutte's barycentre condition read off the layout itself."""

    @staticmethod
    def assert_tutte_layout(d):
        got = vankampen._tutte_layout(d)
        ref = tutte_layout_reference(d)
        assert got.keys() == ref.keys()
        assert max(math.dist(got[v], ref[v]) for v in ref) <= 1e-9
        outer = {d.basepoint} | {d.traverse(sgn)[1] for sgn in d.boundary}
        nbrs = {v: [] for v in got}
        for _, src, dst, _ in d.edges:
            nbrs[src].append(dst)
            nbrs[dst].append(src)
        for v, vs in nbrs.items():
            if v not in outer and vs:
                centre = [sum(got[u][i] for u in vs) / len(vs) for i in (0, 1)]
                assert math.dist(got[v], centre) <= 1e-9

    def test_small_pinned_diagrams(self, structures):
        small = [d for d in pinned_diagrams(structures) if len(d.vertices) <= 64]
        assert len(small) == 163
        for d in small:
            self.assert_tutte_layout(d)

    @settings(max_examples=40, deadline=None)
    @given(
        name=hs.sampled_from(sorted(FILL_STRUCTURES)),
        seed=hs.integers(0, 2**32),
        i=hs.integers(0, 10**6),
    )
    def test_fillings_hypothesis(self, fill_structures, name, seed, i):
        # a random trivial word or one of the commutators, whose fillings
        # have vertices off the boundary
        s = fill_structures[name]
        words = fill_words(s, name, 1, 24, seed)
        d = build_filling_diagram(s, words[i % len(words)])
        assume(len(d.vertices) <= 64)
        self.assert_tutte_layout(d)

    @pytest.mark.parametrize("vertices, edge, faces", [
        pytest.param((1, 2), (1, 1, 7), (), id="endpoint-not-a-vertex"),
        pytest.param((1, 2, 3), (1, 2, 3), (), id="edge-reaches-no-boundary"),
        pytest.param((1, 2), (1, 1, 2), ((1, (1, 5)),), id="face-walk-missing-edge"),
    ])
    def test_malformed_diagram_is_diagram_error(self, bs2, vertices, edge, faces):
        # json and dot write these diagrams as they are; svg refuses them
        al = bs2.alphabet
        d = VanKampenDiagram(
            al, tuple((v, Word(al, ())) for v in vertices), (edge + (al.index("a"),),), faces, 1, ()
        )
        for fmt in ("json", "dot"):
            export_diagram(d, fmt)
        with pytest.raises(DiagramError):
            export_diagram(d, "svg")

    def test_boundary_over_a_missing_edge_is_diagram_error(self, bs2):
        d = build_filling_diagram(bs2, bs2.alphabet.word("t a T A A"))
        bad = dataclasses.replace(d, boundary=d.boundary + (max(d.edge_map) + 1,))
        with pytest.raises(DiagramError) as exc:
            export_diagram(bad, "svg")
        assert str(exc.value) == "the boundary walk names a missing vertex or edge"

    @pytest.mark.parametrize("fmt", ["json", "dot", "svg"])
    @pytest.mark.parametrize("label", [9, -1])
    def test_label_outside_alphabet_is_diagram_error(self, bs2, label, fmt):
        # validation reports such a label; export refuses it in every format,
        # where -1 would otherwise index the last token
        al = bs2.alphabet
        d = VanKampenDiagram(al, ((1, al.empty()), (2, al.word("a"))), ((1, 1, 2, label),), (), 1, ())
        with pytest.raises(DiagramError, match=f"edge label {label} is outside the alphabet"):
            export_diagram(d, fmt)


class TestPiecesAgainstFoldReference:
    """edge_diagram returns the reference fold's memo piece for every
    memoized edge, and its mirror for the reverse orientation.  The edges are
    asked for in the order the filling finished them, so each piece is built
    from the sub-pieces, in the orientations, that the filling used."""

    @staticmethod
    def assert_same_pieces(s, w):
        al = s.alphabet
        _, expected_memo = seashell_fill_reference(s, w)
        memo = {}
        for (src, a), d in expected_memo.values():
            y = Word(al, src)
            y_ga = s.normal_form(y.append(a))
            for e, expected in (((y, a), d), ((y_ga, al.inv(a)), mirror(d))):
                got = edge_diagram(e, s, memo=memo)
                assert export_diagram(got, "json") == export_diagram(expected, "json")
                assert got == expected
                assert_json_export(got)
        # the library keys its memo on nodes, the reference on words
        assert [v[0] for v in memo.values()] == [v[0] for v in expected_memo.values()]

    @pytest.mark.parametrize("n", range(6))
    def test_bs12_commutators(self, bs2, n):
        self.assert_same_pieces(bs2, commutator(bs2.alphabet, n))

    def test_conjugate_commutators(self, bs2):
        for w in conjugate_commutators(bs2.alphabet, 12, seed=6):
            self.assert_same_pieces(bs2, w)

    def test_z2_commutators(self, z2struct):
        al = z2struct.alphabet
        for i in range(5):
            for j in range(5):
                text = " ".join(["a"] * i + ["b"] * j + ["A"] * i + ["B"] * j)
                self.assert_same_pieces(z2struct, al.word(text))

    @pytest.mark.parametrize("name", FILL_STRUCTURES)
    def test_other_structures(self, fill_structures, name):
        s = fill_structures[name]
        for w in fill_words(s, name, 8, 20, seed=5):
            self.assert_same_pieces(s, w)


class TestGlueByReference:
    """A glue keeps a reference to its piece, so the builders record each
    cell of a filling once, where a tree step or a cap makes it; lowering a
    spur records none, and ``freeze`` writes the lowered cells that no fold
    identified.  Copying each glued piece into the next recorded every cell
    once per level of the flow above it (n = 8: about ten times V+E+F)."""

    def test_cells_recorded_once(self, monkeypatch):
        builders = []
        init = vankampen._DiagramBuilder.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            builders.append(self)

        monkeypatch.setattr(vankampen._DiagramBuilder, "__init__", recording_init)
        s = bs1p_structure(2)
        d = build_filling_diagram(s, commutator(s.alphabet, 8))
        # a tree step records a vertex and an edge, a cap an edge and a face
        recorded = sum(2 * sum(type(ev) is tuple for ev in b.events) for b in builders)
        cells = len(d.vertices) + len(d.edges) + len(d.faces)
        assert len(d.faces) == 2**9 - 2
        assert recorded <= 1.5 * cells

    def test_unflipped_glues_map_their_shared_path_as_a_range(self, monkeypatch):
        # an unflipped glue keeps the back path it shares with the piece's
        # out path as one slice: its maps hold the basepoint, the piece's spur
        # vertices and the top of the range, and no entry per shared edge
        glues = []
        glue = vankampen._DiagramBuilder.glue

        def recording_glue(self, p, flip, y, n):
            glue(self, p, flip, y, n)
            glues.append((flip, p, n, self.events[-1]))

        monkeypatch.setattr(vankampen._DiagramBuilder, "glue", recording_glue)
        s = bs1p_structure(2)
        build_filling_diagram(s, commutator(s.alphabet, 8))
        unflipped = [(p, n, ev) for flip, p, n, ev in glues if not flip]
        shared = sum(n - p.depth for p, n, _ in unflipped)
        per_edge = sum(
            len(ev.emap) + len(set(ev.vmap) - {1, *p.spur_refs, n + 1}) for p, n, ev in unflipped
        )
        # mapping edge by edge wrote three entries per shared edge, 9,156 here
        assert (len(unflipped), len(glues), shared, per_edge) == (510, 510, 3052, 0)
        assert all(len(ev.shared) == n - p.depth for p, n, ev in unflipped)


class TestPieceArcs:
    """Every piece's arc is [out path][cap edge][back path], and its out path
    is the spur it lowered: edge ids hp + 1 to n, each its depth, with hp
    the piece's spur depth and n the depth of y_g.  An unflipped glue maps
    that stretch as a range."""

    @staticmethod
    def assert_arc_shapes(s, memo):
        depth = s.tree.depth
        assert memo
        for _, p in memo.values():
            y_g, y_ga = p.ends
            hp, n, m = p.depth, depth(y_g), depth(y_ga)
            assert p.out == n
            assert p.boundary[: n - hp] == list(range(hp + 1, n + 1))
            assert p.boundary[n - hp] == p.emax  # the cap is the last edge made
            assert len(p.boundary) == (n - hp) + 1 + (m - hp)
            assert p.starts[: n - hp + 1] == list(range(hp + 1, n + 2))

    @pytest.mark.parametrize("name", FILL_STRUCTURES)
    def test_fillings_and_edge_pieces(self, fill_structures, name):
        # the pieces of fillings, then those that edge_diagram builds for
        # both orientations of each memoized edge, the reverse one flipped
        s = fill_structures[name]
        al = s.alphabet
        for w in fill_words(s, name, 12, 24, seed=9):
            memo: dict = {}
            build_filling_diagram(s, w, memo=memo)
            if not memo:
                continue
            self.assert_arc_shapes(s, memo)
            edges: dict = {}
            for (src, a), _ in memo.values():
                y = Word(al, src)
                for e in ((y, a), (s.normal_form(y.append(a)), al.inv(a))):
                    edge_diagram(e, s, memo=edges)
            self.assert_arc_shapes(s, edges)

    def test_bs12_commutator(self, bs2):
        memo: dict = {}
        build_filling_diagram(bs2, commutator(bs2.alphabet, 8), memo=memo)
        self.assert_arc_shapes(bs2, memo)


class TestDeepFlow:
    @pytest.mark.parametrize("tokens", [
        ["a"] + ["b"] * 400 + ["A"] + ["B"] * 400,
        ["b"] * 400 + ["a"] + ["B"] * 400 + ["A"],
    ], ids=["a b^400 A B^400", "b^400 a B^400 A"])
    def test_flow_deeper_than_recursion_limit(self, z2struct, tokens):
        al = z2struct.alphabet
        w = al.word(" ".join(tokens))
        memo = {}
        d = build_filling_diagram(z2struct, w, memo=memo)
        assert len(d.faces) == 400
        rels = stacking_relation_set(
            z2struct, [(Word(al, src), a) for (src, a), _ in memo.values()]
        )
        assert validate_diagram(d, rels, w, z2struct).passed


class TestRelationSet:
    def test_one_seed_per_distinct_image(self, bs2):
        # the edges of the memos of fillings repeat a few (image, letter) pairs
        al = bs2.alphabet
        for w in conjugate_commutators(al, 12, seed=6):
            memo: dict = {}
            build_filling_diagram(bs2, w, memo=memo)
            edges = [(Word(al, src), a) for (src, a), _ in memo.values()]
            assert stacking_relation_set(bs2, edges) == stacking_relation_set_reference(bs2, edges)

    def test_every_sampled_edge_is_checked(self, bs2):
        # a degenerate edge after a recursive one with the same letter
        al = bs2.alphabet
        edges = [(al.word("t"), al.index("a")), (al.word("a"), al.index("a"))]
        with pytest.raises(StructureError, match="degenerate"):
            stacking_relation_set(bs2, edges)


class TestValidation:
    def test_empty_diagram_for_empty_word(self, bs2):
        al = bs2.alphabet
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(empty_diagram(al), rels, al.empty(), bs2)
        assert report.passed

    def test_corrupted_face_fails_incidence(self, bs2):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        fid, walk = d.faces[0]
        bad = VanKampenDiagram(
            d.alphabet, d.vertices, d.edges, ((fid, walk[:-1]),),
            d.basepoint, d.boundary,
        )
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(bad, rels, w, bs2)
        assert not report.passed and not report.incidence_consistent

    def test_basepoint_not_a_vertex_fails_incidence(self, bs2):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        bad = dataclasses.replace(d, basepoint=max(d.vertex_words) + 1)
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(bad, rels, w, bs2)
        assert not report.incidence_consistent and not report.passed
        assert report.details == ["basepoint is not a vertex"]

    def test_missing_face_fails_euler(self, bs2):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        bad = dataclasses.replace(d, faces=d.faces[1:])
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(bad, rels, w, bs2)
        assert report.incidence_consistent and not report.euler_and_connected
        assert report.details == [f"V - E + F = {bad.euler_characteristic()} != 1"]
        assert bad.euler_characteristic() == 0

    def test_wrong_boundary_word_fails(self, bs2):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(d, rels, al.word("a A"), bs2)
        assert not report.boundary_matches and not report.passed

    def test_non_relator_face_fails(self, bs2):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        report = validate_diagram(d, {al.word("t a T A")}, w, bs2)
        assert not report.faces_are_relators

    def test_one_rotation_of_the_face_word_is_enough(self, bs2):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        ((fid, walk),) = d.faces
        fw = d.walk_word(walk)
        rotated = Word(al, fw.letters[2:] + fw.letters[:2])
        for r in (rotated, rotated.inverse()):
            report = validate_diagram(d, {r}, w, bs2)
            assert report.passed and not report.details
        report = validate_diagram(d, {al.word("t a T A")}, w, bs2)
        assert report.details == [f"face {fid} label {fw} is not a relator"]

    def test_swapped_vertex_words_fail_basepoint_paths(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        (i, wi), (j, wj) = d.vertices[1], d.vertices[2]
        assert wi != wj
        swapped = tuple((vid, {i: wj, j: wi}.get(vid, word)) for vid, word in d.vertices)
        bad = VanKampenDiagram(al, swapped, d.edges, d.faces, d.basepoint, d.boundary)
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(bad, rels, w, bs2)
        assert not report.basepoint_paths and not report.passed
        assert report.incidence_consistent and report.euler_and_connected
        assert report.boundary_matches and report.faces_are_relators
        assert sum("labels no basepoint path" in x for x in report.details) == 2

    def test_detached_vertex_fails_connectivity(self, bs2):
        # an extra vertex with a loop edge keeps V - E + F = 1
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        v = max(vid for vid, _ in d.vertices) + 1
        e = max(eid for eid, *_ in d.edges) + 1
        bad = VanKampenDiagram(
            al, d.vertices + ((v, al.word("a")),), d.edges + ((e, v, v, al.index("a")),),
            d.faces, d.basepoint, d.boundary,
        )
        assert bad.euler_characteristic() == 1
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(bad, rels, w, bs2)
        assert not report.euler_and_connected and not report.passed
        assert report.incidence_consistent and report.boundary_matches
        assert "1-skeleton is not connected" in report.details
        assert not any(x.startswith("V - E + F") for x in report.details)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_out_of_range_label_fails_incidence(self, bs2, label):
        al = bs2.alphabet
        w = al.word("t a T A A")
        d = build_filling_diagram(bs2, w)
        eid, src, dst, _ = d.edges[0]
        bad = VanKampenDiagram(
            al, d.vertices, ((eid, src, dst, label),) + d.edges[1:],
            d.faces, d.basepoint, d.boundary,
        )
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(bad, rels, w, bs2)
        assert not report.incidence_consistent and not report.passed
        assert f"edge {eid} has dangling endpoint or bad label" in report.details

    def test_report_serializes(self, bs2):
        al = bs2.alphabet
        w = al.word("a A")
        d = build_filling_diagram(bs2, w)
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        data = json.loads(validate_diagram(d, rels, w, bs2).to_json())
        assert data["passed"] is True
        assert set(data["checks"]) == {
            "boundary_matches",
            "faces_are_relators",
            "euler_and_connected",
            "basepoint_paths",
            "incidence_consistent",
        }


# Structures whose fillings validation is compared with the word-based
# reference on, with defining relators to draw trivial words from.
VALIDATED_STRUCTURES = {
    "bs1p:2": ["t a T A A"],
    "crs:z2": ["a b A B"],
    "crs:bs12": ["t a T A A", "d A A"],
}


def filling_with_relators(s, w):
    memo: dict = {}
    d = build_filling_diagram(s, w, memo=memo)
    edges = [(Word(s.alphabet, src), a) for (src, a), _ in memo.values()]
    return d, stacking_relation_set(s, edges) if edges else set()


def mutate(d, kind, i, j):
    """``d`` with one defect of the given kind, placed by ``i`` and ``j``."""
    al = d.alphabet
    if kind == "relabel":  # vertex i takes vertex j's word, or that word times a letter
        (vid, _), (_, word) = d.vertices[i % len(d.vertices)], d.vertices[j % len(d.vertices)]
        if j % 2:
            word = word.append(j % len(al))
        vertices = tuple((v, word if v == vid else u) for v, u in d.vertices)
        return dataclasses.replace(d, vertices=vertices)
    if kind in ("endpoint", "label"):  # edge i moves its start to vertex j, or reads no letter
        k = i % len(d.edges)
        eid, src, dst, x = d.edges[k]
        if kind == "endpoint":
            src = d.vertices[j % len(d.vertices)][0] if j % 5 else max(d.vertex_words) + 1
        else:
            x = -1 if j % 2 else len(al)
        return dataclasses.replace(d, edges=d.edges[:k] + ((eid, src, dst, x),) + d.edges[k + 1 :])
    if kind == "drop":  # face i loses its j-th entry
        k = i % len(d.faces)
        fid, walk = d.faces[k]
        walk = walk[: j % len(walk)] + walk[j % len(walk) + 1 :]
        return dataclasses.replace(d, faces=d.faces[:k] + ((fid, walk),) + d.faces[k + 1 :])
    # flip: boundary entry i is read the other way
    k = i % len(d.boundary)
    return dataclasses.replace(d, boundary=d.boundary[:k] + (-d.boundary[k],) + d.boundary[k + 1 :])


class TestValidationAgainstReference:
    """validate_diagram gives the report, flags and details in order, of the
    checks made on words (``validate_reference``): on fillings, and on
    fillings with one defect each."""

    @pytest.mark.parametrize("name", VALIDATED_STRUCTURES)
    def test_fillings(self, structures, name):
        s = structures[name]()
        al = s.alphabet
        relators = [al.word(r) for r in VALIDATED_STRUCTURES[name]]
        words = random_trivial_words(al, relators, 30, 30, seed=13)
        if "t" in al.tokens:
            words += [commutator(al, n) for n in range(6)]
        for w in words:
            d, rels = filling_with_relators(s, w)
            report = validate_diagram(d, rels, w, s)
            assert report == validate_reference(d, rels, w, s)
            assert report.passed
            # a wrong word, and a relator set that misses the faces
            wrong = w.append(0)
            assert validate_diagram(d, rels, wrong, s) == validate_reference(d, rels, wrong, s)
            few = set(list(rels)[:1])
            assert validate_diagram(d, few, w, s) == validate_reference(d, few, w, s)

    @settings(max_examples=150, deadline=None)
    @given(
        name=hs.sampled_from(sorted(VALIDATED_STRUCTURES)),
        seed=hs.integers(0, 2**32),
        kind=hs.sampled_from(["relabel", "endpoint", "drop", "label", "flip"]),
        i=hs.integers(0, 10**6),
        j=hs.integers(0, 10**6),
    )
    def test_mutated_fillings(self, structures, name, seed, kind, i, j):
        s = structures[name]()
        al = s.alphabet
        relators = [al.word(r) for r in VALIDATED_STRUCTURES[name]]
        (w,) = random_trivial_words(al, relators, 1, 30, seed)
        d, rels = filling_with_relators(s, w)
        assume(d.faces)
        bad = mutate(d, kind, i, j)
        report = validate_diagram(bad, rels, w, s)
        assert report == validate_reference(bad, rels, w, s)
        if bad != d:
            assert not report.passed


class TestBasepointPathsAgainstReference:
    """validate_diagram reports the basepoint-path failures that walking
    every vertex word from the basepoint finds, in the same words and
    order."""

    @staticmethod
    def assert_same_details(s, d, w):
        al = s.alphabet
        rels = stacking_relation_set(s, [(al.word("t"), al.index("a"))])
        report = validate_diagram(d, rels, w, s)
        expected = basepoint_path_details(d, s)
        assert [x for x in report.details if x.startswith("vertex ")] == expected
        assert report.basepoint_paths == (not expected)
        return expected

    @staticmethod
    def relabel(d, labels):
        vertices = tuple((vid, labels.get(vid, word)) for vid, word in d.vertices)
        return VanKampenDiagram(d.alphabet, vertices, d.edges, d.faces, d.basepoint, d.boundary)

    def test_fillings(self, bs2):
        for w in conjugate_commutators(bs2.alphabet, 12, seed=7):
            assert self.assert_same_details(bs2, build_filling_diagram(bs2, w), w) == []

    def test_swapped_labels(self, bs2):
        w = max(conjugate_commutators(bs2.alphabet, 5, seed=8), key=len)
        d = build_filling_diagram(bs2, w)
        (i, wi), (j, wj) = d.vertices[3], d.vertices[-1]
        assert wi != wj
        assert len(self.assert_same_details(bs2, self.relabel(d, {i: wj, j: wi}), w)) == 2

    def test_label_whose_prefixes_label_no_vertex(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        far = al.word("T T T T T A")
        assert all(far[:k] not in d.vertex_words.values() for k in range(1, 6))
        details = self.assert_same_details(bs2, self.relabel(d, {d.vertices[2][0]: far}), w)
        assert details == [f"vertex {d.vertices[2][0]} word {far} labels no basepoint path"]

    def test_non_normal_form_label(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        (i, _), (j, wj) = d.vertices[1], d.vertices[4]
        bad = self.relabel(d, {i: al.word("t a"), j: wj.append(al.index("a"))})
        details = self.assert_same_details(bs2, bad, w)
        assert details[0] == f"vertex {i} word t a is not a normal form"
        assert len(details) == 2


class TestJsonExport:
    """``export_diagram(d, "json")`` writes the text of
    ``json.dumps(obj, indent=2)`` itself; the fillings checked against the
    reference fold above are checked the same way."""

    def testempty_diagram(self, bs2):
        assert_json_export(empty_diagram(bs2.alphabet))

    def test_one_edge_segment(self, bs2):
        al = bs2.alphabet
        assert_json_export(edge_diagram((al.empty(), al.index("a")), bs2))

    def test_no_faces(self, bs2):
        d = build_filling_diagram(bs2, bs2.alphabet.word("a t T A"))
        assert len(d.faces) == 0 and d.edges
        assert_json_export(d)

    def test_tokens_that_need_escapes(self):
        al = Alphabet.from_pairs(['q"', "Q\\", "\u00e9", "\u00c9"], [('q"', "Q\\"), ("\u00e9", "\u00c9")])
        d = VanKampenDiagram(
            al, ((1, al.empty()), (2, al.word('q"')), (3, al.word("q\" \u00e9"))),
            ((1, 1, 2, 0), (2, 2, 3, 2)), (), 1, (1, 2, -2, -1),
        )
        assert_json_export(d)


class TestExportImport:
    def test_json_round_trip_identity(self, bs2):
        al = bs2.alphabet
        d = edge_diagram((al.word("t"), al.index("a")), bs2)
        blob = export_diagram(d, "json")
        restored = import_diagram(blob, al)
        assert restored == d
        assert export_diagram(restored, "json") == blob

    @pytest.mark.parametrize("field, index, key, value", [
        pytest.param("vertices", 1, "word", "z", id="vertices-1-word"),
        pytest.param("edges", 0, "label", "z", id="edges-0-label"),
        pytest.param("vertices", 1, "word", 5, id="vertices-1-word-not-text"),
        pytest.param(None, None, None, "{not json", id="not-json"),
        pytest.param(None, None, None, b"\xff", id="not-utf-8"),
    ])
    def test_import_rejects_unknown_token(self, bs2, field, index, key, value):
        al = bs2.alphabet
        d = build_filling_diagram(bs2, al.word("t a T A A"))
        obj = json.loads(export_diagram(d, "json"))
        if field is None:
            text = value
        else:
            obj[field][index][key] = value
            text = json.dumps(obj)
        with pytest.raises(FormatError):
            import_diagram(text, al)

    def test_exports_deterministic(self, bs2):
        al = bs2.alphabet
        d1 = edge_diagram((al.word("t"), al.index("a")), bs2)
        d2 = edge_diagram((al.word("t"), al.index("a")), bs2)
        for fmt in ("json", "dot", "svg"):
            assert export_diagram(d1, fmt) == export_diagram(d2, fmt)

    def test_dot_is_labeled_graph(self, bs2):
        al = bs2.alphabet
        d = edge_diagram((al.word("t"), al.index("a")), bs2)
        text = export_diagram(d, "dot").decode()
        assert text.startswith("graph") and 'label="a"' in text

    def test_svg_draws_faces(self, bs2):
        al = bs2.alphabet
        d = build_filling_diagram(bs2, al.word("t t a T T A A A A"))
        text = export_diagram(d, "svg").decode()
        assert text.startswith("<svg") and text.count("<polygon") == len(d.faces)

    def test_unknown_format_rejected(self, bs2):
        al = bs2.alphabet
        d = edge_diagram((al.word("t"), al.index("a")), bs2)
        with pytest.raises(FormatError):
            export_diagram(d, "png")
