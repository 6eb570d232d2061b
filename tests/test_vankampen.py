import json

import pytest

from stackings import (
    BudgetExceededError,
    DiagramError,
    FlowFunction,
    FormatError,
    StackingStructure,
    VanKampenDiagram,
    Word,
    area,
    build_filling_diagram,
    degenerate_diagram,
    export_diagram,
    import_diagram,
    recursive_diagram,
    seashell_glue,
    stacking_relation_set,
    validate_diagram,
)
from stackings.vankampen import _empty_diagram


@pytest.fixture(scope="module")
def flow(bs2):
    return FlowFunction(bs2)


class TestDegenerateDiagram:
    def test_one_edge_segment(self, bs2):
        al = bs2.alphabet
        d = degenerate_diagram((al.empty(), al.index("a")), bs2)
        assert area(d) == 0
        assert d.vertices == ((1, al.empty()), (2, al.word("a")))
        assert d.boundary == (1, -1)
        assert str(d.boundary_word()) == "a A"

    def test_truncation_direction(self, bs2):
        # from "a t" back by T: the longer endpoint spells the segment
        al = bs2.alphabet
        d = degenerate_diagram((al.word("a t"), al.index("T")), bs2)
        assert area(d) == 0
        assert str(d.boundary_word()) == "a t T A"

    def test_rejects_recursive_edge(self, bs2):
        al = bs2.alphabet
        with pytest.raises(DiagramError):
            degenerate_diagram((al.word("t"), al.index("a")), bs2)


class TestRecursiveDiagram:
    def test_single_face_for_t_a(self, bs2, flow):
        al = bs2.alphabet
        d = recursive_diagram((al.word("t"), al.index("a")), flow)
        assert area(d) == 1
        assert str(d.boundary_word()) == "t a T A A"
        assert str(d.face_word(d.faces[0][1])) == "T a a t A"
        assert len(d.vertices) == 5 and len(d.edges) == 5

    def test_rejects_degenerate_edge(self, bs2, flow):
        al = bs2.alphabet
        with pytest.raises(DiagramError):
            recursive_diagram((al.word("a"), al.index("a")), flow)

    def test_z2_commutator_face(self, z2struct):
        al = z2struct.alphabet
        d = recursive_diagram((al.word("b"), al.index("a")), FlowFunction(z2struct))
        assert area(d) == 1
        assert str(d.face_word(d.faces[0][1])) == "B a b A"

    def test_memo_serves_reverse_orientation_as_mirror(self, bs2, flow):
        al = bs2.alphabet
        memo = {}
        d = recursive_diagram((al.word("t"), al.index("a")), flow, memo=memo)
        rev = recursive_diagram(
            (bs2.normal_form(al.word("t a")), al.index("A")), flow, memo=memo
        )
        assert area(rev) == area(d)
        assert rev.boundary_word() == d.boundary_word().inverse()

    def test_mirror_reverses_boundary(self, bs2, flow):
        al = bs2.alphabet
        d = recursive_diagram((al.word("t"), al.index("a")), flow)
        m = d.mirror()
        assert m.boundary_word() == d.boundary_word().inverse()
        assert area(m) == area(d) and m.euler_characteristic() == 1

    def test_cyclic_flow_detected(self, bs2):
        al = bs2.alphabet
        bad = StackingStructure(
            al, bs2.normal_form, lambda y, a: al.word("a a A"), bound_k=4
        )
        with pytest.raises(BudgetExceededError):
            recursive_diagram((al.word("t"), al.index("a")), FlowFunction(bad), budget=100)


class TestSeashellGlue:
    def test_wedge_on_empty_shared_path(self, bs2):
        al = bs2.alphabet
        seg = degenerate_diagram((al.empty(), al.index("a")), bs2)
        g = seashell_glue(_empty_diagram(al), seg, al.empty())
        assert str(g.boundary_word()) == "a A"

    def test_label_mismatch_rejected(self, bs2):
        al = bs2.alphabet
        seg_a = degenerate_diagram((al.empty(), al.index("a")), bs2)
        seg_t = degenerate_diagram((al.empty(), al.index("t")), bs2)
        with pytest.raises(DiagramError):
            seashell_glue(seg_a, seg_t, al.word("a"))

    def test_area_is_additive(self, bs2, flow):
        al = bs2.alphabet
        memo = {}
        d1 = recursive_diagram((al.word("t"), al.index("a")), flow, memo=memo)
        # continue from normal form a a t by another a: area 1 piece
        d2 = recursive_diagram(
            (bs2.normal_form(al.word("t a")), al.index("a")), flow, memo=memo
        )
        glued = seashell_glue(d1, d2, bs2.normal_form(al.word("t a")))
        assert area(glued) == area(d1) + area(d2)
        assert glued.euler_characteristic() == 1


class TestFilling:
    def test_area_three_example(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        assert area(d) == 3
        assert d.boundary_word() == w

    def test_area_zero_and_one(self, bs2):
        al = bs2.alphabet
        assert area(build_filling_diagram(bs2, al.word("a A"))) == 0
        assert area(build_filling_diagram(bs2, al.word("t a T A A"))) == 1

    def test_nontrivial_word_rejected(self, bs2):
        with pytest.raises(DiagramError):
            build_filling_diagram(bs2, bs2.alphabet.word("a"))

    def test_filling_validates(self, bs2):
        al = bs2.alphabet
        w = al.word("t t a T T A A A A")
        d = build_filling_diagram(bs2, w)
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(d, rels, w, bs2)
        assert report.passed and not report.details


class TestValidation:
    def test_empty_diagram_for_empty_word(self, bs2):
        al = bs2.alphabet
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        report = validate_diagram(_empty_diagram(al), rels, al.empty(), bs2)
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


class TestExportImport:
    def test_json_round_trip_identity(self, bs2, flow):
        al = bs2.alphabet
        d = recursive_diagram((al.word("t"), al.index("a")), flow)
        blob = export_diagram(d, "json")
        restored = import_diagram(blob, al)
        assert restored == d
        assert export_diagram(restored, "json") == blob

    def test_exports_deterministic(self, bs2, flow):
        al = bs2.alphabet
        d1 = recursive_diagram((al.word("t"), al.index("a")), flow)
        d2 = recursive_diagram((al.word("t"), al.index("a")), FlowFunction(bs2))
        for fmt in ("json", "dot", "svg"):
            assert export_diagram(d1, fmt) == export_diagram(d2, fmt)

    def test_dot_is_labeled_graph(self, bs2, flow):
        al = bs2.alphabet
        d = recursive_diagram((al.word("t"), al.index("a")), flow)
        text = export_diagram(d, "dot").decode()
        assert text.startswith("graph") and 'label="a"' in text

    def test_svg_draws_faces(self, bs2):
        al = bs2.alphabet
        d = build_filling_diagram(bs2, al.word("t t a T T A A A A"))
        text = export_diagram(d, "svg").decode()
        assert text.startswith("<svg") and text.count("<polygon") == area(d)

    def test_unknown_format_rejected(self, bs2, flow):
        al = bs2.alphabet
        d = recursive_diagram((al.word("t"), al.index("a")), flow)
        with pytest.raises(FormatError):
            export_diagram(d, "png")
