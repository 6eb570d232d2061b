import json
from fractions import Fraction

import pytest

from stackings import (
    EdgeKind,
    FunctionOracle,
    StackingsError,
    StructureError,
    alpha,
    ball_to_json,
    build_ball,
    classify,
    free_group_oracle,
    tree_path,
)
from stackings.words import Alphabet


class TestClassify:
    def test_degenerate_by_append(self, bs2):
        al = bs2.alphabet
        # y_g a = y_{ga} as words: edge from "a" by t toward "a t"
        assert classify(al.word("a"), al.index("t"), al.word("a t")) is EdgeKind.DEGENERATE

    def test_degenerate_by_truncation(self, bs2):
        al = bs2.alphabet
        # y_g = y_{ga} a^{-1}: edge from "a t" by T back to "a"
        assert classify(al.word("a t"), al.index("T"), al.word("a")) is EdgeKind.DEGENERATE

    def test_recursive(self, bs2):
        al = bs2.alphabet
        # edge from t by a: target is a a t; neither word equation holds
        assert classify(al.word("t"), al.index("a"), al.word("a a t")) is EdgeKind.RECURSIVE

    def test_classify_edge_uses_oracle(self, bs2, z2oracle):
        ball = build_ball(z2oracle, 2)
        for e in ball.edges:
            y_ga = z2oracle.normal_form(e.source.canonical.append(e.label))
            assert classify(e.source.canonical, e.label, y_ga) is e.classification


class TestBallZ2:
    def test_ball_sizes(self, z2oracle):
        for n in range(5):
            ball = build_ball(z2oracle, n)
            assert len(ball.elements) == 2 * n * n + 2 * n + 1

    def test_sphere_sizes(self, z2oracle):
        ball = build_ball(z2oracle, 3)
        assert len(ball.sphere(0)) == 1
        assert len(ball.sphere(1)) == 4
        assert len(ball.sphere(2)) == 8
        assert len(ball.sphere(3)) == 12

    def test_distances_are_word_metric(self, z2oracle):
        ball = build_ball(z2oracle, 4)
        for g in ball.elements.values():
            # Z^2 irreducible words are geodesic
            assert g.distance == len(g.canonical)

    def test_prefixes_give_degenerate_tree(self, z2oracle):
        ball = build_ball(z2oracle, 4)
        for g in ball.elements.values():
            if len(g.canonical):
                e = ball.tree_parent[g.canonical.letters]
                assert e.classification is EdgeKind.DEGENERATE
                assert e.target.canonical == g.canonical

    def test_tree_path_spells_normal_form(self, z2oracle):
        ball = build_ball(z2oracle, 3)
        for g in ball.sorted_elements():
            assert tree_path(ball, g) == g.canonical


class TestBallBS12:
    def test_tree_path_for_t_a_T(self, bs2):
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        ball = build_ball(oracle, 3)
        g = ball.element(bs2.normal_form(bs2.alphabet.word("t a T")))
        assert str(tree_path(ball, g)) == "a a"

    def test_normal_forms_not_geodesic(self, bs2):
        # a^8 = t^2 a t^-2 has distance 6 but canonical length 8
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        ball = build_ball(oracle, 6)
        g = ball.element(bs2.alphabet.word("a a a a a a a a"))
        assert g.distance == 6

    def test_tree_parent_partial_off_geodesics(self, bs2):
        # t^-5 a^4 has distance 6 but its normal-form prefix t^-5 a^3 has
        # distance 7, so the spanning-tree entry cannot exist in B(6)
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        ball = build_ball(oracle, 6)
        g = ball.element(bs2.alphabet.word("T T T T T a a a a"))
        assert g.distance == 6
        assert bs2.alphabet.word("T T T T T a a a") not in ball
        assert g.canonical.letters not in ball.tree_parent
        with pytest.raises(StackingsError):
            tree_path(ball, g)

    def test_edge_classifications_match_closed_forms(self, bs2):
        al = bs2.alphabet
        oracle = FunctionOracle(al, bs2.normal_form)
        ball = build_ball(oracle, 3)
        e = ball.edge(al.word("t"), al.index("a"))
        assert e.classification is EdgeKind.RECURSIVE
        e = ball.edge(al.word("a"), al.index("t"))
        assert e.classification is EdgeKind.DEGENERATE

    def test_degenerate_edge_from_T_a_by_t(self, bs2):
        # y_g t = y_{gt} as words ("T a" + t = "T a t"), so the edge is
        # degenerate even though it matches the shape of a recursive case
        al = bs2.alphabet
        assert bs2.is_degenerate(al.word("T a"), al.index("t"))


class TestFreeGroup:
    def test_ball_growth(self):
        al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        ball = build_ball(free_group_oracle(al), 3)
        # 1 + 4 + 12 + 36
        assert len(ball.elements) == 53
        assert all(e.classification is EdgeKind.DEGENERATE for e in ball.edges)

    def test_max_elements_cap(self):
        al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        with pytest.raises(StackingsError):
            build_ball(free_group_oracle(al), 5, max_elements=50)


class TestEdgesAndAlpha:
    def test_reversed_edge(self, z2oracle):
        ball = build_ball(z2oracle, 2)
        e = ball.edge(ball.alphabet.word("a"), ball.alphabet.index("b"))
        r = e.reversed()
        assert r.source == e.target and r.target == e.source
        assert r.label == ball.alphabet.inv(e.label)

    def test_alpha_half_integers(self, z2oracle):
        ball = build_ball(z2oracle, 2)
        al = ball.alphabet
        e = ball.edge(al.word("a"), al.index("b"))
        assert alpha(e) == Fraction(3, 2)
        e0 = ball.edge(al.empty(), al.index("a"))
        assert alpha(e0) == Fraction(1, 2)

    def test_bad_oracle_rejected(self):
        al = Alphabet.from_pairs(("a", "A"), [("a", "A")])
        bad = FunctionOracle(al, lambda w: al.word("a"))
        with pytest.raises(StructureError):
            build_ball(bad, 1)


class TestJsonDump:
    def test_deterministic_and_well_formed(self, z2oracle):
        b1 = ball_to_json(build_ball(z2oracle, 2))
        b2 = ball_to_json(build_ball(z2oracle, 2))
        assert b1 == b2
        data = json.loads(b1)
        assert data["radius"] == 2
        assert len(data["elements"]) == 13
        classes = {e["classification"] for e in data["edges"]}
        assert classes <= {"degenerate", "recursive"}
