import json
from collections import Counter
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as hs

from oracles import all_words, ball_json_obj, ball_reference, build_ball_reference, classify
from stackings import (
    BudgetExceededError,
    DirectedEdge,
    EdgeKind,
    FunctionOracle,
    GroupElement,
    StackingsError,
    StructureError,
    alpha,
    ball_to_json,
    bs1p_structure,
    build_ball,
    reduce_to_irreducible,
)
from stackings.words import Alphabet, Word


def tree_walk(ball, word):
    """The element reached from the identity by the ball's edges labelled
    by the letters of ``word``; each edge is degenerate and ends at the
    next prefix of ``word``."""
    g = ball.element(ball.alphabet.empty())
    for i, a in enumerate(word.letters):
        e = ball.edge(g.canonical, a)
        assert e.classification is EdgeKind.DEGENERATE
        g = e.target
        assert g.canonical == word[: i + 1]
    return g


class FirstLetterParent(FunctionOracle):
    """Normal-form words whose tree is wrong: a word's parent drops its
    first letter instead of its last."""

    def parent(self, y):
        return y[1:] if y.letters else None

    def last(self, y):
        return y.letters[0]


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
        spheres = Counter(g.distance for g in ball.elements.values())
        assert spheres == {0: 1, 1: 4, 2: 8, 3: 12}

    def test_distances_are_word_metric(self, z2oracle):
        ball = build_ball(z2oracle, 4)
        for g in ball.elements.values():
            # Z^2 irreducible words are geodesic
            assert g.distance == len(g.canonical)

    def test_prefixes_give_degenerate_tree(self, z2oracle):
        ball = build_ball(z2oracle, 4)
        for g in ball.elements.values():
            if len(g.canonical):
                e = ball.edge(g.canonical[:-1], g.canonical.letters[-1])
                assert e.classification is EdgeKind.DEGENERATE
                assert e.target.canonical == g.canonical

    def test_tree_path_spells_normal_form(self, z2oracle):
        # the edges by the letters of a normal form lead from the identity
        # to its element, each to a prefix one letter longer
        ball = build_ball(z2oracle, 3)
        for g in ball.sorted_elements():
            assert tree_walk(ball, g.canonical) == g


class TestBallBS12:
    def test_tree_path_for_t_a_T(self, bs2):
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        ball = build_ball(oracle, 3)
        g = ball.element(bs2.normal_form(bs2.alphabet.word("t a T")))
        assert str(g.canonical) == "a a"
        assert tree_walk(ball, g.canonical) == g

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
        ball = build_ball(FunctionOracle(al, Word.free_reduce), 3)
        # 1 + 4 + 12 + 36
        assert len(ball.elements) == 53
        assert all(e.classification is EdgeKind.DEGENERATE for e in ball.edges)

    def test_max_elements_cap(self):
        al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        with pytest.raises(BudgetExceededError, match="memory cap of 50 elements"):
            build_ball(FunctionOracle(al, Word.free_reduce), 5, max_elements=50)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("group, radius", [("z2", 5), ("bs12", 5), ("f2", 4)])
    def test_ball_matches_enumeration(self, group, radius, z2oracle, bs2):
        f2 = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        oracle = {"z2": z2oracle, "bs12": bs2, "f2": FunctionOracle(f2, Word.free_reduce)}[group]
        ball = build_ball(oracle, radius)
        dist, edges = ball_reference(oracle, radius)
        assert {g: e.distance for g, e in ball.elements.items()} == dist
        assert [
            (e.source.canonical.letters, e.label, e.target.canonical.letters,
             e.classification is EdgeKind.DEGENERATE)
            for e in ball.edges
        ] == edges

    def test_one_oracle_call_per_element_and_letter(self, z2S):
        calls = []
        oracle = FunctionOracle(
            z2S.alphabet, lambda w: calls.append(w) or reduce_to_irreducible(z2S, w)
        )
        ball = build_ball(oracle, 11)
        # the empty word at construction, then each element times each letter
        assert len(calls) == 1 + len(ball.elements) * len(z2S.alphabet)


class TestEdgesAndAlpha:
    def test_alpha_half_integers(self, z2oracle):
        ball = build_ball(z2oracle, 2)
        al = ball.alphabet
        e = ball.edge(al.word("a"), al.index("b"))
        assert alpha(e) == Fraction(3, 2)
        e0 = ball.edge(al.empty(), al.index("a"))
        assert alpha(e0) == Fraction(1, 2)

    def test_function_oracle_asks_once_per_distinct_word(self, z2S):
        calls = []
        oracle = FunctionOracle(
            z2S.alphabet, lambda w: calls.append(w.letters) or reduce_to_irreducible(z2S, w)
        )
        words = list(all_words(z2S.alphabet, 3))
        for w in words + words:
            assert oracle.normal_form(w) == reduce_to_irreducible(z2S, w)
        assert sorted(calls) == sorted(w.letters for w in words)

    @pytest.mark.parametrize("name, radius", [("bs1p:2", 5), ("crs:z2", 8), ("crs:bs12", 3)])
    def test_function_oracle_steps_ask_once_per_distinct_word(self, structures, name, radius):
        # a structure's normal form as a plain function, as a caller that
        # only has the function would search its balls
        s = structures[name]()
        calls = []
        oracle = FunctionOracle(s.alphabet, lambda w: calls.append(w.letters) or s.normal_form(w))
        region = build_ball(oracle, radius + 1)
        assert calls and len(calls) == len(set(calls))
        asked = len(calls)
        ball = build_ball(oracle, radius)
        assert len(calls) == asked  # the smaller ball is the kept one's restriction
        fresh = FunctionOracle(s.alphabet, structures[name]().normal_form)
        assert shape(ball) == shape(build_ball_reference(fresh, radius))
        assert shape(region) == shape(build_ball_reference(fresh, radius + 1))
        # every normal form asked for is kept once, in the function oracle:
        # the structure's tree keeps only the normal forms it spelled
        tree = s.tree
        assert set(tree._nodes) == {y.letters for y in tree._words.values()}

    def test_tree_keeps_the_node_of_each_word(self):
        s = bs1p_structure(2)
        moves = TestKeptBall.count_moves(s)
        w = s.alphabet.word("t a T a")
        nf = s.normal_form(w)  # no prefix of w is kept: a walk, kept for w
        assert len(moves) == 4
        t = s.alphabet.index("t")
        past = s.normal_form(w.append(t))  # one letter past a kept word
        assert len(moves) == 5
        assert s.normal_form(w.append(t)) is past and len(moves) == 6  # not kept
        s.tree.move = None  # a kept word takes no step
        assert s.normal_form(w) is nf
        assert s.normal_form(past) is past  # nor a normal form it spelled

    def test_bad_oracle_rejected(self):
        # the empty word's normal form is asked for once, at construction
        al = Alphabet.from_pairs(("a", "A"), [("a", "A")])
        with pytest.raises(StructureError, match="empty word"):
            FunctionOracle(al, lambda w: al.word("a"))

    def test_prefix_edge_must_be_degenerate(self, z2S):
        # this tree makes "b" the parent of "a b" by the letter a; the edge
        # from "b" by a ends at "a b" (b a = a b), but "a b" is not "b"
        # followed by a, so the edge is recursive
        bad = FirstLetterParent(z2S.alphabet, lambda w: reduce_to_irreducible(z2S, w))
        with pytest.raises(StructureError, match=r"prefix edge \(b --a--> a b\) is not degenerate"):
            build_ball(bad, 2)
        build_ball(bad, 1)  # a word of one letter has the root as parent either way


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

    @pytest.mark.parametrize("name", ["bs1p:2", "bs1p:3", "crs:z2", "crs:bs12"])
    def test_text_is_what_json_dumps_prints(self, structures, name):
        region = build_ball(structures[name](), 4)
        for radius in range(5):
            ball = region.restricted(radius)
            assert ball_to_json(ball) == json.dumps(ball_json_obj(ball), indent=2)


def shape(ball):
    """Everything a ball holds, with the order of each of its maps."""
    return (
        ball.radius,
        list(ball.elements.items()),
        ball.edges,
        list(ball.edge_index.items()),
    )


# The largest radius each structure's balls are checked at.
RADII = {"bs1p:2": 5, "bs1p:3": 4, "crs:z2": 10, "crs:bs12": 4, "shortlex-ac:z2:8:2": 6}


class TestAgainstWordLevelReference:
    """The search over tree nodes finds the ball that the search over
    normal-form words does, whether it runs on a structure's own tree or on
    the words of an oracle."""

    @staticmethod
    def check(structures, name, radius):
        want = build_ball_reference(structures[name](), radius)
        s = structures[name]()
        for oracle in (s, FunctionOracle(s.alphabet, s.normal_form)):
            ball = build_ball(oracle, radius)
            assert shape(ball) == shape(want)
            assert ball_to_json(ball) == ball_to_json(want)

    @pytest.mark.parametrize("name", sorted(RADII))
    def test_every_radius(self, structures, name):
        for radius in range(RADII[name] + 1):
            self.check(structures, name, radius)

    @settings(max_examples=25, deadline=None)
    @given(data=hs.data())
    def test_hypothesis_structures_and_radii(self, structures, data):
        name = data.draw(hs.sampled_from(sorted(RADII)))
        self.check(structures, name, data.draw(hs.integers(-1, RADII[name])))

    def test_free_group_and_cap(self):
        al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        oracle = FunctionOracle(al, Word.free_reduce)
        assert shape(build_ball(oracle, 3)) == shape(build_ball_reference(oracle, 3))
        for build in (build_ball, build_ball_reference):
            with pytest.raises(StackingsError, match="memory cap"):
                build(oracle, 5, max_elements=50)


class TestRecords:
    """Elements and edges are named tuples with the fields, text and hash
    that they had as frozen dataclasses."""

    def test_fields_text_hash_and_immutability(self, z2oracle):
        ball = build_ball(z2oracle, 1)
        al = ball.alphabet
        g, h = ball.element(al.empty()), ball.element(al.word("a"))
        e = ball.edge(g.canonical, al.index("a"))
        assert GroupElement._fields == ("canonical", "distance")
        assert DirectedEdge._fields == ("source", "label", "target", "classification")
        assert tuple(g) == (al.empty(), 0)
        assert tuple(e) == (g, 0, h, EdgeKind.DEGENERATE)
        assert repr(h) == "GroupElement(canonical=Word('a'), distance=1)"
        assert repr(e) == (
            "DirectedEdge(source=GroupElement(canonical=Word(''), distance=0), label=0, "
            "target=GroupElement(canonical=Word('a'), distance=1), "
            "classification=<EdgeKind.DEGENERATE: 'degenerate'>)"
        )
        assert str(e) == "( --a--> a)"
        assert str(ball.edge(h.canonical, al.index("A"))) == "(a --A--> )"
        assert hash(g) == hash((al.empty(), 0))
        assert hash(e) == hash((g, 0, h, EdgeKind.DEGENERATE))
        # the one change from the dataclasses: a record equals its plain tuple
        assert e == (g, 0, h, EdgeKind.DEGENERATE)
        for record, name in ((g, "distance"), (e, "label"), (e, "classification")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    @pytest.mark.parametrize("name", sorted(RADII))
    def test_built_as_records(self, structures, name):
        # equal to the reference's records, and of the record classes, which
        # a comparison alone would not tell from plain tuples
        s = structures[name]()
        for oracle in (s, FunctionOracle(s.alphabet, s.normal_form)):
            ball = build_ball(oracle, RADII[name])
            assert shape(ball) == shape(build_ball_reference(structures[name](), RADII[name]))
            assert {type(g) for g in ball.elements.values()} == {GroupElement}
            assert {type(e) for e in ball.edges} == {DirectedEdge}
            assert {type(e.source) for e in ball.edges} == {GroupElement}


class TestRestriction:
    @pytest.mark.parametrize(
        "name, radius", [("bs1p:2", 6), ("bs1p:3", 5), ("crs:z2", 12), ("crs:bs12", 4)]
    )
    def test_equals_the_search_for_its_radius(self, structures, name, radius):
        region = build_ball(structures[name](), radius + 1)
        ball = build_ball(structures[name](), radius)
        restricted = region.restricted(radius)
        assert shape(restricted) == shape(ball)
        assert ball_to_json(restricted) == ball_to_json(ball)

    def test_drops_tree_parents_from_outside(self, bs2):
        # t^-5 a^4 lies at distance 6 and its prefix t^-5 a^3 at distance 7
        region = build_ball(bs2, 7)
        restricted = region.restricted(6)
        al = bs2.alphabet
        g, prefix = al.word("T T T T T a a a a"), al.word("T T T T T a a a")
        assert region.edge(prefix, al.index("a")).target.canonical == g
        assert g in restricted and prefix not in restricted
        assert restricted.edge(prefix, al.index("a")) is None

    def test_negative_radius_keeps_the_root(self, bs2):
        assert shape(build_ball(bs2, 2).restricted(-1)) == shape(build_ball(bs2, -1))


class TestKeptBall:
    """A tree keeps the largest ball searched on it.  A search of a radius
    no larger is that ball's restriction: it makes no move, and gives the
    ball, or the error, that a search on a fresh tree gives."""

    @staticmethod
    def oracles(structures, name):
        """A fresh structure, and a function oracle over another one."""
        s = structures[name]()
        return [s, FunctionOracle(s.alphabet, structures[name]().normal_form)]

    @staticmethod
    def count_moves(oracle) -> list:
        """The letters of the moves made on ``oracle``'s tree from now on."""
        tree = getattr(oracle, "tree", oracle)
        moves, move = [], tree.move
        tree.move = lambda y, a: moves.append(a) or move(y, a)
        return moves

    @staticmethod
    def outcome(oracle, radius, max_elements=10**6):
        try:
            return shape(build_ball(oracle, radius, max_elements))
        except StackingsError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("name", sorted(RADII))
    def test_orders_of_radii(self, structures, name):
        r = RADII[name] - 1
        fresh = {n: shape(build_ball(structures[name](), n)) for n in (-1, 2, r, r + 1)}
        for first, second in ((r + 1, r), (r, r + 1), (r, r), (2, -1)):
            for oracle in self.oracles(structures, name):
                ball = build_ball(oracle, first)
                assert getattr(oracle, "tree", oracle)._ball is ball  # kept, not copied
                assert shape(ball) == fresh[first]
                moves = self.count_moves(oracle)
                assert shape(build_ball(oracle, second)) == fresh[second]
                assert (moves == []) == (second <= first)

    @pytest.mark.parametrize("name", sorted(RADII))
    def test_cap_on_a_warm_tree(self, structures, name):
        r = RADII[name] - 1
        size = len(build_ball(structures[name](), r).elements)
        for cap in (size, size - 1):
            want = self.outcome(structures[name](), r, cap)
            assert (want[0] is BudgetExceededError) == (cap < size)
            for oracle in self.oracles(structures, name):
                build_ball(oracle, r + 1)
                moves = self.count_moves(oracle)
                assert self.outcome(oracle, r, cap) == want
                assert moves == []

    def test_prefix_edge_error_after_a_smaller_search(self, z2S):
        def bad():
            return FirstLetterParent(z2S.alphabet, lambda w: reduce_to_irreducible(z2S, w))

        want = self.outcome(bad(), 2)
        assert want == (StructureError, "prefix edge (b --a--> a b) is not degenerate")
        oracle = bad()
        assert self.outcome(oracle, 1) == self.outcome(bad(), 1)
        assert self.outcome(oracle, 2) == want
        assert self.outcome(oracle, 1) == self.outcome(bad(), 1)
        assert self.outcome(oracle, 2) == want
