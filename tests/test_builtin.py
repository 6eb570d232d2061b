import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from oracles import affine_eval, all_words, shortlex_representatives, thompson_f_direct
from stackings import (
    AlmostConvexityError,
    Alphabet,
    FormatError,
    FunctionOracle,
    OutsideExploredRegionError,
    RewriteRule,
    RewritingSystem,
    StructureError,
    Word,
    almost_convexity_check,
    bs1p_structure,
    crs_structure,
    expsum_x0,
    free_group_oracle,
    load_rewriting_system,
    reduce_to_irreducible,
    shortlex_ac_structure,
    stacking_reduce_steps,
    thompson_alphabet,
    thompson_f_in_C,
)
from stackings import builtin
from stackings.builtin import BS1pElement, _bs_normalize, _ShortlexBall


class TestBS1p:
    def test_normalize_collapses_divisible_middle(self):
        # t^-1 a^4 t = a^2 in BS(1,2)
        assert _bs_normalize(2, 1, 4, 1) == BS1pElement(0, 2, 0)

    def test_normal_forms_match_affine_representation(self, bs2):
        # the affine oracle a -> x+1, t -> 2x separates BS(1,2) elements
        al = bs2.alphabet
        seen = {}
        for w in all_words(al, 6):
            nf = bs2.normal_form(w)
            key = affine_eval(w)
            assert affine_eval(nf) == key
            assert seen.setdefault(key, nf.letters) == nf.letters

    def test_phi_t_edge_positive(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("T a a"), al.index("t"))) == "A A t a"

    def test_phi_t_edge_negative(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("a"), al.index("T"))) == "A T a a"

    def test_phi_a_edge(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("t"), al.index("A"))) == "T A A t"

    def test_phi_rejects_degenerate_queries(self, bs2):
        al = bs2.alphabet
        with pytest.raises(StructureError):
            bs2.phi(al.word("a"), al.index("a"))  # a^m by a: degenerate
        with pytest.raises(StructureError):
            bs2.phi(al.word("T T"), al.index("T"))  # m = 0: degenerate

    def test_p3(self):
        bs3 = bs1p_structure(3)
        al = bs3.alphabet
        assert str(bs3.normal_form(al.word("t a T"))) == "a a a"
        assert str(bs3.phi(al.word("t"), al.index("a"))) == "T a a a t"
        assert bs3.bound_k == 5

    def test_bound_is_p_plus_two(self, bs2):
        assert bs2.bound_k == 4

    def test_p_below_two_rejected(self):
        with pytest.raises(FormatError):
            bs1p_structure(1)


@pytest.fixture(scope="module")
def warm_bs():
    """One BS(1,p) structure per p, kept across examples, so its table of
    elements of returned normal forms fills up."""
    return {p: bs1p_structure(p) for p in (2, 3)}


class TestBS1pStep:
    @pytest.mark.parametrize("p", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=hs.data())
    def test_agrees_with_affine_oracle(self, warm_bs, p, data):
        s = warm_bs[p]
        al = s.alphabet
        u = Word(al, tuple(data.draw(hs.lists(hs.integers(0, 3), max_size=10))))
        x = data.draw(hs.integers(0, 3))
        y = s.normal_form(u)
        # u's prefix is seldom a normal form returned before; y's always is.
        # The oracle functions are called directly, past the structure's memo.
        for w in (u, y.append(x)):
            nf = s.normal_form_fn(w)
            assert affine_eval(nf, p) == affine_eval(w, p)
            assert nf == bs1p_structure(p).normal_form_fn(w)  # replayed
        if not s.is_degenerate(y, x):
            img = s.phi_fn(y, x)
            assert affine_eval(y * img, p) == affine_eval(y.append(x), p)
            assert img == bs1p_structure(p).phi_fn(y, x)  # replayed

    @pytest.mark.parametrize("p, n", [(2, 4), (3, 3)])
    def test_reduction_multiplies_linearly(self, monkeypatch, p, n):
        calls = []
        bs_mul = builtin._bs_mul
        monkeypatch.setattr(
            builtin, "_bs_mul", lambda *args: calls.append(1) or bs_mul(*args)
        )
        s = bs1p_structure(p)
        u = ["t"] * n + ["a"] + ["T"] * n
        w = s.alphabet.word(" ".join(u + ["a"] + u + ["A"]))
        _, steps = stacking_reduce_steps(s, w)
        assert len(calls) <= 2 * (len(w) + steps * (p + 2))


class TestCrsStructure:
    def test_requires_claimed_complete(self, z2S):
        S = RewritingSystem(z2S.alphabet, z2S.rules, claimed_complete=False)
        with pytest.raises(StructureError):
            crs_structure(S)

    def test_phi_is_conjugated_rule(self, z2struct):
        # y_g = b, a: rule "b a -> a b" factors as u~ a with u~ = b
        al = z2struct.alphabet
        assert str(z2struct.phi(al.word("b"), al.index("a"))) == "B a b"

    def test_phi_rejects_non_minimal_system(self, z2S):
        # "b b a" ends in the lhs of both "b a -> a b" and "b b a -> a b b"
        al = z2S.alphabet
        S = RewritingSystem(
            al,
            z2S.rules + (RewriteRule(al.word("b b a"), al.word("a b b")),),
            claimed_complete=True,
        )
        with pytest.raises(StructureError, match="not minimal"):
            crs_structure(S).phi(al.word("b b"), al.index("a"))


class TestShortlexAC:
    @pytest.mark.parametrize("group, radius", [("z2", 6), ("bs12", 5), ("f2", 6)])
    def test_shortlex_ball_matches_enumeration(self, group, radius, z2oracle, bs2):
        f2 = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        oracle = {"z2": z2oracle, "bs12": bs2, "f2": free_group_oracle(f2)}[group]
        box = _ShortlexBall(oracle, radius)
        expected = shortlex_representatives(
            oracle.alphabet, lambda w: oracle.normal_form(w).letters, radius
        )
        assert box.slex == expected
        assert box.dist == {w.letters: len(w) for w in expected.values()}

    def test_normal_forms_are_shortlex_least(self, z2oracle):
        st = shortlex_ac_structure(z2oracle, ball_radius=3, k_ac=2)
        al = st.alphabet
        assert str(st.normal_form(al.word("b a"))) == "a b"
        assert str(st.normal_form(al.word("B b"))) == ""

    def test_case2_appends_last_letter(self, z2oracle):
        # b -> ab gains length: phi = (path b to a in B(1)) + b
        st = shortlex_ac_structure(z2oracle, ball_radius=4, k_ac=2)
        al = st.alphabet
        assert str(st.phi(al.word("b"), al.index("a"))) == "B a b"

    def test_case3_prepends_inverse_letter(self, z2oracle):
        # ab -> b loses length: phi = b^-1 + (path a to b in B(1))
        st = shortlex_ac_structure(z2oracle, ball_radius=4, k_ac=2)
        al = st.alphabet
        assert str(st.phi(al.word("a b"), al.index("A"))) == "B A b"

    def test_degenerate_queries_rejected(self, z2oracle):
        st = shortlex_ac_structure(z2oracle, ball_radius=4, k_ac=2)
        al = st.alphabet
        with pytest.raises(StructureError):
            st.phi(al.word("a"), al.index("b"))

    def test_case1_avoids_edge_on_sphere(self):
        # cyclic of order 3: the edge a -> a^2 joins two sphere-S(1)
        # elements; the connecting path must dip into B(0), so phi is the
        # detour "A A", never the edge label itself
        C3 = load_rewriting_system(
            """
            [generators]
            a A
            [inverses]
            a A
            [rules]
            a a -> A
            A A -> a
            a A ->
            A a ->
            """
        )
        oracle = FunctionOracle(C3.alphabet, lambda w: reduce_to_irreducible(C3, w))
        st = shortlex_ac_structure(oracle, ball_radius=2, k_ac=2)
        al = st.alphabet
        assert str(st.phi(al.word("a"), al.index("a"))) == "A A"

    def test_refutation_raises(self, c5_oracle):
        # cyclic of order 5: a^2 and a^3 lie on S(2) but every connecting
        # path inside B(2) has length 4
        st = shortlex_ac_structure(c5_oracle, ball_radius=3, k_ac=2)
        al = st.alphabet
        with pytest.raises(AlmostConvexityError):
            st.phi(al.word("a a"), al.index("a"))

    def test_detour_found_with_larger_constant(self, c5_oracle):
        st = shortlex_ac_structure(c5_oracle, ball_radius=3, k_ac=4)
        al = st.alphabet
        assert str(st.phi(al.word("a a"), al.index("a"))) == "A A A A"

    def test_outside_explored_region(self, z2oracle):
        st = shortlex_ac_structure(z2oracle, ball_radius=3, k_ac=2)
        with pytest.raises(OutsideExploredRegionError):
            st.normal_form(st.alphabet.word("a a a a"))


class TestAlmostConvexityCheck:
    def test_z2_passes_with_k2(self, z2oracle):
        report = almost_convexity_check(z2oracle, n_max=3, k_ac=2)
        assert report.passed and report.pairs_checked > 0

    def test_z2_fails_with_k1(self, z2oracle):
        report = almost_convexity_check(z2oracle, n_max=3, k_ac=1)
        assert not report.passed
        assert report.failures[0] == {"n": 1, "g": "a", "h": "A"}

    def test_free_group_passes(self):
        al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        report = almost_convexity_check(free_group_oracle(al), n_max=3, k_ac=2)
        assert report.passed

    def test_vacuous_at_zero(self, z2oracle):
        report = almost_convexity_check(z2oracle, n_max=0, k_ac=1)
        assert report.passed and report.pairs_checked == 0

    def test_report_serializes(self, z2oracle):
        import json

        report = almost_convexity_check(z2oracle, n_max=2, k_ac=2)
        data = json.loads(report.to_json())
        assert data["passed"] is True and data["n_max"] == 2
        assert "PASS" in report.summary()


class TestThompsonF:
    def test_spot_values(self):
        al = thompson_alphabet()
        assert thompson_f_in_C(al.empty())
        assert thompson_f_in_C(al.word("X0 x1 x0"))
        assert not thompson_f_in_C(al.word("x1 x0"))  # positive x0 prefix sum
        assert not thompson_f_in_C(al.word("x1 X1"))  # forbidden subword
        assert not thompson_f_in_C(al.word("x0 x0 x1"))

    def test_recognizers_agree_on_short_words(self):
        al = thompson_alphabet()
        for w in all_words(al, 6):
            assert thompson_f_in_C(w) == thompson_f_direct(w)

    def test_expsum(self):
        al = thompson_alphabet()
        assert expsum_x0(al.word("X0 X0 x1")) == -2
        assert expsum_x0(al.empty()) == 0

    def test_wrong_alphabet_rejected(self):
        al = Alphabet.from_pairs(("a", "A"), [("a", "A")])
        with pytest.raises(FormatError):
            thompson_f_in_C(al.word("a"))
