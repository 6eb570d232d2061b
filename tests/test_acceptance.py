"""Acceptance suite: the ten package-level guarantees, each checked against
an oracle or value computed independently of the library internals."""

import contextlib
import io
from types import SimpleNamespace

import pytest

from oracles import (
    affine_trivial,
    all_words,
    min_area_at_most,
    random_trivial_words,
    thompson_f_direct,
)
from stackings import (
    Alphabet,
    FlowFunction,
    FunctionOracle,
    Word,
    almost_convexity_check,
    bs12_system,
    bs1p_structure,
    build_ball,
    build_filling_diagram,
    crs_structure,
    prefix_rewrite_length,
    reduce_to_irreducible,
    shortlex_ac_structure,
    stacking_reduce_steps,
    stacking_relation_set,
    thompson_alphabet,
    thompson_f_in_C,
    validate_diagram,
    verify_flow_properties,
    verify_geodesic_stacking,
    z2_system,
)
from stackings.cli import EXIT_OK, cmd_wp


# ---------------------------------------------------------------------------
# 1. BS(1,p) stacking fidelity: phi reproduces the closed-form schemas on
#    every recursive edge of B(6), independently recomputed from the
#    t^-i a^m t^k shape of the source normal form.


def _parse_triple(w, al):
    """Read (i, m, k) off a word that must literally be T^i a^m t^k."""
    letters = list(w.letters)
    T, t = al.index("T"), al.index("t")
    a, A = al.index("a"), al.index("A")
    i = 0
    while letters and letters[0] == T:
        letters.pop(0)
        i += 1
    k = 0
    while letters and letters[-1] == t:
        letters.pop()
        k += 1
    m = 0
    for c in letters:
        assert c in (a, A) and (m == 0 or (c == a) == (m > 0))
        m += 1 if c == a else -1
    return i, m, k


@pytest.mark.parametrize("p", [2, 3])
def test_bs1p_phi_matches_closed_forms_on_ball_6(p):
    s = bs1p_structure(p)
    al = s.alphabet
    a, A, t, T = (al.index(x) for x in ("a", "A", "t", "T"))
    ball = build_ball(FunctionOracle(al, s.normal_form), 6)
    recursive = 0
    for e in ball.edges:
        if e.classification.name != "RECURSIVE":
            continue
        recursive += 1
        y = e.source.canonical
        i, m, k = _parse_triple(y, al)
        if e.label in (t, T):
            eta = 1 if e.label == t else -1
            assert k == 0 and m != 0 and -i + eta <= 0
            nu = 1 if m > 0 else -1
            base = ((A if nu > 0 else a),) * p + (t,) + ((a if nu > 0 else A),)
            expected = Word(al, base)
            if eta == -1:
                expected = expected.inverse()
        else:
            eta = 1 if e.label == a else -1
            assert k > 0
            expected = Word(al, (T,) + ((a if eta > 0 else A),) * p + (t,))
        got = s.phi(y, e.label)
        assert got.letters == expected.letters
        assert len(got) <= p + 2
    assert recursive > 0 and s.bound_k == p + 2


# ---------------------------------------------------------------------------
# 2. Flow-axiom verification at the stated radii, zero inconclusive edges.


def test_flow_axioms_bs12_radius_5(bs2):
    oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
    report = verify_flow_properties(
        FlowFunction(bs2), build_ball(oracle, 5), build_ball(oracle, 6)
    )
    assert report.passed and report.inconclusive == 0


def test_flow_axioms_z2_radius_6(z2struct):
    oracle = FunctionOracle(z2struct.alphabet, z2struct.normal_form)
    report = verify_flow_properties(
        FlowFunction(z2struct), build_ball(oracle, 6), build_ball(oracle, 7)
    )
    assert report.passed and report.inconclusive == 0


# ---------------------------------------------------------------------------
# 3. Oracle equivalence: stacking reduction equals prefix rewriting on
#    every word of length <= 8 over the Z^2 system.


def test_stacking_reduce_equals_rewriting_z2(z2S, z2struct):
    for w in all_words(z2S.alphabet, 8):
        assert (
            stacking_reduce_steps(z2struct, w)[0].letters
            == reduce_to_irreducible(z2S, w).letters
        )


# ---------------------------------------------------------------------------
# 4. prl monotonicity: prefix-rewriting length strictly decreases from a
#    recursive edge to every recursive edge on its flow path, over B(5).


@pytest.mark.parametrize("system", [z2_system, bs12_system])
def test_prl_strictly_decreases_along_flow(system):
    S = system()
    s = crs_structure(S)
    flow = FlowFunction(s)
    ball = build_ball(FunctionOracle(S.alphabet, s.normal_form), 5)
    checked = 0
    for e in ball.edges:
        if e.classification.name != "RECURSIVE":
            continue
        y, label = e.source.canonical, e.label
        prl_e = prefix_rewrite_length(S, y.append(label))
        for y2, x in flow.path(y, label):
            if not s.is_degenerate(y2, x):
                assert prefix_rewrite_length(S, y2.append(x)) < prl_e
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# 5. Van Kampen validity on 500 pseudo-random trivial words over BS(1,2).


def test_fillings_of_random_trivial_words_validate(bs2):
    al = bs2.alphabet
    relator = al.word("t a T A A")
    words = random_trivial_words(al, [relator], count=500, max_len=12, seed=20260825)
    memo: dict = {}
    for w in words:
        d = build_filling_diagram(bs2, w, memo=memo)
        relators = stacking_relation_set(
            bs2, [(Word(al, src), a) for (src, a), _ in memo.values()]
        )
        report = validate_diagram(d, relators, w, bs2)
        assert report.passed, f"{w}: {report.details}"
        assert d.euler_characteristic() == 1


# ---------------------------------------------------------------------------
# 6. Concrete areas, the third confirmed by exhaustive minimal-area search.


def test_concrete_areas(bs2):
    al = bs2.alphabet
    assert len(build_filling_diagram(bs2, al.word("a A")).faces) == 0
    assert len(build_filling_diagram(bs2, al.word("t a T A A")).faces) == 1
    w = al.word("t t a T T A A A A")
    assert len(build_filling_diagram(bs2, w).faces) == 3
    assert min_area_at_most(w, [al.word("t a T A A")], max_faces=4) == 3


# ---------------------------------------------------------------------------
# 7. Almost convexity: Z^2 with k=2 up to n=6, failure with k=1 (witness),
#    rank-2 free group with k=2 up to n=5.


def test_almost_convexity_z2_and_free(z2oracle):
    passing = almost_convexity_check(z2oracle, n_max=6, k_ac=2)
    assert passing.passed and passing.pairs_checked > 0
    failing = almost_convexity_check(z2oracle, n_max=6, k_ac=1)
    assert not failing.passed
    witness = failing.failures[0]
    assert {"n", "g", "h"} <= set(witness)
    free = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
    assert almost_convexity_check(FunctionOracle(free, Word.free_reduce), n_max=5, k_ac=2).passed


# ---------------------------------------------------------------------------
# 8. Geodesic stackability of the shortlex structure on Z^2 at radius 6.


def test_shortlex_z2_geodesic_stacking(z2oracle):
    s = shortlex_ac_structure(z2oracle, ball_radius=6, k_ac=2)
    oracle = FunctionOracle(s.alphabet, s.normal_form)
    # building B(r) probes neighbors at distance r+1, so the verification
    # region B(5) is the largest that stays inside the explored radius 6
    report = verify_geodesic_stacking(
        FlowFunction(s), build_ball(oracle, 4), build_ball(oracle, 5)
    )
    assert report.passed and not report.nongeodesic


# ---------------------------------------------------------------------------
# 9. Thompson's F: recognizer agrees with the direct predicate on all words
#    of length <= 10, plus the fixed spot values.


def test_thompson_recognizer_exhaustive():
    al = thompson_alphabet()
    assert thompson_f_in_C(al.word("X0 x1"))
    assert not thompson_f_in_C(al.word("x0"))
    assert not thompson_f_in_C(al.word("x1 X1"))
    for w in all_words(al, 10):
        assert thompson_f_in_C(w) == thompson_f_direct(w)


# ---------------------------------------------------------------------------
# 10. Word problem through the CLI agrees with the dyadic affine oracle on
#     all words of length <= 8 over BS(1,2).


def test_cmd_wp_agrees_with_affine_oracle(bs2):
    sink = io.StringIO()
    for w in all_words(bs2.alphabet, 8):
        args = SimpleNamespace(structure="bs1p:2", word=str(w), budget=10**5, report=None)
        with contextlib.redirect_stdout(sink):
            code = cmd_wp(args)
        assert (code == EXIT_OK) == affine_trivial(w)
