import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from oracles import (
    affine_eval,
    all_words,
    has_lhs_subword,
    leftmost_reduce,
    prefix_rewrite_step_reference,
    search_inverse_word_reference,
    trie_letters_reference,
)
from stackings import (
    BudgetExceededError,
    FormatError,
    RewriteRule,
    RewritingSystem,
    StructureError,
    bs12_system,
    check_complete,
    crs_structure,
    is_irreducible,
    load_rewriting_system,
    minimize,
    prefix_rewrite_length,
    reduce_to_irreducible,
    z2_system,
)
from stackings.rewriting import DEFAULT_BUDGET, _search_inverse_word
from stackings.words import Alphabet, Word

# A generator e that represents the identity.
IDENTITY_LETTER = """
[generators]
a A e E
[inverses]
a A
e E
[rules]
e ->
E ->
a A ->
A a ->
"""

# The cyclic group of order 3 written with only a-rules.
C3_A_RULES = """
[generators]
a A
[inverses]
a A
[rules]
a a a ->
"""

# The cyclic group of order 5 written with only a-rules.
C5_A_RULES = """
[generators]
a A
[inverses]
a A
[rules]
a a a a a ->
"""

# b has no inverse: B occurs in no rule, and no word over a, A and b
# cancels b, since b a -> a b keeps every b.
B_NOT_INVERTIBLE = """
[generators]
a A b B
[inverses]
a A
b B
[rules]
a A ->
A a ->
b a -> a b
"""

# The same with a free letter c: the words that might cancel b are too many
# to try them all.
B_NOT_INVERTIBLE_FREE_C = """
[generators]
a A b B c C
[inverses]
a A
b B
c C
[rules]
a A ->
A a ->
b a -> a b
c C ->
C c ->
"""

# z2_system() without its rule B A -> A B.
Z2_MISSING_RULE = """
[generators]
a A b B
[inverses]
a A
b B
[rules]
a A ->
A a ->
b B ->
B b ->
b a -> a b
b A -> A b
B a -> a B
"""

EMPTY_RHS = "[generators]\na A\n[inverses]\na A\n[rules]\na A ->\n"


def z2_with(*rules: tuple[str, str]) -> RewritingSystem:
    """z2_system() with the rules ``lhs -> rhs`` appended."""
    S = z2_system()
    al = S.alphabet
    extra = tuple(RewriteRule(al.word(lhs), al.word(rhs)) for lhs, rhs in rules)
    return RewritingSystem(al, S.rules + extra, claimed_complete=True)


def nonterminating() -> RewritingSystem:
    al = Alphabet.from_pairs(("a", "A"), [("a", "A")])
    return RewritingSystem(
        al,
        (RewriteRule(al.word("a A"), al.word("A a")),
         RewriteRule(al.word("A a"), al.word("a A"))),
    )


def stepped(S: RewritingSystem) -> RewritingSystem:
    """``S`` once its reductions of every word of up to three letters have
    stepped its trie; a reduction that runs out of budget is passed over."""
    for w in all_words(S.alphabet, 3):
        try:
            reduce_to_irreducible(S, w, budget=1000)
        except BudgetExceededError:
            pass
    return S


# Every terminating system this file builds, by name.
SYSTEMS = {
    "z2": z2_system,
    "bs12": bs12_system,
    "z2+bba": lambda: z2_with(("b b a", "b a b")),
    "z2+bbba": lambda: z2_with(("b b b a", "b b a b")),
    "identity-letter": lambda: load_rewriting_system(IDENTITY_LETTER),
    "c3": lambda: load_rewriting_system(C3_A_RULES),
    "c5": lambda: load_rewriting_system(C5_A_RULES),
    "z2-missing-rule": lambda: load_rewriting_system(Z2_MISSING_RULE),
    "empty-rhs": lambda: load_rewriting_system(EMPTY_RHS),
}


class TestBasics:
    def test_rule_validation(self):
        al = Alphabet.from_pairs(("a", "A"), [("a", "A")])
        with pytest.raises(FormatError):
            RewriteRule(al.empty(), al.word("a"))
        with pytest.raises(FormatError):
            RewriteRule(al.word("a"), al.word("a"))

    def test_z2_reduction_examples(self, z2S):
        al = z2S.alphabet
        assert str(reduce_to_irreducible(z2S, al.word("b a"))) == "a b"
        assert str(reduce_to_irreducible(z2S, al.word("B a A b"))) == ""
        assert reduce_to_irreducible(z2S, al.empty()).letters == ()
        assert is_irreducible(z2S, al.word("a a b"))
        assert not is_irreducible(z2S, al.word("b a"))

    def test_leftmost_lowest_index_strategy(self, z2S):
        # "b a A b": the shortest reducible prefix is "b a", so its rule
        # rewrites first, not "a A"
        al = z2S.alphabet
        assert str(reduce_to_irreducible(z2S, al.word("b a A b"))) == "b b"

    def test_word_problem(self, z2S):
        al = z2S.alphabet
        # two words are equal in the group when their irreducible forms are
        assert reduce_to_irreducible(z2S, al.word("a b")) == reduce_to_irreducible(z2S, al.word("b a"))
        assert reduce_to_irreducible(z2S, al.word("a")) != reduce_to_irreducible(z2S, al.word("b"))

    def test_nonterminating_system_hits_budget(self):
        S = nonterminating()
        with pytest.raises(BudgetExceededError):
            reduce_to_irreducible(S, S.alphabet.word("a A"), budget=100)

    def test_budget_allows_exactly_budget_rewrites(self, z2S):
        al = z2S.alphabet
        assert str(reduce_to_irreducible(z2S, al.word("b a"), budget=1)) == "a b"
        assert prefix_rewrite_length(z2S, al.word("b a"), budget=1) == 1
        with pytest.raises(BudgetExceededError):
            reduce_to_irreducible(z2S, al.word("b a a"), budget=1)
        with pytest.raises(BudgetExceededError):
            prefix_rewrite_length(z2S, al.word("b a a"), budget=1)


class TestPrefixRewriting:
    def test_prefix_step_rewrites_shortest_reducible_prefix(self, z2S):
        al = z2S.alphabet
        assert str(prefix_rewrite_step_reference(z2S, al.word("b a a"))) == "a b a"

    def test_prl_example(self, z2S):
        assert prefix_rewrite_length(z2S, z2S.alphabet.word("b a a")) == 2

    def test_prl_zero_on_irreducible(self, z2S):
        assert prefix_rewrite_length(z2S, z2S.alphabet.word("a a b")) == 0

    def test_prefix_step_requires_reducible(self, z2S):
        assert prefix_rewrite_step_reference(z2S, z2S.alphabet.word("a b")) is None

    def test_prefix_rewriting_reaches_same_irreducible(self, z2S):
        al = z2S.alphabet
        for w in all_words(al, 5):
            v = w
            while (step := prefix_rewrite_step_reference(z2S, v)) is not None:
                v = step
            assert v == reduce_to_irreducible(z2S, w)


def _iterated_prefix_steps(S, w):
    steps = 0
    while (w := prefix_rewrite_step_reference(S, w)) is not None:
        steps += 1
    return steps


def _agrees_with_reference(S, w):
    assert reduce_to_irreducible(S, w) == leftmost_reduce(S, w)
    assert is_irreducible(S, w) == (not has_lhs_subword(S, w))
    assert prefix_rewrite_length(S, w) == _iterated_prefix_steps(S, w)


class TestAgainstLeftmostReference:
    """Prefix rewriting against leftmost-occurrence rewriting and a
    brute-force subword search (tests/oracles.py)."""

    @pytest.mark.parametrize("system, max_len", [(z2_system, 6), (bs12_system, 5)])
    def test_all_short_words(self, system, max_len):
        S = system()
        for w in all_words(S.alphabet, max_len):
            _agrees_with_reference(S, w)

    @pytest.mark.parametrize("system", [z2_system, bs12_system])
    @settings(max_examples=150, deadline=None)
    @given(data=hs.data())
    def test_long_words(self, system, data):
        S = system()
        letters = data.draw(
            hs.lists(hs.integers(0, len(S.alphabet) - 1), max_size=40)
        )
        _agrees_with_reference(S, Word(S.alphabet, tuple(letters)))


def trie_nodes(S: RewritingSystem) -> list:
    """Every node of the system's trie, parents before children."""
    nodes = [S._trie]
    for node in nodes:
        nodes.extend(node.children.values())
    return nodes


class TestTrieSpelling:
    """A trie node keeps its letters once spelled, as its nearest spelled
    ancestor's letters followed by the letters below that ancestor."""

    @settings(max_examples=40, deadline=None)
    @given(data=hs.data())
    def test_every_node_spells_its_parent_walk(self, data):
        S = data.draw(hs.sampled_from([z2_system, bs12_system]))()  # a fresh trie
        n = len(S.alphabet)
        words = data.draw(hs.lists(hs.lists(hs.integers(0, n - 1), max_size=16), max_size=12))
        for letters in words:
            w = Word(S.alphabet, tuple(letters))
            assert reduce_to_irreducible(S, w) == leftmost_reduce(S, w)
        # spell every node in a random order, so that some are spelled
        # after their ancestors and some before
        nodes = data.draw(hs.permutations(trie_nodes(S)))
        for node in nodes:
            assert node.letters == trie_letters_reference(node)
        for node in nodes:
            assert node.letters == trie_letters_reference(node)

    @pytest.mark.parametrize("system", [z2_system, bs12_system])
    def test_words_share_the_kept_letters(self, system):
        S = system()
        tree = crs_structure(S).tree
        w = Word(S.alphabet, tuple(random.Random(7).choices(range(len(S.alphabet)), k=40)))
        reduced = reduce_to_irreducible(S, w)
        node = tree.node(w)
        assert reduced.letters is node.letters
        for node in trie_nodes(S):
            assert tree.word(node).letters is node.letters
            # another structure on the same system spells no node again
            assert crs_structure(S).tree.word(node).letters is node.letters


class TestMinimize:
    def test_z2_already_minimal(self, z2S):
        M = minimize(z2S)
        assert [(r.lhs, r.rhs) for r in M.rules] == [
            (r.lhs, r.rhs) for r in z2S.rules
        ]

    def test_redundant_rule_dropped(self, z2S):
        M = minimize(SYSTEMS["z2+bba"]())
        assert len(M.rules) == len(z2S.rules)

    def test_identity_letter_removed(self):
        M = minimize(SYSTEMS["identity-letter"]())
        assert tuple(M.alphabet.tokens) == ("a", "A")
        assert all("e" not in str(r.lhs) for r in M.rules)

    def test_inverse_closure_adds_rule(self):
        # cyclic group of order 3 written with only a-rules: A gets A -> a a
        M = minimize(SYSTEMS["c3"]())
        assert any(
            str(r.lhs) == "A" and str(r.rhs) == "a a" for r in M.rules
        )
        assert str(reduce_to_irreducible(M, M.alphabet.word("A"))) == "a a"

    def test_rhs_normalized(self):
        M = minimize(SYSTEMS["z2+bbba"]())
        for r in M.rules:
            assert is_irreducible(M, r.rhs)

    @pytest.mark.parametrize("system", [z2_system, bs12_system], ids=["z2", "bs12"])
    @pytest.mark.parametrize("seed", range(4))
    def test_redundant_rules_leave_the_minimal_system(self, system, seed):
        # rules u -> (irreducible form of u), for reducible words u, add
        # nothing to a complete system: all of them go, in one pass, a
        # copy of a rule of the system among them
        S = system()
        rng = random.Random(seed)
        reducible = [w for w in all_words(S.alphabet, 5) if not is_irreducible(S, w)]
        words = rng.sample(reducible, 12) + [r.lhs for r in rng.sample(S.rules, 2)]
        rng.shuffle(words)
        extra = tuple(RewriteRule(u, reduce_to_irreducible(S, u)) for u in words)
        bloated = RewritingSystem(S.alphabet, S.rules + extra, claimed_complete=True)
        assert minimize(bloated).rules == minimize(S).rules

    # The tests below minimize a cold input and one whose trie its own
    # reductions stepped first: the trie and its kept steps change nothing.

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_idempotent(self, name):
        rules = []
        for prepare in (lambda S: S, stepped):
            M = minimize(prepare(SYSTEMS[name]()))
            again = minimize(prepare(M))
            assert again.alphabet == M.alphabet and again.rules == M.rules
            rules.append(M.rules)
        assert rules[0] == rules[1]

    def test_nonterminating_system_hits_budget(self):
        errors = []
        for S in (nonterminating(), stepped(nonterminating())):
            with pytest.raises(BudgetExceededError, match="not terminating within budget") as e:
                minimize(S, budget=50)
            errors.append(str(e.value))
        assert errors[0] == errors[1]

    def test_uninvertible_letter_is_a_structure_error(self):
        # the search ends with the words of 12 letters, well within budget
        with pytest.raises(StructureError, match="no irreducible word of length <= 12"):
            minimize(load_rewriting_system(B_NOT_INVERTIBLE), budget=10**5)

    def test_inverse_search_spends_the_budget(self):
        errors = []
        for S in (load_rewriting_system(B_NOT_INVERTIBLE_FREE_C),
                  stepped(load_rewriting_system(B_NOT_INVERTIBLE_FREE_C))):
            with pytest.raises(BudgetExceededError, match="cancelling 'b' exceeded its budget") as e:
                minimize(S, budget=10**4)
            errors.append(str(e.value))
        assert errors[0] == errors[1]


class TestInverseSearch:
    """The breadth-first search for the word cancelling a letter finds the
    word that trying every word in shortlex order finds."""

    @pytest.mark.parametrize("text, b, c", [
        (C3_A_RULES, "a", "A"), (C5_A_RULES, "a", "A"), (B_NOT_INVERTIBLE, "b", "B"),
    ], ids=["c3", "c5", "b-not-invertible"])
    def test_matches_reference(self, text, b, c):
        S = load_rewriting_system(text)
        b, c = S.alphabet.index(b), S.alphabet.index(c)
        found = [_search_inverse_word(S, b, c, n, DEFAULT_BUDGET) for n in range(1, 7)]
        assert found == [search_inverse_word_reference(S, b, c, n) for n in range(1, 7)]


class TestCheckComplete:
    def test_z2_complete_at_desk_scale(self, z2S):
        rep = check_complete(z2S, 6)
        assert rep.ok
        assert rep.terminating and rep.locally_confluent and rep.unique_normal_forms

    def test_missing_rule_detected(self):
        rep = check_complete(SYSTEMS["z2-missing-rule"](), 4)
        assert not rep.ok
        assert not rep.unique_normal_forms

    def test_critical_pair_failures_pinned(self):
        # a b A -> B overlaps four rules of Z^2 and contains b A -> A b
        rep = check_complete(z2_with(("a b A", "B")), 3)
        assert not rep.locally_confluent
        assert rep.critical_pair_failures == [
            "overlap A a b A: A b != A B",
            "overlap b a b A: b b != ",
            "overlap B a b A:  != B B",
            "overlap a b A a: a B != a b",
            "containment a b A: B != b",
        ]

    def test_nontermination_detected(self):
        rep = check_complete(nonterminating(), 2, budget=50)
        assert not rep.terminating

    def test_report_serializes(self, z2S):
        d = check_complete(z2S, 3).to_dict()
        assert d["ok"] and d["max_len"] == 3


class TestBS12System:
    def test_rules_are_group_identities(self, bs12S):
        for r in bs12S.rules:
            assert affine_eval(r.lhs) == affine_eval(r.rhs)

    def test_complete_at_desk_scale(self, bs12S):
        assert check_complete(bs12S, 5, budget=5000).ok

    def test_minimal(self, bs12S):
        M = minimize(bs12S)
        assert len(M.rules) == len(bs12S.rules)

    def test_unique_irreducible_per_group_element(self, bs12S):
        seen = {}
        for w in all_words(bs12S.alphabet, 5):
            ir = reduce_to_irreducible(bs12S, w)
            key = affine_eval(w)
            assert seen.setdefault(key, ir.letters) == ir.letters

    def test_spot_values(self, bs12S):
        al = bs12S.alphabet
        assert str(reduce_to_irreducible(bs12S, al.word("t a T"))) == "d"
        assert str(reduce_to_irreducible(bs12S, al.word("a a"))) == "d"
        assert str(reduce_to_irreducible(bs12S, al.word("T d t"))) == "a"


class TestFileFormat:
    def test_load_empty_rhs(self):
        S = SYSTEMS["empty-rhs"]()
        assert len(S.rules[0].rhs) == 0

    def test_missing_arrow_rejected(self):
        with pytest.raises(FormatError):
            load_rewriting_system(
                "[generators]\na A\n[inverses]\na A\n[rules]\na A\n"
            )

    def test_z2_system_is_loadable_fixture(self):
        S = z2_system()
        assert len(S.rules) == 8 and S.claimed_complete

    def test_bs12_system_shape(self):
        S = bs12_system()
        assert len(S.alphabet) == 6 and len(S.rules) == 38
