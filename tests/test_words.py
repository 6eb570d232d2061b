from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from oracles import free_reduce_all_orders, is_symmetrized, symmetrized_closure_reference
from stackings import (
    Alphabet,
    FormatError,
    Word,
    cyclic_rotations,
    load_rewriting_system,
    parse_sections,
)
from stackings.words import symmetrized_closure

AB = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])


def w(text: str) -> Word:
    return AB.word(text)


class TestAlphabet:
    def test_involution_enforced(self):
        with pytest.raises(FormatError):
            Alphabet(("a", "A"), (0, 0))  # fixed point
        with pytest.raises(FormatError):
            Alphabet(("a", "A"), (1, 1))  # not an involution
        with pytest.raises(FormatError):
            Alphabet.from_pairs(("a",), [("a", "a")])

    def test_bad_tokens(self):
        with pytest.raises(FormatError):
            Alphabet.from_pairs(("a", "b c"), [("a", "b c")])
        with pytest.raises(FormatError):
            Alphabet.from_pairs(("a", "#x"), [("a", "#x")])
        with pytest.raises(FormatError):
            Alphabet.from_pairs(("a", "a"), [("a", "a")])

    def test_missing_inverse(self):
        with pytest.raises(FormatError):
            Alphabet.from_pairs(("a", "A", "c"), [("a", "A")])

    def test_multichar_tokens_parse(self):
        al = Alphabet.from_pairs(("x0", "X0"), [("x0", "X0")])
        assert al.word("x0 X0 x0").letters == (0, 1, 0)

    def test_unknown_token(self):
        # the first unknown token is named, by a parse and by a lookup
        with pytest.raises(FormatError, match=r"^unknown token 'z'$"):
            AB.word("a z y")
        with pytest.raises(FormatError, match=r"^unknown token 'y'$"):
            AB.index("y")
        assert [AB.index(t) for t in AB.tokens] == [0, 1, 2, 3]

    def test_index_is_not_a_field(self):
        # the parse table leaves equality, hash and repr to the fields
        same = Alphabet(AB.tokens, AB.inverse)
        assert same == AB and hash(same) == hash(AB)
        assert repr(AB) == "Alphabet(tokens=('a', 'A', 'b', 'B'), inverse=(1, 0, 3, 2))"


class TestWord:
    def test_concat_and_inverse(self):
        u = w("a b")
        assert str(u * w("B")) == "a b B"
        assert str(u.inverse()) == "B A"
        assert u.inverse().inverse() == u

    def test_free_reduce_examples(self):
        assert str(w("a A b").free_reduce()) == "b"
        assert str(w("a b B A").free_reduce()) == ""
        assert w("").free_reduce().letters == ()
        assert w("a b a").free_reduce().letters == w("a b a").letters

    def test_free_reduce_idempotent(self):
        u = w("a b B A a b").free_reduce()
        assert u.free_reduce() == u
        assert u.is_freely_reduced()

    def test_shortlex_key_orders_by_length_then_letters(self):
        assert w("b").shortlex_key() < w("a a").shortlex_key()
        assert w("a b").shortlex_key() < w("b a").shortlex_key()

    def test_slots_frozen_hash_and_equality(self):
        u = w("a b A")
        assert not hasattr(u, "__dict__")
        with pytest.raises(FrozenInstanceError):
            u.letters = ()
        with pytest.raises(FrozenInstanceError):
            u.alphabet = AB
        assert hash(u) == hash((0, 2, 1))
        assert u == Word(Alphabet(AB.tokens, AB.inverse), (0, 2, 1))
        assert u != w("a b") and u != (0, 2, 1)
        assert u != Word(Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "B"), ("b", "A")]), (0, 2, 1))
        assert repr(u) == "Word('a b A')"


@given(
    hs.lists(hs.integers(min_value=0, max_value=3), max_size=9).map(
        lambda ls: Word(AB, tuple(ls))
    )
)
def test_free_reduction_confluent_against_all_orders(u):
    """Every order of cancelling adjacent inverse pairs reaches the same
    reduced word, and it is the one the library computes."""
    results = free_reduce_all_orders(u)
    assert results == {u.free_reduce().letters}


@given(
    hs.lists(hs.integers(min_value=0, max_value=3), max_size=9).map(
        lambda ls: Word(AB, tuple(ls))
    )
)
def test_inverse_reduces_to_inverse(u):
    assert (u * u.inverse()).free_reduce().letters == ()
    assert (u.inverse() * u).free_reduce().letters == ()


class TestSymmetrize:
    def test_commutator_closure_has_eight_members(self):
        closed = symmetrized_closure({w("a b A B")})
        assert len(closed) == 8
        assert is_symmetrized(closed)
        assert w("b A B a") in closed
        assert w("b a B A") in closed

    def test_unreduced_and_empty_seeds(self):
        closed = symmetrized_closure({w("a A"), w("a a A b A B a A")})
        assert all(len(r) > 0 and r.is_freely_reduced() for r in closed)
        # a a A b A B a A freely reduces to the commutator a b A B
        assert w("a b A B") in closed

    def test_seed_not_cyclically_reduced(self):
        # its rotations join only freely reduced, so b A a is not a member
        closed = symmetrized_closure([w("a b A")])
        assert closed == {w("a b A"), w("a B A"), w("b"), w("B")}
        assert not is_symmetrized(closed)

    @given(
        hs.lists(
            hs.lists(hs.integers(0, 3), max_size=8).map(lambda ls: Word(AB, tuple(ls))),
            max_size=6,
        )
    )
    def test_matches_reference(self, seed):
        closed = symmetrized_closure(seed)
        # the same members, added in the same order, so a set iterates alike
        assert list(closed) == list(symmetrized_closure_reference(seed))

    def test_cyclic_rotations(self):
        assert [str(c) for c in cyclic_rotations(w("a b B"))] == [
            "a b B",
            "b B a",
            "B a b",
        ]
        assert cyclic_rotations(AB.empty()) == [AB.empty()]


class TestFileFormat:
    def test_sections_and_comments(self):
        sections = parse_sections(
            "# header\n[generators]\na A # trailing\n\n[relators]\na A\n"
        )
        assert sections == {"generators": ["a A"], "relators": ["a A"]}

    def test_content_before_section_rejected(self):
        with pytest.raises(FormatError):
            parse_sections("a A\n[generators]\n")

    def test_load_rewriting_system_sections(self):
        S = load_rewriting_system(
            """
            [generators]
            a A b B
            [inverses]
            a A
            b B
            [rules]
            b a -> a b
            """
        )
        assert len(S.alphabet) == 4
        assert [(str(r.lhs), str(r.rhs)) for r in S.rules] == [("b a", "a b")]

    def test_self_inverse_generator_rejected(self):
        # the alphabet refuses it, with the text it gives any inverse table
        with pytest.raises(FormatError, match="^token 's' declared self-inverse$"):
            load_rewriting_system("[generators]\ns\n[inverses]\ns s\n")

    @pytest.mark.parametrize("pairs", ["a a\na A", "a A\na a", "a b\na A\nb B"])
    def test_contradicting_inverse_pairs_rejected(self, pairs):
        # a later pair may not redeclare a token's inverse
        with pytest.raises(FormatError, match="contradicts an earlier pair"):
            load_rewriting_system(f"[generators]\na A b B\n[inverses]\n{pairs}\nb B\n")
