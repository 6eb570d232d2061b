"""Inverse-closed alphabets, words, free reduction, and symmetrized presentations.

Generators are whole tokens ("a", "T", "x0"), so multi-character names parse
unambiguously; a word in text form is a whitespace-separated token sequence.
The token order in an :class:`Alphabet` fixes the shortlex total order.
Inverse pairs are always declared explicitly; no case convention is assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError

__all__ = [
    "Alphabet",
    "Word",
    "Presentation",
    "symmetrize",
    "cyclic_rotations",
    "parse_sections",
    "load_presentation",
]


@dataclass(frozen=True)
class Alphabet:
    """A finite symmetric generating set.

    ``tokens`` lists the generator names in shortlex order; ``inverse`` maps
    each token index to the index of its formal inverse and must be a
    fixed-point-free involution (no generator is its own inverse, and no
    generator stands for the identity).
    """

    tokens: tuple[str, ...]
    inverse: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if len(set(self.tokens)) != n:
            raise FormatError("duplicate tokens in alphabet")
        for t in self.tokens:
            if not t or any(c.isspace() for c in t) or "#" in t:
                raise FormatError(f"bad token {t!r}: empty, whitespace, or '#'")
        if len(self.inverse) != n:
            raise FormatError("inverse table length mismatch")
        for i, j in enumerate(self.inverse):
            if not 0 <= j < n:
                raise FormatError(f"inverse index {j} out of range")
            if j == i:
                raise FormatError(f"token {self.tokens[i]!r} declared self-inverse")
            if self.inverse[j] != i:
                raise FormatError("inverse table is not an involution")

    @classmethod
    def from_pairs(cls, tokens: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Alphabet":
        toks = tuple(tokens)
        index = {t: i for i, t in enumerate(toks)}
        inv: list[int | None] = [None] * len(toks)
        for s, t in pairs:
            if s not in index or t not in index:
                raise FormatError(f"inverse pair ({s}, {t}) uses undeclared token")
            inv[index[s]] = index[t]
            inv[index[t]] = index[s]
        missing = [toks[i] for i, j in enumerate(inv) if j is None]
        if missing:
            raise FormatError(f"tokens without declared inverse: {missing}")
        return cls(toks, tuple(inv))  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise FormatError(f"unknown token {token!r}") from None

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def word(self, text: str) -> "Word":
        """Parse a whitespace-separated token string into a word."""
        return Word(self, tuple(self.index(t) for t in text.split()))

    def empty(self) -> "Word":
        return Word(self, ())

    def letter(self, i: int) -> "Word":
        return Word(self, (i,))


@dataclass(frozen=True)
class Word:
    """A sequence of letter indices into an alphabet; may be empty.

    Letters are not range-checked here: text is checked where it is parsed
    (:meth:`Alphabet.word`, :meth:`Alphabet.index`), and words built from
    indices are trusted.
    """

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, item) -> "Word | int":
        if isinstance(item, slice):
            return Word(self.alphabet, self.letters[item])
        return self.letters[item]

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet is not self.alphabet and other.alphabet != self.alphabet:
            raise FormatError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(self.alphabet.tokens[i] for i in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def append(self, letter: int) -> "Word":
        return Word(self.alphabet, self.letters + (letter,))

    def inverse(self) -> "Word":
        """Reverse the word and invert each letter; an involution."""
        inv = self.alphabet.inverse
        return Word(self.alphabet, tuple(inv[i] for i in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        """The unique freely reduced word obtained by cancelling adjacent
        inverse pairs; idempotent."""
        inv = self.alphabet.inverse
        out: list[int] = []
        for i in self.letters:
            if out and out[-1] == inv[i]:
                out.pop()
            else:
                out.append(i)
        return Word(self.alphabet, tuple(out))

    def is_freely_reduced(self) -> bool:
        inv = self.alphabet.inverse
        return all(b != inv[a] for a, b in zip(self.letters, self.letters[1:]))

    def shortlex_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)


def cyclic_rotations(w: Word) -> list[Word]:
    n = len(w)
    if n == 0:
        return [w]
    return [Word(w.alphabet, w.letters[i:] + w.letters[:i]) for i in range(n)]


@dataclass(frozen=True)
class Presentation:
    """A group presentation over a symmetric alphabet."""

    alphabet: Alphabet
    relators: frozenset[Word]

    def is_symmetrized(self) -> bool:
        rels = self.relators
        for r in rels:
            if len(r) == 0 or not r.is_freely_reduced():
                return False
            if r.inverse() not in rels:
                return False
            if any(c not in rels for c in cyclic_rotations(r)):
                return False
        return True


def symmetrize(p: Presentation) -> Presentation:
    """Close the relator set under formal inversion and cyclic conjugation,
    freely reducing throughout and discarding the empty word."""
    closed = symmetrized_closure(p.relators)
    return Presentation(p.alphabet, frozenset(closed))


def symmetrized_closure(seed: Iterable[Word]) -> set[Word]:
    """Closure of a word set under inversion, cyclic conjugation, and free
    reduction, except the empty word."""
    pending = [w.free_reduce() for w in seed]
    out: set[Word] = set()
    while pending:
        w = pending.pop()
        if len(w) == 0 or w in out:
            continue
        out.add(w)
        for c in itertools.chain(cyclic_rotations(w), [w.inverse()]):
            c = c.free_reduce()
            if len(c) > 0 and c not in out:
                pending.append(c)
    return out


# ---------------------------------------------------------------------------
# File format: sections [generators] / [inverses] / [relators] / [rules],
# '#' comments, blank lines ignored.


def parse_sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise FormatError(f"line {lineno}: content before any [section] header")
        sections[current].append(line)
    return sections


def alphabet_from_sections(sections: dict[str, list[str]]) -> Alphabet:
    if "generators" not in sections:
        raise FormatError("missing [generators] section")
    tokens: list[str] = []
    for line in sections["generators"]:
        tokens.extend(line.split())
    pairs: list[tuple[str, str]] = []
    for line in sections.get("inverses", []):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"[inverses] line must have exactly two tokens: {line!r}")
        if parts[0] == parts[1]:
            raise FormatError(f"self-inverse generator not allowed: {parts[0]!r}")
        pairs.append((parts[0], parts[1]))
    return Alphabet.from_pairs(tokens, pairs)


def load_presentation(text: str) -> Presentation:
    """Parse the presentation file format (generators, inverses, relators)."""
    sections = parse_sections(text)
    alphabet = alphabet_from_sections(sections)
    relators = frozenset(alphabet.word(line) for line in sections.get("relators", []))
    return Presentation(alphabet, relators)
