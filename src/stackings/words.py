"""Inverse-closed alphabets, words, free reduction, symmetrized relator sets,
and the sectioned text format of structure files.

Generators are whole tokens ("a", "T", "x0"), so multi-character names parse
unambiguously; a word in text form is a whitespace-separated token sequence.
The token order in an :class:`Alphabet` fixes the shortlex total order.
Inverse pairs are always declared explicitly; no case convention is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError

__all__ = [
    "Alphabet",
    "Word",
    "cyclic_rotations",
    "parse_sections",
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
        # the index of each token, for parsing; not a field, so equality,
        # hash and repr are the fields' alone
        index = {t: i for i, t in enumerate(self.tokens)}
        if len(index) != n:
            raise FormatError("duplicate tokens in alphabet")
        object.__setattr__(self, "_index", index)
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
            if inv[index[s]] not in (None, index[t]) or inv[index[t]] not in (None, index[s]):
                raise FormatError(f"inverse pair ({s}, {t}) contradicts an earlier pair")
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
            return self._index[token]
        except KeyError:
            raise FormatError(f"unknown token {token!r}") from None

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def word(self, text: str) -> "Word":
        """Parse a whitespace-separated token string into a word."""
        try:
            return Word(self, tuple([self._index[t] for t in text.split()]))
        except KeyError as exc:  # the first unknown token
            raise FormatError(f"unknown token {exc.args[0]!r}") from None

    def empty(self) -> "Word":
        return Word(self, ())

    def letter(self, i: int) -> "Word":
        return Word(self, (i,))


@dataclass(frozen=True, slots=True)
class Word:
    """A sequence of letter indices into an alphabet; may be empty.

    Letters are not range-checked here: text is checked where it is parsed
    (:meth:`Alphabet.word`, :meth:`Alphabet.index`), and words built from
    indices are trusted.  A word has slots and no ``__dict__``: it is one
    object of two fields.
    """

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __hash__(self) -> int:
        # Equal words have equal letters.  The alphabet is left out: hashing
        # its token and inverse tuples on every call costs five times more.
        return hash(self.letters)

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
        tokens = self.alphabet.tokens
        return " ".join([tokens[i] for i in self.letters])

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
        return Word(self.alphabet, _free_reduce(self.letters, self.alphabet.inverse))

    def is_freely_reduced(self) -> bool:
        inv = self.alphabet.inverse
        return all(b != inv[a] for a, b in zip(self.letters, self.letters[1:]))

    def shortlex_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)


def _free_reduce(letters: tuple[int, ...], inv: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for i in letters:
        if out and out[-1] == inv[i]:
            out.pop()
        else:
            out.append(i)
    return tuple(out)


def cyclic_rotations(w: Word) -> list[Word]:
    n = len(w)
    if n == 0:
        return [w]
    return [Word(w.alphabet, w.letters[i:] + w.letters[:i]) for i in range(n)]


def symmetrized_closure(seed: Iterable[Word]) -> set[Word]:
    """Closure of a word set over one alphabet under inversion, cyclic
    conjugation, and free reduction, except the empty word, searched on
    letter tuples.  A seed that is not cyclically reduced stays beside the
    reduced forms of its rotations: [a b A] gives {a b A, a B A, b, B}."""
    seed = list(seed)
    inv = seed[0].alphabet.inverse if seed else ()
    pending = [_free_reduce(w.letters, inv) for w in seed]
    out: dict[tuple[int, ...], None] = {}  # members in the order found
    while pending:
        w = pending.pop()
        if not w or w in out:
            continue
        out[w] = None
        for c in [*(w[i:] + w[:i] for i in range(len(w))), tuple(inv[i] for i in reversed(w))]:
            c = _free_reduce(c, inv)
            if c and c not in out:
                pending.append(c)
    return {Word(seed[0].alphabet, w) for w in out}


# ---------------------------------------------------------------------------
# File format: sections such as [generators] / [inverses] / [rules], '#'
# comments, blank lines ignored.


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
        pairs.append((parts[0], parts[1]))
    return Alphabet.from_pairs(tokens, pairs)
