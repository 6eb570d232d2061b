"""Finite complete rewriting systems over symmetric alphabets.

Rewriting to irreducibles uses prefix rewriting: each step rewrites the
shortest reducible prefix, by the lowest-index rule whose lhs ends there, and
``prl`` counts the steps.  For a complete system the irreducible word does
not depend on the strategy, which ``check_complete`` confirms at desk scale
by brute force.  Every redex search looks up the rules by the last letter of
their lhs.

Each system keeps one trie of the irreducible words its rewriting has met,
grown as it goes.  Reductions and ``minimize``'s inverse search step it,
and so does every ``IrreducibleTree``, the normal-form tree of the stacking
of ``builtin.crs_structure``: a node gets a child only for an irreducible
extension, which fires no rule, so the rewrites a step counts do not depend
on how much of the trie is already grown.  A node also keeps every step
from it that rewrote, as its target and its count, so a repeated step is
one lookup that counts the same rewrites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, NoReturn

from .cayley import NormalFormTree
from .errors import BudgetExceededError, FormatError, StructureError
from .words import Alphabet, Word, parse_sections, alphabet_from_sections

__all__ = [
    "RewriteRule",
    "RewritingSystem",
    "CompletenessReport",
    "is_irreducible",
    "reduce_to_irreducible",
    "prefix_rewrite_length",
    "minimize",
    "check_complete",
    "load_rewriting_system",
    "z2_system",
    "bs12_system",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6
# The longest word ``minimize`` tries as the irreducible form of a letter.
INVERSE_SEARCH_LEN = 12


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: Word

    def __post_init__(self) -> None:
        if len(self.lhs) == 0:
            raise FormatError("rule lhs must be nonempty")
        if self.lhs == self.rhs:
            raise FormatError("rule lhs equals rhs")

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class RewritingSystem:
    """An ordered list of string rules over a symmetric alphabet.

    ``claimed_complete`` records that the caller asserts termination and
    confluence; desk-scale evidence comes from :func:`check_complete`.
    """

    alphabet: Alphabet
    rules: tuple[RewriteRule, ...]
    claimed_complete: bool = False

    @cached_property
    def _by_last_letter(self) -> dict[int, list[_IndexedRule]]:
        """Last letter of an lhs -> its rules, in rule order."""
        index: dict[int, list[_IndexedRule]] = {}
        for rule in self.rules:
            lhs, rhs = rule.lhs.letters, rule.rhs.letters
            index.setdefault(lhs[-1], []).append(
                _IndexedRule(lhs[-2::-1], rhs[::-1], rule)
            )
        return index

    @cached_property
    def _trie(self) -> Irreducible:
        """The root of the trie of the irreducible words that this
        system's reductions and crs structures have met, grown as they go."""
        return Irreducible()


class _IndexedRule(NamedTuple):
    rest: tuple[int, ...]  # the lhs without its last letter, reversed
    rhs: tuple[int, ...]  # reversed
    rule: RewriteRule


def _redexes(S: RewritingSystem, letters: tuple[int, ...]) -> Iterator[tuple[int, RewriteRule]]:
    """Every (end, rule) with the rule's lhs ending at ``end``, by end, then
    by rule index."""
    for end in range(1, len(letters) + 1):
        for r in S._by_last_letter.get(letters[end - 1], ()):
            lhs = r.rule.lhs.letters
            if len(lhs) <= end and letters[end - len(lhs) : end] == lhs:
                yield end, r.rule


class Irreducible:
    """An irreducible word as a node of a trie of irreducible words: the
    word one letter shorter is its ``parent``, and ``children`` holds the
    nodes of its one-letter extensions met so far.  ``steps``, made on first
    use, maps each letter whose reducible extension has been rewritten to
    the node of its irreducible form and the rewrites taken; ``images``
    maps a letter to the phi image of its recursive edge, once read.  A node
    keeps its ``letters`` once spelled, extending its nearest spelled
    ancestor's."""

    __slots__ = ("parent", "letter", "depth", "children", "steps", "images", "spelled")

    def __init__(self, parent: "Irreducible | None" = None, letter: int = -1) -> None:
        self.parent = parent
        self.letter = letter
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: dict[int, Irreducible] = {}
        self.steps: dict[int, tuple[Irreducible, int]] | None = None
        self.images: dict[int, Word] | None = None
        self.spelled: tuple[int, ...] | None = () if parent is None else None

    @property
    def letters(self) -> tuple[int, ...]:
        spelled = self.spelled
        if spelled is None:
            out, node = [], self
            while node.spelled is None:
                out.append(node.letter)
                node = node.parent
            spelled = self.spelled = node.spelled + tuple(reversed(out))
        return spelled


def _ends_with(y: Irreducible, rest: tuple[int, ...]) -> Irreducible | None:
    """The node above the suffix of ``y`` that spells ``rest`` reversed, or
    None if ``y`` does not end so."""
    for c in rest:
        if y.letter != c:
            return None
        y = y.parent
    return y


def _redex(S: RewritingSystem, y: Irreducible, b: int) -> tuple[Irreducible, _IndexedRule] | None:
    """The lowest-index rule whose lhs ends the word of ``y`` followed by
    ``b``, after the node above that lhs; None if no lhs ends there."""
    for r in S._by_last_letter.get(b, ()):
        above = _ends_with(y, r.rest)
        if above is not None:
            return above, r
    return None


def _rewrite(
    S: RewritingSystem, y: Irreducible, a: int, budget: int, rewrites: int
) -> tuple[Irreducible | None, int]:
    """Prefix rewriting of the word of ``y`` followed by ``a``: the node of
    its irreducible form and ``rewrites`` plus the steps taken, or None for
    the node once that count would pass ``budget``.

    ``cur`` always spells an irreducible word, so a rule whose lhs ends
    ``cur b`` rewrites the shortest reducible prefix: ``cur`` climbs above
    the lhs and the rhs goes back in front of the unread letters.  A letter
    that ``cur`` already has as a child fires no rule.

    A completed step from a reducible ``y a`` is kept in ``y.steps``, and a
    kept step is taken in one move, from ``y`` or from any ``(cur, b)``
    popped on the way.  That is exact: the letters pushed on top of ``b``
    are all read before any letter under them, so the run from ``(cur, b)``
    until they are gone is the step ``_rewrite(cur, b)``, with its target
    and its count, whatever lies below.  It runs out of budget exactly when
    ``rewrites`` plus its count passes ``budget``, so every count and every
    budget boundary is the same on a cold trie and a warm one.
    """
    child = y.children.get(a)
    if child is not None:
        return child, rewrites
    kept = y.steps.get(a) if y.steps is not None else None
    if kept is not None:
        node, n = kept
        return (node, rewrites + n) if rewrites + n <= budget else (None, rewrites)
    start, cur, unread = rewrites, y, [a]
    while unread:
        b = unread.pop()
        child = cur.children.get(b)
        if child is None:
            kept = cur.steps.get(b) if cur.steps is not None else None
            if kept is not None:
                node, n = kept
                if rewrites + n > budget:
                    return None, rewrites
                cur, rewrites = node, rewrites + n
                continue
            redex = _redex(S, cur, b)
            if redex is not None:
                if rewrites >= budget:
                    return None, rewrites
                rewrites += 1
                cur, r = redex
                unread.extend(r.rhs)
                continue
            child = cur.children[b] = Irreducible(cur, b)
        cur = child
    if rewrites != start:
        if y.steps is None:
            y.steps = {}
        y.steps[a] = cur, rewrites - start
    return cur, rewrites


def _prefix_rewrite(S: RewritingSystem, w: Word, budget: int) -> tuple[Word, int]:
    """The irreducible form of ``w`` and the number of prefix rewriting
    steps to it; more than ``budget`` steps raise."""
    y: Irreducible | None = S._trie
    steps = 0
    for a in w.letters:
        child = y.children.get(a)  # fires no rule
        y, steps = (child, steps) if child is not None else _rewrite(S, y, a, budget, steps)
        if y is None:
            raise BudgetExceededError(f"system not terminating within budget on {w!r}")
    return Word(S.alphabet, y.letters), steps


def is_irreducible(S: RewritingSystem, w: Word) -> bool:
    """True iff no rule lhs occurs as a subword of ``w``."""
    return next(_redexes(S, w.letters), None) is None


def reduce_to_irreducible(S: RewritingSystem, w: Word, budget: int = DEFAULT_BUDGET) -> Word:
    """Rewrite ``w`` to its irreducible form by prefix rewriting.

    Raises :class:`BudgetExceededError` if ``w`` needs more than ``budget``
    rewriting steps.
    """
    return _prefix_rewrite(S, w, budget)[0]


def prefix_rewrite_length(S: RewritingSystem, w: Word, budget: int = DEFAULT_BUDGET) -> int:
    """Number of prefix rewriting steps from ``w`` to an irreducible word."""
    return _prefix_rewrite(S, w, budget)[1]


class IrreducibleTree(NormalFormTree):
    """The normal-form tree of ``builtin.crs_structure(S)``: the system's
    own trie of irreducible words, stepped by its prefix rewriting.
    ``move(y, a)`` tries only the rules ending in ``a`` against the last
    letters of ``y``; on a match it climbs ``|lhs| - 1`` parents and steps
    through the rhs.  A step spends at most ``budget`` rewrites, and so does
    a walk, as rewriting its whole word would.
    """

    def __init__(self, S: RewritingSystem, budget: int) -> None:
        super().__init__(S.alphabet, S._trie)
        self.S = S
        self.budget = budget
        self._images = {rule: rule.lhs[:-1].inverse() * rule.rhs for rule in S.rules}

    def move(self, y: Irreducible, a: int) -> tuple[Irreducible, bool]:
        # a child fires no rule, so it is taken before any rewriting; else
        # the edge is a tree edge when y is the child of its target
        t = y.children.get(a)
        if t is not None:
            return t, True
        t = _rewrite(self.S, y, a, self.budget, 0)[0]
        if t is None:
            self._out_of_budget(y, (a,))
        return t, (t.parent is y and t.letter == a) or (
            y.parent is t and y.letter == self.alphabet.inverse[a]
        )

    def walk(self, y: Irreducible, letters: Iterable[int]) -> Iterator[Irreducible]:
        start, letters, rewrites = y, tuple(letters), 0
        for a in letters:
            y, rewrites = _rewrite(self.S, y, a, self.budget, rewrites)
            if y is None:
                self._out_of_budget(start, letters)
            yield y

    def _out_of_budget(self, y: Irreducible, letters: tuple[int, ...]) -> NoReturn:
        w = Word(self.alphabet, y.letters + letters)
        raise BudgetExceededError(f"system not terminating within budget on {w!r}")

    def parent(self, y: Irreducible) -> Irreducible | None:
        return y.parent

    def last(self, y: Irreducible) -> int:
        return y.letter

    def depth(self, y: Irreducible) -> int:
        return y.depth

    def phi(self, y: Irreducible, a: int) -> Word:
        # kept on y when one rule alone ends y a, so every other call raises
        if y.images is not None and a in y.images:
            return y.images[a]
        rules = [
            r.rule for r in self.S._by_last_letter.get(a, ()) if _ends_with(y, r.rest) is not None
        ]
        if len(rules) > 1:
            raise StructureError("two rules apply: system not minimal")
        if not rules:
            raise StructureError(
                f"no rule factors {self.word(y).append(a)}: system not minimal/complete"
            )
        y.images = {**(y.images or {}), a: self._images[rules[0]]}
        return y.images[a]


# ---------------------------------------------------------------------------
# Minimization (same irreducible set; no identity letter; inverse-closed).


def _proper_subword_reducible(S: RewritingSystem, u: Word) -> bool:
    # Every proper subword of u lies inside u minus its first or last letter.
    return not (is_irreducible(S, u[1:]) and is_irreducible(S, u[:-1]))


def _remap_word(w: Word, target: Alphabet) -> Word:
    return Word(target, tuple(target.index(w.alphabet.tokens[i]) for i in w.letters))


def minimize(S: RewritingSystem, budget: int = DEFAULT_BUDGET) -> RewritingSystem:
    """Transform a complete system into an equivalent minimal one.

    Minimal means: each rhs and every proper subword of each lhs is
    irreducible.  Letters representing the identity are removed from the
    alphabet together with their rules, and for letters that appear in no
    rule but whose inverse does, a rule ``a -> z_a`` is appended, where
    ``z_a`` is the irreducible word representing ``a`` (found by a bounded
    breadth-first search for a word cancelling the inverse letter).
    """
    # One pass against S reaches the fixpoint (Sims 1994, ch. 2).  A rule
    # whose lhs properly contains another lhs is dropped.  Every lhs contains
    # an lhs with no reducible proper subword, and that one is kept, so the
    # reducible words, and with them the irreducible forms, stay the same.
    # A second pass would then drop no rule and change no rhs, since each
    # rhs is reduced once, to an irreducible word.  No lhs equals its reduced
    # rhs, because an lhs is reducible.
    alphabet = S.alphabet
    rules: list[RewriteRule] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for rule in S.rules:
        if _proper_subword_reducible(S, rule.lhs):
            continue
        rhs = reduce_to_irreducible(S, rule.rhs, budget)
        key = (rule.lhs.letters, rhs.letters)
        if key not in seen:
            seen.add(key)
            rules.append(RewriteRule(rule.lhs, rhs))

    # Drop letters that represent the identity (rules a -> empty).  Such a
    # letter is itself an lhs, so no longer kept lhs contains it (that lhs
    # would have been dropped) and no reduced rhs does (it is irreducible).
    # The rules left keep their letters and need no second pass.
    identity = {r.lhs.letters[0] for r in rules if len(r.lhs) == 1 and len(r.rhs) == 0}
    for a in list(identity):
        b = alphabet.inv(a)
        if b not in identity:
            raise StructureError(
                f"letter {alphabet.tokens[a]!r} represents the identity but its "
                f"inverse {alphabet.tokens[b]!r} has no cancelling rule; system incomplete"
            )
    if identity:
        keep = [i for i in range(len(alphabet)) if i not in identity]
        new_alphabet = Alphabet(
            tuple(alphabet.tokens[i] for i in keep),
            tuple(keep.index(alphabet.inverse[i]) for i in keep),
        )
        rules = [
            RewriteRule(_remap_word(rule.lhs, new_alphabet), _remap_word(rule.rhs, new_alphabet))
            for rule in rules
            if not (len(rule.lhs) == 1 and rule.lhs.letters[0] in identity)
        ]
        alphabet = new_alphabet

    # Inverse closure: letters that occur in no rule get a defining rule.
    sys = RewritingSystem(alphabet, tuple(rules), claimed_complete=True)
    used = {i for r in rules for i in r.lhs.letters + r.rhs.letters}
    for c in range(len(alphabet)):
        if c in used:
            continue
        b = alphabet.inv(c)
        if b not in used:
            continue
        z = _search_inverse_word(sys, b, exclude=c, max_len=INVERSE_SEARCH_LEN, budget=budget)
        if z is None:
            raise StructureError(
                f"no irreducible word of length <= {INVERSE_SEARCH_LEN} represents "
                f"{alphabet.tokens[c]!r}; cannot close the system under inversion"
            )
        rules.append(RewriteRule(alphabet.letter(c), z))

    result = RewritingSystem(alphabet, tuple(rules), claimed_complete=True)
    for rule in result.rules:
        if not is_irreducible(result, rule.rhs):
            raise StructureError(f"minimization postcondition failed on rhs of {rule}")
        if _proper_subword_reducible(result, rule.lhs):
            raise StructureError(f"minimization postcondition failed on lhs of {rule}")
    return result


def _search_inverse_word(
    S: RewritingSystem, b: int, exclude: int, max_len: int, budget: int
) -> Word | None:
    """The irreducible form of the shortlex least word z of at most
    ``max_len`` letters, avoiding the letter ``exclude``, with b z =_G
    empty; None if there is none.

    A breadth-first search on the trie of irreducible words: the node of
    b z is one step by the last letter of z from the node of b z minus that
    letter, so z is a path from the node of b to the root.  Each node is
    visited once, the nodes of one level in the order of their least words
    and the letters in index order, so the root is first reached along the
    shortlex least z.  A step spends one of ``budget`` and each of its
    rewrites one more.
    """
    root = S._trie
    letters = [i for i in range(len(S.alphabet)) if i != exclude]
    spent = 0

    def step(y: Irreducible, a: int) -> Irreducible:
        nonlocal spent
        node, spent = _rewrite(S, y, a, budget, spent + 1)
        if node is None or spent > budget:
            raise BudgetExceededError(
                f"the search for a word cancelling {S.alphabet.tokens[b]!r} exceeded its budget"
            )
        return node

    start = step(root, b)
    least: dict[Irreducible, tuple[int, ...]] = {start: ()}  # node -> least z to it
    frontier = [start]
    for _ in range(max_len):
        found = []
        for y in frontier:
            for a in letters:
                node = step(y, a)
                if node not in least:
                    least[node] = least[y] + (a,)
                    if node is root:
                        return reduce_to_irreducible(S, Word(S.alphabet, least[node]), budget)
                    found.append(node)
        frontier = found
    return None


# ---------------------------------------------------------------------------
# Desk-scale completeness report.


@dataclass
class CompletenessReport:
    max_len: int
    terminating: bool = True
    termination_failures: list[str] = field(default_factory=list)
    locally_confluent: bool = True
    critical_pair_failures: list[str] = field(default_factory=list)
    unique_normal_forms: bool = True
    uniqueness_failures: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.terminating and self.locally_confluent and self.unique_normal_forms

    def to_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "ok": self.ok,
            "terminating": self.terminating,
            "termination_failures": self.termination_failures,
            "locally_confluent": self.locally_confluent,
            "critical_pair_failures": self.critical_pair_failures,
            "unique_normal_forms": self.unique_normal_forms,
            "uniqueness_failures": self.uniqueness_failures,
            "skipped": self.skipped,
        }


def _single_step_rewrites(S: RewritingSystem, letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [
        letters[: end - len(rule.lhs)] + rule.rhs.letters + letters[end:]
        for end, rule in _redexes(S, letters)
    ]


def _all_irreducibles(
    S: RewritingSystem,
    letters: tuple[int, ...],
    memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]],
) -> frozenset[tuple[int, ...]]:
    """All irreducible words reachable by any rewriting strategy."""
    if letters in memo:
        return memo[letters]
    succ = _single_step_rewrites(S, letters)
    if not succ:
        result = frozenset([letters])
    else:
        acc: set[tuple[int, ...]] = set()
        for s in succ:
            acc |= _all_irreducibles(S, s, memo)
        result = frozenset(acc)
    memo[letters] = result
    return result


def check_complete(
    S: RewritingSystem, max_len: int, budget: int = 10**4
) -> CompletenessReport:
    """Desk-scale surrogate for completeness: termination on all words of
    length <= max_len, resolution of all critical pairs, and uniqueness of
    irreducibles under every rewriting strategy."""
    report = CompletenessReport(max_len=max_len)
    alphabet_range = range(len(S.alphabet))

    for n in range(max_len + 1):
        for combo in itertools.product(alphabet_range, repeat=n):
            try:
                reduce_to_irreducible(S, Word(S.alphabet, combo), budget)
            except BudgetExceededError:
                report.terminating = False
                report.termination_failures.append(str(Word(S.alphabet, combo)))
                if len(report.termination_failures) >= 5:
                    break
        if not report.terminating:
            break

    if not report.terminating:
        report.skipped.append("local confluence and uniqueness skipped: not terminating")
        report.locally_confluent = False
        report.unique_normal_forms = False
        return report

    def join(kind: str, w: tuple[int, ...], left: tuple[int, ...], right: tuple[int, ...]) -> None:
        a = reduce_to_irreducible(S, Word(S.alphabet, left), budget)
        b = reduce_to_irreducible(S, Word(S.alphabet, right), budget)
        if a != b:
            report.locally_confluent = False
            report.critical_pair_failures.append(f"{kind} {Word(S.alphabet, w)}: {a} != {b}")

    # Local confluence via critical pairs (overlaps and containments).
    for r1, r2 in itertools.product(S.rules, repeat=2):
        u1, u2 = r1.lhs.letters, r2.lhs.letters
        v1, v2 = r1.rhs.letters, r2.rhs.letters
        # overlap: nonempty proper suffix of u1 equals prefix of u2
        for k in range(1, min(len(u1), len(u2))):
            if u1[-k:] == u2[:k]:
                join("overlap", u1 + u2[k:], v1 + u2[k:], u1[:-k] + v2)
        # containment: u2 occurs properly (so is shorter) inside u1
        if len(u2) < len(u1):
            for i in range(len(u1) - len(u2) + 1):
                if u1[i : i + len(u2)] == u2:
                    join("containment", u1, v1, u1[:i] + v2 + u1[i + len(u2) :])

    memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet_range, repeat=n):
            forms = _all_irreducibles(S, combo, memo)
            if len(forms) != 1:
                report.unique_normal_forms = False
                report.uniqueness_failures.append(
                    f"{Word(S.alphabet, combo)} -> {sorted(str(Word(S.alphabet, f)) for f in forms)}"
                )
                if len(report.uniqueness_failures) >= 5:
                    return report
    return report


# ---------------------------------------------------------------------------
# File format: [generators] / [inverses] / [rules]; `lhs -> rhs` per line,
# empty rhs meaning the empty word.


def load_rewriting_system(text: str) -> RewritingSystem:
    sections = parse_sections(text)
    alphabet = alphabet_from_sections(sections)
    rules: list[RewriteRule] = []
    for line in sections.get("rules", []):
        if "->" not in line:
            raise FormatError(f"[rules] line missing '->': {line!r}")
        lhs_text, rhs_text = line.split("->", 1)
        rules.append(RewriteRule(alphabet.word(lhs_text), alphabet.word(rhs_text)))
    return RewritingSystem(alphabet, tuple(rules), claimed_complete=True)


def z2_system() -> RewritingSystem:
    """The reference complete rewriting system for Z^2 used throughout the
    test suite: free cancellation plus commutation ordered a before b."""
    return load_rewriting_system(
        """
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
        B A -> A B
        """
    )


def bs12_system() -> RewritingSystem:
    """A minimal finite complete rewriting system for BS(1,2) over the
    inverse-closed alphabet {a, A, d, D, t, T} with d =_G a^2.

    Found by Knuth-Bendix completion from the defining relations
    t a t^-1 = a^2 and d = a^2, then minimized; the extra generator d
    keeps the irreducible language factorial (over {a, t}^+- alone the
    carry subwords a t^j A admit no finite forbidden-subword description).
    Completeness is desk-scale checked in the test suite and every rule is
    verified against the faithful dyadic affine representation.
    """
    return load_rewriting_system(
        """
        [generators]
        a A d D t T
        [inverses]
        a A
        d D
        t T
        [rules]
        a A ->
        A a ->
        d D ->
        D d ->
        t T ->
        T t ->
        a a -> d
        A A -> D
        d a -> a d
        D A -> A D
        d A -> a
        D a -> A
        a D -> A
        A d -> a
        t a -> d t
        t A -> D t
        t d -> d d t
        t D -> D D t
        a T -> T d
        A T -> T D
        T d d -> d T
        T D D -> D T
        T d t -> a
        T D t -> A
        d T d -> a d T
        D T D -> A D T
        d T D -> T d
        D T d -> T D
        T a d -> d T A
        d d T A -> a d T a
        a d T A -> d T a
        T A D -> D T a
        D D T a -> A D T A
        A D T a -> D T A
        D D T T d -> A D T T D
        A D T T d -> D T T D
        a d T T D -> d T T d
        d d T T D -> a d T T d
        """
    )
