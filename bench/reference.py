"""Reference answers computed without the library.

Every check the benchmark makes on the program's outputs comes from here:
the faithful dyadic affine representation of BS(1,p), exponent sums for
Z^2, breadth-first search on those concrete groups, the closed form for the
commutator areas, and the defining predicate of Thompson's F normal-form
language.  Nothing here imports ``stackings``.
"""

from __future__ import annotations

from fractions import Fraction

# BS(1,p) = <a, t | t a t^-1 = a^p> acts faithfully on Q by a: x -> x + 1,
# t: x -> p x.  A word is the composition of its letters' maps, left to
# right, so an element is the pair (s, b) of the map x -> p^s x + b, and
# right-multiplying by a letter changes (s, b) as below.  The extra
# generator d of the BS(1,2) rewriting system stands for a^2.
BS_LETTERS = {"a": (0, 1), "A": (0, -1), "d": (0, 2), "D": (0, -2), "t": (1, 0), "T": (-1, 0)}


def bs_step(p: int, g: tuple[int, Fraction], token: str) -> tuple[int, Fraction]:
    s, b = g
    ds, db = BS_LETTERS[token]
    return s + ds, b + db * Fraction(p) ** s


def bs_element(p: int, tokens: list[str]) -> tuple[int, Fraction]:
    g = (0, Fraction(0))
    for tok in tokens:
        g = bs_step(p, g, tok)
    return g


def bs_normal_form(p: int, g: tuple[int, Fraction]) -> tuple[int, int, int]:
    """The (i, m, k) of the normal form t^-i a^m t^k of g, with p not
    dividing m when both i and k are positive."""
    s, b = g
    j, den = 0, b.denominator
    while den > 1:
        den //= p
        j += 1
    i = max(j, -s, 0)
    return i, int(b * p**i), s + i


def bs_nf_tokens(i: int, m: int, k: int) -> list[str]:
    return ["T"] * i + (["a"] if m > 0 else ["A"]) * abs(m) + ["t"] * k


def bs_max_prefix_nf_length(p: int, tokens: list[str]) -> int:
    """Longest normal form among the prefixes of the word."""
    g = (0, Fraction(0))
    longest = 0
    for tok in tokens:
        g = bs_step(p, g, tok)
        i, m, k = bs_normal_form(p, g)
        longest = max(longest, i + abs(m) + k)
    return longest


Z2_LETTERS = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}


def z2_element(tokens: list[str]) -> tuple[int, int]:
    x = y = 0
    for tok in tokens:
        dx, dy = Z2_LETTERS[tok]
        x, y = x + dx, y + dy
    return x, y


def ball_counts(identity, step, generators: list[str], radius: int) -> tuple[int, int]:
    """(elements, directed edges) of the Cayley ball B(radius), by BFS with
    the group law ``step(g, token)``; an edge is a (g, letter) pair whose
    target also lies in the ball."""
    seen = {identity}
    frontier = [identity]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for tok in generators:
                h = step(g, tok)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    edges = sum(1 for g in seen for tok in generators if step(g, tok) in seen)
    return len(seen), edges


def z2_ball_counts(radius: int) -> tuple[int, int]:
    def step(g, tok):
        dx, dy = Z2_LETTERS[tok]
        return g[0] + dx, g[1] + dy

    return ball_counts((0, 0), step, list(Z2_LETTERS), radius)


def bs_ball_counts(p: int, generators: list[str], radius: int) -> tuple[int, int]:
    return ball_counts(
        (0, Fraction(0)), lambda g, tok: bs_step(p, g, tok), generators, radius
    )


def commutator_area(n: int) -> int:
    """Faces of the seashell filling of [t^n a t^-n, a] in BS(1,2)."""
    return 2 ** (n + 1) - 2


def thompson_normal_form(tokens: list[str]) -> bool:
    """No subword x x^-1, no subword x0 x0 x1^(+-1), and no prefix with
    positive x0 exponent sum."""
    inverse = {"x0": "X0", "X0": "x0", "x1": "X1", "X1": "x1"}
    for u, v in zip(tokens, tokens[1:]):
        if inverse[u] == v:
            return False
    for u, v, w in zip(tokens, tokens[1:], tokens[2:]):
        if u == v == "x0" and w in ("x1", "X1"):
            return False
    height = 0
    for tok in tokens:
        height += {"x0": 1, "X0": -1}.get(tok, 0)
        if height > 0:
            return False
    return True


def diagram_json_boundary(obj: dict, inverse: dict[str, str]) -> list[str]:
    """Boundary word of an exported diagram, read from its edge records."""
    labels = {e["id"]: e["label"] for e in obj["edges"]}
    return [labels[s] if s > 0 else inverse[labels[-s]] for s in obj["boundary"]]
