"""Walkthrough: a finite complete rewriting system induces a stacking.

The Z^2 system sorts words into a^i b^j form.  Prefix rewriting realizes
the stacking reduction, and the prefix-rewriting length strictly decreases
along the flow — the well-founded order behind termination.
"""

from stackings import (
    FlowFunction,
    build_ball,
    crs_structure,
    prefix_rewrite_length,
    reduce_to_irreducible,
    stacking_reduce_steps,
    z2_system,
)


def main() -> None:
    S = z2_system()
    al = S.alphabet
    s = crs_structure(S)

    print("== prefix rewriting vs stacking reduction ==")
    for text in ["b a", "b b a a", "B a A b"]:
        w = al.word(text)
        irreducible = reduce_to_irreducible(S, w)
        stack, _ = stacking_reduce_steps(s, w)
        print(f"  {text!r:12} -> {str(irreducible)!r:10} (stacking agrees: {irreducible == stack})")

    print("\n== prl decreases along the flow ==")
    flow = FlowFunction(s)
    e = (al.word("b b"), al.index("a"))
    print(f"  edge ({e[0]}, a): prl = {prefix_rewrite_length(S, e[0].append(e[1]))}")
    for y, x in flow.path(*e):
        tag = "degenerate" if s.is_degenerate(y, x) else "recursive "
        prl = prefix_rewrite_length(S, y.append(x))
        print(f"    {tag} ({str(y)!r:8}, {al.tokens[x]}) prl = {prl}")

    print("\n== the induced normal forms tile the Cayley ball ==")
    ball = build_ball(s, 3)
    print(f"  B(3) has {len(ball.elements)} elements, {len(ball.edges)} directed edges")


if __name__ == "__main__":
    main()
