"""Walkthrough: the explicit stacking on BS(1,2) = <a, t | t a t^-1 = a^2>.

Normal forms are the words t^-i a^m t^k (p not dividing m when both powers
of t are present).  The stacking map phi rewrites the "missing" edges of
the normal-form tree, and iterating it solves the word problem.
"""

from stackings import (
    FlowFunction,
    bs1p_structure,
    build_ball,
    stacking_reduce_steps,
    verify_flow_properties,
)


def main() -> None:
    s = bs1p_structure(2)
    al = s.alphabet

    print("== normal forms by stacking reduction ==")
    for text in ["t a T", "t t a T T A A A A", "a a a a", "t a T A A"]:
        nf, steps = stacking_reduce_steps(s, al.word(text))
        print(f"  {text!r:28} -> {str(nf)!r}  ({steps} rewrites)")

    print("\n== the stacking map on recursive edges ==")
    for src, lab in [("t", "a"), ("t", "A"), ("a", "T"), ("T a a", "t")]:
        img = s.phi(al.word(src), al.index(lab))
        print(f"  phi({src!r}, {lab}) = {str(img)!r}")
    print(f"  all images bounded by k = {s.bound_k}")

    print("\n== verifying the flow-function axioms on B(4) ==")
    region = build_ball(s, 5)
    report = verify_flow_properties(FlowFunction(s), region.restricted(4), region)
    print(" ", report.summary())


if __name__ == "__main__":
    main()
