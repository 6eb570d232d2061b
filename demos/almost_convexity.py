"""Walkthrough: almost convexity and the shortlex stacking it induces.

Z^2 is almost convex with constant 2 (adjacent sphere elements are joined
by short paths inside the ball), and the resulting shortlex structure is
geodesic.  With constant 1 the check fails and emits a witness pair.
"""

from stackings import (
    FlowFunction,
    FunctionOracle,
    almost_convexity_check,
    build_ball,
    reduce_to_irreducible,
    shortlex_ac_structure,
    verify_geodesic_stacking,
    z2_system,
)


def main() -> None:
    S = z2_system()
    oracle = FunctionOracle(S.alphabet, lambda w: reduce_to_irreducible(S, w))

    print("== almost convexity of Z^2 ==")
    print(" ", almost_convexity_check(oracle, n_max=5, k_ac=2).summary())
    print(" ", almost_convexity_check(oracle, n_max=5, k_ac=1).summary())

    print("\n== the shortlex stacking it induces ==")
    s = shortlex_ac_structure(oracle, ball_radius=5, k_ac=2)
    al = s.alphabet
    for src, lab in [("b", "a"), ("a b", "A")]:
        print(f"  phi({src!r}, {lab}) = {str(s.phi(al.word(src), al.index(lab)))!r}")

    print("\n== geodesic stackability on B(3) ==")
    region = build_ball(s, 4)
    report = verify_geodesic_stacking(FlowFunction(s), region.restricted(3), region)
    print(" ", report.summary())


if __name__ == "__main__":
    main()
