"""Walkthrough: seashell van Kampen diagrams from a stacking.

Each trivial word gets a filling built one boundary letter at a time:
degenerate edges contribute backtracking segments, recursive edges
contribute recursively-filled lobes capped by a single 2-cell.
"""

from pathlib import Path

from stackings import (
    bs1p_structure,
    build_filling_diagram,
    export_diagram,
    stacking_relation_set,
    validate_diagram,
)


def main() -> None:
    s = bs1p_structure(2)
    al = s.alphabet

    print("== areas of three trivial words ==")
    for text in ["a A", "t a T A A", "t t a T T A A A A"]:
        d = build_filling_diagram(s, al.word(text))
        print(f"  {text!r:24} area {len(d.faces)}, "
              f"V-E+F = {d.euler_characteristic()}")

    w = al.word("t t a T T A A A A")
    d = build_filling_diagram(s, w)
    relators = stacking_relation_set(s, [(al.word("t"), al.index("a"))])
    report = validate_diagram(d, relators, w, s)
    print(f"\n== validation of the area-3 diagram ==\n  {report.summary()}")

    out = Path("diagram.svg")
    out.write_bytes(export_diagram(d, "svg"))
    print(f"\n  drawing written to {out} "
          f"({len(d.vertices)} vertices, {len(d.edges)} edges, {len(d.faces)} faces)")


if __name__ == "__main__":
    main()
