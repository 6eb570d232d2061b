import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from stackings import (
    FunctionOracle,
    bs12_system,
    bs1p_structure,
    crs_structure,
    load_rewriting_system,
    reduce_to_irreducible,
    shortlex_ac_structure,
    z2_system,
)

Z2_RULES_TEXT = """\
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


@pytest.fixture(scope="session")
def structures():
    """Makers of one structure of each builtin kind, by name."""
    z2, bs12 = z2_system(), bs12_system()
    z2_oracle = FunctionOracle(z2.alphabet, lambda w: reduce_to_irreducible(z2, w))
    return {
        "bs1p:2": lambda: bs1p_structure(2),
        "bs1p:3": lambda: bs1p_structure(3),
        "crs:z2": lambda: crs_structure(z2),
        "crs:bs12": lambda: crs_structure(bs12),
        "shortlex-ac:z2:8:2": lambda: shortlex_ac_structure(z2_oracle, 8, 2),
    }


@pytest.fixture(scope="session")
def bs2():
    return bs1p_structure(2)


@pytest.fixture(scope="session")
def z2S():
    return z2_system()


@pytest.fixture(scope="session")
def z2struct(z2S):
    return crs_structure(z2S)


@pytest.fixture(scope="session")
def z2oracle(z2S):
    return FunctionOracle(z2S.alphabet, lambda w: reduce_to_irreducible(z2S, w))


@pytest.fixture(scope="session")
def bs12S():
    return bs12_system()


@pytest.fixture(scope="session")
def c3_oracle():
    """Cyclic group of order 3, in which an edge joins two elements of S(1)."""
    S = load_rewriting_system(
        """
        [generators]
        a A
        [inverses]
        a A
        [rules]
        a a -> A
        A A -> a
        a A ->
        A a ->
        """
    )
    return FunctionOracle(S.alphabet, lambda w: reduce_to_irreducible(S, w))


@pytest.fixture(scope="session")
def c5_oracle():
    """Cyclic group of order 5, in which B(2) is not convex."""
    S = load_rewriting_system(
        """
        [generators]
        a A
        [inverses]
        a A
        [rules]
        a a a -> A A
        A A A -> a a
        a A ->
        A a ->
        """
    )
    return FunctionOracle(S.alphabet, lambda w: reduce_to_irreducible(S, w))


@pytest.fixture()
def z2_rules_file(tmp_path):
    path = tmp_path / "z2.rs"
    path.write_text(Z2_RULES_TEXT)
    return path
