import gc
import hashlib
import json
import weakref
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from oracles import (
    build_ball_reference,
    first_cycle_reference,
    random_trivial_words,
    stacking_reduce_reference,
    verify_flow_reference,
    verify_geodesic_reference,
)
from stackings import (
    Alphabet,
    BudgetExceededError,
    EdgeKind,
    FlowFunction,
    FunctionOracle,
    StackingStructure,
    StructureError,
    Word,
    almost_convexity_check,
    ball_to_json,
    bs1p_structure,
    bs12_system,
    build_ball,
    build_filling_diagram,
    crs_structure,
    edge_diagram,
    reduce_to_irreducible,
    shortlex_ac_structure,
    stacking_reduce_steps,
    stacking_relation_set,
    verify_flow_properties,
    verify_geodesic_stacking,
    z2_system,
)
from stackings.stacking import _first_cycle


class TestStackingReduce:
    def test_bs12_example(self, bs2):
        al = bs2.alphabet
        assert str(stacking_reduce_steps(bs2, al.word("t a T"))[0]) == "a a"

    def test_step_count(self, bs2):
        al = bs2.alphabet
        nf, steps = stacking_reduce_steps(bs2, al.word("t a T"))
        assert str(nf) == "a a" and steps == 1

    def test_empty_word(self, bs2):
        assert stacking_reduce_steps(bs2, bs2.alphabet.empty()) == (bs2.alphabet.empty(), 0)

    def test_normal_form_fixed(self, bs2):
        al = bs2.alphabet
        w = al.word("T T a a a t")
        assert stacking_reduce_steps(bs2, w) == (w, 0)

    def test_crs_structure_matches_rewriting(self, z2S, z2struct):
        al = z2S.alphabet
        assert str(stacking_reduce_steps(z2struct, al.word("b a"))[0]) == "a b"

    def test_bad_empty_normal_form_rejected_without_tree(self, bs2):
        al = bs2.alphabet
        with pytest.raises(StructureError, match="empty word"):
            StackingStructure(al, lambda w: al.word("a"), bs2.phi, bound_k=4)

    def test_tree_freed_by_reference_count_without_tree(self, bs2):
        # the tree of a structure built without one holds normal_form_fn
        # itself, not the structure, so it dies with the structure with no
        # cyclic collection
        al = bs2.alphabet
        s = StackingStructure(al, bs2.normal_form, bs2.phi, bound_k=4)
        assert s.normal_form(al.word("t a T")) == al.word("a a")
        tree = weakref.ref(s.tree)
        gc.disable()
        try:
            del s
            assert tree() is None
        finally:
            gc.enable()

    def test_budget_raised_on_cyclic_phi(self, bs2):
        al = bs2.alphabet
        # phi that sends the recursive edge (t, a) to a word spelling a
        # detour through the same edge again
        bad = StackingStructure(
            al,
            bs2.normal_form,
            lambda y, a: al.word("a a A"),
            bound_k=4,
        )
        # a cyclic flow completes no reduction, so none is kept
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                stacking_reduce_steps(bad, al.word("t a"), budget=50)

    def test_phi_image_longer_than_k_rejected(self, bs2):
        al = bs2.alphabet
        squeezed = StackingStructure(al, bs2.normal_form, bs2.phi, bound_k=2)
        with pytest.raises(StructureError, match="longer than k"):
            stacking_reduce_steps(squeezed, al.word("t a T"))

    def test_word_problem(self, bs2):
        # a word is trivial exactly when its normal form is empty
        al = bs2.alphabet
        for text, trivial in [("t a T A A", True), ("t a T A", False), ("a A", True)]:
            assert (len(stacking_reduce_steps(bs2, al.word(text))[0]) == 0) == trivial


class TestPhiAndMembership:
    def test_phi_case2(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("t"), al.index("a"))) == "T a a t"

    def test_phi_undefined_on_degenerate(self, bs2):
        al = bs2.alphabet
        with pytest.raises(StructureError):
            bs2.phi(al.word("a"), al.index("t"))

    def test_s_phi_membership(self, bs2):
        al = bs2.alphabet
        flow = FlowFunction(bs2)
        assert flow.label(al.word("t"), al.index("a")) == al.word("T a a t")
        # degenerate edges carry their own label
        assert flow.label(al.word("a"), al.index("t")) == al.word("t")

    def test_phi_strictness_guard(self, bs2):
        al = bs2.alphabet
        bad = StackingStructure(
            al, bs2.normal_form, lambda y, a: Word(al, (a,)), bound_k=4
        )
        with pytest.raises(StructureError):
            bad.phi(al.word("t"), al.index("a"))


# A stacking map on BS(1,2) with k = 4 whose every image is bad, and the
# message that refuses it; and the calls that read phi on the recursive edge
# (t, a).
BAD_IMAGES = {
    "empty": (lambda al, a: al.empty(), "returned the empty word"),
    "label": (lambda al, a: Word(al, (a,)), "returned the edge label itself"),
    "long": (lambda al, a: Word(al, (a,) * 5), "returned a a a a a, longer than k = 4"),
}
PHI_READERS = {
    "phi": lambda s: s.phi(s.alphabet.word("t"), s.alphabet.index("a")),
    "label": lambda s: FlowFunction(s).label(s.alphabet.word("t"), s.alphabet.index("a")),
    "reduce": lambda s: stacking_reduce_steps(s, s.alphabet.word("t a T A A")),
    "filling": lambda s: build_filling_diagram(s, s.alphabet.word("t a T A A")),
    "recursive": lambda s: edge_diagram(
        (s.alphabet.word("t"), s.alphabet.index("a")), s
    ),
}


class TestStackingMapContract:
    """Every reader of the stacking map refuses an image that is empty, the
    edge label itself or longer than k; verification reports such images
    instead."""

    @staticmethod
    def bad(bs2, image):
        al = bs2.alphabet
        make = BAD_IMAGES[image][0]
        return StackingStructure(al, bs2.normal_form, lambda y, a: make(al, a), bound_k=4)

    @pytest.mark.parametrize("reader", sorted(PHI_READERS))
    @pytest.mark.parametrize("image", sorted(BAD_IMAGES))
    def test_bad_image_is_a_structure_error(self, bs2, image, reader):
        with pytest.raises(StructureError, match=r"phi on \(t, a\) " + BAD_IMAGES[image][1]):
            PHI_READERS[reader](self.bad(bs2, image))

    def test_empty_image_is_reported_by_verification(self, bs2):
        s = self.bad(bs2, "empty")
        region = build_ball(s, 3)
        report = verify_flow_properties(FlowFunction(s), region.restricted(2), region)
        assert {"source": "t", "label": "a"} in report.f1_failures
        assert not report.strictness_failures and not report.passed


class TestFlowFunction:
    def test_degenerate_edges_fixed(self, bs2):
        al = bs2.alphabet
        flow = FlowFunction(bs2)
        assert str(flow.label(al.word("a"), al.index("t"))) == "t"

    def test_path_endpoints(self, bs2):
        al = bs2.alphabet
        flow = FlowFunction(bs2)
        path = flow.path(al.word("t"), al.index("a"))
        assert [al.tokens[b] for _, b in path] == ["T", "a", "a", "t"]
        end = path[-1][0].append(path[-1][1])
        assert bs2.normal_form(end) == bs2.normal_form(al.word("t a"))


class TestRelationSet:
    def test_bs12_case2_closure_has_ten_words(self, bs2):
        al = bs2.alphabet
        rels = stacking_relation_set(bs2, [(al.word("t"), al.index("a"))])
        assert len(rels) == 10
        assert all(len(r) <= bs2.bound_k + 1 for r in rels)
        assert al.word("T a a t A") in rels

    def test_z2_commutator_closure_has_eight_words(self, z2struct):
        al = z2struct.alphabet
        rels = stacking_relation_set(z2struct, [(al.word("b"), al.index("a"))])
        assert len(rels) == 8
        assert al.word("a b A B") in rels

    @pytest.mark.parametrize(
        "name, radius", [("bs1p:2", 6), ("bs1p:3", 6), ("crs:z2", 20), ("crs:bs12", 5)]
    )
    def test_seeds_are_cyclically_reduced(self, structures, name, radius):
        # every seed phi(e) a^-1 over the recursive edges of the regions that
        # the verification jobs search, so the closure of these seeds is
        # closed under rotation (symmetrized_closure's docstring)
        s = structures[name]()
        inv = s.alphabet.inverse
        seeds = {
            s.phi(e.source.canonical, e.label).append(inv[e.label])
            for e in build_ball(s, radius + 1).edges
            if e.classification is EdgeKind.RECURSIVE
        }
        assert seeds
        for r in seeds:
            assert r.is_freely_reduced() and r.letters[-1] != inv[r.letters[0]], r

    def test_oversized_relator_rejected(self, bs2):
        al = bs2.alphabet
        squeezed = StackingStructure(al, bs2.normal_form, bs2.phi, bound_k=2)
        with pytest.raises(StructureError):
            stacking_relation_set(squeezed, [(al.word("t"), al.index("a"))])


class TestVerification:
    def test_bs12_passes_small_radius(self, bs2):
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        region = build_ball(oracle, 4)
        ball = build_ball(oracle, 3)
        report = verify_flow_properties(FlowFunction(bs2), ball, region)
        assert report.passed and report.inconclusive == 0

    def test_f1_failure_detected(self, bs2):
        al = bs2.alphabet
        # phi image with the wrong endpoint
        bad = StackingStructure(
            al, bs2.normal_form, lambda y, a: al.word("T t t"), bound_k=4
        )
        oracle = FunctionOracle(al, bad.normal_form)
        region = build_ball(oracle, 3)
        ball = build_ball(oracle, 2)
        report = verify_flow_properties(FlowFunction(bad), ball, region)
        assert report.f1_failures

    def test_bound_failure_detected(self, bs2):
        al = bs2.alphabet
        squeezed = StackingStructure(al, bs2.normal_form, bs2.phi, bound_k=2)
        oracle = FunctionOracle(al, squeezed.normal_form)
        region = build_ball(oracle, 3)
        ball = build_ball(oracle, 2)
        report = verify_flow_properties(FlowFunction(squeezed), ball, region)
        assert report.bound_failures and not report.passed

    def test_cycle_detected(self, z2S):
        al = z2S.alphabet
        from stackings import reduce_to_irreducible

        nf = lambda w: reduce_to_irreducible(z2S, w)
        # send the recursive edge (b, a) on a loop through itself:
        # b -a-> ... path b a A a, whose middle edge (b, a) is itself
        cyclic = StackingStructure(al, nf, lambda y, a: al.word("a A a"), bound_k=3)
        oracle = FunctionOracle(al, nf)
        region = build_ball(oracle, 3)
        ball = build_ball(oracle, 2)
        report = verify_flow_properties(FlowFunction(cyclic), ball, region)
        assert report.cycle is not None

    def test_report_json_round_trip(self, bs2):
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        ball = build_ball(oracle, 2)
        report = verify_flow_properties(FlowFunction(bs2), ball, build_ball(oracle, 3))
        data = json.loads(report.to_json())
        assert data["passed"] is True and data["radius"] == 2

    def test_inconclusive_when_region_too_small(self, bs2):
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        ball = build_ball(oracle, 3)
        report = verify_flow_properties(FlowFunction(bs2), ball, region=ball)
        # flow paths from radius-3 sources leave B(3)
        assert report.inconclusive > 0

    @pytest.mark.parametrize("n", [20, 1200])
    def test_long_flow_chain_passes(self, n):
        # a chain of n flow edges, longer than Python's recursion limit at
        # n = 1200, is searched for cycles without recursion
        s = long_chain(n)
        region = build_ball(s, n + 2)
        report = verify_flow_properties(FlowFunction(s), region.restricted(n + 1), region)
        assert report.passed and report.cycle is None and report.inconclusive == 0

    @settings(max_examples=200, deadline=None)
    @given(
        hs.dictionaries(
            hs.integers(0, 7), hs.lists(hs.integers(0, 9), max_size=3), max_size=8
        )
    )
    def test_cycle_search_agrees_with_recursive_search(self, successors):
        assert _first_cycle(successors) == first_cycle_reference(successors)

    def test_strictness_failure_reported(self, bs2):
        al = bs2.alphabet
        # phi sends every recursive edge to its own label
        bad = StackingStructure(al, bs2.normal_form, lambda y, a: Word(al, (a,)), bound_k=4)
        region = build_ball(bad, 3)
        report = verify_flow_properties(FlowFunction(bad), region.restricted(2), region)
        assert {"source": "t", "label": "a"} in report.strictness_failures
        assert not report.passed
        assert json.loads(report.to_json())["strictness_failures"] == report.strictness_failures
        with pytest.raises(StructureError):  # the word-level guard stays
            bad.phi(al.word("t"), al.index("a"))

    @pytest.mark.parametrize(
        "name",
        ["bs1p:2", "crs:z2", "shortlex-ac:z2:8:2"],
        ids=["bs12", "z2", "shortlex-ac"],
    )
    def test_phi_called_once_per_region_edge(self, structures, name):
        s = structures[name]()
        calls: Counter = Counter()
        phi = s.phi_fn

        def counted(y, a):
            calls[(y.letters, a)] += 1
            return phi(y, a)

        s.phi_fn = counted
        region = build_ball(s, 4)
        ball = build_ball(s, 3)
        flow = FlowFunction(s)
        report = verify_flow_properties(flow, ball, region)
        assert report.passed and calls
        # a tree edge is its own flow path: the flow keeps a record, and phi
        # is read, once per recursive edge of the region and never elsewhere
        recursive = {
            (e.source.canonical.letters, e.label)
            for e in region.edges
            if e.classification is EdgeKind.RECURSIVE
        }
        assert set(flow._records) == recursive == set(calls)
        assert max(calls.values()) == 1
        for f in flow._records.values():
            assert f.path is None or all(p.classification is EdgeKind.RECURSIVE for p in f.path)
        # the geodesic check of the same region reads the flow's records
        calls.clear()
        verify_geodesic_stacking(flow, ball, region)
        assert not calls
        # another region starts a new table: the ball's sphere lies outside it
        inner = ball.restricted(2)
        fresh = verify_flow_properties(FlowFunction(s), ball, inner)
        assert verify_flow_properties(flow, ball, inner).to_json() == fresh.to_json()
        assert fresh.inconclusive > 0

    @pytest.mark.parametrize("name", ["bs1p:2", "crs:z2", "shortlex-ac:z2:8:2", "F1", "bound"])
    @pytest.mark.parametrize("radius, region_radius", [(3, 4), (3, 3), (3, 2)])
    def test_region_searched_on_another_tree(self, structures, name, radius, region_radius):
        # balls searched on the words of the normal form, as the benchmark
        # searches them, give the reports of restrictions of the structure's
        # own ball; a larger region is a second search, with its own records
        make = structures[name] if name in structures else lambda: defective(name)

        def reports(s, ball, region):
            flow = FlowFunction(s)
            return [
                verify_flow_properties(flow, ball, region).to_json(),
                verify_geodesic_stacking(flow, ball, region).to_json(),
            ]

        s = make()
        oracle = FunctionOracle(s.alphabet, s.normal_form)
        got = reports(s, build_ball(oracle, radius), build_ball(oracle, region_radius))
        own = make()
        searched = build_ball(own, max(radius, region_radius))
        assert got == reports(own, searched.restricted(radius), searched.restricted(region_radius))


def long_chain(n: int) -> StackingStructure:
    """Z over a A b B with b = a, normal forms a^m and A^m, and a flow in
    which the edge from a^m by B, for 0 <= m < n, runs through the edge
    from a^(m+1) by B: every flow chain ends at a^n."""
    al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
    a, A, b, B = range(4)

    def normal_form(w: Word) -> Word:
        m = sum(1 if c in (a, b) else -1 for c in w.letters)
        return Word(al, (a,) * m if m >= 0 else (A,) * -m)

    def phi(y: Word, c: int) -> Word:
        if c == b:
            return al.word("a")
        m = len(y) if not y.letters or y.letters[0] == a else -len(y)
        return al.word("a B A") if 0 <= m < n else al.word("A")

    return StackingStructure(al, normal_form, phi, bound_k=3, name=f"chain:{n}")


def defective(name: str) -> StackingStructure:
    """The structures with a known defect that the verification tests use."""
    bs2 = bs1p_structure(2)
    al = bs2.alphabet
    if name == "F1":  # phi images with the wrong endpoint
        return StackingStructure(al, bs2.normal_form, lambda y, a: al.word("T t t"), bound_k=4)
    if name == "bound":
        return StackingStructure(al, bs2.normal_form, bs2.phi, bound_k=2)
    z2 = z2_system()
    nf = lambda w: reduce_to_irreducible(z2, w)  # noqa: E731
    if name == "empty":
        return StackingStructure(al, bs2.normal_form, lambda y, a: al.empty(), bound_k=4)
    if name == "label":
        return StackingStructure(al, bs2.normal_form, lambda y, a: Word(al, (a,)), bound_k=4)
    # name == "cycle": the recursive edge (b, a) flows through itself
    return StackingStructure(z2.alphabet, nf, lambda y, a: z2.alphabet.word("a A a"), bound_k=3)


# The defects of ``defective``, each with the report field it fails.
DEFECTS = {
    "F1": "f1_failures",
    "bound": "bound_failures",
    "cycle": "cycle",
    "empty": "f1_failures",
    "label": "strictness_failures",
}
# The largest radius each structure is verified at.
RADII = {"bs1p:2": 5, "bs1p:3": 4, "crs:z2": 10, "crs:bs12": 3, "shortlex-ac:z2:8:2": 5}


class TestAgainstWordLevelReference:
    """The reports of verification on tree nodes are those of verification
    on whole words, on balls built by the word-level search."""

    @staticmethod
    def check(make, radius, region_radius=None):
        # the region is B(radius + 1) unless its radius is given
        if region_radius is None:
            region_radius = radius + 1
        ref = make()
        ref_ball = build_ball_reference(ref, radius)
        ref_region = (
            ref_ball if region_radius == radius else build_ball_reference(ref, region_radius)
        )
        s = make()
        region = build_ball(s, max(radius, region_radius))
        ball = region.restricted(radius)
        if region_radius < radius:
            region = region.restricted(region_radius)
        flow, ref_flow = FlowFunction(s), FlowFunction(ref)
        report = verify_flow_properties(flow, ball, region)
        assert report.to_json() == verify_flow_reference(ref_flow, ref_ball, ref_region).to_json()
        geo = verify_geodesic_stacking(flow, ball, region)
        assert geo.to_json() == verify_geodesic_reference(ref_flow, ref_ball, ref_region).to_json()
        return report

    @pytest.mark.parametrize("name", sorted(RADII))
    def test_builtin_structures(self, structures, name):
        for radius in range(RADII[name] + 1):
            assert self.check(structures[name], radius).passed

    @pytest.mark.parametrize("name", ["crs:z2", "crs:bs12", "bs1p:2"])
    def test_region_is_the_ball(self, structures, name):
        report = self.check(structures[name], RADII[name], RADII[name])
        # flow paths from the sphere of BS(1,2) leave the ball
        assert report.inconclusive > 0 or name != "bs1p:2"

    @pytest.mark.parametrize("name", ["crs:z2", "bs1p:2"])
    def test_region_inside_the_ball(self, structures, name):
        # the edges from the ball's sphere have ends outside the region
        for radius in range(1, RADII[name] + 1):
            assert self.check(structures[name], radius, radius - 1).inconclusive > 0

    @pytest.mark.parametrize("name, failures", list(DEFECTS.items()))
    def test_defective_structures(self, name, failures):
        for radius in range(4):
            report = self.check(lambda: defective(name), radius)
            # and on a region inside the ball, which flow paths leave
            self.check(lambda: defective(name), radius + 1, radius)
        assert getattr(report, failures) and not report.passed

    @settings(max_examples=25, deadline=None)
    @given(data=hs.data())
    def test_hypothesis_structures_and_radii(self, structures, data):
        name = data.draw(hs.sampled_from(sorted(RADII) + sorted(DEFECTS)))
        make = structures[name] if name in structures else lambda: defective(name)
        radius = data.draw(hs.integers(0, RADII.get(name, 3)))
        self.check(make, radius, radius + data.draw(hs.integers(-1, 1)))


# The benchmark's verify-balls jobs: a structure and the radius of the ball
# it is verified on, whose region is one larger; "ac:z2" is an almost
# convexity check of Z^2 with k = 2 up to the radius.
VERIFY_JOBS = [("crs:z2", 20), ("crs:bs12", 5), ("bs1p:2", 6), ("shortlex-ac:z2:10:2", 7), ("ac:z2", 10)]
# The balls and the flow, geodesic and almost convexity reports of those
# jobs, as their json texts; computed while ball records were frozen
# dataclasses and flow verification built a Fraction per alpha it compared.
VERIFY_SHA256 = "39e5556528be2d6a3b94ff7fe7a0e821b97dc3a6f511917674335f20b27ac42e"


def test_verification_outputs_pinned():
    z2, bs12 = z2_system(), bs12_system()
    z2_oracle = FunctionOracle(z2.alphabet, lambda w: reduce_to_irreducible(z2, w))
    makers = {
        "crs:z2": lambda: crs_structure(z2),
        "crs:bs12": lambda: crs_structure(bs12),
        "bs1p:2": lambda: bs1p_structure(2),
        "shortlex-ac:z2:10:2": lambda: shortlex_ac_structure(z2_oracle, 10, 2),
    }
    digest = hashlib.sha256()
    for name, radius in VERIFY_JOBS:
        if name == "ac:z2":
            texts = [almost_convexity_check(z2_oracle, radius, 2).to_json()]
        else:
            # as the benchmark searches them: on the words of the normal form
            s = makers[name]()
            oracle = FunctionOracle(s.alphabet, s.normal_form)
            region, ball = build_ball(oracle, radius + 1), build_ball(oracle, radius)
            flow = FlowFunction(s)
            texts = [
                ball_to_json(ball),
                ball_to_json(region),
                verify_flow_properties(flow, ball, region).to_json(),
                verify_geodesic_stacking(flow, ball, region).to_json(),
            ]
            # and the search on the structure's own tree finds the same ball
            assert ball_to_json(build_ball(makers[name](), radius)) == texts[0]
        for text in texts:
            digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == VERIFY_SHA256


class TestGeodesicVerification:
    def test_bs12_normal_forms_not_geodesic(self, bs2):
        oracle = FunctionOracle(bs2.alphabet, bs2.normal_form)
        region = build_ball(oracle, 7)
        ball = build_ball(oracle, 6)
        report = verify_geodesic_stacking(FlowFunction(bs2), ball, region)
        assert report.nongeodesic  # e.g. a^8 at distance 6
        assert not report.passed

    def test_z2_crs_is_geodesic(self, z2struct):
        oracle = FunctionOracle(z2struct.alphabet, z2struct.normal_form)
        region = build_ball(oracle, 4)
        ball = build_ball(oracle, 3)
        report = verify_geodesic_stacking(FlowFunction(z2struct), ball, region)
        assert not report.nongeodesic


@pytest.fixture(scope="module")
def fresh():
    """Makers of a new structure of each kind; a crs one steps on its
    system's shared trie."""
    z2, bs12 = z2_system(), bs12_system()
    return {
        "bs1p:2": lambda: bs1p_structure(2),
        "bs1p:3": lambda: bs1p_structure(3),
        "z2": lambda: crs_structure(z2),
        "bs12": lambda: crs_structure(bs12),
    }


@pytest.fixture(scope="module")
def warm(fresh):
    """One structure of each kind, kept across examples, so that its memo of
    word-level normal forms and its kept reduction steps fill up."""
    return {name: make() for name, make in fresh.items()}


def longest_prefix_normal_form(s, w):
    y, longest = s.alphabet.empty(), 0
    for a in w:
        y = s.normal_form(y.append(a))
        longest = max(longest, len(y))
    return longest


class TestReductionAgainstWordReference:
    """The reduction gives the normal form and the step count of stacking
    reduction done on whole words."""

    @pytest.mark.parametrize("name", ["bs1p:2", "bs1p:3", "z2", "bs12"])
    @settings(max_examples=60, deadline=None)
    @given(data=hs.data())
    def test_hypothesis_words(self, fresh, warm, name, data):
        s = warm[name]
        n = len(s.alphabet)
        w = Word(s.alphabet, tuple(data.draw(hs.lists(hs.integers(0, n - 1), max_size=40))))
        # the reference copies the whole letter list at each step
        assume(longest_prefix_normal_form(s, w) <= 400)
        expected = stacking_reduce_reference(s, w)
        # kept reduction steps change nothing: a cold structure and a warm one agree
        assert stacking_reduce_steps(fresh[name](), w) == expected
        assert stacking_reduce_steps(s, w) == expected

    @pytest.mark.parametrize(
        "name, relators",
        [
            ("bs1p:2", ["t a T A A"]),
            ("bs1p:3", ["t a T A A A"]),
            ("z2", ["a b A B"]),
            ("bs12", ["t a T A A", "d A A"]),
        ],
    )
    def test_random_trivial_words(self, warm, name, relators):
        s = warm[name]
        rels = [s.alphabet.word(r) for r in relators]
        for w in random_trivial_words(s.alphabet, rels, count=150, max_len=24, seed=20261018):
            nf, steps = stacking_reduce_steps(s, w)
            assert (nf, steps) == stacking_reduce_reference(s, w) and len(nf) == 0

    @pytest.mark.parametrize("n", range(9))
    def test_bs12_commutators(self, n):
        s = bs1p_structure(2)
        u = ["t"] * n + ["a"] + ["T"] * n
        u_inv = ["t"] * n + ["A"] + ["T"] * n
        w = s.alphabet.word(" ".join(u + ["a"] + u_inv + ["A"]))
        assert stacking_reduce_steps(s, w) == stacking_reduce_reference(s, w)


class TestKeptSteps:
    """A structure keeps each completed reduction of a recursive edge, and
    what it kept cannot be seen in a count, a budget boundary or an error."""

    COMMUTATOR = "t t t t a T T T T a t t t t A T T T T A"  # [t^4 a T^4, a]

    @staticmethod
    def budget_boundary(s, w, n):
        with pytest.raises(BudgetExceededError, match="well-foundedness"):
            stacking_reduce_steps(s, w, budget=n - 1)
        assert stacking_reduce_steps(s, w, budget=n) == (s.alphabet.empty(), n)

    @pytest.mark.parametrize("warm_up", ["", "t t t t a T T T T", "t t t a T T T"])
    def test_budget_boundary(self, warm_up):
        s = bs1p_structure(2)
        al = s.alphabet
        w = al.word(self.COMMUTATOR)
        n = stacking_reduce_reference(s, w)[1]
        # a kept step for t^4 a T^4 is taken whole, and one for t^3 a T^3
        # inside the image of (t^4, a): each spends its count at once
        stacking_reduce_steps(s, al.word(warm_up))
        self.budget_boundary(s, w, n)
        self.budget_boundary(s, w, n)  # every step of w kept

    def test_each_budget_on_a_warm_structure(self):
        s = bs1p_structure(2)
        w = s.alphabet.word(self.COMMUTATOR)
        n = stacking_reduce_steps(s, w)[1]
        for budget in range(n + 1):
            outcomes = []
            for t in (s, bs1p_structure(2)):
                try:
                    outcomes.append(stacking_reduce_steps(t, w, budget=budget))
                except BudgetExceededError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1]
            assert isinstance(outcomes[0], str) == (budget < n)

    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: bs1p_structure(3), "t a T a t A T A"),
            (lambda: crs_structure(bs12_system()), "t a T A A t d T"),
        ],
        ids=["bs1p:3", "bs12"],
    )
    def test_repeated_word_asks_no_phi(self, make, text):
        s = make()
        w = s.alphabet.word(text)
        first = stacking_reduce_steps(s, w)
        calls, phi = [], s.phi_fn
        s.phi_fn = lambda y, a: calls.append((y, a)) or phi(y, a)
        assert stacking_reduce_steps(s, w) == first and first[1] > 0
        assert calls == []

    def test_first_structure_error_again(self, bs2):
        al = bs2.alphabet
        # phi's images from a node that ends t t are too long
        phi = lambda y, a: bs2.phi_fn(y, a) if y.k < 2 else al.word("T a a t a A")  # noqa: E731
        s = StackingStructure(al, bs2.normal_form, phi, bound_k=4, tree=bs2.tree)
        w = al.word("t a T t t a T T")
        for _ in range(2):  # the second time, the reduction of (t, a) is kept
            with pytest.raises(StructureError, match=r"phi on \(a a t t, a\) .* longer than k"):
                stacking_reduce_steps(s, w)
        assert s._steps

    def test_run_that_ends_off_target_is_not_kept(self):
        s = defective("F1")  # the image of (t, a) runs to t t, not to a a t
        al = s.alphabet
        for _ in range(2):
            with pytest.raises(StructureError, match="produced t but oracle says a a"):
                stacking_reduce_steps(s, al.word("t a T"))
        assert s._steps == {}


class TestLinearWork:
    """Reduction costs O(steps * k): it steps once per letter read, and
    spells one word, however long the prefix normal forms get."""

    @pytest.mark.parametrize(
        "make, words",
        [
            (
                lambda: bs1p_structure(2),
                # [t^n a T^n, a], whose prefix t^n a has the normal form a^(2^n) t^n
                [" ".join(["t"] * n + ["a"] + ["T"] * n + ["a"] + ["t"] * n + ["A"] + ["T"] * n + ["A"])
                 for n in (1, 4, 8, 12)] + ["t a T A A", "T a t a a T A t"],
            ),
            (
                lambda: crs_structure(z2_system()),
                [" ".join(["b"] * n + ["a"] * n + ["B"] * n + ["A"] * n) for n in (1, 4, 16, 64)]
                + ["b a B A b b a"],
            ),
        ],
        ids=["bs12", "z2"],
    )
    def test_step_and_word_calls(self, make, words):
        s = make()
        calls: Counter = Counter()
        for name in ("step", "move", "word"):
            fn = getattr(s.tree, name)
            setattr(s.tree, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
        for text in words:
            w = s.alphabet.word(text)
            calls.clear()
            _, steps = stacking_reduce_steps(s, w)
            assert calls["step"] <= 2 * len(w) + steps * (s.bound_k + 1)
            # the check's walk moves at most once per letter, and the loop
            # once per letter read: w's, and at most k for each step
            assert calls["move"] <= 2 * len(w) + steps * s.bound_k
            assert calls["word"] == 1
