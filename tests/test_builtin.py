import gc
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from oracles import (
    affine_eval,
    all_words,
    almost_convexity_reference,
    classify,
    fold,
    least_connecting_word_reference,
    leftmost_reduce,
    move_reference,
    shortlex_representatives,
    thompson_f_direct,
)
from stackings import (
    AlmostConvexityError,
    Alphabet,
    BudgetExceededError,
    EdgeKind,
    FormatError,
    FunctionOracle,
    OutsideExploredRegionError,
    RewriteRule,
    RewritingSystem,
    StructureError,
    Word,
    almost_convexity_check,
    bs12_system,
    bs1p_structure,
    build_ball,
    crs_structure,
    expsum_x0,
    load_rewriting_system,
    prefix_rewrite_length,
    reduce_to_irreducible,
    shortlex_ac_structure,
    stacking_reduce_steps,
    thompson_alphabet,
    thompson_f_in_C,
    z2_system,
)
from stackings import builtin
from stackings.builtin import BS1pElement, _bs_normalize, _ShortlexTree


class TestBS1p:
    def test_normalize_collapses_divisible_middle(self):
        # t^-1 a^4 t = a^2 in BS(1,2)
        assert _bs_normalize(2, 1, 4, 1) == BS1pElement(0, 2, 0)

    def test_normal_forms_match_affine_representation(self, bs2):
        # the affine oracle a -> x+1, t -> 2x separates BS(1,2) elements
        al = bs2.alphabet
        seen = {}
        for w in all_words(al, 6):
            nf = bs2.normal_form(w)
            key = affine_eval(w)
            assert affine_eval(nf) == key
            assert seen.setdefault(key, nf.letters) == nf.letters

    def test_phi_t_edge_positive(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("T a a"), al.index("t"))) == "A A t a"

    def test_phi_t_edge_negative(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("a"), al.index("T"))) == "A T a a"

    def test_phi_a_edge(self, bs2):
        al = bs2.alphabet
        assert str(bs2.phi(al.word("t"), al.index("A"))) == "T A A t"

    def test_phi_rejects_degenerate_queries(self, bs2):
        al = bs2.alphabet
        with pytest.raises(StructureError):
            bs2.phi(al.word("a"), al.index("a"))  # a^m by a: degenerate
        with pytest.raises(StructureError):
            bs2.phi(al.word("T T"), al.index("T"))  # m = 0: degenerate

    @pytest.mark.parametrize("p", [2, 3])
    def test_phi_refuses_exactly_the_tree_edges(self, p):
        s = bs1p_structure(p)
        tree = s.tree
        for key in build_ball(s, 4).elements:
            y = tree.node(Word(s.alphabet, key))
            for a in range(len(s.alphabet)):
                try:
                    s.phi_fn(y, a)
                except StructureError:
                    refused = True
                else:
                    refused = False
                assert refused == tree.move(y, a)[1], (tree.word(y), a)

    def test_phi_refuses_t_from_a_power_prime_to_p(self, bs2):
        # T a t is a normal form: p does not divide m = 1
        al, tree = bs2.alphabet, bs2.tree
        assert bs2.is_degenerate(al.word("T a"), al.index("t"))
        with pytest.raises(StructureError, match="not recursive"):
            bs2.phi_fn(tree.node(al.word("T a")), al.index("t"))

    def test_p3(self):
        bs3 = bs1p_structure(3)
        al = bs3.alphabet
        assert str(bs3.normal_form(al.word("t a T"))) == "a a a"
        assert str(bs3.phi(al.word("t"), al.index("a"))) == "T a a a t"
        assert bs3.bound_k == 5

    def test_bound_is_p_plus_two(self, bs2):
        assert bs2.bound_k == 4

    def test_p_below_two_rejected(self):
        with pytest.raises(FormatError):
            bs1p_structure(1)


@pytest.fixture(scope="module")
def warm_bs():
    """One BS(1,p) structure per p, kept across examples, so its memo of
    the elements of returned normal forms fills up."""
    return {p: bs1p_structure(p) for p in (2, 3)}


class TestBS1pStep:
    @pytest.mark.parametrize("p", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=hs.data())
    def test_agrees_with_affine_oracle(self, warm_bs, p, data):
        s = warm_bs[p]
        al = s.alphabet
        u = Word(al, tuple(data.draw(hs.lists(hs.integers(0, 3), max_size=10))))
        x = data.draw(hs.integers(0, 3))
        y = s.normal_form(u)
        # u's prefix is seldom a normal form returned before; y's always is.
        # The oracle functions are called directly.
        for w in (u, y.append(x)):
            nf = s.normal_form_fn(w)
            assert affine_eval(nf, p) == affine_eval(w, p)
            assert nf == bs1p_structure(p).normal_form_fn(w)  # replayed
        if not s.is_degenerate(y, x):
            g = s.tree.node(y)  # kept by the memo
            fresh = bs1p_structure(p)
            assert g == fold(fresh, y)  # replayed
            img = s.phi_fn(g, x)
            assert affine_eval(y * img, p) == affine_eval(y.append(x), p)
            assert img == fresh.phi_fn(g, x)

    @pytest.mark.parametrize("p, n", [(2, 4), (3, 3)])
    def test_reduction_multiplies_linearly(self, monkeypatch, p, n):
        # the tree's move is its one multiplication; its step is a move
        calls = []
        move = builtin._BS1pTree.move
        monkeypatch.setattr(
            builtin._BS1pTree, "move", lambda *args: calls.append(1) or move(*args)
        )
        s = bs1p_structure(p)
        u = ["t"] * n + ["a"] + ["T"] * n
        w = s.alphabet.word(" ".join(u + ["a"] + u + ["A"]))
        _, steps = stacking_reduce_steps(s, w)
        assert len(calls) <= 2 * (len(w) + steps * (p + 2))


def trie_size(root) -> int:
    """The number of nodes of the trie below ``root``, itself included."""
    return 1 + sum(trie_size(child) for child in root.children.values())


def kept_steps(root) -> int:
    """The number of steps kept on the nodes of the trie below ``root``."""
    return len(root.steps or ()) + sum(kept_steps(child) for child in root.children.values())


def finishes(S, budget: int, run) -> bool:
    """Whether ``run`` finishes on the tree of ``crs_structure(S, budget)``,
    rather than running out of budget."""
    try:
        run(crs_structure(S, budget=budget).tree)
    except BudgetExceededError:
        return False
    return True


@pytest.fixture(scope="module")
def stepped():
    """Each system with its trie stepped along every edge of B(3) of its crs
    structure, which keeps the step of every recursive edge there."""
    systems = {}
    for system in (z2_system, bs12_system):
        S = systems[system] = system()
        build_ball(crs_structure(S), 3)
        assert kept_steps(S._trie) > 0
    return systems


@pytest.fixture(scope="module")
def warm_crs():
    """One crs structure per system, kept across examples, so its trie and
    its memo of returned irreducible words fill up."""
    return {system: crs_structure(system()) for system in (z2_system, bs12_system)}


class TestCrsStructure:
    @pytest.mark.parametrize("system", [z2_system, bs12_system])
    @settings(max_examples=150, deadline=None)
    @given(data=hs.data())
    def test_warm_step_agrees_with_leftmost_reference(self, warm_crs, system, data):
        s = warm_crs[system]
        S = system()
        n = len(S.alphabet)
        u = Word(S.alphabet, tuple(data.draw(hs.lists(hs.integers(0, n - 1), max_size=20))))
        x = data.draw(hs.integers(0, n - 1))
        y = s.normal_form(u)
        # u's prefix is seldom an irreducible word returned before; y's always
        # is.  The oracle function is called directly, past the structure's memo.
        for w in (u.append(x), y.append(x)):
            assert s.normal_form_fn(w) == leftmost_reduce(S, w)
        # one step from the node the memo kept for y, and a fold on a new trie
        w = y.append(x)
        want = leftmost_reduce(S, w)
        node = s.tree.step(s.tree.node(y), x)
        assert s.tree.word(node) == want
        assert fold(crs_structure(S), w).letters == node.letters
        # starting from y fires no rule, so the step spends the prefix
        # rewriting steps of y x, counted against the structure's budget
        n = prefix_rewrite_length(S, w)
        tight = crs_structure(S, budget=n)
        assert tight.tree.word(tight.tree.step(fold(tight, y), x)) == want
        if n:
            short = crs_structure(S, budget=n - 1)
            with pytest.raises(BudgetExceededError):
                short.tree.step(fold(short, y), x)

    def test_budget_counts_the_rewrites_of_a_whole_word(self, z2S):
        # b^3 a^3 takes nine prefix rewriting steps, at most three for one letter
        w = z2S.alphabet.word("b b b a a a")
        s = crs_structure(z2S, budget=9)
        assert s.normal_form(w) == z2S.alphabet.word("a a a b b b")
        assert stacking_reduce_steps(s, w) == (z2S.alphabet.word("a a a b b b"), 9)
        s = crs_structure(z2S, budget=8)
        with pytest.raises(BudgetExceededError):
            s.normal_form(w)
        # the reduction's cross-check asks the same normal form
        with pytest.raises(BudgetExceededError, match="not terminating"):
            stacking_reduce_steps(crs_structure(z2S, budget=8), w, budget=10**6)

    def test_structures_step_the_systems_trie(self):
        S = z2_system()
        words = [S.alphabet.word(t) for t in ("b b b a", "B a b A a", "a b A B b b", "B B a")]
        forms = [reduce_to_irreducible(S, w) for w in words]
        size = trie_size(S._trie)
        s, t = crs_structure(S), crs_structure(S)
        for w, y in zip(words, forms):
            assert s.tree.word(fold(s, y)) == y
            assert s.tree.node(w) is t.tree.node(w)
        assert s.tree.root is t.tree.root
        assert trie_size(s.tree.root) == size

    @pytest.mark.parametrize("trie", ["cold", "warm", "inner"])
    def test_budget_boundary_does_not_depend_on_the_trie(self, trie):
        w = Z2.alphabet.word("b b b a")
        n = prefix_rewrite_length(z2_system(), w)
        assert n == 3

        # warm: all words of length <= 4, 41 nodes, and the kept steps of
        # all 60 reducible y a with |y| <= 3, (b b b, a) among them; inner:
        # only b b a, whose kept step (b b, a) the rewriting of b b b a
        # takes after its first rewrite
        words, size, kept = {
            "cold": ([], 1, 0),
            "warm": (list(all_words(Z2.alphabet, 4)), 41, 60),
            "inner": ([Z2.alphabet.word("b b a")], 6, 1),
        }[trie]

        def system():
            S = z2_system()
            for v in words:
                reduce_to_irreducible(S, v)
            assert (trie_size(S._trie), kept_steps(S._trie)) == (size, kept)
            return S

        assert str(crs_structure(system(), budget=n).normal_form(w)) == "a b b b"
        with pytest.raises(BudgetExceededError):
            crs_structure(system(), budget=n - 1).normal_form(w)

    @pytest.mark.parametrize("system", [z2_system, bs12_system])
    @settings(max_examples=100, deadline=None)
    @given(data=hs.data())
    def test_kept_steps_cannot_be_seen(self, stepped, system, data):
        # a trie stepped along every edge of B(3), against fresh tries: the
        # same forms, counts and budget boundaries
        warm = stepped[system]
        al = warm.alphabet
        letters = data.draw(hs.lists(hs.integers(0, len(al) - 1), min_size=1, max_size=20))
        w = Word(al, tuple(letters))
        form, n = reduce_to_irreducible(system(), w), prefix_rewrite_length(system(), w)
        assert form == leftmost_reduce(warm, w)
        assert reduce_to_irreducible(warm, w) == form
        assert prefix_rewrite_length(warm, w) == n
        # a walk spends one budget on w, a step one on y x for y = nf(u)
        y, x = reduce_to_irreducible(warm, w[:-1]), letters[-1]
        m = prefix_rewrite_length(system(), y.append(x))
        assert prefix_rewrite_length(warm, y.append(x)) == m

        def walk(tree):
            for node in tree.walk(tree.root, letters):
                pass
            assert node.letters == form.letters

        def step(tree):
            assert tree.step(tree.node(y), x).letters == form.letters

        for run, k in ((walk, n), (step, m)):
            for make in (system, lambda: warm):
                assert finishes(make(), k, run)
                assert not k or not finishes(make(), k - 1, run)

    def test_a_kept_step_inside_a_step_spends_its_count(self):
        S = z2_system()
        al, a = S.alphabet, S.alphabet.index("a")
        tree = crs_structure(S).tree
        y = tree.node(al.word("a b b"))
        assert tree.word(tree.step(y, a)) == al.word("a a b b")
        assert y.steps[a][1] == prefix_rewrite_length(z2_system(), al.word("a b b a")) == 2
        # a b b b a rewrites its b a, then takes the kept step (a b b, a):
        # three rewrites in all
        y = tree.node(al.word("a b b b"))
        assert not finishes(S, 2, lambda t: t.step(y, a))
        assert y.steps is None  # a step that runs out keeps nothing
        assert finishes(S, 3, lambda t: t.step(y, a))
        assert y.steps[a][1] == prefix_rewrite_length(z2_system(), al.word("a b b b a")) == 3
        # the kept step (a b b b, a) spends the same three
        assert not finishes(S, 2, lambda t: t.step(y, a))
        assert tree.word(tree.step(y, a)) == al.word("a a b b b")

    def test_requires_claimed_complete(self, z2S):
        S = RewritingSystem(z2S.alphabet, z2S.rules, claimed_complete=False)
        with pytest.raises(StructureError):
            crs_structure(S)

    def test_phi_is_conjugated_rule(self, z2struct):
        # y_g = b, a: rule "b a -> a b" factors as u~ a with u~ = b
        al = z2struct.alphabet
        assert str(z2struct.phi(al.word("b"), al.index("a"))) == "B a b"

    def test_phi_rejects_non_minimal_system(self, z2S):
        # "b b a" ends in the lhs of both "b a -> a b" and "b b a -> a b b"
        al = z2S.alphabet
        S = RewritingSystem(
            al,
            z2S.rules + (RewriteRule(al.word("b b a"), al.word("a b b")),),
            claimed_complete=True,
        )
        s = crs_structure(S)
        for _ in range(2):  # nothing is kept, so every call raises
            with pytest.raises(StructureError, match="not minimal"):
                s.phi(al.word("b b"), al.index("a"))

    def test_phi_kept_on_the_node(self):
        # the image of a recursive edge is found once and kept on its trie
        # node, which every structure over the system shares
        S = z2_system()
        al, tree = S.alphabet, crs_structure(S).tree
        y, a = tree.node(al.word("b")), al.index("a")
        assert y.images is None
        image = tree.phi(y, a)
        assert y.images == {a: image} and str(image) == "B a b"
        assert crs_structure(S).tree.phi(y, a) is image


# The four builtin trees, with an oracle that names the element of a word:
# the affine map for BS(1,p) and leftmost rewriting for a system.
Z2, BS12 = z2_system(), bs12_system()
TREES = {
    "bs1p:2": (lambda: bs1p_structure(2), lambda w: affine_eval(w, 2)),
    "bs1p:3": (lambda: bs1p_structure(3), lambda w: affine_eval(w, 3)),
    "z2": (lambda: crs_structure(Z2), lambda w: leftmost_reduce(Z2, w)),
    "bs12": (lambda: crs_structure(BS12), lambda w: leftmost_reduce(BS12, w)),
}


# The trees whose shape is checked: the four builtin ones, and the shortlex
# trees of Z^2 over its two letter orders on a ball that holds every move.
SHAPE_TREES = {
    **{name: lambda make=make: make().tree for name, (make, _) in TREES.items()},
    "shortlex-ac:z2": lambda: _ShortlexTree(crs_structure(Z2), 4, 2),
    "shortlex-ac:z2-reordered": lambda: _ShortlexTree(z2_reordered_oracle(), 4, 2),
}


@pytest.fixture(scope="module")
def trees():
    return {name: make() for name, (make, _) in TREES.items()}


class TestNormalFormTree:
    """Folds of ``step`` against the independent oracles, and the shape of
    the tree: a node's depth, parent and last letter are those of the word
    it spells."""

    @staticmethod
    def check_fold(s, name, w, node, spelled, node_of):
        """``node``, the fold of ``w``, spells the normal form of ``w``'s
        element: for BS(1,p), a word of that element, and one node per
        element; for a system, the irreducible word itself."""
        oracle = TREES[name][1]
        element = oracle(w)
        if name.startswith("bs1p"):
            if node not in spelled:
                spelled[node] = oracle(s.tree.word(node))
            assert spelled[node] == element
            assert node_of.setdefault(element, node) == node
        else:
            assert s.tree.word(node) == element

    @pytest.mark.parametrize("name, max_len", [("bs1p:2", 8), ("bs1p:3", 8), ("z2", 8), ("bs12", 5)])
    def test_all_short_words(self, name, max_len):
        s = TREES[name][0]()
        al, tree = s.alphabet, s.tree
        spelled: dict = {}
        node_of: dict = {}
        stack = [((), tree.root)]  # depth first, one step per word
        while stack:
            letters, node = stack.pop()
            self.check_fold(s, name, Word(al, letters), node, spelled, node_of)
            if len(letters) < max_len:
                stack.extend((letters + (a,), tree.step(node, a)) for a in range(len(al)))

    @pytest.mark.parametrize("name", sorted(TREES))
    @settings(max_examples=60, deadline=None)
    @given(data=hs.data())
    def test_hypothesis_words(self, trees, name, data):
        s = trees[name]
        n = len(s.alphabet)
        w = Word(s.alphabet, tuple(data.draw(hs.lists(hs.integers(0, n - 1), max_size=40))))
        node, deepest = s.tree.root, 0
        for a in w:
            node = s.tree.step(node, a)
            deepest = max(deepest, s.tree.depth(node))
        # the oracles rewrite whole words
        assume(deepest <= 400)
        self.check_fold(s, name, w, node, {}, {})

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_shape(self, name):
        tree = SHAPE_TREES[name]()
        al = tree.alphabet
        assert tree.parent(tree.root) is None and tree.depth(tree.root) == 0
        frontier, seen = [tree.root], {tree.root}
        for _ in range(4):  # the ball of radius 4 around the root, by steps
            nxt = []
            for y in frontier:
                for a in range(len(al)):
                    y_a, tree_edge = tree.move(y, a)
                    assert y_a == tree.step(y, a)
                    word = tree.word(y_a).letters
                    assert tree.depth(y_a) == len(word)
                    forward = word == tree.word(y).letters + (a,)
                    assert (tree.parent(y_a) == y) == forward
                    if word:
                        assert tree.word(tree.parent(y_a)).letters == word[:-1]
                        assert tree.last(y_a) == word[-1]
                    # the kind the tree's move gives is the parent/last one,
                    # which is the comparison of the words
                    assert move_reference(tree, y, a) == (y_a, tree_edge)
                    kind = classify(tree.word(y), a, tree.word(y_a))
                    assert tree_edge == (kind is EdgeKind.DEGENERATE)
                    if y_a not in seen:
                        seen.add(y_a)
                        nxt.append(y_a)
            frontier = nxt


def bs1p_nodes(p: int):
    """Nodes t^-i a^m t^k of BS(1,p) with |m| up to 10^6 and i, k up to 30,
    drawn often at m = 0, at multiples of p and at i or k = 0."""
    small = hs.one_of(hs.just(0), hs.integers(1, 2), hs.integers(0, 30))
    multiple = hs.integers(-(10**6) // p, 10**6 // p).map(lambda x: x * p)
    m = hs.one_of(hs.integers(-2 * p, 2 * p), multiple, hs.integers(-(10**6), 10**6))
    # p may divide m only when i or k is 0; m + 1 is then prime to p
    return hs.one_of(
        hs.builds(
            lambda i, m, k: BS1pElement(i, m + 1 if i and k and not m % p else m, k),
            small, m, small,
        ),
        hs.builds(BS1pElement, hs.integers(1, 30), multiple, hs.just(0)),
    )


F2 = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])

# Trees whose move is checked against the word comparison, with nodes to
# check it at: BS(1,p) nodes by their coordinates, the others as the nodes
# of words up to a length, for a shortlex tree one less than its radius.
MOVE_TREES = {
    "bs1p:2": (lambda: bs1p_structure(2).tree, bs1p_nodes(2)),
    "bs1p:3": (lambda: bs1p_structure(3).tree, bs1p_nodes(3)),
    "bs1p:5": (lambda: bs1p_structure(5).tree, bs1p_nodes(5)),
    "crs:z2": (lambda: crs_structure(Z2).tree, 20),
    "crs:bs12": (lambda: crs_structure(BS12).tree, 20),
    "free": (lambda: FunctionOracle(F2, Word.free_reduce), 20),
    "shortlex-ac:z2": (lambda: _ShortlexTree(crs_structure(Z2), 6, 2), 5),
    "shortlex-ac:z2-reordered": (lambda: _ShortlexTree(z2_reordered_oracle(), 6, 2), 5),
}


@pytest.fixture(scope="module")
def move_trees():
    return {name: make() for name, (make, _) in MOVE_TREES.items()}


class TestMove:
    """A tree's move is its step together with the kind of the edge, the
    kind being the comparison of the two normal-form words."""

    @pytest.mark.parametrize("name", sorted(MOVE_TREES))
    @settings(max_examples=200, deadline=None)
    @given(data=hs.data())
    def test_move_is_step_and_word_comparison(self, move_trees, name, data):
        tree, nodes = move_trees[name], MOVE_TREES[name][1]
        n = len(tree.alphabet)
        if isinstance(nodes, int):
            w = data.draw(hs.lists(hs.integers(0, n - 1), max_size=nodes))
            y = tree.node(Word(tree.alphabet, tuple(w)))
        else:
            y = data.draw(nodes)
        a = data.draw(hs.integers(0, n - 1))
        t = tree.step(y, a)
        # Words one letter apart differ in length by one.  Only those are
        # spelled, and not kept by the tree: a BS(1,p) step by a from
        # t^-i a^m t^k adds p^k letters, too many to spell for large k.
        kind = EdgeKind.RECURSIVE
        if abs(tree.depth(t) - tree.depth(y)) == 1:
            kind = classify(Word(tree.alphabet, y.letters), a, Word(tree.alphabet, t.letters))
        assert tree.move(y, a) == (t, kind is EdgeKind.DEGENERATE)


class TestShortlexAC:
    @pytest.mark.parametrize("group, radius", [("z2", 6), ("bs12", 5), ("f2", 6)])
    def test_shortlex_ball_matches_enumeration(self, group, radius, z2oracle, bs2):
        f2 = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        oracle = {"z2": z2oracle, "bs12": bs2, "f2": FunctionOracle(f2, Word.free_reduce)}[group]
        tree = _ShortlexTree(oracle, radius, 2)
        expected = shortlex_representatives(
            oracle.alphabet, lambda w: oracle.normal_form(w).letters, radius
        )
        assert tree.slex == expected
        assert {tree.slex[key].letters: g.distance for key, g in tree.ball.elements.items()} == {
            w.letters: len(w) for w in expected.values()
        }

    def test_normal_forms_are_shortlex_least(self, z2oracle):
        st = shortlex_ac_structure(z2oracle, ball_radius=3, k_ac=2)
        al = st.alphabet
        assert str(st.normal_form(al.word("b a"))) == "a b"
        assert str(st.normal_form(al.word("B b"))) == ""

    def test_case2_appends_last_letter(self, z2oracle):
        # b -> ab gains length: phi = (path b to a in B(1)) + b
        st = shortlex_ac_structure(z2oracle, ball_radius=4, k_ac=2)
        al = st.alphabet
        assert str(st.phi(al.word("b"), al.index("a"))) == "B a b"

    def test_case3_prepends_inverse_letter(self, z2oracle):
        # ab -> b loses length: phi = b^-1 + (path a to b in B(1))
        st = shortlex_ac_structure(z2oracle, ball_radius=4, k_ac=2)
        al = st.alphabet
        assert str(st.phi(al.word("a b"), al.index("A"))) == "B A b"

    def test_degenerate_queries_rejected(self, z2oracle):
        st = shortlex_ac_structure(z2oracle, ball_radius=4, k_ac=2)
        al = st.alphabet
        with pytest.raises(StructureError):
            st.phi(al.word("a"), al.index("b"))

    def test_case1_avoids_edge_on_sphere(self, c3_oracle):
        # cyclic of order 3: the edge a -> a^2 joins two sphere-S(1)
        # elements; the connecting path must dip into B(0), so phi is the
        # detour "A A", never the edge label itself
        st = shortlex_ac_structure(c3_oracle, ball_radius=2, k_ac=2)
        al = st.alphabet
        assert str(st.phi(al.word("a"), al.index("a"))) == "A A"

    def test_refutation_raises(self, c5_oracle):
        # cyclic of order 5: a^2 and a^3 lie on S(2) but every connecting
        # path inside B(2) has length 4
        st = shortlex_ac_structure(c5_oracle, ball_radius=3, k_ac=2)
        al = st.alphabet
        with pytest.raises(AlmostConvexityError):
            st.phi(al.word("a a"), al.index("a"))

    def test_detour_found_with_larger_constant(self, c5_oracle):
        st = shortlex_ac_structure(c5_oracle, ball_radius=3, k_ac=4)
        al = st.alphabet
        assert str(st.phi(al.word("a a"), al.index("a"))) == "A A A A"

    def test_outside_explored_region(self, z2oracle):
        st = shortlex_ac_structure(z2oracle, ball_radius=3, k_ac=2)
        with pytest.raises(OutsideExploredRegionError):
            st.normal_form(st.alphabet.word("a a a a"))

    def test_negative_constant_rejected(self):
        # before the ball is searched: the oracle is never read
        with pytest.raises(FormatError, match="k >= 0"):
            shortlex_ac_structure(None, ball_radius=3, k_ac=-1)


def z2_reordered_oracle() -> FunctionOracle:
    """Z^2 over the order a < b < B < A, in which a letter's inverse comes
    after the other pair's: normal forms a^x b^y, by exponent sums."""
    al = Alphabet.from_pairs(("a", "b", "B", "A"), [("a", "A"), ("b", "B")])
    sign = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}

    def nf(w: Word) -> Word:
        x = sum(sign[al.tokens[i]][0] for i in w)
        y = sum(sign[al.tokens[i]][1] for i in w)
        a, b = al.index("a" if x > 0 else "A"), al.index("b" if y > 0 else "B")
        return Word(al, (a,) * abs(x) + (b,) * abs(y))

    return FunctionOracle(al, nf)


class TestLeastConnectingWord:
    """The search over the ball's edges finds the word that trying every
    word in shortlex order finds, for every pair of elements of B(bound)."""

    @pytest.mark.parametrize(
        "group, radius",
        [("z2", 4), ("z2-reordered", 3), ("bs12", 3), ("f2", 3), ("c3", 2), ("c5", 3)],
    )
    def test_agrees_with_trying_every_word(
        self, group, radius, z2oracle, bs2, c3_oracle, c5_oracle
    ):
        f2 = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        oracle = {
            "z2": z2oracle, "z2-reordered": z2_reordered_oracle(), "bs12": bs2,
            "f2": FunctionOracle(f2, Word.free_reduce), "c3": c3_oracle, "c5": c5_oracle,
        }[group]
        box = _ShortlexTree(oracle, radius, 2)
        words = sorted(box.slex.values(), key=Word.shortlex_key)
        for bound in range(radius + 1):
            inside = [z for z in words if len(z) <= bound]
            for k in (1, 2, 3):
                for start in inside:
                    for goal in inside:
                        assert box.least_connecting_word(
                            start, goal, k, bound
                        ) == least_connecting_word_reference(box, start, goal, k, bound)


class TestShortlexTree:
    """The shortlex tree moves inside its ball along the edges the ball's
    search took.  Its moves are those of the tree of its own ``fn``,
    which resolves every word through the base oracle, and those its shape
    gives; off the ball, both raise alike."""

    @pytest.mark.parametrize("name", ["bs1p:2", "crs:z2", "shortlex-ac:z2:8:2"])
    def test_tree_freed_by_reference_count(self, structures, name):
        # a tree that is part of no reference cycle dies with its structure,
        # with no cyclic collection
        s = structures[name]()
        build_ball(s, 3)
        s.normal_form(Word(s.alphabet, (0, 2, 0, 2)))
        tree = weakref.ref(s.tree)
        gc.disable()
        try:
            del s
            assert tree() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("group", ["z2", "z2-reordered"])
    def test_moves_are_the_function_oracle_moves(self, group, z2oracle):
        oracle = {"z2": z2oracle, "z2-reordered": z2_reordered_oracle()}[group]
        tree = _ShortlexTree(oracle, 5, 2)
        old = FunctionOracle(tree.alphabet, tree.fn)
        # over the reordered Z^2 the shortlex words are not the base forms
        assert any(z != key for z, key in tree.key.items()) == (group == "z2-reordered")
        for y in sorted(tree.slex.values(), key=Word.shortlex_key):
            for a in range(len(tree.alphabet)):
                try:
                    want = old.move(y, a)
                except OutsideExploredRegionError as exc:
                    assert len(y) == 5
                    with pytest.raises(OutsideExploredRegionError) as got:
                        tree.move(y, a)
                    assert str(got.value) == str(exc)
                    continue
                assert tree.move(y, a) == want == move_reference(tree, y, a)
                assert tree.step(y, a) == want[0]

    def test_moves_inside_the_ball_ask_no_oracle(self):
        # its shortlex words are not its base forms, so asking the base
        # oracle for y a would ask it words the ball's search did not
        base, asked = z2_reordered_oracle(), []
        nf = base.fn
        base.fn = lambda w: asked.append(w) or nf(w)
        tree = _ShortlexTree(base, 4, 2)
        before = len(asked)
        moves = [tree.move(y, a) for y in tree.slex.values() if len(y) < 4 for a in range(4)]
        assert len(moves) == 4 * 25 and len(asked) == before
        # a move off the ball is refused by the ball alone, also from a
        # shortlex word that is not its base form
        edges = tree.ball.edge_index
        off = [
            (y, a) for y in tree.slex.values() for a in range(4)
            if (tree.key[y.letters], a) not in edges
        ]
        assert any(tree.key[y.letters] != y.letters for y, _ in off)
        for y, a in off:
            with pytest.raises(OutsideExploredRegionError) as exc:
                tree.move(y, a)
            assert str(exc.value) == f"{y.append(a)} leaves the explored ball of radius 4"
        assert len(asked) == before

    @pytest.mark.parametrize("system, radius, counts, leaving", [
        ("z2", 2, (13, 32), "a a a"),
        ("z2", 3, (25, 72), "a a a a"),
        ("z2", 5, (61, 200), "a a a a a a"),
        ("bs12", 2, (25, 92), "a d d"),
        ("bs12", 3, (65, 264), "a d d d"),
    ])
    def test_ball_of_its_own_radius(self, system, radius, counts, leaving):
        # the last pass of the search moves off the ball from its sphere;
        # those moves leave the ball, which is the base structure's.  One
        # more radius moves off it before the last pass, and is refused
        make = {"z2": z2_system, "bs12": bs12_system}[system]
        base = build_ball(crs_structure(make()), radius)
        ball = build_ball(_ShortlexTree(crs_structure(make()), radius, 2), radius)
        assert (len(ball.elements), len(ball.edges)) == counts
        assert (len(base.elements), len(base.edges)) == counts
        with pytest.raises(OutsideExploredRegionError) as exc:
            build_ball(_ShortlexTree(crs_structure(make()), radius, 2), radius + 1)
        assert str(exc.value) == f"{leaving} leaves the explored ball of radius {radius}"


class TestAlmostConvexityCheck:
    @pytest.mark.parametrize(
        "group, n_max, k",
        [("z2", 3, 1), ("z2", 3, 2), ("f2", 3, 2), ("c5", 2, 2), ("c5", 3, 4), ("bs12", 3, 2)],
    )
    def test_report_equals_the_search_per_pair(self, group, n_max, k, z2oracle, bs2, c5_oracle):
        # BS(1,2) is not almost convex: at k = 2 some pairs of S(3) are
        # joined only through S(4)
        f2 = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        oracle = {"z2": z2oracle, "f2": FunctionOracle(f2, Word.free_reduce), "c5": c5_oracle, "bs12": bs2}[group]
        report = almost_convexity_check(oracle, n_max, k)
        assert report.to_json() == almost_convexity_reference(oracle, n_max, k).to_json()

    def test_z2_passes_with_k2(self, z2oracle):
        report = almost_convexity_check(z2oracle, n_max=3, k_ac=2)
        assert report.passed and report.pairs_checked > 0

    def test_z2_fails_with_k1(self, z2oracle):
        report = almost_convexity_check(z2oracle, n_max=3, k_ac=1)
        assert not report.passed
        assert report.failures[0] == {"n": 1, "g": "a", "h": "A"}

    def test_free_group_passes(self):
        al = Alphabet.from_pairs(("a", "A", "b", "B"), [("a", "A"), ("b", "B")])
        report = almost_convexity_check(FunctionOracle(al, Word.free_reduce), n_max=3, k_ac=2)
        assert report.passed

    def test_vacuous_at_zero(self, z2oracle):
        report = almost_convexity_check(z2oracle, n_max=0, k_ac=1)
        assert report.passed and report.pairs_checked == 0

    def test_report_serializes(self, z2oracle):
        import json

        report = almost_convexity_check(z2oracle, n_max=2, k_ac=2)
        data = json.loads(report.to_json())
        assert data["passed"] is True and data["n_max"] == 2
        assert "PASS" in report.summary()


class TestThompsonF:
    def test_spot_values(self):
        al = thompson_alphabet()
        assert thompson_f_in_C(al.empty())
        assert thompson_f_in_C(al.word("X0 x1 x0"))
        assert not thompson_f_in_C(al.word("x1 x0"))  # positive x0 prefix sum
        assert not thompson_f_in_C(al.word("x1 X1"))  # forbidden subword
        assert not thompson_f_in_C(al.word("x0 x0 x1"))

    def test_recognizers_agree_on_short_words(self):
        al = thompson_alphabet()
        for w in all_words(al, 6):
            assert thompson_f_in_C(w) == thompson_f_direct(w)

    def test_expsum(self):
        al = thompson_alphabet()
        assert expsum_x0(al.word("X0 X0 x1")) == -2
        assert expsum_x0(al.empty()) == 0

    def test_wrong_alphabet_rejected(self):
        al = Alphabet.from_pairs(("a", "A"), [("a", "A")])
        with pytest.raises(FormatError):
            thompson_f_in_C(al.word("a"))

    @pytest.mark.parametrize("text", ["y x0", "y"])
    def test_foreign_letters_rejected(self, text):
        al = Alphabet.from_pairs(
            ("x0", "X0", "x1", "X1", "y", "Y"), [("x0", "X0"), ("x1", "X1"), ("y", "Y")]
        )
        with pytest.raises(FormatError, match="letter y is not one of"):
            thompson_f_in_C(al.word(text))
