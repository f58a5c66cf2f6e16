import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccnet.composite

from ccnet import (
    DegenerateCombinationError,
    InheritanceScheme,
    SchemeError,
    SchemeNode,
    StandardizedMeasure,
    builtin_scheme,
    combine,
    combine_set,
    parse_scheme,
    run_scheme,
    scheme_invariance,
    scheme_to_dict,
    standardize,
)
from helpers import (
    BUILTIN_TREES,
    correlated_measures,
    make_tradelike,
    orthonormal_leaves,
    scheme_invariance_pairs,
)


def std_normal_sm(name, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v = v - v.mean()
    return StandardizedMeasure(name, v / v.std(ddof=1))


ALL_SCHEMES = [builtin_scheme(s) for s in ("drt", "rtd", "tdr")]
# root values drawn from a small pool as well, so that schemes agree on some
# nodes, and with both signed zeros
ROOT_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]),
                       st.floats(allow_nan=False, allow_infinity=False))


class TestCombine:
    def test_self_combination_is_identity(self):
        a = std_normal_sm("a", 100, 0)
        out = combine(a, a)
        assert np.allclose(out.values, a.values, atol=1e-12)

    def test_negation_is_degenerate(self):
        a = std_normal_sm("a", 100, 0)
        neg = StandardizedMeasure("b", -a.values)
        with pytest.raises(DegenerateCombinationError):
            combine(a, neg)
        scheme = InheritanceScheme(SchemeNode("top", (SchemeNode("a"), SchemeNode("b"))))
        with pytest.raises(DegenerateCombinationError, match="combination at 'top'"):
            run_scheme(scheme, [a, neg])

    def test_output_contract_and_correlation(self):
        a = std_normal_sm("a", 500, 1)
        b = std_normal_sm("b", 500, 2)
        out = combine(a, b)
        assert float(out.values.std(ddof=1)) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(out.values.mean())) < 1e-12
        s = a.values + b.values
        assert np.corrcoef(out.values, s)[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine(std_normal_sm("a", 10, 0), std_normal_sm("b", 11, 1))


class TestCombineSet:
    def test_two_measures_match_pairwise_combine(self):
        a = std_normal_sm("a", 300, 3)
        b = std_normal_sm("b", 300, 4)
        assert np.array_equal(combine_set([a, b]).values, combine(a, b).values)
        assert (combine_set([a, b]).name, combine(a, b).name) == ("COMPOSITE", "a+b")

    def test_identical_inputs_fixed_point(self):
        a = std_normal_sm("a", 200, 5)
        out = combine_set([a, a, a])
        assert np.allclose(out.values, a.values, atol=1e-12)

    def test_balanced_trees_match_flat_when_sigmas_exact(self):
        # orthonormal leaves make every sibling sigma_s exact
        leaves = orthonormal_leaves(200, 0)
        flat = combine_set(leaves)
        for scheme in ALL_SCHEMES:
            root = run_scheme(scheme, leaves).root()
            assert np.max(np.abs(root.values - flat.values)) <= 1e-9

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            combine_set([std_normal_sm("a", 50, 0)])


class TestRunScheme:
    def test_graph_measures_tree_vs_flat(self):
        g = make_tradelike(30, 0)
        from ccnet import standard_measure_set

        sm = [standardize(m) for m in standard_measure_set(g)]
        gens = run_scheme(builtin_scheme("drt"), sm)
        flat = combine_set(sm)
        assert np.max(np.abs(gens.root().values - flat.values)) <= 1e-2

    def test_single_combine_scheme(self):
        a = std_normal_sm("left", 150, 6)
        b = std_normal_sm("right", 150, 7)
        scheme = InheritanceScheme(SchemeNode("top", (SchemeNode("left"), SchemeNode("right"))))
        gens = run_scheme(scheme, [a, b])
        assert np.array_equal(gens.root().values, combine(a, b).values)
        assert gens.root().generation == 2

    def test_unknown_node_name_is_a_key_error(self):
        gens = run_scheme(builtin_scheme("drt"), orthonormal_leaves(50, 1))
        assert gens["COMPOSITE"] is gens.root()
        with pytest.raises(KeyError, match="no-such-node"):
            gens["no-such-node"]

    def test_sibling_heights_sum_to_parent(self):
        sm = [standardize(m) for m in correlated_measures(200, 1)]
        gens = run_scheme(builtin_scheme("drt"), sm)

        def walk(node):
            if not node.children:
                return
            parent_h = gens[node.name].display_heights
            child_sum = sum(gens[c.name].display_heights for c in node.children)
            assert np.allclose(child_sum, parent_h, atol=1e-9)
            for c in node.children:
                walk(c)

        walk(builtin_scheme("drt").root)
        # root's height is its own values
        assert np.array_equal(gens.root().display_heights, gens.root().values)

    def test_generation_labels(self):
        sm = [standardize(m) for m in correlated_measures(100, 2)]
        gens = run_scheme(builtin_scheme("drt"), sm)
        assert gens.generations() == [4, 3, 2, 1]
        assert len(gens.by_generation(1)) == 8
        assert len(gens.by_generation(2)) == 4
        assert len(gens.by_generation(3)) == 2
        assert len(gens.by_generation(4)) == 1

    def test_every_generation_satisfies_moment_contract(self):
        sm = [standardize(m) for m in correlated_measures(150, 8)]
        gens = run_scheme(builtin_scheme("rtd"), sm)
        for node in gens.nodes:
            assert abs(float(node.values.mean())) < 1e-9
            assert abs(float(node.values.std(ddof=1)) - 1.0) < 1e-9

    def test_leaf_mismatch_rejected(self):
        sm = [standardize(m) for m in correlated_measures(100, 3)]
        with pytest.raises(SchemeError):
            run_scheme(builtin_scheme("drt"), sm[:-1])
        renamed = sm[:-1] + [StandardizedMeasure("WRONG", sm[-1].values)]
        with pytest.raises(SchemeError):
            run_scheme(builtin_scheme("drt"), renamed)

    def test_node_permutation_equivariance(self):
        sm = [standardize(m) for m in correlated_measures(120, 4)]
        gens = run_scheme(builtin_scheme("drt"), sm)
        perm = np.random.default_rng(0).permutation(120)
        sm_p = [StandardizedMeasure(m.name, m.values[perm]) for m in sm]
        gens_p = run_scheme(builtin_scheme("drt"), sm_p)
        for node, node_p in zip(gens.nodes, gens_p.nodes):
            assert np.allclose(node_p.values, node.values[perm], atol=1e-12)
            assert np.allclose(node_p.display_heights, node.display_heights[perm], atol=1e-12)


class TestSchemeInvariance:
    def test_sibling_order_swap_is_exact(self):
        sm = [standardize(m) for m in correlated_measures(150, 5)]
        drt = builtin_scheme("drt")

        def mirror(node):
            if not node.children:
                return node
            left, right = node.children
            return SchemeNode(node.name, (mirror(right), mirror(left)))

        swapped = InheritanceScheme(mirror(drt.root), scheme_id="drt-mirrored")
        assert scheme_invariance(sm, [drt, swapped]) == 0.0

    def test_correlated_sets_stay_within_tolerance(self):
        for seed in range(5):
            sm = [standardize(m) for m in correlated_measures(200, seed)]
            assert scheme_invariance(sm, ALL_SCHEMES) <= 1e-2

    def test_iid_leaves_fluctuate_beyond_the_correlated_scale(self):
        # sibling sigma_s estimates fluctuate at O(n^-1/2); with uncorrelated
        # leaves nothing cancels them, so tree roots genuinely disagree
        sm = [std_normal_sm(name, 200, 50 + k) for k, name in
              enumerate(builtin_scheme("drt").leaves())]
        inv = scheme_invariance(sm, ALL_SCHEMES)
        assert 1e-2 < inv < 1.0

    def test_root_correlates_with_flat(self):
        sm = [standardize(m) for m in correlated_measures(300, 6)]
        flat = combine_set(sm).values
        for scheme in ALL_SCHEMES:
            root = run_scheme(scheme, sm).root().values
            assert np.corrcoef(root, flat)[0, 1] > 0.9999

    def test_needs_two_schemes_with_shared_leaves(self):
        sm = [standardize(m) for m in correlated_measures(100, 7)]
        with pytest.raises(ValueError):
            scheme_invariance(sm, [builtin_scheme("drt")])
        # a scheme whose leaves are not the measure names fails run_scheme's check
        other = builtin_scheme("rtd").rename_leaf("IN-LO-QL", "EC")
        with pytest.raises(SchemeError, match="missing \\['EC'\\], unused \\['IN-LO-QL'\\]"):
            scheme_invariance(sm, [builtin_scheme("drt"), other])

    def test_builtin_schemes_equal_the_pair_loop(self):
        sm = [standardize(m) for m in correlated_measures(200, 3)]
        roots = [run_scheme(s, sm).root().values for s in ALL_SCHEMES]
        assert scheme_invariance(sm, ALL_SCHEMES) == scheme_invariance_pairs(roots)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(ROOT_VALUE, min_size=n, max_size=n), min_size=2, max_size=4)))
    @example([[0.0, -0.0], [-0.0, 0.0]])
    @example([[-0.0], [-0.0], [0.0]])
    @example([[1.5, 2.0], [1.5, 2.0], [1.5, 2.0], [1.5, 2.0]])
    def test_one_spread_equals_the_pair_loop_bit_for_bit(self, rows):
        roots = [np.array(row) for row in rows]
        # each stand-in scheme's run yields its own root vector
        schemes = [SimpleNamespace(root=lambda v=v: SimpleNamespace(values=v)) for v in roots]
        with mock.patch.object(ccnet.composite, "run_scheme", lambda scheme, g1: scheme):
            got = scheme_invariance([], schemes)
        assert np.float64(got).tobytes() == np.float64(scheme_invariance_pairs(roots)).tobytes()


class TestSchemeSerialization:
    def test_parse_round_trip(self):
        scheme = builtin_scheme("drt")
        doc = scheme_to_dict(scheme)
        again = parse_scheme(json.loads(json.dumps(doc)))
        assert scheme_to_dict(again) == doc
        assert again.leaves() == scheme.leaves()

    def test_load_from_file(self, tmp_path):
        from ccnet import load_scheme

        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme_to_dict(builtin_scheme("tdr"))))
        loaded = load_scheme(str(path))
        assert loaded.leaves() == builtin_scheme("tdr").leaves()

    def test_malformed_schemes_rejected(self):
        binary = "^internal node '{}' must have exactly 2 children$"
        leaf_once = "^every leaf must be used exactly once$"
        unique = "^scheme node names must be unique$"
        for tree, message in [
            ({"name": "top", "children": [{"name": "a"}, {"name": "b"}, {"name": "c"}]},
             binary.format("top")),
            ({"name": "top", "children": [{"name": "a"}, {"name": "a"}]}, leaf_once),
            ({"name": "top", "children": [{"name": "a"}, {"name": "top"}]}, unique),
            # two rules broken at once: the binary check runs first, then the leaf check
            ({"name": "top", "children": [{"name": "a"}, {"name": "x", "children": [
                {"name": "a"}, {"name": "b"}, {"name": "c"}]}]}, binary.format("x")),
            ({"name": "top", "children": [
                {"name": "top", "children": [{"name": "a"}, {"name": "b"}]}, {"name": "a"}]},
             leaf_once),
            ({"name": "top", "children": 5}, "^children of scheme node 'top' must be a list$"),
            ({"name": "top", "children": [{"name": "a"}, {"name": "x", "children": None}]},
             "^children of scheme node 'x' must be a list$"),
        ]:
            with pytest.raises(SchemeError, match=message):
                parse_scheme(tree)
        with pytest.raises(SchemeError):
            parse_scheme({"children": [{"name": "a"}, {"name": "b"}]})

    def test_builtin_ids(self):
        from ccnet import BUILTIN_SCHEME_IDS

        assert set(BUILTIN_SCHEME_IDS) == {"drt", "rtd", "tdr"}
        with pytest.raises(SchemeError, match="^unknown builtin scheme 'nope'$"):
            builtin_scheme("nope")

    @pytest.mark.parametrize("scheme_id", sorted(BUILTIN_TREES))
    def test_builtin_trees_match_typed_out_trees(self, scheme_id):
        assert scheme_to_dict(builtin_scheme(scheme_id)) == BUILTIN_TREES[scheme_id]

    def test_rename_leaf(self):
        scheme = builtin_scheme("drt").rename_leaf("IN-LO-QL", "EC")
        assert "EC" in scheme.leaves()
        assert "IN-LO-QL" not in scheme.leaves()
        with pytest.raises(SchemeError):
            scheme.rename_leaf("IN-LO-QL", "X")
