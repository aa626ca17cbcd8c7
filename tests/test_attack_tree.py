"""Balanced k-means, the hierarchical clustering tree, and masking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.tree import (
    HierarchicalClusterTree,
    TargetItemMask,
    balanced_assignment,
    balanced_kmeans,
    kmeans,
)
from repro.data import InteractionDataset
from repro.errors import ConfigurationError, MaskedTreeError


class TestKMeans:
    def test_centroid_count(self, rng):
        points = rng.normal(size=(30, 4))
        centers = kmeans(points, 5, rng)
        assert centers.shape == (5, 4)

    def test_separated_clusters_recovered(self, rng):
        a = rng.normal(size=(20, 2)) + [10, 10]
        b = rng.normal(size=(20, 2)) - [10, 10]
        points = np.vstack([a, b])
        labels = balanced_kmeans(points, 2, seed=1)
        # all of a in one cluster, all of b in the other
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_invalid_cluster_count_raises(self, rng):
        with pytest.raises(ConfigurationError):
            kmeans(rng.normal(size=(5, 2)), 6, rng)


def _quadratic_seeding(points, n_clusters, rng):
    """The original k-means++ seeding: distances to every centroid, every round."""
    n = points.shape[0]
    centroids = [points[rng.integers(n)]]
    for _ in range(n_clusters - 1):
        d2 = np.min(
            ((points[:, None, :] - np.asarray(centroids)[None, :, :]) ** 2).sum(-1), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(points[rng.integers(n)])
            continue
        centroids.append(points[rng.choice(n, p=d2 / total)])
    return np.asarray(centroids, dtype=np.float64)


class TestKMeansSeedingOracle:
    """The running-minimum seeding draws and returns exactly what the old one did."""

    @pytest.mark.parametrize("case", range(40))
    def test_bitwise_equal_to_quadratic_seeding(self, case):
        meta = np.random.default_rng(1000 + case)
        n = int(meta.integers(1, 60))
        dim = int(meta.integers(1, 9))
        points = meta.normal(size=(n, dim))
        if case % 3 == 0:
            # Duplicates: some rounds see zero distance everywhere chosen.
            points = points[meta.integers(0, max(1, n // 4), size=n)]
        if case % 10 == 5:
            points = np.zeros((n, dim))  # every point identical: total == 0 path
        k = int(meta.integers(1, n + 1))
        old_rng = np.random.default_rng(case)
        new_rng = np.random.default_rng(case)
        expected = _quadratic_seeding(points, k, old_rng)
        got = kmeans(points, k, new_rng, n_iter=0)
        np.testing.assert_array_equal(got, expected)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestBalancedAssignment:
    def test_sizes_off_by_at_most_one(self, rng):
        points = rng.normal(size=(17, 3))
        centers = kmeans(points, 4, rng)
        labels = balanced_assignment(points, centers)
        sizes = np.bincount(labels, minlength=4)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 17

    def test_every_point_assigned(self, rng):
        points = rng.normal(size=(10, 2))
        centers = kmeans(points, 3, rng)
        labels = balanced_assignment(points, centers)
        assert (labels >= 0).all()

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=6, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_balance_property(self, n_clusters, n_points):
        rng = np.random.default_rng(n_clusters * 100 + n_points)
        points = rng.normal(size=(n_points, 3))
        labels = balanced_kmeans(points, n_clusters, seed=rng)
        sizes = np.bincount(labels, minlength=n_clusters)
        assert sizes.max() - sizes.min() <= 1


class TestHierarchicalClusterTree:
    def test_every_user_is_exactly_one_leaf(self, rng):
        emb = rng.normal(size=(25, 4))
        tree = HierarchicalClusterTree(emb, branching=3, seed=1)
        leaf_users = sorted(leaf.user_id for leaf in tree.leaves())
        assert leaf_users == list(range(25))

    def test_depth_relation_to_branching(self, rng):
        """Paper: c^(d-1) < n <= c^d."""
        emb = rng.normal(size=(25, 4))
        tree = HierarchicalClusterTree(emb, branching=3, seed=1)
        c, d, n = 3, tree.depth, 25
        assert c ** (d - 1) < n <= c**d

    def test_from_depth_infers_branching(self, rng):
        emb = rng.normal(size=(30, 4))
        tree = HierarchicalClusterTree.from_depth(emb, depth=3, seed=1)
        assert tree.branching ** 3 >= 30
        assert tree.depth <= 3 + 1  # compact trees can be slightly shallower/deeper locally

    def test_balance(self, rng):
        emb = rng.normal(size=(40, 4))
        tree = HierarchicalClusterTree(emb, branching=3, seed=1)
        assert tree.validate_balance() <= 1

    def test_policy_node_ids_dense(self, rng):
        emb = rng.normal(size=(20, 4))
        tree = HierarchicalClusterTree(emb, branching=4, seed=1)
        ids = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                ids.append(node.node_id)
                stack.extend(node.children)
        assert sorted(ids) == list(range(tree.n_policy_nodes))

    def test_path_to_user(self, rng):
        emb = rng.normal(size=(20, 4))
        tree = HierarchicalClusterTree(emb, branching=3, seed=1)
        path = tree.path_to_user(13)
        assert path[0] is tree.root
        assert path[-1].user_id == 13
        for parent, child in zip(path[:-1], path[1:]):
            assert child in parent.children

    def test_invalid_inputs_raise(self, rng):
        with pytest.raises(ConfigurationError):
            HierarchicalClusterTree(rng.normal(size=(10, 2)), branching=1)
        with pytest.raises(ConfigurationError):
            HierarchicalClusterTree.from_depth(rng.normal(size=(10, 2)), depth=0)

    def test_subtree_size(self, rng):
        emb = rng.normal(size=(8, 2))
        tree = HierarchicalClusterTree(emb, branching=2, seed=1)
        assert tree.root.subtree_size() == 8 + tree.n_policy_nodes


class TestTargetItemMask:
    @pytest.fixture
    def source(self):
        profiles = [
            [0, 1],      # user 0: has target 0
            [1, 2],      # user 1
            [0, 3],      # user 2: has target 0
            [4, 5],      # user 3
            [2, 5],      # user 4
            [0, 5],      # user 5: has target 0
        ]
        # n_items=7: item 6 exists in the catalog but no profile contains it.
        return InteractionDataset(profiles, n_items=7, name="mask-src")

    def test_supporters_allowed(self, source):
        mask = TargetItemMask(source, target_item=0)
        assert mask.user_allowed(0)
        assert mask.user_allowed(2)
        assert not mask.user_allowed(1)

    def test_disabled_mask_allows_everyone(self, source):
        mask = TargetItemMask(source, target_item=0, enabled=False)
        assert mask.allowed_users().all()

    def test_unsupported_item_raises(self, source):
        with pytest.raises(MaskedTreeError):
            TargetItemMask(source, target_item=6)  # no profile contains item 6

    def test_exclusions_are_dynamic(self, source):
        mask = TargetItemMask(source, target_item=0)
        mask.exclude_user(0)
        assert not mask.user_allowed(0)
        mask.reset_exclusions()
        assert mask.user_allowed(0)

    def test_children_mask_over_tree(self, source, rng):
        emb = rng.normal(size=(source.n_users, 3))
        tree = HierarchicalClusterTree(emb, branching=2, seed=2)
        mask = TargetItemMask(source, target_item=0)
        children = mask.children_mask(tree.root)
        assert children.any()

    def test_all_children_masked_raises(self, source, rng):
        emb = rng.normal(size=(source.n_users, 3))
        tree = HierarchicalClusterTree(emb, branching=2, seed=2)
        mask = TargetItemMask(source, target_item=0)
        for u in (0, 2, 5):
            mask.exclude_user(u)
        with pytest.raises(MaskedTreeError):
            mask.children_mask(tree.root)

    def test_any_admissible(self, source, rng):
        emb = rng.normal(size=(source.n_users, 3))
        tree = HierarchicalClusterTree(emb, branching=2, seed=2)
        mask = TargetItemMask(source, target_item=0)
        assert mask.any_admissible(tree)
        for u in (0, 2, 5):
            mask.exclude_user(u)
        assert not mask.any_admissible(tree)

    def test_masked_subtree_never_reached_in_walks(self, source, rng):
        """Walking with the mask can only ever end at supporter leaves."""
        from repro.attack.policies import HierarchicalTreePolicy, PolicyStateEncoder

        emb = rng.normal(size=(source.n_users, 3))
        tree = HierarchicalClusterTree(emb, branching=2, seed=2)
        encoder = PolicyStateEncoder(emb, rng.normal(size=(7, 3)), rng)
        policy = HierarchicalTreePolicy(tree, encoder.state_dim, 8, rng)
        mask = TargetItemMask(source, target_item=0)
        state = encoder.encode(0, [])
        for trial in range(25):
            result = policy.select(state, mask, seed=trial)
            assert result.user_id in (0, 2, 5)
