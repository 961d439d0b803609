"""Decision rule: examples with hand-computed scores plus invariance properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from softknn import (
    LabelKind,
    classify,
    classify_batch,
    evaluate_points,
    make_prototype_set,
    three_from_two,
)
from softknn.classifier import _BLOCK_ENTRIES

# Relative confidence gap below which a prediction is a tie-break artifact,
# not class structure; invariance assertions skip such queries.
GAP = 1e-9


@pytest.fixture(scope="module")
def pair_set():
    return three_from_two(3.0).set


class TestClassify:
    def test_scores_near_first_prototype(self, pair_set):
        # Hand evaluation: labels/0.5 + reversed labels/2.5.
        result = classify(pair_set, 2, (0.5, 0.0))
        np.testing.assert_allclose(result.scores, [1.2, 0.96, 0.24], atol=1e-12)
        assert result.predicted == 0
        assert not result.exact_hit
        assert result.confidence == pytest.approx(1.2 - 0.96, abs=1e-12)

    def test_midpoint_takes_middle_class(self, pair_set):
        result = classify(pair_set, 2, (1.5, 0.0))
        np.testing.assert_allclose(result.scores, [0.4, 8.0 / 15.0, 0.4], atol=1e-12)
        assert result.predicted == 1

    def test_crossing_point_scores_tie(self, pair_set):
        # One unit from the left prototype the top two scores are equal.
        result = classify(pair_set, 2, (1.0, 0.0))
        np.testing.assert_allclose(result.scores, [0.6, 0.6, 0.3], atol=1e-12)
        assert abs(result.scores[0] - result.scores[1]) < 1e-12
        assert result.confidence < 1e-12

    def test_hard_labels_k1_matches_nearest(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(-5, 5, size=(6, 2))
        classes = np.array([0, 1, 2, 0, 1, 2])
        labels = np.zeros((6, 3))
        labels[np.arange(6), classes] = 1.0
        pset = make_prototype_set(positions, labels, kind=LabelKind.HARD)
        for _ in range(200):
            q = rng.uniform(-6, 6, size=2)
            dists = np.linalg.norm(positions - q, axis=1)
            if np.sort(dists)[1] - np.sort(dists)[0] < 1e-9:
                continue
            assert classify(pset, 1, q).predicted == classes[int(np.argmin(dists))]

    def test_exact_hit_returns_prototype_class(self, pair_set):
        result = classify(pair_set, 2, (3.0, 0.0))
        assert result.exact_hit
        assert result.predicted == 2
        assert result.confidence == math.inf
        np.testing.assert_array_equal(result.scores, [0.0, 0.4, 0.6])

    def test_single_class_confidence_sentinel(self):
        pset = make_prototype_set([(0.0, 0.0), (1.0, 0.0)], np.array([[1.0], [1.0]]))
        result = classify(pset, 2, (0.25, 0.0))
        assert result.predicted == 0
        assert result.confidence == math.inf

    def test_k_out_of_range(self, pair_set):
        with pytest.raises(ValueError, match="out of range"):
            classify(pair_set, 3, (1.0, 0.0))
        with pytest.raises(ValueError, match="out of range"):
            classify(pair_set, 0, (1.0, 0.0))

    def test_dimension_mismatch(self, pair_set):
        with pytest.raises(ValueError, match="dimension"):
            classify(pair_set, 2, (1.0, 0.0, 0.0))

    def test_non_finite_query(self, pair_set):
        with pytest.raises(ValueError, match="finite"):
            classify(pair_set, 2, (np.nan, 0.0))

    def test_nan_label_refused(self):
        pset = make_prototype_set([(0.0, 0.0), (3.0, 0.0)], np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            classify(pset, 2, (1.0, 0.0))

    def test_position_at_infinity_refused(self):
        pset = make_prototype_set([(0.0, 0.0), (np.inf, 0.0)], np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            classify(pset, 2, (0.5, 0.0))

    def test_overflowing_scores_refused(self):
        # Finite labels whose inverse-distance sum exceeds the float range.
        pset = make_prototype_set([(0.0, 0.0), (3.0, 0.0)], np.array([[1e308, 0.0], [0.0, 1e308]]))
        with pytest.raises(ValueError, match="overflow"):
            classify(pset, 2, (0.5, 0.0))
        assert classify(pset, 2, (0.0, 0.0)).exact_hit


class TestScoreVector:
    def test_equidistant_point_scales_label_totals(self, pair_set):
        # Midpoint is 1.5 from both prototypes with k equal to the set size.
        scores = classify(pair_set, 2, (1.5, 0.0)).scores
        totals = pair_set.labels.sum(axis=0)
        np.testing.assert_allclose(scores, totals / 1.5, atol=1e-12)

    def test_single_prototype_is_label_over_distance(self):
        pset = make_prototype_set([(0.0, 0.0)], np.array([[0.2, 0.8]]))
        np.testing.assert_allclose(classify(pset, 1, (0.0, 4.0)).scores, [0.05, 0.2], atol=1e-15)

    def test_boundary_point_scores_equal(self, pair_set):
        scores = classify(pair_set, 2, (1.0, 0.0)).scores
        assert abs(scores[0] - scores[1]) < 1e-12


class TestClassifyBatch:
    def test_empty(self, pair_set):
        assert classify_batch(pair_set, 2, []) == []

    def test_repeated_point_identical(self, pair_set):
        a, b = classify_batch(pair_set, 2, [(0.7, 0.1), (0.7, 0.1)])
        assert a.predicted == b.predicted
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.confidence == b.confidence

    def test_grid_matches_sequential_loop(self, pair_set):
        xs = np.linspace(-1, 4, 100)
        ys = np.linspace(-2, 2, 100)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack((gx.ravel(), gy.ravel()))
        batch = classify_batch(pair_set, 2, pts)
        for i, p in enumerate(pts):
            single = classify(pair_set, 2, p)
            assert batch[i].predicted == single.predicted
            np.testing.assert_array_equal(batch[i].scores, single.scores)
            assert batch[i].confidence == single.confidence
            assert batch[i].exact_hit == single.exact_hit


def _reference_scores(positions, labels, k, points):
    """The decision rule written out directly: every distance, then a sort.

    Squared distances start from zeros and add coordinate 0 first; the k
    nearest are taken from a stable argsort (index order at k = M, where
    no ordering is needed) and accumulated one neighbour rank at a time.
    """
    m = len(positions)
    dist = np.zeros((len(points), m))
    for d in range(points.shape[1]):
        delta = points[:, d, None] - positions[None, :, d]
        dist += delta * delta
    dist = np.sqrt(dist)
    if k == m:
        order = np.broadcast_to(np.arange(m), dist.shape)
    else:
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    dk = np.take_along_axis(dist, order, axis=1)
    scores = np.zeros((len(points), labels.shape[1]))
    for i in range(k):
        scores += labels[order[:, i]] * (1.0 / dk[:, i, None])
    return scores


class TestKernelPaths:
    M, N = 250, 1200

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, M], ids=["k1", "sorted", "kM"])
    def test_blocks_match_single_points_and_reference(self, k, dim):
        # Several blocks plus a ragged last one share the kernel's buffers.
        block = _BLOCK_ENTRIES // self.M
        assert self.N > 2 * block and self.N % block
        rng = np.random.default_rng(100 * k + dim)
        positions = rng.uniform(-5, 5, size=(self.M, dim))
        labels = rng.uniform(-1, 2, size=(self.M, 4))
        pset = make_prototype_set(positions, labels, kind=LabelKind.UNRESTRICTED)
        pts = rng.uniform(-6, 6, size=(self.N, dim))
        scores, predicted, confidence, exact = evaluate_points(pset, k, pts)
        assert np.array_equal(scores, _reference_scores(positions, labels, k, pts))
        assert np.array_equal(predicted, scores.argmax(axis=1))
        assert not exact.any()
        for i, p in enumerate(pts):
            single = classify(pset, k, p)
            assert np.array_equal(single.scores, scores[i])
            assert single.predicted == predicted[i]
            assert single.confidence == confidence[i]


class TestDistanceTies:
    """Equidistant prototypes are taken in prototype-index order."""

    @staticmethod
    def _hard_set(positions, classes):
        labels = np.eye(3)[classes]
        return make_prototype_set(positions, labels, kind=LabelKind.HARD)

    def test_k1_takes_lower_index(self):
        positions = np.array([(-1.0, 0.0), (1.0, 0.0), (10.0, 10.0)])
        classes = np.array([0, 1, 2])
        assert classify(self._hard_set(positions, classes), 1, (0.0, 0.0)).predicted == 0
        reversed_set = self._hard_set(positions[::-1], classes[::-1])
        assert classify(reversed_set, 1, (0.0, 0.0)).predicted == 1

    def test_kth_neighbour_takes_lower_index(self):
        # One nearest prototype, then a tie for the second place at k = 2.
        positions = np.array([(0.0, 1.0), (2.0, 0.0), (-2.0, 0.0), (5.0, 5.0)])
        classes = np.array([0, 1, 2, 0])
        scores = classify(self._hard_set(positions, classes), 2, (0.0, 0.0)).scores
        np.testing.assert_array_equal(scores, [1.0, 0.5, 0.0])
        reversed_set = self._hard_set(positions[::-1], classes[::-1])
        np.testing.assert_array_equal(classify(reversed_set, 2, (0.0, 0.0)).scores, [1.0, 0.0, 0.5])


# --- Property tests ----------------------------------------------------------


@st.composite
def random_instance(draw):
    """A small random prototype set plus a query point."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    m = draw(st.integers(min_value=2, max_value=6))
    n_classes = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=m))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-5, 5, size=(m, 2))
    labels = rng.uniform(-1, 2, size=(m, n_classes))
    query = rng.uniform(-6, 6, size=2)
    return positions, labels, k, query


def _classify_raw(positions, labels, k, query, kind=LabelKind.UNRESTRICTED):
    pset = make_prototype_set(positions, labels, kind=kind)
    return classify(pset, k, query)


def _assume_clear_margin(result):
    scale = max(1.0, float(np.abs(result.scores).max()))
    assume(not result.exact_hit)
    assume(result.confidence > GAP * scale)


@settings(max_examples=60, deadline=None)
@given(random_instance(), st.floats(min_value=0.1, max_value=10.0))
def test_geometric_scale_invariance(instance, s):
    positions, labels, k, query = instance
    base = _classify_raw(positions, labels, k, query)
    _assume_clear_margin(base)
    scaled = _classify_raw(positions * s, labels, k, query * s)
    assert scaled.predicted == base.predicted


@settings(max_examples=60, deadline=None)
@given(random_instance(), st.floats(min_value=0.01, max_value=100.0))
def test_label_positive_scale_invariance(instance, c):
    positions, labels, k, query = instance
    base = _classify_raw(positions, labels, k, query)
    _assume_clear_margin(base)
    scaled = _classify_raw(positions, labels * c, k, query)
    assert scaled.predicted == base.predicted


@settings(max_examples=60, deadline=None)
@given(random_instance(), st.floats(min_value=-10.0, max_value=10.0))
def test_label_shift_invariance(instance, c):
    positions, labels, k, query = instance
    base = _classify_raw(positions, labels, k, query)
    _assume_clear_margin(base)
    shifted = _classify_raw(positions, labels + c, k, query)
    assert shifted.predicted == base.predicted


@settings(max_examples=60, deadline=None)
@given(
    random_instance(),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
def test_rigid_motion_invariance(instance, theta, tx, ty):
    positions, labels, k, query = instance
    base = _classify_raw(positions, labels, k, query)
    _assume_clear_margin(base)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = _classify_raw(positions @ rot.T + (tx, ty), labels, k, query @ rot.T + (tx, ty))
    assert moved.predicted == base.predicted


@settings(max_examples=60, deadline=None)
@given(random_instance())
def test_hard_label_reduction_is_weighted_vote(instance):
    positions, _, k, query = instance
    rng = np.random.default_rng(int(abs(positions[0, 0]) * 1e6) + k)
    classes = rng.integers(0, 3, size=len(positions))
    labels = np.zeros((len(positions), 3))
    labels[np.arange(len(positions)), classes] = 1.0
    result = _classify_raw(positions, labels, k, query, kind=LabelKind.HARD)
    assume(not result.exact_hit)
    # Oracle: accumulate inverse-distance votes per class over the k nearest.
    dists = np.linalg.norm(positions - query, axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    votes = np.zeros(3)
    for idx in order:
        votes[classes[idx]] += 1.0 / dists[idx]
    scale = max(1.0, votes.max())
    top = np.sort(votes)[-2:]
    assume(top[1] - top[0] > GAP * scale)
    assert result.predicted == int(np.argmax(votes))
