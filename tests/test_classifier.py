"""Decision rule: examples with hand-computed scores plus invariance properties."""

import math
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from softknn import (
    COINCIDENT_TOL,
    LabelKind,
    PrototypeSet,
    circle_hard_baseline,
    circle_soft_fit,
    classifier,
    classify,
    classify_batch,
    concentric_ellipses,
    core,
    evaluate_points,
    landscape,
    make_prototype_set,
    polygon_pairs,
    polygon_with_center,
    rasterize,
    scaled_label_set,
    shifted_label_set,
    star_pairs,
    three_from_two,
    transformed_set,
    validate,
)
from softknn.classifier import _BLOCK_ENTRIES, score_block

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

    @pytest.mark.parametrize(
        "points",
        [[[0.5, 0.0], [2.9, 0.0]], [], np.empty((0, 2))],
        ids=["two-points", "empty-list", "no-rows"],
    )
    def test_exactly_one_point(self, pair_set, points):
        # Several points must not be answered for the first one alone.
        with pytest.raises(ValueError, match="exactly one point"):
            classify(pair_set, 2, points)
        assert classify(pair_set, 2, [[2.9, 0.0]]).predicted == 2

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

    @pytest.mark.parametrize(
        "k, points, match",
        [(0, [], "out of range"), (2, np.empty((0, 5)), "dimension 2")],
        ids=["bad-k", "bad-dimension"],
    )
    def test_empty_still_checked(self, pair_set, k, points, match):
        with pytest.raises(ValueError, match=match):
            classify_batch(pair_set, k, points)

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


class TestEmptyQuery:
    def test_shapes_and_dtypes(self, pair_set):
        scores, predicted, confidence, exact = evaluate_points(pair_set, 2, np.empty((0, 2)))
        assert (scores.shape, predicted.shape, confidence.shape, exact.shape) == ((0, 3), (0,), (0,), (0,))
        assert (scores.dtype, confidence.dtype, exact.dtype) == (float, float, bool)
        assert predicted.dtype.kind == "i"

    def test_empty_list_is_no_points(self, pair_set):
        scores, predicted, confidence, exact = evaluate_points(pair_set, 2, [])
        assert (scores.shape, predicted.shape, confidence.shape, exact.shape) == ((0, 3), (0,), (0,), (0,))
        assert (scores.dtype, confidence.dtype, exact.dtype) == (float, float, bool)
        assert predicted.dtype.kind == "i"

    @pytest.mark.parametrize(
        "k, points, match",
        [(0, np.empty((0, 2)), "out of range"), (2, np.empty((0, 5)), "dimension 2")],
        ids=["bad-k", "bad-dimension"],
    )
    def test_arguments_still_checked(self, pair_set, k, points, match):
        # No points is no reason to skip the checks a non-empty query gets.
        with pytest.raises(ValueError, match=match):
            evaluate_points(pair_set, k, points)

    def test_non_finite_set_refused(self):
        pset = make_prototype_set([(0.0, 0.0), (1.0, 0.0)], np.array([[np.nan, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            evaluate_points(pset, 2, np.empty((0, 2)))


ENTRIES = [pytest.param(evaluate_points, id="evaluate_points"), pytest.param(classifier._predicted, id="predicted")]


class TestEveryEntryChecked:
    """The scores-free ``_predicted`` refuses what ``evaluate_points`` refuses, with the same message."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "k, points, match",
        [
            (3, [(1.0, 0.0)], r"^k=3 out of range for 2 prototypes$"),
            (0, np.empty((0, 2)), r"^k=0 out of range for 2 prototypes$"),
            (2.0, [(1.0, 0.0)], r"^k must be an integer, got 2\.0$"),
            (True, [(1.0, 0.0)], r"^k must be an integer, got True$"),
            (2, [(1.0, 0.0, 0.0)], r"^query points must have dimension 2, got shape \(1, 3\)$"),
            (2, np.empty((0, 5)), r"^query points must have dimension 2, got shape \(0, 5\)$"),
            (2, np.zeros((2, 2, 2)), r"^query points must have dimension 2, got shape \(2, 2, 2\)$"),
            (2, [(np.nan, 0.0)], r"^query points must be finite$"),
            (2, [(0.5, 0.0), (0.0, -np.inf)], r"^query points must be finite$"),
        ],
        ids=["k-too-large", "bad-k-no-points", "float-k", "bool-k", "bad-dimension", "bad-dimension-no-points",
             "three-axes", "nan-query", "inf-query"],
    )
    def test_refused(self, pair_set, entry, k, points, match):
        with pytest.raises(ValueError, match=match):
            entry(pair_set, k, points)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "positions, labels",
        [([(0.0, 0.0), (3.0, 0.0)], [[np.nan, 1.0], [0.0, 1.0]]), ([(0.0, 0.0), (np.inf, 0.0)], [[1.0, 0.0], [0.0, 1.0]])],
        ids=["nan-label", "position-at-infinity"],
    )
    def test_non_finite_set_refused(self, entry, positions, labels):
        pset = make_prototype_set(positions, np.array(labels))
        for points in ([(1.0, 0.0)], np.empty((0, 2))):
            with pytest.raises(ValueError, match=r"^prototype positions and labels must be finite; run validate\(\)"):
                entry(pset, 2, points)

    def test_vectors_are_one_point_or_none(self, pair_set):
        # As evaluate_points reads them (TestEmptyQuery, classify).
        np.testing.assert_array_equal(classifier._predicted(pair_set, 2, (2.9, 0.0)), [2])
        assert classifier._predicted(pair_set, 2, []).shape == (0,)


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


@pytest.mark.usefixtures("forced_culling")
class TestKernelPathsCulled(TestKernelPaths):
    """The kernel paths with every tile culled."""


@pytest.mark.usefixtures("forced_culling")
class TestDistanceTiesCulled(TestDistanceTies):
    """Index tie-breaking with every one-point call culled."""


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``classifier.<name>``."""
    calls = []
    original = getattr(classifier, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classifier, name, spy)
    return calls


def _brute_scores(pset, k, pts, rows=256):
    """Scores and exact-hit flags from unculled ``score_block`` calls over all prototypes, ``rows`` points each."""
    m, ncls = pset.labels.shape
    out = np.empty((len(pts), ncls))
    hit = np.empty(len(pts), dtype=bool)
    for start in range(0, len(pts), rows):
        sl = slice(start, start + rows)
        size = len(pts[sl])
        nearest, nearest_dist = score_block(
            pset.positions, pset.labels, k, pts[sl], out[sl], np.empty((2, size, m)), np.empty((size, ncls))
        )
        hit[sl] = nearest_dist < COINCIDENT_TOL
        out[sl][hit[sl]] = pset.labels[nearest[hit[sl]]]
    return out, hit


class TestCulling:
    """Culled tiles give the bits of the unculled kernel."""

    @pytest.mark.parametrize("offset", [0.0, 2.0**-40], ids=["on-bound", "past-bound"])
    def test_prototype_on_the_bound(self, monkeypatch, forced_culling, offset):
        # Tile (0, 0)-(1, 0), k = 1. Prototype 1 is 0.5 from the box's far
        # end, which makes 0.5 the bound, and prototype 0 is 0.5 + offset from
        # the box: exactly on the bound, or just past it and culled. On the
        # bound it ties prototype 1 at (1, 0) and wins by its lower index.
        positions = [(1.5 + offset, 0.0), (0.5, 0.0), (10.0, 10.0), (-10.0, 5.0)]
        pset = make_prototype_set(positions, np.eye(4), kind=LabelKind.HARD)
        pts = np.array([(0.0, 0.0), (1.0, 0.0)])
        kept = _spy(monkeypatch, "_kept")
        scores, predicted, _, _ = evaluate_points(pset, 1, pts)
        assert len(kept) == 1
        expected, _ = _brute_scores(pset, 1, pts)
        assert scores.tobytes() == expected.tobytes()
        assert predicted.tolist() == ([1, 0] if offset == 0.0 else [1, 1])

    @pytest.mark.parametrize("tile", [1, 3, 7, 64])
    def test_index_ties_on_a_lattice(self, monkeypatch, forced_culling, tile):
        # Integer positions and half-integer queries in row order make many
        # exact distance ties, at the k-th place and across the cull.
        monkeypatch.setattr(classifier, "_CULL_TILE", tile)
        rng = np.random.default_rng(tile)
        cells = rng.choice(100, size=30, replace=False)
        positions = np.column_stack((cells % 10, cells // 10)).astype(float)
        labels = rng.uniform(-1, 2, size=(30, 4))
        pset = make_prototype_set(positions, labels, kind=LabelKind.UNRESTRICTED)
        gx, gy = np.meshgrid(np.arange(-1.0, 10.5, 0.5), np.arange(-1.0, 10.5, 0.5))
        pts = np.column_stack((gx.ravel(), gy.ravel()))
        for k in (1, 2, 3, 5, 29):
            scores, _, _, exact = evaluate_points(pset, k, pts)
            expected, hit = _brute_scores(pset, k, pts)
            assert scores.tobytes() == expected.tobytes()
            assert np.array_equal(exact, hit) and hit.any()

    def test_kept_count_of_k_stays_on_the_sorted_path(self, monkeypatch, forced_culling):
        # At (0, 0) the three nearest are prototypes 2, 1, 0 at distances
        # 1, 2, 3, and the bound keeps exactly those three. Added nearest
        # first their weighted labels give other bits than in index order,
        # which the kernel's k = M path would use on a kept set of size k.
        positions = [(0.0, 3.0), (2.0, 0.0), (0.0, -1.0), (50.0, 50.0), (-50.0, 50.0), (50.0, -50.0)]
        labels = np.array([[0.1], [0.7], [0.3], [1.0], [1.0], [1.0]])
        terms = labels[[2, 1, 0], 0] / [1.0, 2.0, 3.0]
        assert (terms[0] + terms[1]) + terms[2] != (terms[2] + terms[1]) + terms[0]
        pset = make_prototype_set(positions, labels, kind=LabelKind.UNRESTRICTED)
        blocks = _spy(monkeypatch, "score_block")
        scores = evaluate_points(pset, 3, np.zeros((1, 2)))[0]
        assert [len(call[0]) for call in blocks] == [4]
        assert scores.tobytes() == _brute_scores(pset, 3, np.zeros((1, 2)))[0].tobytes()
        assert scores[0, 0] == (terms[0] + terms[1]) + terms[2]

    @pytest.mark.parametrize("k", [1, 3])
    def test_circle_samples_match_brute_force(self, k):
        # The hard baseline at n = 20, sampled in angle order as the
        # harness does; sample 0 of each circle lands on a prototype.
        cons = circle_hard_baseline(20)
        assert len(cons.set) >= classifier._CULL_MIN_PROTOTYPES
        angles = 2.0 * math.pi * np.arange(1500) / 1500
        pts = np.concatenate([np.column_stack((r * np.cos(angles), r * np.sin(angles))) for r, _ in cons.circle_spec])
        scores, _, _, exact = evaluate_points(cons.set, k, pts)
        expected, hit = _brute_scores(cons.set, k, pts)
        assert scores.tobytes() == expected.tobytes()
        assert np.array_equal(exact, hit) and hit.any()

    def test_large_set_keeps_whole_culling_tiles(self, monkeypatch):
        # M = 335 prototypes exceed _BLOCK_ENTRIES // _CULL_TILE, so a culling
        # tile that keeps every prototype is scored in several pieces; the
        # tile itself still spans _CULL_TILE points. Scattered queries make
        # every tile's box cover the whole set, so every prototype is kept.
        cons = circle_hard_baseline(14)
        m = len(cons.set)
        assert m > _BLOCK_ENTRIES // classifier._CULL_TILE
        kept = _spy(monkeypatch, "_kept")
        blocks = _spy(monkeypatch, "score_block")
        pts = np.random.default_rng(14).uniform(-21.0, 21.0, (3000, 2))
        scores, _, _, _ = evaluate_points(cons.set, 1, pts)
        assert kept and all(call[3] == classifier._CULL_TILE for call in kept)
        pieces = [len(call[3]) for call in blocks]
        assert all(len(call[0]) == m for call in blocks)
        assert _BLOCK_ENTRIES // m in pieces and max(pieces) < classifier._CULL_TILE
        assert scores.tobytes() == _brute_scores(cons.set, 1, pts)[0].tobytes()

    def test_overflowing_bounds(self, monkeypatch):
        # From queries near +-1e200 every distance and every box bound
        # overflows to inf: every prototype is kept, every weight is 0, and
        # numpy raises no overflow warning (tier-1 makes one an error).
        original = classifier._kept
        kept = _spy(monkeypatch, "_kept")
        far = np.column_stack((np.full(300, 1e200), np.linspace(-1e200, 1e200, 300)))
        for k in (1, 3):
            scores, predicted, _, _ = evaluate_points(circle_hard_baseline(6).set, k, far)
            assert not scores.any() and not predicted.any()
        assert len(kept) == 2 and all(keep is None for call in kept for keep in original(*call))

    def test_when_tiles_are_culled(self, monkeypatch):
        kept = _spy(monkeypatch, "_kept")
        rng = np.random.default_rng(0)
        big = make_prototype_set(rng.uniform(-1, 1, (250, 2)), rng.uniform(0, 1, (250, 3)))
        small = make_prototype_set(rng.uniform(-1, 1, (8, 2)), rng.uniform(0, 1, (8, 3)))
        evaluate_points(big, 1, rng.uniform(-1, 1, (5, 2)))  # a small call
        evaluate_points(big, 250, rng.uniform(-1, 1, (600, 2)))  # k = M
        evaluate_points(small, 2, rng.uniform(-1, 1, (600, 2)))  # a small set
        assert kept == []
        evaluate_points(big, 1, rng.uniform(-1, 1, (600, 2)))
        assert len(kept) == 1 and len(kept[0][2]) == 600


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


# --- Stacked sets: the invariance variants of many trials in one call --------

# Sparse label rows: exact zeros of both signs, negative and inexact weights.
LABEL_VALUES = (0.0, 0.0, -0.0, 1.0, 0.5, -0.75, 1.0 / 3.0, 0.1, 2.5)


def _distinct_rows(positions):
    """Move every row that repeats an earlier one along axis 0, off the drawn lattice: the rule refuses coincident prototypes."""
    repeats = np.setdiff1d(np.arange(len(positions)), np.unique(positions, axis=0, return_index=True)[1])
    positions[repeats, 0] += 7.0 * np.arange(1, len(repeats) + 1)
    return positions


def _turn(theta, dim):
    """A rotation by theta in the plane of the first two axes (the identity in one dimension)."""
    rot = np.eye(dim)
    if dim >= 2:
        rot[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    return rot


@st.composite
def stacked_case(draw):
    """A set on a small lattice, one k per selection path, and per trial a transform and its queries.

    Lattice positions and half-step queries make many exact distance ties;
    the rule refuses coincident prototypes, so a row that repeats an earlier
    one is moved along axis 0, off the drawn lattice. A query index of -1
    keeps the lattice query, any other puts the query exactly on that
    (moved) prototype.
    """
    path = draw(st.sampled_from(["k1", "sorted", "kM"]))
    m = draw(st.integers(3 if path == "sorted" else 1, 40))
    k = {"k1": 1, "kM": m}.get(path) or draw(st.integers(2, m - 1))
    dim, ncls = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    trials, per = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    positions = _distinct_rows(draw(arrays(float, (m, dim), elements=st.integers(-3, 3).map(float))))
    labels = draw(arrays(float, (m, ncls), elements=st.sampled_from(LABEL_VALUES)))
    queries = draw(arrays(float, (trials, per, dim), elements=st.integers(-8, 8).map(lambda v: v / 2)))
    on = draw(arrays(np.intp, (trials, per), elements=st.integers(-1, m - 1)))
    theta = draw(arrays(float, trials, elements=st.floats(0.0, 2 * math.pi)))
    shift = draw(arrays(float, (trials, dim), elements=st.floats(-10.0, 10.0)))
    c = draw(arrays(float, trials, elements=st.floats(0.1, 10.0)))
    d = draw(arrays(float, trials, elements=st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)))
    tile = draw(st.integers(1, 30))
    pset = PrototypeSet(positions, labels, LabelKind.UNRESTRICTED, "lattice")
    return pset, k, queries, on, theta, shift, c, d, tile


def _variants(pset, queries, on, theta, shift, c, d):
    """Per variant kind: the per-trial reference sets and points, and the stacks the harness builds for them."""
    rots = [_turn(a, pset.dim) for a in theta]
    moved = [transformed_set(pset, rot, s) for rot, s in zip(rots, shift)]
    moved_points = np.stack([q @ rot.T + s for q, rot, s in zip(queries, rots, shift)])
    points = queries.copy()
    for t, j in zip(*np.nonzero(on >= 0)):
        moved_points[t, j] = moved[t].positions[on[t, j]]
        points[t, j] = pset.positions[on[t, j]]
    return {
        "rigid_motion": (
            moved,
            moved_points,
            np.stack([pset.positions @ rot.T + s for rot, s in zip(rots, shift)]),
            pset.labels,
        ),
        "label_scale": ([scaled_label_set(pset, float(x)) for x in c], points, pset.positions, pset.labels * c[:, None, None]),
        "label_shift": ([shifted_label_set(pset, float(x)) for x in d], points, pset.positions, pset.labels + d[:, None, None]),
    }


@pytest.mark.parametrize(
    "k, shift, match",
    [
        (3, 0.0, r"^k=3 out of range for 2 prototypes$"),
        (2.0, 0.0, r"^k must be an integer, got 2\.0$"),
        (2, np.nan, r"^prototype positions and labels must be finite; run validate\(\)"),
    ],
    ids=["k-too-large", "float-k", "one-set-not-finite"],
)
def test_stacked_sets_checked(pair_set, k, shift, match):
    labels = pair_set.labels + np.array([0.0, shift])[:, None, None]
    with pytest.raises(ValueError, match=match):
        classifier._evaluate_stacked(pair_set.positions, labels, k, np.zeros((2, 1, 2)))


@settings(max_examples=300, deadline=None)
@given(stacked_case(), st.sampled_from([0, classifier._CALL_ENTRIES]))
def test_stacked_sets_match_per_trial_calls(case, call_entries):
    # The stacked entry, in tiles of a drawn number of rows, and one
    # score_block call over every row, each row owning its own set, give the
    # bytes that one evaluate_points call per trial gives on the reference
    # variant sets. A _CALL_ENTRIES of 0 scores the rigid-motion stacks
    # class-major wherever a tile has two rows or more.
    pset, k, queries, on, theta, shift, c, d, tile = case
    trials, per = on.shape
    m, ncls = pset.labels.shape
    for name, (sets, points, positions, labels) in _variants(pset, queries, on, theta, shift, c, d).items():
        expected = [np.stack(parts) for parts in zip(*(evaluate_points(s, k, p) for s, p in zip(sets, points)))]
        with mock.patch.multiple(classifier, _TILE_SCORE_ENTRIES=tile * ncls, _CALL_ENTRIES=call_entries):
            got = classifier._evaluate_stacked(positions, labels, k, points)
        for what, a, b in zip(("scores", "predicted", "confidence", "exact_hit"), got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape, (name, what)
            assert a.tobytes() == b.tobytes(), (name, what)

        rows = np.arange(trials * per)
        row_positions = np.repeat(np.broadcast_to(positions, (trials, m, pset.dim)), per, axis=0)
        row_labels = np.repeat(np.broadcast_to(labels, (trials, m, ncls)), per, axis=0)
        out = np.empty((trials * per, ncls))
        nearest, nearest_dist = score_block(
            row_positions, row_labels, k, points.reshape(-1, pset.dim), out,
            np.empty((2, trials * per, m)), np.empty((trials * per, ncls)), owner=rows,
        )
        hit = nearest_dist < COINCIDENT_TOL
        out[hit] = row_labels[rows[hit], nearest[hit]]
        assert out.tobytes() == expected[0].reshape(-1, ncls).tobytes(), name
        assert hit.tobytes() == expected[3].reshape(-1).tobytes(), name


def test_stacked_labels_are_not_copied_per_row():
    # A label-scale stack of 10 trials x 5 queries on circle_hard_baseline(12)
    # (M = 250, C = 12): the stack itself is 240000 B. tracemalloc peaks of
    # this call (2-core Xeon VM, Python 3.11.7, numpy 2.4.6): 946386 B when
    # each tile copied its rows' sets into (18, 250, 12) buffers, 342586 B
    # with the stack read in place, which is one 50-row tile of distances.
    pset = circle_hard_baseline(12).set
    rng = np.random.default_rng(0)
    labels = pset.labels * np.exp(rng.uniform(math.log(0.1), math.log(10.0), 10))[:, None, None]
    points = rng.uniform(-8.0, 8.0, (10, 5, 2))
    classifier._evaluate_stacked(pset.positions, labels, 1, points)
    tracemalloc.start()
    try:
        classifier._evaluate_stacked(pset.positions, labels, 1, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * labels.nbytes


# --- One bit-level contract for every scoring route ---------------------------

# LABEL_VALUES plus the smallest negative subnormal, whose weighted term
# rounds to -0.0 beyond distance 2.
CONTRACT_VALUES = LABEL_VALUES + (-5e-324,)


@st.composite
def contract_case(draw):
    """A set on a small lattice, a k on one selection path, and queries on half steps or exactly on prototypes.

    Lattice positions and half-step queries make many exact distance ties.
    Labels are one-hot, probabilistic (counts over their total) or any of
    ``CONTRACT_VALUES``; every kind has sparse rows, and its zeros are +0.0
    or -0.0 (unrestricted rows also hold negative weights).
    """
    path = draw(st.sampled_from(["k1", "sorted", "kM"]))
    m = draw(st.integers(3 if path == "sorted" else 1, 40))
    k = {"k1": 1, "kM": m}.get(path) or draw(st.integers(2, m - 1))
    dim, ncls = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(list(LabelKind)))
    positions = _distinct_rows(draw(arrays(float, (m, dim), elements=st.integers(-3, 3).map(float))))
    zeros = draw(arrays(float, (m, ncls), elements=st.sampled_from([0.0, -0.0])))
    if kind == LabelKind.HARD:
        labels = zeros
        labels[np.arange(m), draw(arrays(np.intp, m, elements=st.integers(0, ncls - 1)))] = 1.0
    elif kind == LabelKind.PROBABILISTIC:
        counts = draw(arrays(float, (m, ncls), elements=st.integers(0, 3).map(float)))
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        labels = np.where(counts > 0, counts / counts.sum(axis=1, keepdims=True), zeros)
    else:
        labels = draw(arrays(float, (m, ncls), elements=st.sampled_from(CONTRACT_VALUES)))
    count = draw(st.integers(1, 24))
    queries = draw(arrays(float, (count, dim), elements=st.integers(-8, 8).map(lambda v: v / 2)))
    on = draw(arrays(np.intp, count, elements=st.integers(-1, m - 1)))
    queries[on >= 0] = positions[on[on >= 0]]
    return PrototypeSet(positions, labels, kind, "lattice"), k, queries


def _reference_outputs(pset, k, points):
    """``evaluate_points``' four arrays from the rule written out (``_reference_scores``).

    A query within ``COINCIDENT_TOL`` of a prototype takes the struck
    prototype's label and an infinite confidence; otherwise the class is
    the first maximum and the confidence the gap between the two largest
    scores of a sort.
    """
    positions, labels = pset.positions, pset.labels
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _reference_scores(positions, labels, k, points)
    dist = np.sqrt(((points[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2))
    nearest = dist.argmin(axis=1)
    hit = dist[np.arange(len(points)), nearest] < COINCIDENT_TOL
    scores[hit] = labels[nearest[hit]]
    top = np.sort(scores, axis=1)
    confidence = top[:, -1] - top[:, -2] if labels.shape[1] > 1 else np.full(len(points), np.inf)
    confidence[hit] = np.inf
    return scores, scores.argmax(axis=1), confidence, hit


# Cell centres of this frame are the half steps from -3.5 to 3.5.
CONTRACT_BOUNDS, CONTRACT_CELLS = (-3.75, 3.75, -3.75, 3.75), 15


@pytest.mark.parametrize("culled", [False, True], ids=["unculled", "culled"])
@settings(max_examples=150, deadline=None)
@given(
    case=contract_case(),
    tile=st.integers(1, 40),
    call_entries=st.sampled_from([0, classifier._CALL_ENTRIES]),
)
def test_every_route_matches_reference(culled, case, tile, call_entries):
    # Every entry, in tiles of a drawn number of rows, gives the reference's
    # bytes. A _CALL_ENTRIES of 0 takes the class-major k = M path wherever a
    # tile has two rows or more; culled runs cull every tile of every call.
    pset, k, queries = case
    ncls = pset.num_classes
    expected = _reference_outputs(pset, k, queries)
    with ExitStack() as stack:
        patch = lambda module, name, value: stack.enter_context(mock.patch.object(module, name, value))  # noqa: E731
        patch(classifier, "_TILE_SCORE_ENTRIES", tile * ncls)
        patch(classifier, "_CALL_ENTRIES", call_entries)
        if culled:
            for name, value in (("_CULL_TILE", 5), ("_CULL_MIN_POINTS", 1), ("_CULL_MIN_PROTOTYPES", 2)):
                patch(classifier, name, value)
            patch(landscape, "_PATCH_COLS", 8)

        for what, a, b in zip(("scores", "predicted", "confidence", "exact_hit"), evaluate_points(pset, k, queries), expected):
            assert a.dtype == b.dtype and a.shape == b.shape, what
            assert a.tobytes() == b.tobytes(), what
        assert classifier._predicted(pset, k, queries).tobytes() == expected[1].tobytes()
        # The stacked entry with per-set positions, as the rigid-motion variant calls it.
        for a, b in zip(classifier._evaluate_stacked(pset.positions[None], pset.labels, k, queries[None]), expected):
            assert a[0].tobytes() == b.tobytes()
        for i, q in enumerate(queries):
            one = classify(pset, k, q)
            assert one.scores.tobytes() == expected[0][i].tobytes()
            assert (one.predicted, one.exact_hit) == (expected[1][i], expected[3][i])
            assert np.float64(one.confidence).tobytes() == expected[2][i].tobytes()

        if pset.dim == 2:
            xs = landscape._cell_centers(*CONTRACT_BOUNDS[:2], CONTRACT_CELLS)
            ys = landscape._cell_centers(*CONTRACT_BOUNDS[2:], CONTRACT_CELLS)
            centres = np.column_stack((np.tile(xs, len(ys)), np.repeat(ys, len(xs))))
            _, classes, confidence, hit = _reference_outputs(pset, k, centres)
            cols = min(landscape._PATCH_COLS, CONTRACT_CELLS)
            for rows in (CONTRACT_CELLS, 5):  # rectangles as high as the grid, then a third of it
                patch(landscape, "_CHUNK_CELLS", rows * cols)
                grid = rasterize(pset, k, CONTRACT_BOUNDS, CONTRACT_CELLS, CONTRACT_CELLS)
                assert grid.classes.tobytes() == classes.astype(np.int32).tobytes()
                assert grid.confidence.tobytes() == confidence.tobytes()
                assert list(grid.exact_hits) == [divmod(int(i), CONTRACT_CELLS) for i in np.flatnonzero(hit)]


def test_reference_takes_struck_label_and_index_order():
    # The oracle itself: a query on prototype 1 takes its label, -0.0
    # included, and at k = M the terms add in prototype index order.
    pset = PrototypeSet([(0.0, 0.0), (3.0, 0.0), (0.0, 2.0)], [[0.1, -0.0], [-0.0, 0.7], [0.3, 0.0]], LabelKind.UNRESTRICTED)
    scores, predicted, confidence, hit = _reference_outputs(pset, 3, np.array([(3.0, 0.0), (1.0, 1.0)]))
    assert scores[0].tobytes() == np.array([-0.0, 0.7]).tobytes() and hit.tolist() == [True, False]
    d = math.sqrt(2.0)
    assert scores[1, 0] == (0.0 + 0.1 / d) + 0.3 / d
    assert scores[1, 1] == 0.0 + 0.7 / math.sqrt(5.0)
    assert predicted.tolist() == [1, 1] and confidence[0] == np.inf


class TestClassMajorMemory:
    @pytest.mark.parametrize(
        "build, parent_peak",
        [(lambda: polygon_with_center(8), 1562304), (lambda: circle_soft_fit(6), 1872336), (lambda: concentric_ellipses(6), 1697584)],
        ids=["polygon_with_center(8)", "circle_soft_fit(6)", "concentric_ellipses(6)"],
    )
    def test_peak_at_most_row_major_tiles(self, build, parent_peak):
        # A class-major k = M tile spends at most the bytes of the row-major
        # tile it replaced, on more rows. tracemalloc peaks of this call with
        # row-major tiles (2-core Xeon VM, Python 3.11.7, numpy 2.4.6), the
        # three output arrays (544 KiB) included: 1562304 B for
        # polygon_with_center(8), 1872336 B for circle_soft_fit(6) and
        # 1697584 B for concentric_ellipses(6). With class-major tiles the
        # same calls read 1396705, 1412243 and 1249689 B.
        pset = build().set
        m = len(pset)
        rng = np.random.default_rng(0)
        points = rng.uniform(pset.positions.min(axis=0) - 1, pset.positions.max(axis=0) + 1, size=(32768, 2))
        assert classifier._class_major(pset.labels, m, 32768)
        classifier._predicted(pset, m, points)
        tracemalloc.start()
        try:
            classifier._predicted(pset, m, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak


class TestCulledMemory:
    @pytest.mark.parametrize("k, parent_peak", [(2, 1020512), (3, 1045584)])
    def test_product_buffer_sized_by_culling_span(self, k, parent_peak):
        # A culled tile of 2560 rows is scored in calls of at most 512 rows,
        # and its product buffer is sized by the call: 512 x 12 floats where
        # it was 2560 x 12, 196608 B fewer. tracemalloc peaks with the
        # tile-sized buffer (2-core Xeon VM, Python 3.11.7, numpy 2.4.6):
        # 1020512 B at k = 2 and 1045584 B at k = 3; sized by the call, the
        # same calls read 823904 and 849040 B.
        pset = circle_hard_baseline(12).set
        angles = 2.0 * math.pi * np.arange(10000) / 10000
        points = 6.0 * np.column_stack((np.cos(angles), np.sin(angles)))
        assert classifier._culls(len(pset), k)
        classifier._predicted(pset, k, points)
        tracemalloc.start()
        try:
            classifier._predicted(pset, k, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak - 131072


def _class_major_sorted(calls):
    """Per spied ``score_block`` call, whether it got a class-major ``out`` at 1 <= k < M."""
    return [call[4].strides[0] < call[4].strides[1] and call[2] < call[0].shape[-2] for call in calls]


def _assert_reference_bytes(pset, k, points):
    """``evaluate_points`` and ``_predicted`` give ``_reference_outputs``' bytes (distances may overflow to inf)."""
    with np.errstate(over="ignore"):
        expected = _reference_outputs(pset, k, points)
    for what, a, b in zip(("scores", "predicted", "confidence", "exact_hit"), evaluate_points(pset, k, points), expected):
        assert a.tobytes() == b.tobytes(), (k, what)
    assert classifier._predicted(pset, k, points).tobytes() == expected[1].tobytes(), k
    return expected


def _lattice_set(m, labels, scale=1.0):
    """``m`` prototypes on distinct points of the 7 x 7 integer lattice around the origin, times ``scale``."""
    cells = np.random.default_rng(m).choice(49, size=m, replace=False)
    positions = np.column_stack((cells % 7, cells // 7)).astype(float) - 3.0
    return PrototypeSet(positions * scale, labels, LabelKind.UNRESTRICTED, "lattice")


# 625 queries on the half steps of [-6, 6]^2: many exact distance ties, at
# the k-th place too, and exact hits on every lattice prototype.
HALF_STEPS = np.column_stack([a.ravel() for a in np.meshgrid(np.arange(-6.0, 6.5, 0.5), np.arange(-6.0, 6.5, 0.5))])


class TestClassMajorSorted:
    """Class-major tiles at 1 <= k < M: where they are taken, and that their bytes are the rule's."""

    def test_rule_size(self):
        # Each numpy call of a round covers rows x M or rows x C entries.
        labels = polygon_pairs(8).set.labels
        assert labels.shape == (8, 16)
        assert classifier._class_major(labels, 2, 256) and not classifier._class_major(labels, 2, 255)
        assert classifier._class_major(labels[:, :4], 1, 512) and not classifier._class_major(labels[:, :4], 1, 511)

    def test_taken_on_unculled_raster_tiles(self, monkeypatch):
        cons = polygon_pairs(8)
        calls = _spy(monkeypatch, "score_block")
        rasterize(cons.set, cons.required_k, None, 256, 256)
        assert calls and all(_class_major_sorted(calls))

    def test_not_taken_on_culled_tiles_or_small_calls(self, monkeypatch):
        rng = np.random.default_rng(0)
        circles = circle_hard_baseline(6).set
        calls = _spy(monkeypatch, "score_block")
        rasterize(circles, 1, None, 128, 128)
        evaluate_points(circles, 3, rng.uniform(-8.0, 8.0, (2000, 2)))
        evaluate_points(polygon_pairs(8).set, 2, rng.uniform(-2.0, 2.0, (24, 2)))
        assert calls and not any(_class_major_sorted(calls))

    def test_taken_on_stacked_positions(self, monkeypatch):
        # Per-set positions with shared labels, as the rigid-motion variant
        # calls it: tiles of 2048 rows, past the rule's 256.
        rng = np.random.default_rng(0)
        pairs = polygon_pairs(8).set
        turned = np.broadcast_to(pairs.positions, (10, 8, 2)) * rng.uniform(0.5, 2.0, (10, 1, 1))
        calls = _spy(monkeypatch, "score_block")
        classifier._evaluate_stacked(turned, pairs.labels, 2, rng.uniform(-2.0, 2.0, (10, 300, 2)))
        assert all(len(call[3]) >= 256 and call[0].ndim == 3 for call in calls)
        assert calls and all(_class_major_sorted(calls))

    def test_contract_reaches_the_route(self, monkeypatch):
        # test_every_route_matches_reference's call_entries=0 draws take this
        # route on unculled tiles of two rows or more.
        calls = _spy(monkeypatch, "score_block")
        pset = _lattice_set(9, np.random.default_rng(9).choice(CONTRACT_VALUES, size=(9, 3)))
        inner = test_every_route_matches_reference.hypothesis.inner_test
        inner(culled=False, case=(pset, 3, HALF_STEPS[::37]), tile=8, call_entries=0)
        assert any(_class_major_sorted(calls))

    @pytest.mark.parametrize("m", [4, 9, 15])
    def test_lattice_ties_every_k(self, monkeypatch, m):
        pset = _lattice_set(m, np.random.default_rng(m).choice(CONTRACT_VALUES, size=(m, 16)))
        calls = _spy(monkeypatch, "score_block")
        for k in range(1, m):
            calls.clear()
            assert _assert_reference_bytes(pset, k, HALF_STEPS)[3].any()
            assert calls and all(_class_major_sorted(calls))

    def test_overflowing_distances(self, monkeypatch):
        # On a lattice scaled by 2**511 a gap of 1.5 steps squares past the
        # largest float: each query has a few finite distances and infinite
        # ones after them. From queries near +-1e200 every distance is
        # infinite, and the stable order is index order.
        m = 12
        pset = _lattice_set(m, np.random.default_rng(1).choice(CONTRACT_VALUES, size=(m, 16)), 2.0**511)
        signs = np.random.default_rng(2).choice([-1.0, 1.0], size=(300, 2))
        far = signs * 1e200 * np.linspace(1.0, 1.5, 300)[:, None]
        calls = _spy(monkeypatch, "score_block")
        for k in range(1, m):
            _assert_reference_bytes(pset, k, np.concatenate((HALF_STEPS * 2.0**511, far)))
            scores = evaluate_points(pset, k, far)[0]
            assert scores.tobytes() == np.zeros_like(scores).tobytes()
        assert calls and all(_class_major_sorted(calls))

    def test_signed_zero_and_subnormal_labels(self, monkeypatch):
        # -0.0 and -5e-324 weights make -0.0 terms, which leave a sum that
        # starts at +0.0 unchanged; an exact hit keeps its label's -0.0.
        m = 10
        pset = _lattice_set(m, np.random.default_rng(3).choice([0.0, -0.0, -5e-324, 5e-324, 1.0], size=(m, 16)))
        calls = _spy(monkeypatch, "score_block")
        for k in range(1, m):
            scores = _assert_reference_bytes(pset, k, HALF_STEPS)[0]
            assert np.signbit(scores).any() and (scores == 0.0).any()
        assert calls and all(_class_major_sorted(calls))

    @pytest.mark.parametrize(
        "build, parent_peaks",
        [(lambda: polygon_pairs(8), (1839372, 5771052)), (lambda: star_pairs(8), (1871340, 5541420))],
        ids=["polygon_pairs(8)", "star_pairs(8)"],
    )
    def test_peak_at_most_row_major_tiles(self, build, parent_peaks):
        # A class-major k < M tile spends at most the bytes of the row-major
        # tile it replaced. tracemalloc peaks of _predicted and
        # evaluate_points with row-major tiles (2-core Xeon VM, Python 3.11.7,
        # numpy 2.4.6), outputs included: 1839372 and 5771052 B for
        # polygon_pairs(8), 1871340 and 5541420 B for star_pairs(8). With
        # class-major tiles the same calls read 1580384 and 5573588 B, and
        # 1623336 and 5314774 B.
        cons = build()
        pset, k = cons.set, cons.required_k
        rng = np.random.default_rng(0)
        points = rng.uniform(pset.positions.min(axis=0) - 1, pset.positions.max(axis=0) + 1, size=(32768, 2))
        assert 1 < k < len(pset) and classifier._class_major(pset.labels, k, 32768)
        for entry, parent_peak in zip((classifier._predicted, evaluate_points), parent_peaks):
            entry(pset, k, points)
            tracemalloc.start()
            try:
                entry(pset, k, points)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= parent_peak


DUPLICATE_SET = ([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


class TestCoincidentPositionsRefused:
    """A set with two prototypes at one position is refused by every scoring entry, checked once per set."""

    MESSAGE = r"^prototype positions must be distinct; run validate\(\) for details$"

    @pytest.mark.parametrize(
        "entry",
        [evaluate_points, classifier._predicted, classify, classify_batch],
        ids=["evaluate_points", "predicted", "classify", "classify_batch"],
    )
    def test_refused(self, entry):
        pset = make_prototype_set(*DUPLICATE_SET, kind=LabelKind.HARD)
        with pytest.raises(ValueError, match=self.MESSAGE):
            entry(pset, 1, (0.5, 0.5))

    def test_still_built_and_diagnosed(self):
        pset = make_prototype_set(*DUPLICATE_SET, kind=LabelKind.HARD)
        assert validate(pset) == ["prototypes 0 and 2: duplicate position"]
        assert pset.defect == "prototype positions must be distinct"

    def test_non_finite_named_first(self):
        pset = make_prototype_set([(0.0, 0.0), (0.0, 0.0)], np.array([[np.nan], [1.0]]))
        assert pset.defect == "prototype positions and labels must be finite"

    def test_checked_once_per_set(self, monkeypatch):
        calls = []
        original = core._coincident_pairs
        monkeypatch.setattr(core, "_coincident_pairs", lambda pos: calls.append(1) or original(pos))
        pset = make_prototype_set([(0.0, 0.0), (1.0, 0.0)], np.eye(2), kind=LabelKind.HARD)
        for _ in range(3):
            evaluate_points(pset, 1, [(0.2, 0.0)])
            classifier._predicted(pset, 2, [(0.2, 0.0)])
        assert len(calls) == 1 and pset.defect is None
