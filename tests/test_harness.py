"""Verification harness: class counts, boundaries, circles, invariances, reports."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from softknn import (
    boundary_bisect,
    circle_hard_baseline,
    circle_soft_fit,
    classifier,
    classify,
    concentric_ellipses,
    default_bounds,
    evaluate_points,
    harness,
    n_from_two,
    polygon_pairs,
    polygon_with_center,
    scaled_label_set,
    shifted_label_set,
    standard_report,
    star_pairs,
    three_from_two,
    transformed_set,
    verify_boundaries,
    verify_circle_separation,
    verify_class_count,
    verify_hard_label_oracle,
    verify_invariances,
)


class TestClassCount:
    def test_pair_and_star(self):
        check = verify_class_count(three_from_two(3.0), resolutions=(128, 256))
        assert check.passed
        assert check.observed == {"128": 3, "256": 3}
        assert verify_class_count(star_pairs(5), resolutions=(256, 512)).passed

    def test_circle_baseline_count(self):
        assert verify_class_count(circle_hard_baseline(3), resolutions=(256,)).passed

    def test_failure_is_a_result_not_an_error(self):
        # A 2x2 raster cannot show three classes along a segment.
        check = verify_class_count(three_from_two(3.0), resolutions=(2,))
        assert not check.passed
        assert check.observed["2"] < 3


class TestBoundaries:
    def test_pair_crossings(self):
        check = verify_boundaries(three_from_two(3.0))
        assert check.passed
        assert check.observed["max_fraction_error"] < 1e-6
        assert len(check.observed["crossings"]) == 2

    def test_star_absolute_distances(self):
        # Spoke length 2 with six prototypes: crossings at 10/31 and 20/23
        # absolute, i.e. fractions 5/31 and 10/23 of the spoke.
        cons = star_pairs(6, radius=2.0)
        (_, fractions) = cons.boundary_spec[0]
        np.testing.assert_allclose(
            [f * 2.0 for f in fractions], [10 / 31, 20 / 23], atol=1e-12
        )
        check = verify_boundaries(cons)
        assert check.passed

    def test_n_from_two_eighths(self):
        check = verify_boundaries(n_from_two(8))
        assert check.passed
        observed = [c["observed"] for c in check.observed["crossings"]]
        np.testing.assert_allclose(observed, [i / 8 for i in range(1, 8)], atol=1e-6)

    def test_radial_crossings_of_fitted_bands(self):
        check = verify_boundaries(concentric_ellipses(4))
        assert check.passed
        assert check.observed["max_radius_error"] < 1e-3


class TestCircleSeparation:
    def test_hard_six_circles(self):
        check = verify_circle_separation(circle_hard_baseline(6), samples_per_circle=2000)
        assert check.passed
        assert check.observed["total_misclassified"] == 0

    def test_hard_twenty_circles(self):
        # The one check of the hard baseline's separation claim, at n = 20.
        check = verify_circle_separation(circle_hard_baseline(20), samples_per_circle=4096)
        assert check.passed

    def test_soft_fit_six_circles(self):
        check = verify_circle_separation(circle_soft_fit(6), samples_per_circle=2000)
        assert check.passed

    def test_single_circle_trivial(self):
        assert verify_circle_separation(circle_hard_baseline(1), samples_per_circle=500).passed

    def test_requires_circle_spec(self):
        with pytest.raises(ValueError, match="circle"):
            verify_circle_separation(three_from_two(3.0))


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda: verify_class_count(three_from_two(3.0), resolutions=()), id="no-resolutions"),
        pytest.param(lambda: verify_circle_separation(circle_hard_baseline(2), samples_per_circle=0), id="no-samples"),
        pytest.param(lambda: verify_invariances(three_from_two(3.0), trials=0), id="no-trials"),
    ],
)
def test_vacuous_check_refused(check):
    # A check that compares nothing would pass; it must be an input error.
    with pytest.raises(ValueError, match="at least"):
        check()


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0)], ids=repr)
@pytest.mark.parametrize(
    "name, check",
    [
        ("samples_per_circle", lambda v: verify_circle_separation(circle_hard_baseline(3), samples_per_circle=v)),
        ("trials", lambda v: verify_invariances(three_from_two(3.0), trials=v)),
        ("instances", lambda v: verify_hard_label_oracle(instances=v)),
        ("trials", lambda v: standard_report("three_from_two", three_from_two(3.0), trials=v)),
        ("seed", lambda v: verify_invariances(three_from_two(3.0), seed=v)),
        ("seed", lambda v: verify_hard_label_oracle(seed=v)),
        ("seed", lambda v: standard_report("three_from_two", three_from_two(3.0), seed=v)),
    ],
    ids=["circle-samples", "trials", "instances", "report-trials", "seed", "oracle-seed", "report-seed"],
)
def test_non_integer_count_refused(name, check, value):
    # A fractional count would sample unevenly or hit numpy's bare TypeError.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        check(value)


@pytest.mark.parametrize(
    "sizes",
    [
        pytest.param({"resolutions": ()}, id="no-resolutions"),
        pytest.param({"trials": 0}, id="no-trials"),
        pytest.param({"seed": -1}, id="negative-seed"),
    ],
)
def test_standard_report_refuses_before_rasterizing(sizes, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rasterized before the sizes were checked")

    monkeypatch.setattr("softknn.harness.rasterize", forbidden)
    with pytest.raises(ValueError, match="at least"):
        standard_report("three_from_two", three_from_two(3.0), **sizes)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: boundary_bisect(three_from_two(3.0).set, 2, (0.0, 0.0), (1.5, 0.0), scan=8), id="scan"),
        pytest.param(lambda: boundary_bisect(three_from_two(3.0).set, 2, (0.0, 0.0), (1.5, 0.0), tol=0.0), id="tol"),
        pytest.param(
            lambda: boundary_bisect(three_from_two(3.0).set, 2, (0.0, 0.0), (1.5, 0.0), class_pair=(0, 1)),
            id="class-pair",
        ),
        pytest.param(lambda: verify_invariances(three_from_two(3.0), queries_per_trial=2), id="queries"),
        pytest.param(lambda: standard_report("c", circle_hard_baseline(2), samples_per_circle=8), id="report-samples"),
        pytest.param(lambda: verify_boundaries(three_from_two(3.0), tol=1e-6), id="boundary-tol"),
        pytest.param(lambda: verify_boundaries(concentric_ellipses(2), radial_tol=1e-3), id="radial-tol"),
    ],
)
def test_retired_option_refused(call):
    # These sizes and tolerances are module constants; passing one is a TypeError, not a silent no-op.
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


class TestInvariances:
    def test_hundred_trials_on_five_band_pair(self):
        checks = verify_invariances(n_from_two(5), trials=100, seed=0)
        assert [c.name for c in checks] == [
            "invariance_rigid_motion",
            "invariance_label_scale",
            "invariance_label_shift",
        ]
        assert all(c.passed for c in checks)
        assert all(c.observed["comparisons"] == 500 for c in checks)

    def test_zero_scale_rejected_as_input_error(self):
        with pytest.raises(ValueError, match="positive"):
            scaled_label_set(three_from_two(3.0).set, 0.0)

    @pytest.mark.parametrize(
        "build, c, message",
        [
            (scaled_label_set, math.inf, "label scale must be finite, got inf"),
            (scaled_label_set, math.nan, "label scale must be positive, got nan"),
            (shifted_label_set, math.nan, "label shift must be finite, got nan"),
            (shifted_label_set, -math.inf, "label shift must be finite, got -inf"),
            (scaled_label_set, "a", "label scale must be a real number, got 'a'"),
            (scaled_label_set, True, "label scale must be a real number, got True"),
            (shifted_label_set, "a", "label shift must be a real number, got 'a'"),
            (shifted_label_set, True, "label shift must be a real number, got True"),
        ],
        ids=["scale-inf", "scale-nan", "shift-nan", "shift-minus-inf", "scale-string", "scale-bool", "shift-string", "shift-bool"],
    )
    def test_non_finite_constant_refused(self, build, c, message):
        # These used to build sets of inf or NaN labels without a word.
        with pytest.raises(ValueError, match=rf"^{message}$"):
            build(three_from_two(3.0).set, c)

    def test_identity_transform_trivially_passes(self):
        pset = three_from_two(3.0).set
        moved = transformed_set(pset, np.eye(2), np.zeros(2))
        for x in [(0.4, 0.2), (1.7, -0.5), (2.9, 0.0)]:
            assert classify(moved, 2, x).predicted == classify(pset, 2, x).predicted

    @pytest.mark.parametrize(
        "rotation, translation", [(np.eye(3), np.zeros(2)), (np.eye(2), np.zeros(3)), (np.eye(2), 0.0), (np.ones(2), np.zeros(2))],
        ids=["3x3-rotation", "3-translation", "scalar-translation", "vector-rotation"],
    )
    def test_transform_shapes_refused(self, rotation, translation):
        # A 3x3 rotation used to fail inside matmul with a gufunc signature message.
        with pytest.raises(ValueError, match=r"^rotation must be \(2, 2\) and translation \(2,\), got "):
            transformed_set(three_from_two(3.0).set, rotation, translation)

    def test_shifted_labels_change_scores_not_classes(self):
        pset = three_from_two(3.0).set
        shifted = shifted_label_set(pset, 5.0)
        base = classify(pset, 2, (0.4, 0.2))
        moved = classify(shifted, 2, (0.4, 0.2))
        assert moved.predicted == base.predicted
        assert not np.allclose(moved.scores, base.scores)

    @pytest.mark.parametrize("build, trials, calls", [(lambda: polygon_pairs(8), 100, 3), (lambda: circle_hard_baseline(6), 100, 6)])
    def test_one_stacked_call_per_variant_kind_and_tile_of_trials(self, monkeypatch, build, trials, calls):
        # A tile of trials holds at most _TRIAL_ENTRIES = 65536 floats of
        # variant sets, M x 2 + 5 x 2 + 2 x M x C per trial: polygon_pairs(8)
        # builds 282 per trial, so its 100 trials are one tile;
        # circle_hard_baseline(6) builds 962, so tiles of 68 and 32.
        cons = build()
        seen = []

        def spy(positions, labels, k, points):
            seen.append(len(points))
            return classifier._evaluate_stacked(positions, labels, k, points)

        monkeypatch.setattr("softknn.harness._evaluate_stacked", spy)
        assert all(c.passed for c in verify_invariances(cons, trials=trials, seed=0))
        assert len(seen) == calls and sum(seen) == 3 * trials

    def test_memory_bounded_by_tile(self):
        # The variant sets are built and scored one tile of trials at a time,
        # so the peak is the draws', not trials x queries x M x C. In-process
        # tracemalloc peaks of this call (2-core Xeon VM, Python 3.11.7,
        # numpy 2.4.6): 3.28 MiB when every trial built three sets and scored
        # them in its own calls, 3.07 MiB with the stacked calls. The 0.21 MiB
        # between them is the draws' own: each classifier tile's partition
        # copy is now freed with its tile. Labels repeated for every query row
        # would take 9.8 MiB on their own.
        cons = polygon_pairs(8)
        tracemalloc.start()
        try:
            checks = verify_invariances(cons, trials=2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert peak < 3.28 * 2**20

    def test_deterministic_given_seed(self):
        a = verify_invariances(star_pairs(3), trials=10, seed=123)
        b = verify_invariances(star_pairs(3), trials=10, seed=123)
        assert [c.observed for c in a] == [c.observed for c in b]


def assert_valid_draws(cons, seed, trials=100):
    """Shapes, dtypes and ranges of one draw; every query off-boundary with its own prediction."""
    drawn = harness._draw_trials(cons.set, np.random.default_rng(seed), trials, cons.required_k)
    count = harness.QUERIES_PER_TRIAL
    queries, base, theta, shift, c, d = drawn
    shapes = [(trials, count, 2), (trials, count), (trials,), (trials, 2), (trials,), (trials,)]
    assert [a.shape for a in drawn] == shapes
    assert base.dtype == int and all(a.dtype == float for a in (queries, theta, shift, c, d))
    xmin, xmax, ymin, ymax = default_bounds(cons.set)
    x, y = queries[..., 0], queries[..., 1]
    assert np.all((xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax))
    scores, predicted, conf, _ = evaluate_points(cons.set, cons.required_k, queries.reshape(-1, 2))
    assert np.all(conf > harness.NEAR_TIE_GAP * np.maximum(1.0, np.abs(scores).max(axis=1)))
    assert np.array_equal(base.ravel(), predicted)
    assert np.all((0.0 <= theta) & (theta <= 2.0 * math.pi))
    assert np.all((-10.0 <= shift) & (shift <= 10.0))
    assert np.all((0.1 * (1 - 1e-12) <= c) & (c <= 10.0 * (1 + 1e-12)))
    assert np.all((-5.0 <= d) & (d <= 5.0))
    return drawn


def counting_classifier(monkeypatch):
    """Count the harness's classifier calls."""
    calls = []

    def counted(*args):
        calls.append(1)
        return evaluate_points(*args)

    monkeypatch.setattr("softknn.harness.evaluate_points", counted)
    return calls


# SHA-256 over the bytes of the six arrays that `_draw_trials` returns for
# n_from_two(12) at seed 0, 100 trials of 5 queries, in return order.
DRAWS_DIGEST = "cb37f44fec40990e77c32729d6609a27435209fb78cdabccec946b8bcc6d6954"


class TestBatchedDraws:
    """All trials drawn in one batch call per quantity, rejected queries drawn again per round."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "build",
        [lambda: n_from_two(12), lambda: polygon_with_center(6), lambda: circle_soft_fit(6)],
        ids=["n_from_two-12", "polygon_with_center-6", "circle_soft_fit-6"],
    )
    def test_valid_draws(self, build, seed):
        assert_valid_draws(build(), seed)

    @pytest.mark.parametrize("gap", [0.03, 0.2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rejected_queries_drawn_again(self, monkeypatch, gap, seed):
        # A gap this wide rejects a tenth, or half, of the candidates, so
        # the rejected ones are drawn again in later rounds.
        monkeypatch.setattr("softknn.harness.NEAR_TIE_GAP", gap)
        calls = counting_classifier(monkeypatch)
        assert_valid_draws(three_from_two(3.0), seed, trials=30)
        assert len(calls) > 1

    def test_deterministic_given_seed(self):
        cons = n_from_two(12)
        first, again, other = (
            harness._draw_trials(cons.set, np.random.default_rng(seed), 100, cons.required_k) for seed in (7, 7, 8)
        )
        for name, a, b, c in zip(("queries", "base", "theta", "shift", "c", "d"), first, again, other):
            assert np.array_equal(a, b), name
            assert not np.array_equal(a, c), name

    def test_draws_pinned(self):
        # A change to the order or layout of the draws is a visible edit here.
        cons = n_from_two(12)
        digest = hashlib.sha256()
        for array in harness._draw_trials(cons.set, np.random.default_rng(0), 100, cons.required_k):
            digest.update(array.tobytes())
        assert digest.hexdigest() == DRAWS_DIGEST

    def test_attempt_limit_kept(self, monkeypatch):
        monkeypatch.setattr("softknn.harness.NEAR_TIE_GAP", np.inf)
        calls = counting_classifier(monkeypatch)
        with pytest.raises(RuntimeError, match="off-boundary"):
            harness._draw_trials(three_from_two(3.0).set, np.random.default_rng(0), 3, 2)
        assert len(calls) == 200

    def test_checks_can_fail(self, monkeypatch):
        # Predictions of every variant set are shifted by one class, those of
        # the construction's own set are not: every comparison mismatches.
        cons = n_from_two(5)

        def wrong_on_variants(positions, labels, k, points):
            scores, predicted, conf, exact = classifier._evaluate_stacked(positions, labels, k, points)
            return scores, (predicted + 1) % labels.shape[-1], conf, exact

        monkeypatch.setattr("softknn.harness._evaluate_stacked", wrong_on_variants)
        checks = verify_invariances(cons, trials=20, seed=0)
        assert len(checks) == 3
        for check in checks:
            assert not check.passed
            assert check.observed["mismatches"] == check.observed["comparisons"] == 100


class TestHardLabelOracle:
    def test_thousand_instances(self):
        check = verify_hard_label_oracle(instances=1000, seed=0)
        assert check.passed
        assert check.observed == {"mismatches": 0, "instances": 1000, "seed": 0}

    def test_wrong_kernel_fails(self, monkeypatch):
        # A kernel that names the next class never matches the nearest prototype's.
        def next_class(pset, k, points):
            scores, predicted, conf, exact = evaluate_points(pset, k, points)
            return scores, predicted + 1, conf, exact

        monkeypatch.setattr("softknn.harness.evaluate_points", next_class)
        check = verify_hard_label_oracle(instances=20, seed=0)
        assert not check.passed
        assert check.observed == {"mismatches": 20, "instances": 20, "seed": 0}

    @pytest.mark.parametrize("instances", [0, -3])
    def test_no_instances_refused(self, instances):
        # A check that compares nothing must not pass.
        with pytest.raises(ValueError, match=rf"^instances must be at least 1, got {instances}$"):
            verify_hard_label_oracle(instances=instances)


class TestReports:
    def test_schema_and_save(self, tmp_path):
        report = standard_report(
            "polygon_pairs", polygon_pairs(5), resolutions=(128, 256), trials=5
        )
        assert report.passed
        data = report.to_json_dict()
        assert set(data) == {"construction", "params", "checks", "meta", "pass"}
        assert data["construction"] == "polygon_pairs"
        assert data["params"] == {"m": 5, "circumradius": 1.0}
        for check in data["checks"]:
            assert set(check) == {"name", "pass", "observed", "expected", "tol"}
        assert data["meta"]["resolutions"] == [128, 256]
        assert "seed" in data["meta"]
        path = tmp_path / "report.json"
        report.save(path)
        assert json.loads(path.read_text()) == data

    def test_observed_ten_classes_for_pentagon(self):
        report = standard_report("polygon_pairs", polygon_pairs(5), resolutions=(256,), trials=3)
        count = next(c for c in report.checks if c.name == "class_count")
        assert count.observed == {"256": 10}
        assert count.expected == 10

    def test_fit_residual_included_for_fitted_constructions(self):
        report = standard_report(
            "concentric_ellipses", concentric_ellipses(2), resolutions=(128,), trials=3
        )
        names = [c.name for c in report.checks]
        assert "fit_residual" in names
        assert report.passed
