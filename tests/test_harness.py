"""Verification harness: class counts, boundaries, circles, invariances, reports."""

import json

import numpy as np
import pytest

from softknn import (
    circle_hard_baseline,
    circle_soft_fit,
    classify,
    concentric_ellipses,
    n_from_two,
    polygon_pairs,
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
        check = verify_boundaries(concentric_ellipses(4), radial_tol=1e-3)
        assert check.passed
        assert check.observed["max_radius_error"] < 1e-3


class TestCircleSeparation:
    def test_hard_six_circles(self):
        check = verify_circle_separation(circle_hard_baseline(6), samples_per_circle=2000)
        assert check.passed
        assert check.observed["total_misclassified"] == 0

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
        pytest.param(lambda: verify_invariances(three_from_two(3.0), queries_per_trial=0), id="no-queries"),
    ],
)
def test_vacuous_check_refused(check):
    # A check that compares nothing would pass; it must be an input error.
    with pytest.raises(ValueError, match="at least"):
        check()


@pytest.mark.parametrize(
    "sizes",
    [
        pytest.param({"resolutions": ()}, id="no-resolutions"),
        pytest.param({"samples_per_circle": 0}, id="no-samples"),
        pytest.param({"trials": 0}, id="no-trials"),
    ],
)
def test_standard_report_refuses_before_rasterizing(sizes, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rasterized before the sizes were checked")

    monkeypatch.setattr("softknn.harness.rasterize", forbidden)
    with pytest.raises(ValueError, match="at least"):
        standard_report("three_from_two", three_from_two(3.0), **sizes)


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

    def test_identity_transform_trivially_passes(self):
        pset = three_from_two(3.0).set
        moved = transformed_set(pset, np.eye(2), np.zeros(2))
        for x in [(0.4, 0.2), (1.7, -0.5), (2.9, 0.0)]:
            assert classify(moved, 2, x).predicted == classify(pset, 2, x).predicted

    def test_shifted_labels_change_scores_not_classes(self):
        pset = three_from_two(3.0).set
        shifted = shifted_label_set(pset, 5.0)
        base = classify(pset, 2, (0.4, 0.2))
        moved = classify(shifted, 2, (0.4, 0.2))
        assert moved.predicted == base.predicted
        assert not np.allclose(moved.scores, base.scores)

    def test_deterministic_given_seed(self):
        a = verify_invariances(star_pairs(3), trials=10, seed=123)
        b = verify_invariances(star_pairs(3), trials=10, seed=123)
        assert [c.observed for c in a] == [c.observed for c in b]


class TestHardLabelOracle:
    def test_thousand_instances(self):
        check = verify_hard_label_oracle(instances=1000, seed=0)
        assert check.passed
        assert check.observed == {"mismatches": 0, "instances": 1000, "seed": 0}


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
