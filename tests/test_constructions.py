"""Construction generators: exact labels, boundary positions, and claims."""

import math
from fractions import Fraction

import numpy as np
import pytest

from softknn import (
    Construction,
    LabelKind,
    RadialFitError,
    SoftLabel,
    build_named,
    circle_hard_baseline,
    circle_prototype_count,
    circle_soft_fit,
    classify,
    concentric_ellipses,
    evaluate_points,
    fit_radial_labels,
    label_violations,
    make_prototype_set,
    n_from_two,
    n_from_two_labels,
    nested_band_labels,
    polygon_pairs,
    polygon_with_center,
    star_pairs,
    three_from_two,
    to_json_dict,
    validate,
)

ELLIPSE_POSITIONS = np.array([(0.0, 0.0), (0.0, 3.0), (0.0, -3.0)])


def exact_pair_crossings(weights: list[Fraction]) -> list[Fraction]:
    """Independent oracle for two-prototype segment crossings.

    With the second prototype carrying the reversed weights, the scores of
    adjacent classes i and i+1 cross where
    (w_i - w_{i+1}) / d = (w_rev_{i+1} - w_rev_i) / (L - d); solving for
    d/L gives an exact rational per crossing.
    """
    n = len(weights)
    rev = weights[::-1]
    out = []
    for i in range(n - 1):
        fwd = weights[i] - weights[i + 1]
        bwd = rev[i + 1] - rev[i]
        out.append(fwd / (fwd + bwd))
    return out


class TestThreeFromTwo:
    def test_labels_and_positions(self):
        cons = three_from_two(3.0)
        np.testing.assert_array_equal(cons.set.positions, [[0.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(cons.set.labels[0], [0.6, 0.4, 0.0])
        np.testing.assert_array_equal(cons.set.labels[1], [0.0, 0.4, 0.6])
        assert cons.required_k == 2
        assert cons.claimed_classes == 3

    def test_labels_independent_of_spacing(self):
        for spacing in (0.5, 3.0, 17.2):
            cons = three_from_two(spacing)
            np.testing.assert_array_equal(cons.set.labels[0], [0.6, 0.4, 0.0])

    def test_boundary_fractions(self):
        cons = three_from_two(3.0)
        ((pair, fractions),) = cons.boundary_spec
        assert pair == (0, 1)
        expected = exact_pair_crossings([Fraction(3, 5), Fraction(2, 5), Fraction(0)])
        np.testing.assert_allclose(fractions, [float(f) for f in expected], atol=1e-15)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            three_from_two(0.0)
        with pytest.raises(ValueError):
            three_from_two(-1.0)


class TestNFromTwo:
    def test_n3_reduces_to_three_from_two_labels(self):
        np.testing.assert_array_equal(n_from_two(3).set.labels[0], [0.6, 0.4, 0.0])

    def test_n4_printed_solution(self):
        expected = [6 / 14, 5 / 14, 3 / 14, 0.0]
        np.testing.assert_array_equal(n_from_two(4).set.labels[0], expected)

    def test_n1_degenerate(self):
        cons = n_from_two(1)
        assert cons.claimed_classes == 1
        np.testing.assert_array_equal(cons.set.labels, [[1.0], [1.0]])
        assert cons.boundary_spec is None
        assert classify(cons.set, 2, (0.37, 0.11)).predicted == 0

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            n_from_two(0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_exact_probabilistic_labels(self, n):
        weights = n_from_two_labels(n)
        assert sum(weights, Fraction(0)) == 1
        assert all(w >= 0 for w in weights)
        pset = n_from_two(n).set
        for row in pset.labels:
            assert label_violations(SoftLabel(row, pset.label_kind)) == []

    @pytest.mark.parametrize("n", [2, 4, 7, 11])
    def test_second_label_is_reversal(self, n):
        labels = n_from_two(n).set.labels
        np.testing.assert_array_equal(labels[1], labels[0][::-1])

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_weights_strictly_decreasing_to_zero(self, n):
        weights = n_from_two_labels(n)
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_boundary_fractions_are_equally_spaced(self, n):
        ((_, fractions),) = n_from_two(n).boundary_spec
        oracle = exact_pair_crossings(n_from_two_labels(n))
        assert oracle == [Fraction(i, n) for i in range(1, n)]
        np.testing.assert_allclose(fractions, [i / n for i in range(1, n)], atol=1e-15)

    def test_default_spacing_is_n_units(self):
        assert n_from_two(7).set.positions[1][0] == 7.0
        assert n_from_two(7, spacing=2.5).set.positions[1][0] == 2.5

    def test_reflection_symmetry_of_predictions(self):
        cons = n_from_two(4)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 5, size=(200, 2))
        scores, pred, conf, _ = evaluate_points(cons.set, 2, pts)
        mirrored = np.column_stack((4.0 - pts[:, 0], pts[:, 1]))
        _, pred_m, conf_m, _ = evaluate_points(cons.set, 2, mirrored)
        clear = (conf > 1e-9) & (conf_m > 1e-9)
        np.testing.assert_array_equal(pred_m[clear], 3 - pred[clear])


class TestStarPairs:
    def test_hub_label_values(self):
        cons = star_pairs(4)
        hub = cons.set.labels[0]
        assert hub[0] == float(Fraction(3, 9))
        np.testing.assert_array_equal(hub[4:7], [float(Fraction(2, 9))] * 3)
        assert hub[1:4].sum() == 0

    def test_tip_label_values(self):
        tip = star_pairs(4).set.labels[2]
        assert tip[2] == 0.6
        assert tip[5] == 0.4

    def test_hub_label_sums_exactly_to_one(self):
        for m in range(2, 9):
            pset = star_pairs(m).set
            hub = SoftLabel(pset.labels[0], pset.label_kind)
            assert label_violations(hub) == []
            total = Fraction(3, 2 * m + 1) + (m - 1) * Fraction(2, 2 * m + 1)
            assert total == 1

    def test_claims(self):
        cons = star_pairs(6, radius=2.0)
        assert cons.claimed_classes == 11
        assert cons.required_k == 2
        assert len(cons.set) == 6
        assert len(cons.boundary_spec) == 5

    def test_spoke_fractions_formula(self):
        cons = star_pairs(4, radius=1.0)
        (_, fractions) = cons.boundary_spec[0]
        np.testing.assert_allclose(fractions, [5 / 23, 10 / 19], atol=1e-15)

    def test_inner_fraction_strictly_decreasing_in_m(self):
        inner = [star_pairs(m).boundary_spec[0][1][0] for m in range(2, 9)]
        outer = [star_pairs(m).boundary_spec[0][1][1] for m in range(2, 9)]
        assert all(a > b for a, b in zip(inner, inner[1:]))
        assert all(a > b for a, b in zip(outer, outer[1:]))
        # In the large-m limit both hub-adjacent classes vanish entirely.
        for m in (10**3, 10**6):
            assert 5 / (4 * m + 7) < 10 / m
            assert 10 / (2 * m + 11) < 10 / m

    def test_m2_matches_segment_fractions(self):
        (_, fractions) = star_pairs(2).boundary_spec[0]
        np.testing.assert_allclose(fractions, [1 / 3, 2 / 3], atol=1e-15)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            star_pairs(1)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError, match="radius must be positive, got 0"):
            star_pairs(3, radius=0)


class TestPolygonPairs:
    def test_vertex_label_structure(self):
        cons = polygon_pairs(5)
        lab = cons.set.labels[2]
        assert lab[2] == float(Fraction(3, 7))
        assert lab[5 + 2] == float(Fraction(2, 7))
        assert lab[5 + 1] == float(Fraction(2, 7))
        assert label_violations(SoftLabel(lab, cons.set.label_kind)) == []

    def test_claims(self):
        cons = polygon_pairs(4)
        assert cons.claimed_classes == 8
        assert cons.required_k == 2
        assert len(cons.boundary_spec) == 4

    def test_edge_fractions_independent_of_m(self):
        for m in (3, 5, 9, 12):
            for _, fractions in polygon_pairs(m).boundary_spec:
                np.testing.assert_allclose(fractions, [1 / 3, 2 / 3], atol=1e-15)

    def test_vertices_on_circumcircle(self):
        cons = polygon_pairs(6, circumradius=2.5)
        radii = np.linalg.norm(cons.set.positions, axis=1)
        np.testing.assert_allclose(radii, 2.5, atol=1e-12)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            polygon_pairs(2)

    def test_rejects_non_positive_circumradius(self):
        with pytest.raises(ValueError, match="circumradius must be positive, got -1"):
            polygon_pairs(4, circumradius=-1)


class TestPolygonWithCenter:
    def test_claims(self):
        cons = polygon_with_center(4)
        assert cons.claimed_classes == 10
        assert cons.required_k == 4
        assert len(cons.set) == 4

    def test_labels_probabilistic_exactly(self):
        for m in (4, 5, 6):
            pset = polygon_with_center(m).set
            for row in pset.labels:
                assert label_violations(SoftLabel(row, pset.label_kind)) == []

    def test_hub_and_vertex_structure(self):
        cons = polygon_with_center(4)
        hub, vertex = cons.set.labels[0], cons.set.labels[1]
        assert hub[0] > 0 and hub[1:4].sum() == 0
        np.testing.assert_array_equal(hub[4:7], [hub[4]] * 3)
        assert vertex[1] == float(Fraction(7, 20))
        assert vertex[4] == float(Fraction(1, 20))
        assert vertex[7] == float(Fraction(3, 10))

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            polygon_with_center(3)


# Radial label inputs nested_band_labels refuses: three of the radius count
# and order, then two of class_count, four of positions, and four of radius
# values.
BAD_RADIAL_INPUTS = [
    pytest.param(ELLIPSE_POSITIONS, [1.0, 2.0, 3.0, 9.0], 3, r"expected 2 target radii, got \(4,\)", id="extra-radii"),
    pytest.param(ELLIPSE_POSITIONS, [1.0], 3, r"expected 2 target radii, got \(1,\)", id="too-few-radii"),
    pytest.param(ELLIPSE_POSITIONS, [3.0, 1.0], 3, "target radii must be strictly increasing", id="decreasing-radii"),
    pytest.param(ELLIPSE_POSITIONS, [1.0, 2.0], 3.0, "class_count must be an integer, got 3.0", id="float-class-count"),
    pytest.param(ELLIPSE_POSITIONS, [], True, "class_count must be an integer, got True", id="bool-class-count"),
    pytest.param(
        [(0.0, 0.0, 0.0), (0.0, 3.0, 0.0)], [1.0, 2.0], 3,
        r"positions must be a non-empty \(M, 2\) array, got shape \(2, 3\)", id="three-columns",
    ),
    pytest.param(
        [0.0, 3.0, -3.0], [1.0, 2.0], 3, r"positions must be a non-empty \(M, 2\) array, got shape \(3,\)",
        id="flat-positions",
    ),
    pytest.param([(0.0, 0.0), (0.0, math.nan)], [1.0, 2.0], 3, "positions must be finite", id="nan-position"),
    pytest.param(
        [(0.0, 0.0), (0.0, 5.0), (0.0, 5.0)], [1.0, 2.0], 3, "prototype positions must be distinct",
        id="coincident-positions",
    ),
    pytest.param(ELLIPSE_POSITIONS, [math.nan], 2, r"target radii must be finite and above 0, got \[nan\]", id="nan-radius"),
    pytest.param(
        ELLIPSE_POSITIONS, [-1.0, 2.0], 3, r"target radii must be finite and above 0, got \[-1.0, 2.0\]",
        id="negative-radius",
    ),
    pytest.param(
        ELLIPSE_POSITIONS, [0.0, 2.0], 3, r"target radii must be finite and above 0, got \[0.0, 2.0\]", id="zero-radius"
    ),
    pytest.param(
        ELLIPSE_POSITIONS, [1.0, math.inf], 3, r"target radii must be finite and above 0, got \[1.0, inf\]",
        id="inf-radius",
    ),
]


class TestFitRadialLabels:
    def test_realized_targets_are_a_fixed_point(self):
        init = nested_band_labels(ELLIPSE_POSITIONS, [1.0, 2.0], 3)
        fit = fit_radial_labels(ELLIPSE_POSITIONS, [1.0, 2.0], 3)
        assert fit.residual < 1e-12
        assert fit.history == (fit.residual,)
        for label, row in zip(fit.labels, init):
            np.testing.assert_array_equal(label.values, row)
        # One class has no crossing to measure.
        one = fit_radial_labels(ELLIPSE_POSITIONS, [], 1)
        assert (one.residual, one.history, one.targets, one.realized) == (0.0, (0.0,), (), ())

    @pytest.mark.parametrize(
        "build, realized",
        [
            pytest.param(
                lambda: concentric_ellipses(6),
                ("0x1.0000000000022p+0", "0x1.ffffffffff6f2p+0", "0x1.7fffffffffae6p+1",
                 "0x1.ffffffffff250p+1", "0x1.40000000000e0p+2"),
                id="concentric_ellipses-6",
            ),
            pytest.param(
                lambda: circle_soft_fit(12),
                ("0x1.800000000047cp+0", "0x1.4000000000676p+1", "0x1.bfffffffffc48p+1",
                 "0x1.2000000000776p+2", "0x1.600000000025ep+2", "0x1.9fffffffffd46p+2",
                 "0x1.dfffffffff82ep+2", "0x1.1000000000328p+3", "0x1.3000000000568p+3",
                 "0x1.4fffffffff942p+3", "0x1.7000000000052p+3"),
                id="circle_soft_fit-12",
            ),
        ],
    )
    def test_realized_crossings_pinned(self, monkeypatch, build, realized):
        # The measured crossings, bit for bit, as the scalar bisection found them.
        fits = []

        def spy(*args, **kwargs):
            fits.append(fit_radial_labels(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr("softknn.constructions.fit_radial_labels", spy)
        build()
        assert tuple(r.hex() for r in fits[0].realized) == realized

    def test_non_convergence_raises_with_residual(self):
        # r_max stops the sampled ray short of the 2.0 crossing.
        with pytest.raises(RadialFitError) as exc:
            fit_radial_labels(ELLIPSE_POSITIONS, [1.0, 2.0], 3, r_max=1.5)
        assert exc.value.residual > 1e-6

    def test_rejects_non_increasing_targets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_radial_labels(ELLIPSE_POSITIONS, [2.0, 1.0], 3)

    def test_rejects_wrong_target_count(self):
        with pytest.raises(ValueError, match="target"):
            fit_radial_labels(ELLIPSE_POSITIONS, [1.0], 3)

    @pytest.mark.parametrize("positions, radii, class_count, message", BAD_RADIAL_INPUTS)
    def test_band_labels_refuse_bad_inputs(self, positions, radii, class_count, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            nested_band_labels(positions, radii, class_count)

    @pytest.mark.parametrize("positions, radii, class_count, message", BAD_RADIAL_INPUTS[3:])
    def test_fit_refuses_bad_positions_and_class_count(self, positions, radii, class_count, message):
        # The fit relies on nested_band_labels' check; its radius count and order cases are the two tests above.
        with pytest.raises(ValueError, match=rf"^{message}$"):
            fit_radial_labels(positions, radii, class_count)

    @pytest.mark.parametrize(
        "r_max, message",
        [(math.nan, "positive, got nan"), (math.inf, "finite, got inf"), (0.0, "positive, got 0.0"), (-2.0, "positive, got -2.0")],
        ids=["nan", "inf", "zero", "negative"],
    )
    def test_rejects_bad_r_max(self, r_max, message):
        # A NaN r_max used to return a fit whose residual was NaN.
        with pytest.raises(ValueError, match=rf"^r_max must be {message}$"):
            fit_radial_labels(ELLIPSE_POSITIONS, [1.0, 2.0], 3, r_max=r_max)

    def test_nan_residual_raises(self, monkeypatch):
        # A residual that is not <= 1e-6, NaN included, is a miss.
        monkeypatch.setattr("softknn.constructions._measure_crossings", lambda *args: (math.nan, [1.0, 2.0]))
        with pytest.raises(RadialFitError) as exc:
            fit_radial_labels(ELLIPSE_POSITIONS, [1.0, 2.0], 3)
        assert math.isnan(exc.value.residual)


class TestConcentricEllipses:
    def test_claims_and_kind(self):
        cons = concentric_ellipses(3)
        assert cons.claimed_classes == 3
        assert cons.required_k == 3
        assert len(cons.set) == 3
        assert cons.set.label_kind == LabelKind.UNRESTRICTED
        assert cons.fit_residual < 1e-3
        assert cons.radial_spec.radii == (1.0, 2.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 12])
    def test_band_count_along_reference_ray(self, n):
        cons = concentric_ellipses(n)
        assert cons.fit_residual < 1e-12
        xs = np.linspace(0.05, n - 0.4, 1500)
        pts = np.column_stack((xs, np.zeros_like(xs)))
        _, pred, _, _ = evaluate_points(cons.set, 3, pts)
        assert int(np.count_nonzero(pred[:-1] != pred[1:])) == n - 1
        assert sorted(set(pred.tolist())) == list(range(n))

    def test_bands_are_elliptical_not_circular(self):
        # The first band reaches farther along +x than along +y.
        cons = concentric_ellipses(3)
        xs = np.linspace(0.05, 1.4, 800)
        along_x = evaluate_points(cons.set, 3, np.column_stack((xs, np.zeros_like(xs))))[1]
        along_y = evaluate_points(cons.set, 3, np.column_stack((np.zeros_like(xs), xs)))[1]
        x_extent = xs[np.nonzero(along_x == 0)[0].max()]
        y_extent = xs[np.nonzero(along_y == 0)[0].max()]
        assert x_extent > y_extent * 1.05

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            concentric_ellipses(1)


class TestCircleHardBaseline:
    def test_counts_follow_exact_formula(self):
        cons = circle_hard_baseline(6, 1.0)
        assert cons.params["counts"] == [3, 7, 10, 13, 16, 19]
        assert len(cons.set) == 68
        assert cons.required_k == 1
        assert cons.set.label_kind == LabelKind.HARD

    def test_count_approximation(self):
        # For t >= 2 the exact count sits within one prototype of t*pi.
        for t in range(2, 13):
            assert abs(circle_prototype_count(t) - t * math.pi) <= 1.0

    def test_total_within_quadratic_bound(self):
        n = 6
        total = len(circle_hard_baseline(n).set)
        assert total <= math.ceil(n * (n + 1) * math.pi / 2) + n

    def test_single_circle(self):
        cons = circle_hard_baseline(1, 2.0)
        assert cons.claimed_classes == 1
        angles = 2 * math.pi * np.arange(100) / 100
        pts = np.column_stack((2.0 * np.cos(angles), 2.0 * np.sin(angles)))
        _, pred, _, _ = evaluate_points(cons.set, 1, pts)
        assert np.all(pred == 0)

    def test_circle_spec_radii(self):
        cons = circle_hard_baseline(3, 0.5)
        assert cons.circle_spec == ((0.5, 0), (1.0, 1), (1.5, 2))

    def test_own_prototype_within_radial_gap(self):
        # A point on circle t is at most 2t*sin(pi/(2m)) (in units of c) from
        # its nearest own prototype; every other circle is at least 1 away.
        t = np.arange(1, 5001)
        m = np.array([circle_prototype_count(int(i)) for i in t])
        reach = 2 * t * np.sin(np.pi / (2 * m))
        assert reach[0] <= 1.0
        assert np.all(reach[1:] < 1.0)

    def test_built_without_the_classifier(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the construction ran the classifier")

        monkeypatch.setattr("softknn.classifier.evaluate_points", forbidden)
        monkeypatch.setattr("softknn.classifier.score_block", forbidden)
        cons = circle_hard_baseline(40)
        counts = [circle_prototype_count(t) for t in range(1, 41)]
        assert cons.params["counts"] == counts
        assert len(cons.set) == sum(counts)

    def test_rejects_non_positive_gap(self):
        with pytest.raises(ValueError, match="c must be positive, got 0"):
            circle_hard_baseline(3, c=0)

    def test_count_rejects_circle_index_zero(self):
        with pytest.raises(ValueError, match="circle index must be >= 1, got 0"):
            circle_prototype_count(0)

    @pytest.mark.parametrize("t", [2.5, True, 3.0], ids=repr)
    def test_count_rejects_non_integer_circle_index(self, t):
        # Unchecked, 2.5 would get a prototype count of 8, and True that of circle 1.
        with pytest.raises(ValueError, match=rf"^t must be an integer, got {t!r}$"):
            circle_prototype_count(t)


class TestCircleSoftFit:
    def test_five_prototypes_and_residual(self):
        for n in (2, 6, 12, 20):
            cons = circle_soft_fit(n, 1.0)
            assert len(cons.set) == 5
            assert cons.required_k == 5
            assert cons.fit_residual < 1e-12
            assert cons.claimed_classes == n

    def test_targets_between_circles(self):
        cons = circle_soft_fit(4, 2.0)
        np.testing.assert_allclose(cons.radial_spec.radii, [3.0, 5.0, 7.0], atol=1e-12)

    def test_one_circle_needs_no_fit(self):
        cons = circle_soft_fit(1, 2.0)
        assert len(cons.set) == 5 and cons.claimed_classes == 1
        assert np.array_equal(cons.set.labels, np.ones((5, 1)))
        assert cons.fit_residual == 0.0 and cons.radial_spec is None
        assert cons.circle_spec == ((2.0, 0),)

    def test_rejects_non_positive_gap(self):
        with pytest.raises(ValueError, match="c must be positive, got -1"):
            circle_soft_fit(3, c=-1)


@pytest.mark.parametrize("build", [n_from_two, n_from_two_labels, circle_hard_baseline, circle_soft_fit])
@pytest.mark.parametrize("n", [3.0, 2.5, True])
def test_non_integer_count_refused(build, n):
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
        build(n)


@pytest.mark.parametrize(
    "build, name",
    [(star_pairs, "m"), (polygon_pairs, "m"), (polygon_with_center, "m"), (concentric_ellipses, "num_classes")],
    ids=["star_pairs", "polygon_pairs", "polygon_with_center", "concentric_ellipses"],
)
@pytest.mark.parametrize("count", [4.5, 4.0, True])
def test_non_integer_prototype_or_class_count_refused(build, name, count):
    # Float counts used to reach Fraction or range and raise TypeError.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {count!r}$"):
        build(count)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda x: n_from_two(3, x), "spacing"),
        (lambda x: star_pairs(4, x), "radius"),
        (lambda x: polygon_pairs(4, x), "circumradius"),
        (lambda x: circle_hard_baseline(3, x), "c"),
        (lambda x: circle_soft_fit(3, x), "c"),
    ],
    ids=["n_from_two", "star_pairs", "polygon_pairs", "circle_hard_baseline", "circle_soft_fit"],
)
@pytest.mark.parametrize("length, message", [(math.inf, "finite, got inf"), (math.nan, "positive, got nan")], ids=["inf", "nan"])
def test_non_finite_length_refused(build, name, length, message):
    # An infinite spacing used to build a set with infinite positions,
    # which its own verify then failed.
    with pytest.raises(ValueError, match=rf"^{name} must be {message}$"):
        build(length)


@pytest.mark.parametrize(
    "build, defect",
    [
        (lambda: star_pairs(4, 1e-300), "prototype positions must be distinct"),
        (lambda: polygon_pairs(5, 1e-300), "prototype positions must be distinct"),
        (lambda: circle_soft_fit(1, 1e308), "prototype positions and labels must be finite"),
    ],
    ids=["coincident-star", "coincident-polygon", "overflowing-circle-frame"],
)
def test_degenerate_geometry_refused(build, defect):
    # Each length is finite and positive, but the set it builds is one the
    # decision rule refuses.
    with pytest.raises(ValueError, match=rf"^{defect}; run validate\(\) for details$"):
        build()


class TestConstructionType:
    def test_claimed_classes_must_match_labels(self):
        pset = three_from_two().set
        with pytest.raises(ValueError, match="claimed_classes"):
            Construction(set=pset, required_k=2, claimed_classes=4)

    def test_required_k_bounded(self):
        pset = three_from_two().set
        with pytest.raises(ValueError, match="required_k"):
            Construction(set=pset, required_k=3, claimed_classes=3)

    @pytest.mark.parametrize("k", [1.5, True, 2.0], ids=repr)
    def test_required_k_must_be_an_integer(self, k):
        # Each of these lies in 1..M, so the range test alone would accept it.
        pset = three_from_two().set
        with pytest.raises(ValueError, match=rf"^required_k must be an integer, got {k!r}$"):
            Construction(set=pset, required_k=k, claimed_classes=3)

    @pytest.mark.parametrize(
        "positions, labels, defect",
        [
            ([(0.0, 0.0), (0.0, 1e-13)], np.eye(2), "prototype positions must be distinct"),
            ([(0.0, 0.0), (math.inf, 0.0)], np.eye(2), "prototype positions and labels must be finite"),
            ([(0.0, 0.0), (1.0, 0.0)], [[1.0, 0.0], [math.nan, 1.0]], "prototype positions and labels must be finite"),
        ],
        ids=["coincident", "infinite-position", "nan-label"],
    )
    def test_set_the_rule_refuses_is_refused(self, positions, labels, defect):
        pset = make_prototype_set(positions, np.asarray(labels), LabelKind.UNRESTRICTED)
        with pytest.raises(ValueError, match=rf"^{defect}; run validate\(\) for details$"):
            Construction(set=pset, required_k=1, claimed_classes=2)

    def test_boundary_fractions_checked(self):
        pset = three_from_two().set
        with pytest.raises(ValueError, match="strictly increasing"):
            Construction(
                set=pset, required_k=2, claimed_classes=3,
                boundary_spec=[((0, 1), [0.5, 0.5])],
            )
        with pytest.raises(ValueError, match="in \\(0,1\\)"):
            Construction(
                set=pset, required_k=2, claimed_classes=3,
                boundary_spec=[((0, 1), [0.0, 0.5])],
            )


class TestRegistry:
    def test_build_named(self):
        cons = build_named("n_from_two", n=4)
        assert cons.claimed_classes == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown construction"):
            build_named("pentagram")

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="requires parameter"):
            build_named("star_pairs")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_named("three_from_two", wobble=2)

    def test_every_construction_exports_valid_json(self):
        for name, kwargs in [
            ("three_from_two", {}),
            ("n_from_two", {"n": 3}),
            ("star_pairs", {"m": 3}),
            ("polygon_pairs", {"m": 4}),
            ("polygon_with_center", {"m": 4}),
            ("concentric_ellipses", {"num_classes": 2}),
            ("circle_hard_baseline", {"n": 2}),
            ("circle_soft_fit", {"n": 2}),
        ]:
            cons = build_named(name, **kwargs)
            data = to_json_dict(cons.set)
            assert data["name"].startswith(name)
            assert validate(cons.set) == []
