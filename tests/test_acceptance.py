"""Acceptance criteria.

Each test exercises one headline claim end to end at its stated tolerance
and prints a PASS/FAIL line (bypassing capture) so a plain pytest run
shows the acceptance status per criterion.
"""

import math
import time

import numpy as np
import pytest

from softknn import (
    RasterGrid,
    boundary_bisect,
    circle_hard_baseline,
    circle_soft_fit,
    class_csv_bytes,
    concentric_ellipses,
    confidence_csv_bytes,
    default_bounds,
    evaluate_points,
    n_from_two,
    pgm_bytes,
    polygon_pairs,
    polygon_with_center,
    ppm_bytes,
    rasterize,
    region_report,
    risk_render,
    star_pairs,
    three_from_two,
    verify_boundaries,
    verify_circle_separation,
    verify_class_count,
    verify_hard_label_oracle,
    verify_invariances,
)
from softknn import landscape

BOUNDARY_TOL = 1e-6


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {number:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_01_three_classes_from_two_prototypes(capsys):
    t0 = time.perf_counter()
    cons = three_from_two(3.0)
    grid = rasterize(cons.set, 2, (-1, 4, -2, 2), 512, 512)
    classes = region_report(grid).distinct_classes
    pos = cons.set.positions
    first = boundary_bisect(cons.set, 2, pos[0], (1.5, 0.0)) * 0.5
    second = 0.5 + boundary_bisect(cons.set, 2, (1.5, 0.0), pos[1]) * 0.5
    elapsed = time.perf_counter() - t0
    err = max(abs(first - 1 / 3), abs(second - 2 / 3))
    ok = classes == 3 and err < BOUNDARY_TOL and elapsed < 1.0
    report(
        capsys, 1, ok,
        f"three_from_two: {classes} classes at 512^2, crossing error {err:.2e}, {elapsed:.2f} s",
    )


def test_02_n_classes_from_two_prototypes(capsys):
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 13):
        cons = n_from_two(n)
        count_check = verify_class_count(cons, resolutions=(512, 1024))
        if not count_check.passed:
            failures.append(f"n={n} counts {count_check.observed}")
        if cons.boundary_spec:
            bcheck = verify_boundaries(cons, tol=BOUNDARY_TOL)
            if not bcheck.passed:
                failures.append(f"n={n} boundary error {bcheck.observed['max_fraction_error']:.2e}")
    if not np.array_equal(n_from_two(3).set.labels[0], [3 / 5, 2 / 5, 0.0]):
        failures.append("n=3 labels differ from printed solution")
    if not np.array_equal(n_from_two(4).set.labels[0], [6 / 14, 5 / 14, 3 / 14, 0.0]):
        failures.append("n=4 labels differ from printed solution")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s")
    report(
        capsys, 2, not failures,
        f"n_from_two n=1..12: counts and crossings verified in {elapsed:.1f} s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_03_star_configuration(capsys):
    failures = []
    inner_fractions = []
    for m in range(2, 9):
        cons = star_pairs(m)
        inner_fractions.append(cons.boundary_spec[0][1][0])
        expected = [5 / (4 * m + 7), 10 / (2 * m + 11)]
        if not np.allclose(cons.boundary_spec[0][1], expected, atol=1e-15):
            failures.append(f"m={m} spec fractions wrong")
        if not verify_class_count(cons).passed:
            failures.append(f"m={m} class count != {2 * m - 1}")
        bcheck = verify_boundaries(cons, tol=BOUNDARY_TOL)
        if not bcheck.passed:
            failures.append(f"m={m} crossing error {bcheck.observed['max_fraction_error']:.2e}")
    if not all(a > b for a, b in zip(inner_fractions, inner_fractions[1:])):
        failures.append("inner crossing fraction not strictly decreasing in m")
    report(
        capsys, 3, not failures,
        "star_pairs m=2..8: 2m-1 classes, spoke crossings at 5p/(4m+7) and 10p/(2m+11), "
        "hub-adjacent classes shrink with m" + (f"; failures: {failures}" if failures else ""),
    )


def test_04_polygon_pairs(capsys):
    failures = []
    worst = 0.0
    for m in range(3, 11):
        cons = polygon_pairs(m)
        if not verify_class_count(cons).passed:
            failures.append(f"m={m} class count != {2 * m}")
        bcheck = verify_boundaries(cons, tol=BOUNDARY_TOL)
        worst = max(worst, bcheck.observed["max_fraction_error"])
        if not bcheck.passed:
            failures.append(f"m={m} edge crossings off by {bcheck.observed['max_fraction_error']:.2e}")
        for _, fractions in cons.boundary_spec:
            if fractions != [1 / 3, 2 / 3]:
                failures.append(f"m={m} stated fractions depend on m")
    report(
        capsys, 4, not failures,
        f"polygon_pairs m=3..10: 2m classes, edge crossings at 1/3 and 2/3 "
        f"(max deviation {worst:.2e})" + (f"; failures: {failures}" if failures else ""),
    )


def test_05_polygon_with_center(capsys):
    failures = []
    for m in (4, 5, 6):
        cons = polygon_with_center(m)
        check = verify_class_count(cons, resolutions=(512, 1024))
        if not check.passed:
            failures.append(f"m={m} observed {check.observed}, expected {3 * m - 2}")
    report(
        capsys, 5, not failures,
        "polygon_with_center m=4,5,6 with k=m: 3m-2 classes at 512^2 and 1024^2"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_06_circle_hard_baseline(capsys):
    n = 6
    cons = circle_hard_baseline(n, 1.0)
    check = verify_circle_separation(cons, samples_per_circle=10_000)
    budget = math.ceil(n * (n + 1) * math.pi / 2) + n
    total = len(cons.set)
    ok = check.passed and total <= budget
    report(
        capsys, 6, ok,
        f"circle_hard_baseline n=6: counts {cons.params['counts']}, total {total} <= {budget}, "
        f"{check.observed['total_misclassified']} of {6 * 10_000} samples misclassified",
    )


def test_07_circle_soft_fit(capsys):
    cons = circle_soft_fit(6, 1.0)
    check = verify_circle_separation(cons, samples_per_circle=10_000)
    ok = check.passed and len(cons.set) == 5 and cons.fit_residual < 1e-3
    report(
        capsys, 7, ok,
        f"circle_soft_fit: 5 prototypes separate 6 circles, fit residual {cons.fit_residual:.2e}, "
        f"{check.observed['total_misclassified']} samples misclassified",
    )


def test_08_invariance_suite(capsys):
    constructions = {
        "three_from_two": three_from_two(3.0),
        "n_from_two(5)": n_from_two(5),
        "star_pairs(4)": star_pairs(4),
        "polygon_pairs(5)": polygon_pairs(5),
        "polygon_with_center(4)": polygon_with_center(4),
        "concentric_ellipses(3)": concentric_ellipses(3),
        "circle_hard_baseline(6)": circle_hard_baseline(6),
        "circle_soft_fit(6)": circle_soft_fit(6),
    }
    failures = []
    for name, cons in constructions.items():
        for check in verify_invariances(cons, trials=100, seed=0):
            if not check.passed:
                failures.append(f"{name}: {check.name} had {check.observed['mismatches']} mismatches")
    oracle = verify_hard_label_oracle(instances=1000, seed=0)
    if not oracle.passed:
        failures.append(f"1NN oracle mismatches: {oracle.observed['mismatches']}")
    report(
        capsys, 8, not failures,
        f"invariances: 100 trials x 3 properties x {len(constructions)} constructions, "
        "plus 1000-instance hard-label nearest-neighbor oracle"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_09_risk_gradient(capsys):
    cons = three_from_two(3.0)
    grid = rasterize(cons.set, 2, (-1, 4, -2, 2), 512, 512)
    pos = cons.set.positions
    crossings = [
        boundary_bisect(cons.set, 2, pos[0], (1.5, 0.0)) * 1.5,
        1.5 + boundary_bisect(cons.set, 2, (1.5, 0.0), pos[1]) * 1.5,
    ]
    intensity = risk_render(grid, "clip", percentile=99.0)
    log_intensity = risk_render(grid, "log")
    row = int((0.0 - grid.bounds[2]) / ((grid.bounds[3] - grid.bounds[2]) / grid.height))
    xs = grid.cell_centers_x()
    cell = (grid.bounds[1] - grid.bounds[0]) / grid.width
    failures = []
    for crossing, window in zip(crossings, ((0.3, 1.5), (1.5, 2.7))):
        mask = (xs > window[0]) & (xs < window[1])
        peak = xs[mask][np.argmax(intensity[row][mask])]
        if abs(peak - crossing) > cell:
            failures.append(f"intensity peak {peak:.4f} not within one cell of crossing {crossing:.4f}")
    conf = grid.confidence
    ceiling = np.percentile(conf[np.isfinite(conf)], 99.0)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, conf.size, size=6000)
    a, b = idx[:3000], idx[3000:]
    below = (conf.ravel()[a] < ceiling) & (conf.ravel()[b] < ceiling)
    sign_clip = np.sign(intensity.ravel()[a[below]] - intensity.ravel()[b[below]])
    sign_log = np.sign(log_intensity.ravel()[a[below]] - log_intensity.ravel()[b[below]])
    if not np.array_equal(sign_clip, sign_log):
        failures.append("clip and log orderings disagree below the clip ceiling")
    report(
        capsys, 9, not failures,
        "risk gradient: intensity maxima sit on the located boundaries; clip and log "
        "orderings agree away from the ceiling" + (f"; failures: {failures}" if failures else ""),
    )


def test_10_raster_determinism(capsys, monkeypatch):
    cons = star_pairs(4)
    grid = rasterize(cons.set, 2, default_bounds(cons.set), 512, 512)
    # The same grid from one evaluate_points call per row of cell centres.
    xs, ys = grid.cell_centers_x(), grid.cell_centers_y()
    rows = [evaluate_points(cons.set, 2, np.column_stack((xs, np.full_like(xs, y))))[1:] for y in ys]
    classes, confidence, exact = (np.stack(parts) for parts in zip(*rows))
    hits = tuple(zip(*(index.tolist() for index in np.nonzero(exact))))
    grids = [grid, RasterGrid(grid.bounds, 512, 512, classes.astype(np.int32), confidence, hits)]
    # Rasters cut into rectangles 1 and 16 rows high (32 and 512 cells).
    for chunk in (32, 512):
        monkeypatch.setattr(landscape, "_CHUNK_CELLS", chunk)
        grids.append(rasterize(cons.set, 2, default_bounds(cons.set), 512, 512))
    outputs = [
        (ppm_bytes(g), pgm_bytes(risk_render(g, "log")), class_csv_bytes(g), confidence_csv_bytes(g), g.exact_hits)
        for g in grids
    ]
    ok = all(out == outputs[0] for out in outputs[1:])
    report(
        capsys, 10, ok,
        "rasterization equals one evaluate_points call per row, and rectangles 1 and 16 rows high "
        "produce bit-identical PPM/PGM/CSV outputs",
    )
