"""Rasterization, risk rendering, bisection, regions, and export formats."""

import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from softknn import (
    LabelKind,
    MultipleCrossingsError,
    NoCrossingError,
    PALETTE,
    RasterGrid,
    boundary_bisect,
    circle_hard_baseline,
    circle_soft_fit,
    class_csv_bytes,
    concentric_ellipses,
    confidence_csv_bytes,
    default_bounds,
    evaluate_points,
    k_sweep,
    make_prototype_set,
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
)
from softknn import classifier, landscape
from softknn.classifier import _BLOCK_ENTRIES, _TILE_SCORE_ENTRIES
from softknn.harness import _crossing_segments
from softknn.landscape import _CHUNK_CELLS, RegionReport, bisect_many

# Frame that puts both prototypes of three_from_two(3) exactly on cell
# centers: cell size 0.01, centers offset half a cell from the bounds.
HIT_BOUNDS = (-1.005, 3.995, -2.005, 1.995)


@pytest.fixture(scope="module")
def pair():
    return three_from_two(3.0)


@pytest.fixture(scope="module")
def pair_grid(pair):
    return rasterize(pair.set, 2, (-1, 4, -2, 2), 512, 512)


class TestDefaultBounds:
    def test_square_padding(self):
        pset = make_prototype_set(
            [(0.0, 0.0), (4.0, 2.0)], np.array([[1.0, 0.0], [0.0, 1.0]]), kind=LabelKind.HARD
        )
        np.testing.assert_allclose(default_bounds(pset), (-1.0, 5.0, -0.5, 2.5))

    def test_degenerate_axis_uses_dominant_span(self):
        pset = three_from_two(4.0).set
        xmin, xmax, ymin, ymax = default_bounds(pset)
        np.testing.assert_allclose((xmin, xmax), (-1.0, 5.0))
        np.testing.assert_allclose((ymin, ymax), (-0.5, 0.5))

    def test_refuses_non_planar_sets(self):
        pset = make_prototype_set(np.eye(2, 3), np.eye(2), kind=LabelKind.HARD)
        with pytest.raises(ValueError, match="^default_bounds requires 2-dimensional prototypes, got dimension 3$"):
            default_bounds(pset)


class TestRasterize:
    def test_single_prototype_everything_one_class(self):
        pset = make_prototype_set([(0.5, 0.5)], np.array([[0.0, 1.0, 0.0]]), kind=LabelKind.HARD)
        grid = rasterize(pset, 1, (0, 1, 0, 1), 32, 32)
        assert np.all(grid.classes == 1)
        assert region_report(grid).distinct_classes == 1

    def test_three_classes_at_figure_framing(self, pair_grid):
        assert region_report(pair_grid).distinct_classes == 3

    def test_partitioning_is_bit_identical(self, pair, monkeypatch):
        whole = rasterize(pair.set, 2, (-1, 4, -2, 2), 256, 256)
        for bands in (8, 37):
            _cut_into_bands(monkeypatch, 256, bands)
            _assert_same_bytes(rasterize(pair.set, 2, (-1, 4, -2, 2), 256, 256), whole)

    def test_invalid_bounds(self, pair):
        with pytest.raises(ValueError, match="well-ordered"):
            rasterize(pair.set, 2, (1, -1, 0, 2), 16, 16)

    def test_invalid_resolution(self, pair):
        with pytest.raises(ValueError, match="resolution"):
            rasterize(pair.set, 2, (-1, 4, -2, 2), 1, 16)

    def test_exact_hits_recorded_at_prototype_cells(self, pair):
        grid = rasterize(pair.set, 2, HIT_BOUNDS, 500, 400)
        assert grid.exact_hits == ((200, 100), (200, 400))
        assert np.isinf(grid.confidence[200, 100])
        assert grid.classes[200, 100] == 0
        assert grid.classes[200, 400] == 2

    def test_cell_centers(self):
        pset = three_from_two(3.0).set
        grid = rasterize(pset, 2, (0, 1, 0, 2), 4, 4)
        np.testing.assert_allclose(grid.cell_centers_x(), [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(grid.cell_centers_y(), [0.25, 0.75, 1.25, 1.75])

    def test_resolution_doubling_never_loses_classes(self):
        from softknn import polygon_with_center

        for cons in (
            three_from_two(3.0),
            n_from_two(6),
            star_pairs(4),
            polygon_pairs(4),
            polygon_with_center(4),
        ):
            bounds = default_bounds(cons.set)
            counts = [
                region_report(rasterize(cons.set, cons.required_k, bounds, r, r)).distinct_classes
                for r in (128, 256, 512)
            ]
            assert counts[0] <= counts[1] <= counts[2]
            assert counts[2] == cons.claimed_classes


def _cut_into_bands(monkeypatch, height, bands):
    """Make rasters ``height`` rows high walk their rows in at most ``bands`` bands of rectangles."""
    monkeypatch.setattr(landscape, "_CHUNK_CELLS", -(-height // bands) * landscape._PATCH_COLS)


def _assert_same_bytes(grid, reference):
    assert grid.classes.tobytes() == reference.classes.tobytes()
    assert grid.confidence.tobytes() == reference.confidence.tobytes()
    assert grid.exact_hits == reference.exact_hits


def _reference_raster(pset, k, bounds, width, height):
    """Every cell center at once: ``evaluate_points`` over the full meshgrid."""
    xmin, xmax, ymin, ymax = bounds
    xs = xmin + (np.arange(width) + 0.5) * (xmax - xmin) / width
    ys = ymin + (np.arange(height) + 0.5) * (ymax - ymin) / height
    gx, gy = np.meshgrid(xs, ys)
    _, predicted, conf, exact = evaluate_points(pset, k, np.column_stack((gx.ravel(), gy.ravel())))
    hits = tuple((int(flat) // width, int(flat) % width) for flat in np.flatnonzero(exact))
    return predicted.reshape(height, width), conf.reshape(height, width), hits


def _assert_matches_reference(pset, k, bounds, width, height):
    grid = rasterize(pset, k, bounds, width, height)
    classes, conf, hits = _reference_raster(pset, k, bounds, width, height)
    assert np.array_equal(grid.classes, classes)
    assert np.array_equal(grid.confidence, conf)
    assert grid.exact_hits == hits
    return grid


# (resolution, construction, k) for the raster memory bound: polygon_with_center(8)
# at k = 8 is scored unculled; circle_hard_baseline(6) at k = 1 has 68
# prototypes, so its tiles are culled.
MEMORY_CASES = [
    pytest.param(256, lambda: polygon_with_center(8), 8, id="256"),
    pytest.param(512, lambda: polygon_with_center(8), 8, id="512"),
    pytest.param(256, lambda: circle_hard_baseline(6), 1, id="culled-256"),
    pytest.param(512, lambda: circle_hard_baseline(6), 1, id="culled-512"),
]


class TestRasterTiles:
    """Rasters filled chunk by chunk and tile by tile equal the all-at-once evaluation."""

    # Cell size 1, so cell centers are exact and (x, y) = (col + 0.5, row + 0.5).
    WIDTH, HEIGHT = 301, 251
    BOUNDS = (0.0, 301.0, 0.0, 251.0)

    @staticmethod
    def _soft_set(m, num_classes, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 300, size=(m, 2))
        # A prototype on the center of cell (230, 200), far past the first chunk and tile.
        positions[-1] = (200.5, 230.5)
        labels = rng.uniform(0, 1, size=(m, num_classes))
        return make_prototype_set(positions, labels, kind=LabelKind.UNRESTRICTED)

    @pytest.mark.parametrize("k", [1, 3, 40], ids=["k1", "sorted", "kM"])
    def test_selection_paths(self, k):
        # The grid spans several rectangles of _PATCH_COLS columns, the last
        # one ragged: 301 = 9 * 32 + 13, or 37 * 8 + 5 when culling is forced.
        patch = landscape._PATCH_COLS
        assert 1 < self.WIDTH // patch and self.WIDTH % patch
        pset = self._soft_set(40, 5, k)
        grid = _assert_matches_reference(pset, k, self.BOUNDS, self.WIDTH, self.HEIGHT)
        assert (230, 200) in grid.exact_hits

    def test_tile_bounded_by_classes(self):
        m, num_classes = 12, 40
        assert _TILE_SCORE_ENTRIES // num_classes < _BLOCK_ENTRIES // m
        pset = self._soft_set(m, num_classes, 7)
        for k in (2, m):
            grid = _assert_matches_reference(pset, k, self.BOUNDS, self.WIDTH, self.HEIGHT)
            assert (230, 200) in grid.exact_hits

    def test_one_class_confidence_is_inf(self):
        labels = np.array([[1.0], [0.5]])
        pset = make_prototype_set([(10.0, 20.0), (150.0, 90.0)], labels, kind=LabelKind.UNRESTRICTED)
        grid = _assert_matches_reference(pset, 2, self.BOUNDS, self.WIDTH, self.HEIGHT)
        assert np.all(np.isinf(grid.confidence)) and np.all(grid.classes == 0)

    @pytest.mark.parametrize("bands", [1, 3, 7])
    def test_partitions_at_odd_height(self, monkeypatch, bands):
        # The 37 rows walked in 1, 3 or 7 bands of rectangles: 37, 13 or 6 rows high.
        _cut_into_bands(monkeypatch, 37, bands)
        pset = self._soft_set(30, 6, bands)
        _assert_matches_reference(pset, 4, (0.0, 301.0, 0.0, 37.0), 301, 37)

    def test_several_row_bands_of_rectangles(self):
        # The 1100 rows are walked in two bands of rectangles, 1024 rows and
        # then 76, each band 32 columns wide and then 1.
        assert _CHUNK_CELLS // 32 == 1024
        pset = self._soft_set(30, 4, 11)
        grid = _assert_matches_reference(pset, 3, (180.0, 213.0, 0.0, 1100.0), 33, 1100)
        assert (230, 20) in grid.exact_hits

    @pytest.mark.parametrize("dim", [1, 3])
    def test_refuses_non_planar_sets(self, dim):
        pset = make_prototype_set(np.eye(2, dim), np.eye(2), kind=LabelKind.HARD)
        with pytest.raises(ValueError, match="rasterize requires 2-dimensional prototypes"):
            rasterize(pset, 1, (0, 1, 0, 1), 16, 16)

    def test_refuses_overflowing_cell_centers(self, pair):
        with pytest.raises(ValueError, match="cell centers must be finite"):
            rasterize(pair.set, 2, (-1e308, 1e308, 0, 1), 4, 4)

    @pytest.mark.parametrize("res, build, k", MEMORY_CASES)
    def test_memory_bounded_by_tile(self, res, build, k):
        # Beyond its two outputs, rasterize holds one rectangle of cell
        # centers and staged outputs and one tile of work buffers, whatever
        # the grid size or class count, culled or not.
        pset = build().set
        tracemalloc.start()
        try:
            grid = rasterize(pset, k, None, res, res)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - grid.classes.nbytes - grid.confidence.nbytes < 4 * 2**20


@pytest.mark.usefixtures("forced_culling")
class TestRasterTilesCulled(TestRasterTiles):
    """Raster tiles with every tile culled and chunks handed over in ragged 8-column strips."""

    # The polygon set is culled here too. The hard circle set would only
    # measure the forced 5-point culling tiles: 52 000 of them at 512x512,
    # about 16 s, where the raster's own culling tiles hold 512 points.
    @pytest.mark.parametrize("res, build, k", MEMORY_CASES[:2])
    def test_memory_bounded_by_tile(self, res, build, k):
        super().test_memory_bounded_by_tile(res, build, k)


class TestPatchOrder:
    """Culled rasters give the bytes of unculled rasters of the same set."""

    @pytest.mark.parametrize("bands", [1, 3, None])
    @pytest.mark.parametrize("width, height", [(300, 170), (31, 40), (1100, 40)])
    def test_strips_match_grid_order(self, monkeypatch, bands, width, height):
        # The rows walked in one band of rectangles, in three, or in the default cut.
        if bands is not None:
            _cut_into_bands(monkeypatch, height, bands)
        cons = circle_hard_baseline(6)
        assert classifier._culls(len(cons.set), 1)
        grid = rasterize(cons.set, 1, None, width, height)
        monkeypatch.setattr(classifier, "_CULL_MIN_PROTOTYPES", len(cons.set) + 1)
        _assert_same_bytes(grid, rasterize(cons.set, 1, None, width, height))


def _refuse_threads(monkeypatch):
    def refused(thread):
        raise AssertionError("rasterize must run on the calling thread")

    monkeypatch.setattr(threading.Thread, "start", refused)


# Cuts of a raster into rectangles, as (_CHUNK_CELLS, _PATCH_COLS):
# rectangles one row high, 16 rows high, 7 columns by 5 rows, one column
# wide, 64 columns wide, and 11 rows high (37 bands of a 400-row grid).
CUTS = [
    pytest.param(32, 32, id="one-row"),
    pytest.param(512, 32, id="16-row"),
    pytest.param(35, 7, id="7x5"),
    pytest.param(_CHUNK_CELLS, 1, id="one-column"),
    pytest.param(_CHUNK_CELLS, 64, id="64-wide"),
    pytest.param(11 * 32, 32, id="37-bands"),
]


class TestSplitInvarianceOnCallingThread:
    """Any cut of a grid into rectangles, walked on the calling thread, gives the bytes of the default raster."""

    @pytest.mark.parametrize("chunk, patch", CUTS)
    def test_cuts_give_identical_bytes(self, monkeypatch, pair, chunk, patch):
        # Exact hits on a 400-row grid, and odd-sized grids on every
        # selection path, k = 1 on 68 prototypes culled where a call has 64
        # cells or more.
        sets = ((star_pairs(4), 2), (circle_hard_baseline(6), 1), (polygon_with_center(8), 8), (polygon_pairs(8), 2))
        cases = [(pair.set, 2, HIT_BOUNDS, 500, 400)] + [(cons.set, k, None, 157, 101) for cons, k in sets]
        wholes = [rasterize(*case) for case in cases]
        assert wholes[0].exact_hits == ((200, 100), (200, 400))
        monkeypatch.setattr(landscape, "_CHUNK_CELLS", chunk)
        monkeypatch.setattr(landscape, "_PATCH_COLS", patch)
        for case, whole in zip(cases, wholes):
            _assert_same_bytes(rasterize(*case), whole)

    def test_scoring_error_comes_out_unchanged(self, monkeypatch):
        # Scores overflow only near the prototypes, in the middle bands.
        _cut_into_bands(monkeypatch, 64, 8)
        pset = make_prototype_set([(0.0, 0.0), (3.0, 0.0)], np.array([[1e308, 0.0], [0.0, 1e308]]))
        with pytest.raises(ValueError, match="^scores overflow to a non-finite value; the label weights are too large$"):
            rasterize(pset, 2, (-1, 4, -2, 2), 64, 64)

    def test_wide_grid_cut_into_rows_gives_identical_bytes(self, monkeypatch, pair):
        # 1536 rectangles 32 columns wide, two rows high and then one.
        width = 3 * _CHUNK_CELLS // 2
        bounds = (-1.0, 4.0, -0.5, 0.5)
        whole = rasterize(pair.set, 2, bounds, width, 2)
        _cut_into_bands(monkeypatch, 2, 2)
        _assert_same_bytes(rasterize(pair.set, 2, bounds, width, 2), whole)


class TestRasterThreads:
    """Rasters of any size, cut any way, start no thread."""

    def test_small_default_raster_builds_no_pool(self, monkeypatch):
        _refuse_threads(monkeypatch)
        rasterize(polygon_with_center(8).set, 8, None, 256, 256)

    def test_large_default_raster_splits_per_core(self, monkeypatch):
        # A cut into one band of rows per core starts no thread either, and
        # gives the bytes of the default cut.
        _refuse_threads(monkeypatch)
        pset = polygon_with_center(8).set
        whole = rasterize(pset, 8, None, 1024, 1024)
        _cut_into_bands(monkeypatch, 1024, os.cpu_count() or 1)
        _assert_same_bytes(rasterize(pset, 8, None, 1024, 1024), whole)


@pytest.mark.parametrize(
    "value, message",
    [
        (2.5, "width must be an integer"),
        (True, "height must be an integer"),
        (np.float64(16.0), "width must be an integer"),
    ],
)
def test_refuses_bad_width_and_height(pair, value, message):
    # The message's first word names the argument that gets the value.
    name = message.split()[0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {re.escape(repr(value))}$"):
        rasterize(pair.set, 2, (-1, 4, -2, 2), **{"width": 16, "height": 16, name: value})


class TestRiskRender:
    def test_uniform_confidence_gives_uniform_intensity(self):
        grid = RasterGrid(
            bounds=(0, 1, 0, 1), width=4, height=4,
            classes=np.zeros((4, 4), dtype=np.int32),
            confidence=np.full((4, 4), 2.5), exact_hits=(),
        )
        for mode in ("clip", "log"):
            intensity = risk_render(grid, mode)
            assert np.all(intensity == intensity[0, 0])

    def test_exact_hits_render_at_zero_intensity(self, pair):
        grid = rasterize(pair.set, 2, HIT_BOUNDS, 500, 400)
        for mode in ("clip", "log"):
            intensity = risk_render(grid, mode)
            for row, col in grid.exact_hits:
                assert intensity[row, col] == 0.0
        # One class: every cell is +inf, exact hits included, and no finite confidence is above 0.
        grid = rasterize(n_from_two(1).set, 2, HIT_BOUNDS, 500, 400)
        assert grid.exact_hits and np.all(grid.confidence == np.inf)
        for mode in ("clip", "log"):
            assert np.all(risk_render(grid, mode) == 0.0)

    def test_intensity_peaks_at_boundaries(self, pair, pair_grid):
        intensity = risk_render(pair_grid, "clip")
        row = int((0.0 - (-2.0)) / (4.0 / 512))
        xs = pair_grid.cell_centers_x()
        cell = 5.0 / 512
        for window, crossing in (((0.3, 1.5), 1.0), ((1.5, 2.7), 2.0)):
            mask = (xs > window[0]) & (xs < window[1])
            peak_x = xs[mask][np.argmax(intensity[row][mask])]
            assert abs(peak_x - crossing) <= cell

    def test_clip_and_log_order_consistently_below_ceiling(self, pair_grid):
        clip = risk_render(pair_grid, "clip", percentile=99.0)
        log = risk_render(pair_grid, "log")
        conf = pair_grid.confidence
        ceiling = np.percentile(conf[np.isfinite(conf)], 99.0)
        rng = np.random.default_rng(0)
        flat = rng.integers(0, conf.size, size=4000)
        a, b = flat[:2000], flat[2000:]
        keep = (conf.ravel()[a] < ceiling) & (conf.ravel()[b] < ceiling)
        d_clip = clip.ravel()[a[keep]] - clip.ravel()[b[keep]]
        d_log = log.ravel()[a[keep]] - log.ravel()[b[keep]]
        np.testing.assert_array_equal(np.sign(d_clip), np.sign(d_log))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0, 2.5, 1e-300, 1e300]) | st.floats(-1e6, 1e6), min_size=1, max_size=60),
        percentile=st.sampled_from([99.0, 100.0]) | st.floats(50.0, 100.0, exclude_min=True),
    )
    @example(values=[-0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0], percentile=59.0)  # numpy's kth set puts +0.0 at index 3
    def test_clip_percentile_is_numpys(self, values, percentile):
        # The clip ceiling is np.percentile's float, duplicates and -0.0 included.
        values = np.array(values)
        expected = np.float64(np.percentile(values, percentile)).tobytes()
        assert np.float64(landscape._percentile(values.copy(), percentile)).tobytes() == expected

    def test_percentile_validation(self, pair_grid):
        with pytest.raises(ValueError, match="percentile"):
            risk_render(pair_grid, "clip", percentile=40.0)
        with pytest.raises(ValueError, match="mode"):
            risk_render(pair_grid, "linear")


class TestBoundaryBisect:
    def test_pair_segment_crossings(self, pair):
        pos = pair.set.positions
        first = boundary_bisect(pair.set, 2, pos[0], (1.5, 0.0))
        second = boundary_bisect(pair.set, 2, (1.5, 0.0), pos[1])
        assert abs(first * 0.5 - 1 / 3) < 1e-6
        assert abs(0.5 + second * 0.5 - 2 / 3) < 1e-6

    def test_star_spoke_crossings(self):
        cons = star_pairs(4, radius=1.0)
        tip = cons.set.positions[1]
        inner = boundary_bisect(cons.set, 2, (0.0, 0.0), 0.35 * tip) * 0.35
        outer = 0.35 + boundary_bisect(cons.set, 2, 0.35 * tip, tip) * 0.65
        assert abs(inner - 5 / 23) < 1e-6
        assert abs(outer - 10 / 19) < 1e-6

    @pytest.mark.parametrize("m", [3, 5, 8, 12])
    def test_polygon_edge_crossings(self, m):
        cons = polygon_pairs(m)
        a, b = cons.set.positions[0], cons.set.positions[1]
        mid = a + 0.5 * (b - a)
        first = boundary_bisect(cons.set, 2, a, mid) * 0.5
        second = 0.5 + boundary_bisect(cons.set, 2, mid, b) * 0.5
        assert abs(first - 1 / 3) < 1e-6
        assert abs(second - 2 / 3) < 1e-6

    def test_no_crossing_raises(self, pair):
        with pytest.raises(NoCrossingError):
            boundary_bisect(pair.set, 2, (0.1, 0.0), (0.2, 0.0))

    def test_multiple_crossings_raises(self, pair):
        pos = pair.set.positions
        with pytest.raises(MultipleCrossingsError):
            boundary_bisect(pair.set, 2, pos[0], pos[1])

    @pytest.mark.parametrize(
        "a, b",
        [((0.0, 0.0), (np.inf, 0.0)), ((np.nan, 0.0), (1.5, 0.0)), ((-1e308, 0.0), (1e308, 0.0)),
         ([(0.0, 0.0), (0.0, 0.0)], [(1.5, 0.0), (1.5, -np.inf)])],
        ids=["infinite-end", "nan-end", "overflowing-span", "stacked"],
    )
    def test_non_finite_segment_refused(self, pair, a, b):
        # Checked by the classifier entry that scores the pre-scan, before any bisection step.
        with pytest.raises(ValueError, match="^query points must be finite$"):
            boundary_bisect(pair.set, 2, a, b)

    @pytest.mark.parametrize("k, match", [(3, "^k=3 out of range for 2 prototypes$"), (1.5, "^k must be an integer")])
    def test_bad_k_refused(self, pair, k, match):
        with pytest.raises(ValueError, match=match):
            boundary_bisect(pair.set, k, (0.0, 0.0), (1.5, 0.0))


def bisect_reference(on_lo_side, lo: float, hi: float, tol: float) -> float:
    """The scalar bisection loop that bisect_many replaced, kept as its oracle."""
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if on_lo_side(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestBisectMany:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 0.0, -1.0])
    def test_random_brackets_match_scalar_loop(self, tol):
        # Widths over ten decades and both sides of |hi| = 1, so brackets
        # close at different steps and under both branches of max(1, hi).
        rng = np.random.default_rng(3)
        lo = rng.uniform(-20.0, 20.0, 200)
        hi = lo + 10.0 ** rng.uniform(-8.0, 2.0, 200)
        cut = lo + rng.uniform(0.0, 1.0, 200) * (hi - lo)
        open_counts = []

        def on_lo_side(which, t):
            open_counts.append(len(which))
            return t < cut[which]

        got = bisect_many(on_lo_side, lo, hi, tol)
        want = [bisect_reference(lambda t, c=c: t < c, l, h, tol) for l, h, c in zip(lo, hi, cut)]
        assert hexes(got) == hexes(want)
        assert open_counts == sorted(open_counts, reverse=True)
        assert len(set(open_counts)) > 1

    def test_brackets_close_at_different_steps(self):
        lo, hi = np.array([0.0, 0.0, 3.0]), np.array([1.0, 1e-6, 3.5])
        seen = []

        def on_lo_side(which, t):
            seen.append(which.tolist())
            return t < 0.3 * hi[which]

        got = bisect_many(on_lo_side, lo, hi, 1e-9)
        want = [bisect_reference(lambda t, h=h: t < 0.3 * h, l, h, 1e-9) for l, h in zip(lo, hi)]
        assert hexes(got) == hexes(want)
        # The narrow bracket drops out first; the others keep going.
        assert seen[0] == [0, 1, 2]
        assert [0, 2] in seen and seen[-1] != [0, 1, 2]

    def test_closed_bracket_is_never_asked(self):
        lo, hi = np.array([0.25, 2.0, 0.0]), np.array([0.25, 2.0 + 1e-12, 1.0])
        asked = set()

        def on_lo_side(which, t):
            asked.update(which.tolist())
            return t < 0.6

        got = bisect_many(on_lo_side, lo, hi, 1e-9)
        assert asked == {2}
        want = [bisect_reference(lambda t: t < 0.6, l, h, 1e-9) for l, h in zip(lo, hi)]
        assert hexes(got) == hexes(want)
        assert got[0] == 0.25

    def test_no_brackets(self):
        assert bisect_many(lambda which, t: t < 0, [], [], 1e-9).shape == (0,)


class TestStackedBoundaryBisect:
    @pytest.mark.parametrize(
        "build",
        [lambda: polygon_pairs(8), lambda: star_pairs(8), lambda: n_from_two(12), lambda: circle_soft_fit(6)],
        ids=["polygon_pairs-8", "star_pairs-8", "n_from_two-12", "circle_soft_fit-6-rays"],
    )
    def test_every_crossing_matches_one_segment_form(self, build):
        cons = build()
        starts, ends, _ = _crossing_segments(cons)
        assert len(starts) > 1
        stacked = boundary_bisect(cons.set, cons.required_k, starts, ends)
        single = [boundary_bisect(cons.set, cons.required_k, a, b) for a, b in zip(starts, ends)]
        assert all(type(f) is float for f in single)
        assert stacked.shape == (len(starts),)
        assert hexes(stacked) == hexes(single)

    @pytest.fixture
    def no_bisection(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("bisected before every segment was checked")

        monkeypatch.setattr("softknn.landscape.bisect_many", forbidden)

    def test_no_crossing_names_segment(self, pair, no_bisection):
        starts = [(0.0, 0.0), (1.5, 0.0), (0.1, 0.0)]
        ends = [(1.5, 0.0), (3.0, 0.0), (0.2, 0.0)]
        with pytest.raises(NoCrossingError, match=r"^segment 2: both endpoints classify as 0$"):
            boundary_bisect(pair.set, 2, starts, ends)

    def test_multiple_crossings_names_segment(self, pair, no_bisection):
        starts = [(0.0, 0.0), (1.5, 0.0), (0.0, 0.0)]
        ends = [(1.5, 0.0), (3.0, 0.0), (3.0, 0.0)]
        with pytest.raises(MultipleCrossingsError, match=r"^segment 2: 2 class changes in pre-scan"):
            boundary_bisect(pair.set, 2, starts, ends)

    def test_pair_crossings_stacked(self, pair):
        starts, ends = [(0.0, 0.0), (1.5, 0.0)], [(1.5, 0.0), (3.0, 0.0)]
        fractions = boundary_bisect(pair.set, 2, starts, ends)
        np.testing.assert_allclose(fractions, [2 / 3, 1 / 3], atol=1e-8)

    def test_no_segments(self, pair):
        none = np.empty((0, 2))
        assert boundary_bisect(pair.set, 2, none, none).shape == (0,)

    def test_mismatched_ends_rejected(self, pair):
        with pytest.raises(ValueError, match="segment ends"):
            boundary_bisect(pair.set, 2, [(0.0, 0.0)], [(1.5, 0.0), (3.0, 0.0)])
        with pytest.raises(ValueError, match="segment ends"):
            boundary_bisect(pair.set, 2, (0.0, 0.0, 0.0), (1.5, 0.0, 0.0))


class TestRegionReport:
    def test_five_bands_single_components(self):
        cons = n_from_two(5)
        grid = rasterize(cons.set, 2, default_bounds(cons.set), 256, 256)
        report = region_report(grid)
        assert report.distinct_classes == 5
        assert report.components_per_class == {c: 1 for c in range(5)}
        assert sum(report.class_areas.values()) == 256 * 256

    def test_polygon_with_center_count(self):
        from softknn import polygon_with_center

        cons = polygon_with_center(4)
        grid = rasterize(cons.set, 4, default_bounds(cons.set), 512, 512)
        assert region_report(grid).distinct_classes == 10

    def test_json_shape(self):
        cons = n_from_two(2)
        grid = rasterize(cons.set, 2, default_bounds(cons.set), 64, 64)
        data = region_report(grid).to_json_dict()
        assert set(data) == {"distinct_classes", "components_per_class", "class_areas"}
        assert all(isinstance(k, str) for k in data["components_per_class"])


def _region_reference(grid):
    """The per-class full-grid loop: one mask and one ``ndimage.label`` over the whole grid per class."""
    present = np.unique(grid.classes)
    components, areas = {}, {}
    for c in present:
        mask = grid.classes == c
        _, count = ndimage.label(mask)
        components[int(c)] = int(count)
        areas[int(c)] = int(mask.sum())
    return RegionReport(len(present), components, areas)


def _class_grid(classes):
    classes = np.asarray(classes, dtype=np.int32)
    height, width = classes.shape
    confidence = np.zeros(classes.shape)
    return RasterGrid((0.0, 1.0, 0.0, 1.0), width, height, classes, confidence, ())


class TestRegionReportBoxes:
    """The run labeller of ``region_report`` equals the full-grid loop of ``ndimage.label``."""

    @staticmethod
    def _checked(classes):
        grid = _class_grid(classes)
        report = region_report(grid)
        assert report.to_json_dict() == _region_reference(grid).to_json_dict()
        return report

    @pytest.mark.parametrize("seed", range(6))
    def test_random_maps_with_absent_ids(self, seed):
        rng = np.random.default_rng(seed)
        ids = np.array([0, 2, 3, 7, 11])  # 1, 4-6 and 8-10 never occur
        coarse = rng.choice(ids, size=rng.integers(3, 12, size=2))
        classes = np.kron(coarse, np.ones((rng.integers(1, 6), rng.integers(1, 6)), dtype=np.int64))
        report = self._checked(classes)
        assert set(report.class_areas) <= set(ids.tolist())

    def test_noise_map(self):
        classes = np.random.default_rng(9).integers(0, 5, size=(37, 53)) * 3
        self._checked(classes)

    def test_one_class(self):
        report = self._checked(np.full((5, 8), 4))
        assert report.components_per_class == {4: 1} and report.class_areas == {4: 40}

    def test_one_class_in_several_components(self):
        classes = np.zeros((20, 30), dtype=int)
        classes[2:5, 3:9] = 6
        classes[12:18, 1:4] = 6
        classes[8:10, 20:29] = 6
        report = self._checked(classes)
        assert report.components_per_class == {0: 1, 6: 3}

    def test_diagonal_contacts_split_components(self):
        # Class 1 on the diagonal: 4-connectivity splits it into single cells
        # and leaves the two triangles of class 0 apart as well.
        report = self._checked(np.eye(9, dtype=int))
        assert report.components_per_class == {0: 2, 1: 9}
        checker = np.indices((6, 7)).sum(axis=0) % 2
        report = self._checked(checker)
        assert report.components_per_class == {0: 21, 1: 21}

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda h: st.integers(min_value=1, max_value=12).flatmap(
                lambda w: st.lists(st.sampled_from([0, 2, 3, 7]), min_size=h * w, max_size=h * w).map(
                    lambda ids: np.array(ids).reshape(h, w)
                )
            )
        )
    )
    def test_random_maps_match_reference(self, classes):
        # Ids 1 and 4-6 never occur; 2 and 3 may not either.
        self._checked(classes)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (2, 2)])
    def test_thin_and_tiny_grids(self, shape):
        for seed in range(8):
            self._checked(np.random.default_rng(seed).integers(0, 3, size=shape))

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (7, 12)])
    def test_checkerboard(self, shape):
        h, w = shape
        report = self._checked(np.indices(shape).sum(axis=0) % 2)
        assert sum(report.components_per_class.values()) == h * w

    def test_nested_rings(self):
        # Square rings of alternating classes around a centre cell: every
        # ring is one component enclosing the next.
        i, j = np.indices((23, 23))
        ring = np.maximum(abs(i - 11), abs(j - 11))
        report = self._checked(ring % 2 + 2 * (ring % 3 == 0))
        assert sum(report.components_per_class.values()) == 12

    def test_spiral(self):
        # A wall of class 1 walked clockwise and inward, one cell from its
        # own earlier turns: the wall and the corridor of class 0 between
        # its turns are each one component.
        classes = np.zeros((21, 21), dtype=int)
        r, c, dr, dc = 0, 0, 0, 1
        classes[r, c] = 1

        def open_ahead(r, c):
            ahead = [(r + s * dr, c + s * dc) for s in (1, 2)]
            inside = [0 <= i < 21 and 0 <= j < 21 for i, j in ahead]
            return inside[0] and not classes[ahead[0]] and not (inside[1] and classes[ahead[1]])

        while True:
            if not open_ahead(r, c):
                dr, dc = dc, -dr
                if not open_ahead(r, c):
                    break
            r, c = r + dr, c + dc
            classes[r, c] = 1
        report = self._checked(classes)
        assert report.components_per_class == {0: 1, 1: 1}

    def test_comb_joined_by_last_row(self):
        # About a million one-cell runs: the teeth of class 1 are chains a
        # grid high, and only the last row joins them.
        classes = np.zeros((1024, 1024), dtype=np.int32)
        classes[:, 1::2] = 1
        classes[-1] = 1
        report = self._checked(classes)
        assert report.components_per_class == {0: 512, 1: 1}

    def test_comb_peak_memory(self):
        # The same comb, about a million runs and as many links. tracemalloc
        # peak on a 2-core Xeon VM (Python 3.11.7, numpy 2.4.6): 58656672 B
        # (55.9 MiB) with int32 run and link indices and the candidate cells
        # freed before the merge; 100.9 MiB with int64 indices kept alive.
        classes = np.zeros((1024, 1024), dtype=np.int32)
        classes[:, 1::2] = 1
        classes[-1] = 1
        grid = _class_grid(classes)
        region_report(grid)
        tracemalloc.start()
        try:
            report = region_report(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.components_per_class == {0: 512, 1: 1}
        assert peak <= 60 * 2**20

    def test_single_class(self):
        report = self._checked(np.full((1, 1), 5))
        assert report.distinct_classes == 1 and report.components_per_class == {5: 1} and report.class_areas == {5: 1}

    @pytest.mark.parametrize("negative", [-1, -4])
    def test_negative_class_ids_refused(self, negative):
        classes = np.zeros((4, 5), dtype=np.int32)
        classes[1, 2] = negative
        classes[3, 0] = -1
        named = sorted({negative, -1})
        with pytest.raises(ValueError, match=rf"^class ids must be non-negative, got {re.escape(str(named))}$"):
            region_report(_class_grid(classes))


class TestKSweep:
    def test_k1_on_hard_labels_is_voronoi(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 1, size=(5, 2))
        labels = np.zeros((5, 5))
        labels[np.arange(5), np.arange(5)] = 1.0
        pset = make_prototype_set(positions, labels, kind=LabelKind.HARD)
        ((_, grid, _),) = k_sweep(pset, [1], (0, 1, 0, 1), 64, 64)
        xs, ys = grid.cell_centers_x(), grid.cell_centers_y()
        for i in range(0, 64, 7):
            for j in range(0, 64, 7):
                dists = np.linalg.norm(positions - (xs[j], ys[i]), axis=1)
                assert grid.classes[i, j] == int(np.argmin(dists))

    def test_middle_class_needs_k2(self, pair):
        sweep = k_sweep(pair.set, [1, 2], (-1, 4, -2, 2), 128, 128)
        by_k = {k: report for k, _, report in sweep}
        assert by_k[1].distinct_classes == 2
        assert 1 not in by_k[1].class_areas
        assert by_k[2].distinct_classes == 3

    def test_sweep_can_produce_non_contiguous_classes(self):
        cons = concentric_ellipses(3)
        sweep = k_sweep(cons.set, [1, 2, 3], width=128, height=128)
        multi = [
            k for k, _, report in sweep if any(n >= 2 for n in report.components_per_class.values())
        ]
        assert multi, "expected some k to split a class into multiple components"

    def test_empty_k_values_refused(self, pair):
        # An empty sweep would show nothing.
        with pytest.raises(ValueError, match="^k_values must be at least 1, got 0$"):
            k_sweep(pair.set, [])

    @pytest.mark.parametrize(
        "call",
        [lambda pset: rasterize(pset, 1, (0, 1, 0, 1), 8, 8), lambda pset: k_sweep(pset, [1, 2], (0, 1, 0, 1), 8, 8)],
        ids=["rasterize", "k_sweep"],
    )
    def test_coincident_positions_refused(self, call, monkeypatch):
        # Refused before any raster is built, with the classifier's message.
        pset = make_prototype_set([(0.2, 0.2), (0.7, 0.7), (0.2, 0.2)], np.eye(3), kind=LabelKind.HARD)
        monkeypatch.setattr(landscape, "_evaluate_into", None)
        with pytest.raises(ValueError, match=r"^prototype positions must be distinct; run validate\(\) for details$"):
            call(pset)


@pytest.fixture(scope="module")
def small_grid():
    cons = n_from_two(3)
    return rasterize(cons.set, 2, default_bounds(cons.set), 32, 16)


class TestExports:
    def test_ppm_header_and_size(self, small_grid):
        data = ppm_bytes(small_grid)
        assert data.startswith(b"P6\n32 16\n255\n")
        assert len(data) == len(b"P6\n32 16\n255\n") + 32 * 16 * 3

    def test_ppm_top_row_is_max_y(self, small_grid):
        data = ppm_bytes(small_grid)
        header = len(b"P6\n32 16\n255\n")
        top_left = tuple(data[header : header + 3])
        assert top_left == PALETTE[small_grid.classes[-1, 0] % len(PALETTE)]

    def test_pgm_header_and_range(self, small_grid):
        intensity = risk_render(small_grid, "log")
        data = pgm_bytes(intensity)
        assert data.startswith(b"P5\n32 16\n255\n")
        assert len(data) == len(b"P5\n32 16\n255\n") + 32 * 16

    @pytest.mark.parametrize("width", [32, 700])
    def test_pgm_refuses_nan(self, width):
        # At width 700 the NaN sits in the last of three chunks encoded.
        intensity = np.full((120, width), 0.5)
        intensity[-1, -1] = np.nan
        with pytest.raises(ValueError, match="^intensity must not hold NaN$"):
            pgm_bytes(intensity)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_images_are_headers(self, shape):
        height, width = shape
        assert pgm_bytes(np.zeros(shape)) == f"P5\n{width} {height}\n255\n".encode()
        grid = _class_grid(np.zeros(shape))
        assert ppm_bytes(grid) == f"P6\n{width} {height}\n255\n".encode()

    def test_class_csv_round_trip(self, small_grid):
        rows = class_csv_bytes(small_grid).decode().strip().split("\n")
        parsed = np.array([[int(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(parsed, small_grid.classes)

    def test_confidence_csv_round_trip(self, small_grid):
        rows = confidence_csv_bytes(small_grid).decode().strip().split("\n")
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(parsed, small_grid.confidence)

    def test_palette_distinct(self):
        assert len(set(PALETTE)) == len(PALETTE)
        assert all(len(c) == 3 and all(0 <= v <= 255 for v in c) for c in PALETTE)


class TestConfidenceContinuity:
    def test_confidence_small_near_crossing_and_continuous(self, pair):
        # March a fine segment through the first crossing, away from prototypes.
        ts = np.linspace(0.0, 1.0, 10_001)
        pts = np.column_stack((0.5 + ts * 1.0, np.full_like(ts, 0.1)))
        _, _, conf, exact = evaluate_points(pair.set, 2, pts)
        assert not exact.any()
        steps = np.abs(np.diff(conf))
        assert steps.max() < 1e-2
        assert conf.min() < 1e-3
