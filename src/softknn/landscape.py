"""Decision-landscape rasterization and analysis.

The rasterizer samples the classifier at cell centers over a rectangle and
records the predicted class and confidence gap per cell. On top of that
this module provides risk rendering (confidence mapped to a normalized
intensity, clipped or log-scaled), boundary localization by bisection
along one segment or a stack of segments, connected-region reporting, and
sweeps over the neighbor count k. Class maps export as binary PPM and CSV,
risk maps as binary PGM and CSV; the images are encoded a chunk of rows at
a time straight into one preallocated buffer.

:func:`region_report` labels 4-connected regions with numpy alone. It
splits each row into runs of one class, links runs of adjacent rows that
touch (only cells next to a run start need checking), and merges linked
runs by union-find with pointer jumping, so it keeps one boolean per cell
and a few integers per run and link rather than a label per cell.

:func:`bisect_many` is the one bisection routine: it halves many brackets
at once, asking its predicate once per step for every bracket still open,
and each bracket stops by the rule a lone bracket would use, so stacking
does not change any result.

Rasterization walks a grid on the calling thread and hands its cells to
the classifier in rectangles at most 32 columns wide, so that wherever
the classifier culls prototypes per tile, each culling tile is a compact
patch of cells. It is deterministic: the per-cell computation is
independent of how the grid is cut into rectangles and tiles, so every
cut yields bit-identical grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import _check_rule_args, _evaluate_into, _predicted
from .core import PrototypeSet, require_integer, require_positive

# Fixed palette for class maps (class index cycles through these RGBs).
PALETTE: tuple[tuple[int, int, int], ...] = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (154, 99, 36), (255, 216, 177),
)

# Cells per rasterize chunk: a rectangle holds at most this many cells, so
# the reused buffers of cell centers (512 KiB) and staged outputs are
# bounded by it.
_CHUNK_CELLS = 1 << 15
# Width of the rectangles in which a grid hands its cells to the
# classifier, so that any culling tile is a compact patch of cells.
_PATCH_COLS = 32
# boundary_bisect pre-scans a segment in this many equal steps, and
# bisects its crossing until the bracket is at most _BISECT_TOL wide.
_SCAN = 1024
_BISECT_TOL = 1e-9


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of the n equal cells that split [lo, hi], the one rule for raster cell coordinates."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


class BisectionError(ValueError):
    """Base for boundary-bisection failures."""


class NoCrossingError(BisectionError):
    pass


class MultipleCrossingsError(BisectionError):
    pass


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Classified grid over a rectangle.

    Row i, column j corresponds to the cell center at
    ``(xmin + (j + .5) * cell_w, ymin + (i + .5) * cell_h)``: row 0 is the
    bottom of the rectangle. ``classes`` holds predicted class indices,
    ``confidence`` the score gaps (+inf on exact prototype hits), and
    ``exact_hits`` the (row, col) cells whose centers hit a prototype.
    """

    bounds: tuple[float, float, float, float]
    width: int
    height: int
    classes: np.ndarray
    confidence: np.ndarray
    exact_hits: tuple[tuple[int, int], ...]

    def cell_centers_x(self) -> np.ndarray:
        xmin, xmax, _, _ = self.bounds
        return _cell_centers(xmin, xmax, self.width)

    def cell_centers_y(self) -> np.ndarray:
        _, _, ymin, ymax = self.bounds
        return _cell_centers(ymin, ymax, self.height)


@dataclass(frozen=True, eq=False)
class RegionReport:
    """Distinct classes, 4-connected components, and cell areas of a grid."""

    distinct_classes: int
    components_per_class: dict[int, int]
    class_areas: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "distinct_classes": self.distinct_classes,
            "components_per_class": {str(c): n for c, n in sorted(self.components_per_class.items())},
            "class_areas": {str(c): a for c, a in sorted(self.class_areas.items())},
        }


def default_bounds(pset: PrototypeSet) -> tuple[float, float, float, float]:
    """Prototype bounding box padded per side by a quarter of its span.

    A degenerate axis (all prototypes share that coordinate) is padded by
    an eighth of the dominant span instead, which frames collinear
    configurations as a strip around their segment.
    """
    pos = pset.positions
    if pset.dim != 2:
        raise ValueError(f"default_bounds requires 2-dimensional prototypes, got dimension {pset.dim}")
    mins, maxs = pos.min(axis=0), pos.max(axis=0)
    spans = maxs - mins
    ref = float(spans.max()) if spans.max() > 0 else 1.0
    pads = [0.25 * float(s) if s > 0 else 0.125 * ref for s in spans]
    return (
        float(mins[0] - pads[0]),
        float(maxs[0] + pads[0]),
        float(mins[1] - pads[1]),
        float(maxs[1] + pads[1]),
    )


def rasterize(
    pset: PrototypeSet,
    k: int,
    bounds: tuple[float, float, float, float] | None = None,
    width: int = 512,
    height: int = 512,
) -> RasterGrid:
    """Classify every cell center of a width x height grid over ``bounds``.

    The grid is walked on the calling thread in rectangles ``_PATCH_COLS``
    columns wide (narrower at the right edge or on a narrower grid) and at
    most ``_CHUNK_CELLS // _PATCH_COLS`` rows high. The output is
    bit-identical for every such cut because each cell is classified
    independently. A rectangle's cell centers are built row by row in one
    reused buffer, the classifier writes into reused staged class,
    confidence and exact-hit buffers, and those are copied to the
    rectangle's grid cells. Wherever the classifier culls prototypes
    (k < M, 16 prototypes or more), each culling tile of 512 points then
    covers a patch of cells about 32 wide and 16 high instead of a
    full-width row strip. Per-class scores exist only one tile at a time,
    so memory beyond the outputs is bounded by one rectangle and one tile.
    """
    if pset.dim != 2:
        raise ValueError(f"rasterize requires 2-dimensional prototypes, got dimension {pset.dim}")
    if bounds is None:
        bounds = default_bounds(pset)
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"bounds must be well-ordered, got {bounds}")
    require_integer("width", width)
    require_integer("height", height)
    if width < 2 or height < 2:
        raise ValueError(f"resolution must be at least 2x2, got {width}x{height}")
    _check_rule_args(pset, k)
    xs, ys = _cell_centers(xmin, xmax, width), _cell_centers(ymin, ymax, height)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"cell centers must be finite, got bounds {bounds}")

    classes = np.empty((height, width), dtype=np.int32)
    confidence = np.empty((height, width), dtype=float)
    patch = min(_PATCH_COLS, width)
    rows = min(height, _CHUNK_CELLS // patch)
    centers = np.empty((rows * patch, 2))
    staged = tuple(np.empty(rows * patch, dtype=t) for t in (np.int32, float, bool))
    hits: list[tuple[int, int]] = []
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        for c0 in range(0, width, patch):
            c1 = min(c0 + patch, width)
            cells = (r1 - r0) * (c1 - c0)
            rect = centers[:cells].reshape(r1 - r0, c1 - c0, 2)
            rect[..., 0] = xs[c0:c1]
            rect[..., 1] = ys[r0:r1, None]
            out = [a[:cells] for a in staged]
            _evaluate_into(pset.positions, pset.labels, k, centers[:cells], *out)
            classes[r0:r1, c0:c1], confidence[r0:r1, c0:c1], exact = (a.reshape(r1 - r0, -1) for a in out)
            i, j = np.nonzero(exact)
            hits.extend(zip((i + r0).tolist(), (j + c0).tolist()))

    classes.flags.writeable = False
    confidence.flags.writeable = False
    return RasterGrid(
        bounds=(xmin, xmax, ymin, ymax),
        width=width,
        height=height,
        classes=classes,
        confidence=confidence,
        exact_hits=tuple(sorted(hits)),
    )


def _percentile(values: np.ndarray, percentile: float) -> float:
    """``np.percentile(values, percentile)`` of non-empty finite ``values``, which it reorders.

    numpy's linear method written out with numpy's own arithmetic, so the
    float is the same: the virtual index (n - 1) * (percentile / 100), the
    two order statistics around it (the last one twice at or past the
    end), and their lerp from the nearer end. The partition's kth set is
    numpy's too, the first and last index with the two around the virtual
    one, because which of -0.0 and +0.0 lands at an index depends on it.
    ``np.percentile`` itself imports ``numpy.ma`` on its first call,
    1.1 MiB that no render needs.
    """
    last = len(values) - 1
    virtual = last * (float(percentile) / 100)
    if virtual >= last:  # numpy reads index -1 twice, at weight virtual - (-1)
        lo, hi, gamma = last, last, virtual + 1
    else:
        lo = math.floor(virtual)
        hi, gamma = lo + 1, virtual - lo
    values.partition(sorted({0, lo, hi, last}))
    a, b = float(values[lo]), float(values[hi])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _ceiling(conf: np.ndarray, mode: str, percentile: float) -> float:
    """The confidence that maps to intensity 0: a percentile or the maximum of the finite values."""
    finite = conf[np.isfinite(conf)]
    if mode == "clip":
        if not 50.0 < percentile <= 100.0:
            raise ValueError(f"clip percentile must be in (50, 100], got {percentile}")
        return _percentile(finite, percentile) if finite.size else 0.0
    if mode == "log":
        return float(finite.max()) if finite.size else 0.0
    raise ValueError(f"mode must be 'clip' or 'log', got {mode!r}")


def risk_render(grid: RasterGrid, mode: str = "clip", percentile: float = 99.0) -> np.ndarray:
    """Map confidence to a reclassification-risk intensity in [0, 1].

    Intensity 0 marks the highest-confidence (lowest-risk) cells and 1 the
    decision boundaries, so rendering intensity as gray directly gives the
    dark-equals-safe convention. Clip mode clamps confidence at the given
    percentile of the finite values before scaling, which preserves
    contrast inside classes; log mode applies log1p first, which spreads
    the boundary neighborhoods instead. Exact-hit cells sit at the ceiling
    in both modes and land on intensity 0. The intensity is computed in
    place in the one output array.
    """
    conf = grid.confidence
    ceiling = _ceiling(conf, mode, percentile)
    transformed = np.minimum(conf, ceiling)
    denom = ceiling
    if mode == "log":
        np.log1p(transformed, out=transformed)
        denom = float(np.log1p(ceiling))
    if denom <= 0.0:  # no finite confidence above 0: only +inf cells are safe
        return np.where(conf > 0.0, 0.0, 1.0)
    transformed /= denom
    np.subtract(1.0, transformed, out=transformed)
    return np.clip(transformed, 0.0, 1.0, out=transformed)


def bisect_many(on_lo_side, lo, hi, tol: float) -> np.ndarray:
    """Midpoints of the brackets ``[lo[i], hi[i]]``, each halved toward where ``on_lo_side`` turns false.

    Each step asks ``on_lo_side(which, mids)`` once, for the indices
    ``which`` of the still-open brackets and their midpoints, and expects a
    boolean array back. A bracket closes once ``hi - lo <= tol * max(1, hi)``
    or its midpoint no longer splits it, so every ``tol`` terminates and
    each result is the float that halving that bracket alone would give.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    which = np.arange(len(lo))
    while len(which):
        l, h = lo[which], hi[which]
        mid = 0.5 * (l + h)
        split = (h - l > tol * np.maximum(1.0, h)) & (l < mid) & (mid < h)
        which, mid = which[split], mid[split]
        if len(which):
            side = np.asarray(on_lo_side(which, mid), dtype=bool)
            lo[which[side]] = mid[side]
            hi[which[~side]] = mid[~side]
    return 0.5 * (lo + hi)


def boundary_bisect(pset: PrototypeSet, k: int, a, b) -> float | np.ndarray:
    """Locate the predicted-class change on the segment from ``a`` to ``b``.

    Returns the crossing as a fraction of the segment measured from ``a``,
    bisected until the bracket is at most ``_BISECT_TOL`` wide or float
    spacing stops it narrowing. The segment is pre-scanned at
    ``_SCAN + 1`` points; zero class changes raise
    :class:`NoCrossingError` and more than one raise
    :class:`MultipleCrossingsError` (split the segment and retry).

    ``a`` and ``b`` may also be stacked segments shaped (S, dim); then S
    fractions come back as an array, and an error names its segment
    (``segment 2: ...``). Every segment is pre-scanned and checked before
    the first bisection step, and :func:`bisect_many` then advances all
    brackets together, one classifier call per step. Each fraction is the
    float the one-segment form returns for that segment.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    stacked = a.ndim == 2
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    if a.ndim not in (1, 2) or a.shape != b.shape or a.shape[-1] != pset.dim:
        raise ValueError(f"segment ends must both be ({pset.dim},) or (S, {pset.dim}), got {a.shape} and {b.shape}")
    ts = np.linspace(0.0, 1.0, _SCAN + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite points are refused by _predicted
        pts = a2[:, None, :] + ts[:, None] * (b2 - a2)[:, None, :]
    predicted = _predicted(pset, k, pts.reshape(-1, pset.dim)).reshape(len(a2), _SCAN + 1)
    lo, hi = np.empty(len(a2)), np.empty(len(a2))
    for i, row in enumerate(predicted):
        where = f"segment {i}: " if stacked else ""
        if row[0] == row[-1]:
            raise NoCrossingError(f"{where}both endpoints classify as {int(row[0])}")
        changes = np.nonzero(row[:-1] != row[1:])[0]
        if len(changes) > 1:
            raise MultipleCrossingsError(
                f"{where}{len(changes)} class changes in pre-scan; bisect a sub-segment per crossing"
            )
        lo[i], hi[i] = ts[changes[0]], ts[changes[0] + 1]
    span, first = b2 - a2, predicted[:, 0]

    def on_lo_side(which: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _predicted(pset, k, a2[which] + t[:, None] * span[which]) == first[which]

    fractions = bisect_many(on_lo_side, lo, hi, _BISECT_TOL)
    return fractions if stacked else float(fractions[0])


def region_report(grid: RasterGrid) -> RegionReport:
    """Count distinct classes and their 4-connected components and areas.

    The grid is read as runs, maximal stretches of one class within a row.
    Two runs in adjacent rows touch where they share a column, and the
    first column they share starts one of them, so checking the cells
    above and below every run start finds each touching pair of the same
    class once. The runs are merged along those links (the larger root of
    every link hooked to the smallest root linked to it, then pointer
    jumping, until no link joins two roots), and a class has one
    component per remaining root.
    Areas are sums of run lengths. Memory beyond the grid is one boolean
    per cell and a few integers per run and per link, 32-bit below 2**31
    cells; the candidate cells are freed before the merge. Class ids must
    be non-negative; a negative one is refused with a ``ValueError``.
    """
    classes = grid.classes
    width = classes.shape[1]
    flat = classes.ravel()
    index = np.int32 if flat.size <= np.iinfo(np.int32).max else np.intp
    starts = np.empty(classes.shape, dtype=bool)
    starts[:, :1] = True
    np.not_equal(classes[:, 1:], classes[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts).astype(index)  # each run's first cell, in grid order
    run_class = flat[first]
    if (run_class < 0).any():
        raise ValueError(f"class ids must be non-negative, got {sorted(set(run_class[run_class < 0].tolist()))}")
    # The lower cell of each candidate link: a run start with a row above,
    # or the cell below a run start that does not start a run itself.
    below = first[first < flat.size - width] + width
    cells = np.concatenate((first[first >= width], below[~starts.ravel()[below]]))
    del below, starts
    cells = cells[flat[cells] == flat[cells - width]]
    lower = (np.searchsorted(first, cells, side="right") - 1).astype(index)
    cells -= width
    upper = (np.searchsorted(first, cells, side="right") - 1).astype(index)
    del cells
    parent = np.arange(len(first), dtype=index)
    while not np.array_equal(a := parent[lower], b := parent[upper]):
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        hop = parent[parent]
        while not np.array_equal(hop, parent):
            parent, hop = hop, hop[hop]
    counts = np.bincount(run_class[parent == np.arange(len(parent))])
    areas = np.bincount(run_class, weights=np.diff(first, append=flat.size))
    present = np.flatnonzero(counts).tolist()
    return RegionReport(
        distinct_classes=len(present),
        components_per_class={c: int(counts[c]) for c in present},
        class_areas={c: int(areas[c]) for c in present},
    )


def k_sweep(
    pset: PrototypeSet,
    k_values,
    bounds: tuple[float, float, float, float] | None = None,
    width: int = 512,
    height: int = 512,
) -> list[tuple[int, RasterGrid, RegionReport]]:
    """Rasterize and report regions for each k in ``k_values``, at least one, every k checked before the first raster."""
    k_values = list(k_values)
    require_positive("k_values", len(k_values))
    for k in k_values:
        _check_rule_args(pset, k)
    out = []
    for k in k_values:
        grid = rasterize(pset, k, bounds, width, height)
        out.append((int(k), grid, region_report(grid)))
    return out


# --- Export formats ----------------------------------------------------------
#
# Images follow the usual convention of row 0 at the top, so grids are
# flipped vertically on write (+y points up in the picture). CSV files keep
# the array orientation (row 0 = ymin) with one grid row per line.


def _pnm_bytes(magic: str, values: np.ndarray, channels: int, scratch, encode) -> bytearray:
    """A binary PNM image of a (height, width) array, its last row on top, in one preallocated buffer.

    The header comes first. Then ``encode(rows, buf, out)`` writes the
    pixels of each chunk of at most ``_CHUNK_CELLS`` cells: ``rows`` is
    the chunk of ``values`` already flipped, ``out`` its (rows, width,
    channels) slice of the image, and ``buf`` one reused scratch array of
    the chunk's shape and dtype ``scratch``.
    """
    height, width = values.shape
    header = f"{magic}\n{width} {height}\n255\n".encode()
    image = bytearray(len(header) + values.size * channels)
    image[: len(header)] = header
    pixels = np.frombuffer(image, dtype=np.uint8, offset=len(header)).reshape(height, width, channels)
    step = _CHUNK_CELLS // max(width, 1) or 1
    buf = np.empty((min(step, height), width), dtype=scratch)
    for r0 in range(0, height, step):
        r1 = min(r0 + step, height)
        encode(values[r0:r1][::-1], buf[: r1 - r0], pixels[height - r1 : height - r0])
    return image


def ppm_bytes(grid: RasterGrid) -> bytearray:
    """Binary PPM (P6) of the class map using the fixed palette."""
    palette = np.array(PALETTE, dtype=np.uint8)

    def encode(rows, index, out):
        np.remainder(rows, len(PALETTE), out=index)
        np.take(palette, index, axis=0, out=out, mode="clip")

    return _pnm_bytes("P6", grid.classes, 3, grid.classes.dtype, encode)


def pgm_bytes(intensity: np.ndarray) -> bytearray:
    """Binary PGM (P5) of an intensity grid in [0, 1] (0 = black); NaN is refused."""

    def encode(rows, scaled, out):
        np.clip(rows, 0.0, 1.0, out=scaled)
        if np.isnan(scaled).any():
            raise ValueError("intensity must not hold NaN")
        scaled *= 255.0
        out[..., 0] = np.round(scaled, out=scaled)

    return _pnm_bytes("P5", intensity, 1, np.result_type(intensity, 1.0), encode)


def class_csv_bytes(grid: RasterGrid) -> bytes:
    lines = "\n".join(",".join(map(str, row.tolist())) for row in grid.classes)
    return (lines + "\n").encode()


def confidence_csv_bytes(grid: RasterGrid) -> bytes:
    lines = "\n".join(",".join(map(repr, row.tolist())) for row in grid.confidence)
    return (lines + "\n").encode()


def write_ppm(grid: RasterGrid, path: str | Path) -> None:
    Path(path).write_bytes(ppm_bytes(grid))


def write_pgm(intensity: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(pgm_bytes(intensity))


def write_region_report(report: RegionReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
