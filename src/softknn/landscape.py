"""Decision-landscape rasterization and analysis.

The rasterizer samples the classifier at cell centers over a rectangle and
records the predicted class and confidence gap per cell. On top of that
this module provides risk rendering (confidence mapped to a normalized
intensity, clipped or log-scaled), boundary localization by bisection
along one segment or a stack of segments, connected-region reporting, and
sweeps over the neighbor count k. Class maps export as binary PPM and CSV,
risk maps as binary PGM and CSV.

:func:`bisect_many` is the one bisection routine: it halves many brackets
at once, asking its predicate once per step for every bracket still open,
and each bracket stops by the rule a lone bracket would use, so stacking
does not change any result.

Rasterization splits a grid's rows into blocks. Grids of at least four
chunks per worker (512x512 and up on two cores) run one block per
available core on a thread pool opened for the call; smaller ones stay on
the calling thread. Where the classifier culls prototypes per tile (k < M
on sets of 16 or more), a block hands each chunk of rows over in strips
32 columns wide, so that each culling tile is a compact patch of cells.
It is deterministic: the per-cell computation is independent of how cells
are partitioned into blocks, strips and tiles, so any ``partitions``
value, and any core count, yields bit-identical grids.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .classifier import _check_rule_args, _culls, _evaluate_into, _predicted
from .core import PrototypeSet

# Fixed palette for class maps (class index cycles through these RGBs).
PALETTE: tuple[tuple[int, int, int], ...] = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (154, 99, 36), (255, 216, 177),
)

# Cells per rasterize chunk: the cell centers of a chunk of whole grid rows
# are built in one reused buffer of this many points (512 KiB).
_CHUNK_CELLS = 1 << 15
# Width of the column strips in which a chunk's cells are ordered when the
# classifier culls, so that its culling tiles are compact patches of cells.
_PATCH_COLS = 32
# A grid is split across cores only if every worker gets this many chunks:
# below that, starting threads and a per-worker buffer set cost more than
# they save (a 256x256 grid is two chunks and stays on the calling thread).
_CHUNKS_PER_WORKER = 4


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
        return xmin + (np.arange(self.width) + 0.5) * (xmax - xmin) / self.width

    def cell_centers_y(self) -> np.ndarray:
        _, _, ymin, ymax = self.bounds
        return ymin + (np.arange(self.height) + 0.5) * (ymax - ymin) / self.height


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
        raise ValueError("default_bounds requires 2-dimensional prototypes")
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
    partitions: int | None = None,
) -> RasterGrid:
    """Classify every cell center of a width x height grid over ``bounds``.

    The rows are split into blocks of whole rows. By default
    (``partitions=None``) the grid's size chooses: it gets one block per
    available core but no more than one per row or per four chunks of
    ``_CHUNK_CELLS`` cells, so a grid under eight chunks (256x256 is two)
    stays one block on the calling thread on any machine.
    ``partitions=p`` asks for p blocks instead, at most one per row. Several blocks run on a thread
    pool of ``min(blocks, cores)`` threads that is opened for the call and
    joined before it returns; an error in any block is raised unchanged.
    The output is bit-identical for every split because each cell is
    classified independently.

    Each block fills its rows in chunks of whole rows whose cell centers
    are built in the block's own reused buffer. Where the classifier culls
    (k < M, 16 prototypes or more) a chunk's centers are ordered strip by
    strip, ``_PATCH_COLS`` columns wide and row by row within a strip, so
    that each of the classifier's culling tiles covers a patch of cells
    about 32 wide and 16 high instead of a full-width row strip; the
    classifier writes into the block's own buffers, whose values are then
    copied to their grid cells. Otherwise the classifier writes each chunk
    straight into the block's rows of ``classes`` and ``confidence``.
    Per-class scores exist only one tile at a time, so memory beyond the
    outputs is bounded by one chunk and one tile per running block.
    """
    if pset.dim != 2:
        raise ValueError(f"rasterize requires 2-dimensional prototypes, got dimension {pset.dim}")
    if bounds is None:
        bounds = default_bounds(pset)
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"bounds must be well-ordered, got {bounds}")
    if width < 2 or height < 2:
        raise ValueError(f"resolution must be at least 2x2, got {width}x{height}")
    if partitions is not None:
        if not isinstance(partitions, (int, np.integer)) or isinstance(partitions, bool):
            raise ValueError(f"partitions must be an integer, got {partitions!r}")
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
    _check_rule_args(pset, k)
    xs = xmin + (np.arange(width) + 0.5) * (xmax - xmin) / width
    ys = ymin + (np.arange(height) + 0.5) * (ymax - ymin) / height
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"cell centers must be finite, got bounds {bounds}")

    classes = np.empty((height, width), dtype=np.int32)
    confidence = np.empty((height, width), dtype=float)
    chunk_rows = max(1, _CHUNK_CELLS // width)
    # Culling pays only on compact tiles, so culled cells go over in strips.
    patch = min(_PATCH_COLS, width) if _culls(len(pset), k) else width
    full = width - width % patch  # columns in whole strips; the rest form one narrower strip

    def fill(b0: int, b1: int) -> list[tuple[int, int]]:
        """Classify rows b0..b1-1 through this block's own buffers; return its exact hits."""
        chunk = min(b1 - b0, chunk_rows)
        centers = np.empty((chunk * width, 2))
        exact = np.empty((chunk, width), dtype=bool)
        if patch < width:  # the kernel's outputs in strip order, before they go to their grid rows
            staged = tuple(np.empty(chunk * width, dtype=t) for t in (np.int32, float, bool))
        hits: list[tuple[int, int]] = []
        for r0 in range(b0, b1, chunk):
            r1 = min(r0 + chunk, b1)
            rows, cells = r1 - r0, (r1 - r0) * width
            strips = centers[: rows * full].reshape(-1, rows, patch, 2)
            strips[..., 0] = xs[:full].reshape(-1, 1, patch)
            strips[..., 1] = ys[r0:r1, None]
            rest = centers[rows * full : cells].reshape(rows, width - full, 2)
            rest[..., 0] = xs[full:]
            rest[..., 1] = ys[r0:r1, None]
            out = (classes[r0:r1], confidence[r0:r1], exact[:rows])
            if patch == width:
                _evaluate_into(pset, k, centers[:cells], *(a.reshape(-1) for a in out))
            else:
                _evaluate_into(pset, k, centers[:cells], *(a[:cells] for a in staged))
                for src, dst in zip(staged, out):
                    dst[:, :full] = src[: rows * full].reshape(-1, rows, patch).transpose(1, 0, 2).reshape(rows, full)
                    dst[:, full:] = src[rows * full : cells].reshape(rows, -1)
            hits.extend((r0 + int(flat) // width, int(flat) % width) for flat in np.flatnonzero(exact[:rows]))
        return hits

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if partitions is None:
        blocks = max(1, min(cores, height, width * height // (_CHUNKS_PER_WORKER * _CHUNK_CELLS)))
    else:
        blocks = min(partitions, height)
    edges = [height * i // blocks for i in range(blocks + 1)]
    threads = min(blocks, cores)
    if threads == 1:
        per_block = list(map(fill, edges[:-1], edges[1:]))
    else:
        with ThreadPoolExecutor(threads) as pool:
            per_block = list(pool.map(fill, edges[:-1], edges[1:]))

    classes.flags.writeable = False
    confidence.flags.writeable = False
    return RasterGrid(
        bounds=(xmin, xmax, ymin, ymax),
        width=width,
        height=height,
        classes=classes,
        confidence=confidence,
        exact_hits=tuple(sorted(hit for hits in per_block for hit in hits)),
    )


def _ceiling(conf: np.ndarray, mode: str, percentile: float) -> float:
    """The confidence that maps to intensity 0: a percentile or the maximum of the finite values."""
    finite = conf[np.isfinite(conf)]
    if mode == "clip":
        if not 50.0 < percentile <= 100.0:
            raise ValueError(f"clip percentile must be in (50, 100], got {percentile}")
        return float(np.percentile(finite, percentile, overwrite_input=True)) if finite.size else 0.0
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


def boundary_bisect(
    pset: PrototypeSet,
    k: int,
    a,
    b,
    class_pair=None,
    scan: int = 1024,
    tol: float = 1e-9,
) -> float | np.ndarray:
    """Locate the predicted-class change on the segment from ``a`` to ``b``.

    Returns the crossing as a fraction of the segment measured from ``a``,
    bisected until the bracket is at most ``tol`` wide or float spacing
    stops it narrowing. The segment is pre-scanned at ``scan + 1`` points
    (``scan >= 1``); zero class changes raise :class:`NoCrossingError` and
    more than one raise :class:`MultipleCrossingsError` (split the segment
    and retry). If ``class_pair`` is given, the endpoint classes must match
    it in order.

    ``a`` and ``b`` may also be stacked segments shaped (S, dim); then S
    fractions come back as an array, ``class_pair`` is one pair for every
    segment or S pairs, and an error names its segment (``segment 2: ...``).
    Every segment is pre-scanned and checked before the first bisection
    step, and :func:`bisect_many` then advances all brackets together, one
    classifier call per step. Each fraction is the float the one-segment
    form returns for that segment.
    """
    if scan < 1:
        raise ValueError(f"scan must be >= 1, got {scan}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    stacked = a.ndim == 2
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    if a.ndim not in (1, 2) or a.shape != b.shape or a.shape[-1] != pset.dim:
        raise ValueError(f"segment ends must both be ({pset.dim},) or (S, {pset.dim}), got {a.shape} and {b.shape}")
    ts = np.linspace(0.0, 1.0, scan + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite points are refused by _predicted
        pts = a2[:, None, :] + ts[:, None] * (b2 - a2)[:, None, :]
    predicted = _predicted(pset, k, pts.reshape(-1, pset.dim)).reshape(len(a2), scan + 1)
    expected = None if class_pair is None else np.broadcast_to(np.asarray(class_pair, dtype=int), (len(a2), 2))
    lo, hi = np.empty(len(a2)), np.empty(len(a2))
    for i, row in enumerate(predicted):
        where = f"segment {i}: " if stacked else ""
        cls_a, cls_b = int(row[0]), int(row[-1])
        if cls_a == cls_b:
            raise NoCrossingError(f"{where}both endpoints classify as {cls_a}")
        if expected is not None and (cls_a, cls_b) != tuple(expected[i].tolist()):
            shown = tuple(expected[i].tolist()) if stacked else class_pair
            raise ValueError(f"{where}expected endpoint classes {shown}, found ({cls_a}, {cls_b})")
        changes = np.nonzero(row[:-1] != row[1:])[0]
        if len(changes) > 1:
            raise MultipleCrossingsError(
                f"{where}{len(changes)} class changes in pre-scan; bisect a sub-segment per crossing"
            )
        lo[i], hi[i] = ts[changes[0]], ts[changes[0] + 1]
    span, first = b2 - a2, predicted[:, 0]

    def on_lo_side(which: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _predicted(pset, k, a2[which] + t[:, None] * span[which]) == first[which]

    fractions = bisect_many(on_lo_side, lo, hi, tol)
    return fractions if stacked else float(fractions[0])


def region_report(grid: RasterGrid) -> RegionReport:
    """Count distinct classes and their 4-connected components and areas.

    One pass over the grid finds each present class's bounding box, which
    holds all of its cells; the class is then counted and labelled inside
    that box only.
    """
    classes = grid.classes
    components: dict[int, int] = {}
    areas: dict[int, int] = {}
    for c, box in enumerate(ndimage.find_objects(classes + 1)):  # label c + 1 is class c
        if box is None:
            continue
        mask = classes[box] == c
        _, count = ndimage.label(mask)  # default structure is 4-connectivity
        components[c] = int(count)
        areas[c] = int(np.count_nonzero(mask))
    return RegionReport(
        distinct_classes=len(areas),
        components_per_class=components,
        class_areas=areas,
    )


def k_sweep(
    pset: PrototypeSet,
    k_values,
    bounds: tuple[float, float, float, float] | None = None,
    width: int = 512,
    height: int = 512,
) -> list[tuple[int, RasterGrid, RegionReport]]:
    """Rasterize and report regions for each k in ``k_values``, every k checked before the first raster."""
    k_values = list(k_values)
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


def ppm_bytes(grid: RasterGrid) -> bytes:
    """Binary PPM (P6) of the class map using the fixed palette."""
    palette = np.array(PALETTE, dtype=np.uint8)
    rgb = palette[grid.classes % len(PALETTE)]
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode()
    return header + rgb[::-1].tobytes()


def pgm_bytes(intensity: np.ndarray) -> bytes:
    """Binary PGM (P5) of an intensity grid in [0, 1] (0 = black)."""
    scaled = np.clip(intensity, 0.0, 1.0)
    scaled *= 255.0
    vals = np.round(scaled, out=scaled).astype(np.uint8)
    header = f"P5\n{vals.shape[1]} {vals.shape[0]}\n255\n".encode()
    return header + vals[::-1].tobytes()


def class_csv_bytes(grid: RasterGrid) -> bytes:
    lines = "\n".join(",".join(str(int(v)) for v in row) for row in grid.classes)
    return (lines + "\n").encode()


def confidence_csv_bytes(grid: RasterGrid) -> bytes:
    lines = "\n".join(",".join(repr(float(v)) for v in row) for row in grid.confidence)
    return (lines + "\n").encode()


def write_ppm(grid: RasterGrid, path: str | Path) -> None:
    Path(path).write_bytes(ppm_bytes(grid))


def write_pgm(intensity: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(pgm_bytes(intensity))


def write_region_report(report: RegionReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
