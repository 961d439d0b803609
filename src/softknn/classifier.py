"""Inverse-distance-weighted soft-label nearest-neighbor rule.

A query point is scored by summing the label vectors of its k nearest
prototypes, each divided by its Euclidean distance to the query. The
predicted class is the argmax of that score vector; the reported
confidence is the gap between the two largest scores, which shrinks to
zero on decision boundaries. A query that lands on a prototype takes that
prototype's own class with infinite confidence, matching the limit of the
inverse weighting as the distance goes to zero.

All operations are pure and read-only over an immutable PrototypeSet.
Batch evaluation splits work into tiles but produces results that are
bit-identical to evaluating each point on its own. The rule is written
once, in :func:`score_block`; the radial label fitter in
:mod:`softknn.constructions` calls the same kernel with candidate labels.

The public entries and the scores-free ``_predicted`` check k, the set
and the query points in one place (``_checked_points``) and then hand the
set's arrays to the one tile loop, ``_evaluate_into``; the rasterizer
checks that its cell centers are finite, checks k and the set, and calls
the tile loop directly.

The rasterizer hands over each rectangle of cells as its two axes, the
columns' x and the rows' y centres (a ``_Grid``), never as a buffer of
points. Every tile and culling tile of such a call is a whole number of
rows of the rectangle, and :func:`score_block` gets the axes of its rows.
It forms the squared x gaps (M x columns) and y gaps (M x rows) with the
kernel's own subtract and square, and each cell's squared distance is then
one broadcast x**2 + y**2: the terms that the coordinate loop over the
cell's centre adds, in its order, so the bits are the same. A culling
tile's bounding box is read from the ends of the axes, which increase.

The same loop scores a stack of sets that differ per trial in their
positions or their labels (the verify harness's invariance variants),
each with its own queries, entered through ``_evaluate_stacked``. Each
tile hands the whole stack to :func:`score_block` with the index of each
row's own set, and no set is copied per row: coordinates are gathered
straight into the distance scratch and labels are read where they lie.
Stacked tiles take the rows and layouts of one-set tiles, unculled.
Every tile ends in ``_finish_tile``, and every set gets the bits of a
call for that set alone. Only ``_evaluate_into`` chooses a tile's layout
and walks tiles.

At k = M with one set of labels, a batch large enough to pay for it is
scored class-major: a tile is the (rows, C) view of a (C, rows) array,
and for each prototype in index order and each class where its label
weight is nonzero, the weighted distances are added to that class's row,
which starts at +0.0. The skipped terms would each be ±0.0 (a zero weight
times a finite positive weight; an infinite weight means distance zero,
an exact hit, whose row is replaced), and adding ±0.0 changes a sum only
if the sum is -0.0, which a sum that starts at +0.0 never becomes under
round-to-nearest. Which weights are nonzero is read from the labels once
per tile-loop call (``_nonzero_weights``), and the lowest prototype index
at a column's smallest distance is searched for only in the columns that
hit a prototype (distance below ``COINCIDENT_TOL``), the only ones whose
index is read. The epilogue then reduces the class rows: the maximum,
the lowest class holding it, and the maximum once that entry is masked
to -inf, which are the classes and floats that ``argmax`` and
``np.partition`` give on a row-major tile. So no bit depends on the
layout. Small batches and densely labelled sets, where one numpy call
per nonzero weight would cover too few entries, stay row-major
(``_class_major``).

For 1 <= k < M, unculled tiles with one shared set of labels are
class-major too where each of their numpy calls still covers enough
entries, whether the positions are shared or stacked per set. The
neighbours are then picked in k rounds over prototype-major distances:
each column's smallest distance left (``np.fmin``, which skips NaN), the
lowest prototype index holding it, and that entry masked to NaN. These
are the neighbours, in the order, that a stable argsort gives, ties
broken by index and infinite distances included. Each round gathers its
neighbour's labels as a (C, rows) block, multiplies them by the inverse
distance and adds them to class rows that start at +0.0, so every score
sees the row-major path's operations in its order. Smaller calls stay
row-major, and so do culled tiles: k rounds cost about k(M + C) per
point, which at large k is far more than the row-major path's one sort.

For k < M, on sets of at least 16 prototypes and calls of at least 64
points, batches are scored in culling tiles of 512 consecutive points.
Each tile first drops the prototypes that cannot be among the k nearest
of any of its points: those whose distance to the tile's bounding box
exceeds the k-th smallest distance from a prototype to the box's farthest
corner. The kernel then runs on the kept prototypes only, in index order.
Dropped prototypes are strictly farther than k kept ones in computed
distances too, so the neighbours, their tie order and the summation order
do not change, and neither does any bit (:func:`_kept` gives the
argument). Culling pays when consecutive points lie close together:
circle samples in angle order, and the patches of cells that the
rasterizer hands over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COINCIDENT_TOL, PrototypeSet, require_integer

# Caps on the rows of one internal tile: rows*prototypes of the distance
# matrix, and rows*classes of the score and product buffers. Small enough
# that a tile's temporaries stay cache-resident and memory is bounded by the
# tile, not by the number of points times the number of classes; a stack of
# sets is read in place, never copied per row, so stacked tiles take these
# caps too. The distance matrix, its temporary, the product buffer (as many
# rows as one score_block call) and, when the caller keeps no scores, the
# score buffer are allocated once per call and reused by every tile; the
# last, ragged tile takes their leading rows. Culled tiles keep their
# distance matrices in one flat array that grows to the largest kept set
# times rows seen in the call.
# Row-major tiles take every prototype in index order at k=M and the first
# k of a stable argsort (the argmin at k=1) at k<M, and add the neighbours
# in one loop. Class-major tiles take the lowest index holding each point's
# minimum, k times for k<M with the picked entries masked (see score_block).
_BLOCK_ENTRIES = 1 << 17
_TILE_SCORE_ENTRIES = 1 << 15
# At k=M with shared labels, a class-major tile makes two numpy calls per
# nonzero label weight where a row-major one makes two per prototype; it is
# used only where each call then still covers _CALL_ENTRIES or more of the
# rows*M*C entries that the row-major tile works through. At k<M each of its
# rounds makes a few calls over rows*M and a few over rows*C entries, so it
# is used only where rows*min(M, C) reaches _CALL_ENTRIES (see _class_major).
_CALL_ENTRIES = 2048
# For k < M, points are culled in tiles of _CULL_TILE consecutive points:
# each tile keeps only the prototypes that can be among the k nearest of one
# of its points (see _kept). The bound costs O(M) per tile and the kernel's
# per-point work over the classes stays, so culling is skipped where it
# costs about as much as it saves: calls of fewer than _CULL_MIN_POINTS
# points (the verify harness's small calls and bisection steps) and sets of
# fewer than _CULL_MIN_PROTOTYPES prototypes.
_CULL_TILE = 512
_CULL_MIN_POINTS = 64
_CULL_MIN_PROTOTYPES = 16


@dataclass(frozen=True, eq=False)
class Classification:
    """Outcome of classifying one point.

    ``scores`` is the per-class sum of inverse-distance-weighted label
    weights. ``confidence`` is scores[top1] - scores[top2] for two or more
    classes and +inf for a single class or an exact prototype hit. On an
    exact hit ``scores`` holds the struck prototype's own label vector.
    """

    scores: np.ndarray
    predicted: int
    confidence: float
    exact_hit: bool


class _Grid:
    """The cells ``xs`` x ``ys`` of a raster rectangle, as points taken row by row: (xs[c], ys[r]) is point r * len(xs) + c.

    Both axes are increasing. A slice of points that covers whole rows is
    the grid of those rows.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs, self.ys = xs, ys

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys)

    def __getitem__(self, cells: slice) -> _Grid:
        return _Grid(self.xs, self.ys[cells.start // len(self.xs) : cells.stop // len(self.xs)])


def _check_k(k: int, m: int) -> None:
    """Refuse a k that is not an integer in 1..m."""
    require_integer("k", k)
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} prototypes")


def _check_rule_args(pset: PrototypeSet, k: int) -> None:
    """Refuse a k that is not an integer in 1..M and a set with non-finite values or coincident positions."""
    _check_k(k, len(pset))
    if pset.defect is not None:
        raise ValueError(f"{pset.defect}; run validate() for details")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def score_block(
    positions: np.ndarray,
    labels: np.ndarray,
    k: int,
    points: np.ndarray | _Grid,
    out: np.ndarray,
    scratch: np.ndarray,
    prod: np.ndarray,
    owner: np.ndarray | None = None,
    nonzero: tuple[list[list[int]], list[int], list[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``out`` with the per-class scores of ``points``.

    The one implementation of the decision rule; the radial label fitter
    calls it to measure its crossings. ``scratch`` is a (2, len(points), M)
    work array holding the distance matrix and its temporary, and ``prod``
    a work array shaped and laid out like ``out`` that holds one
    neighbour's weighted labels (unused on class-major tiles at k=M); both
    are overwritten, so a caller scoring many tiles allocates them once.

    ``points`` is (n, dim), or a ``_Grid`` of a raster rectangle's rows:
    its n = columns x rows cells, row by row. For a grid, the squared gaps
    of each prototype to the column centres and to the row centres are
    formed once, with the subtract and square of the coordinate loop below,
    and each cell's squared distance is their sum, x first, as that loop
    adds them.

    ``positions`` (M, dim) and ``labels`` (M, C) are one set for every
    point. Either may instead be a stack of S sets, (S, M, dim) or
    (S, M, C), with ``owner`` the (n,) index of each row's own set: row r
    of ``points`` is then scored against ``positions[owner[r]]`` or
    ``labels[owner[r]]`` only. No set is copied per row. Coordinate d of
    each row's set is gathered with ``np.take`` straight into the distance
    scratch, which then takes ``q - p`` in place, and stacked labels are
    read as ``labels[owner, order[:, i]]``; each element sees the same
    operations in the same order as in a call for its own set alone, so the
    bits are those of that call.

    Squared distances are summed coordinate by coordinate, coordinate 0
    first; a distance that overflows is inf, and its weight 0. On a
    row-major ``out``, the neighbours are selected once, distance ties
    broken by prototype index: k=M takes every prototype in index order
    without sorting, and k<M the first k of a stable ``argsort`` (at k=1
    the first minimum, ``argmin``). One loop then takes neighbour i = 0..k-1
    in that order, gathers its labels into ``prod``, multiplies them by one
    over its distance and adds them to ``out``, which starts at +0.0 (the
    first neighbour's term is added to +0.0, with no zeroing pass).
    Returns each point's nearest prototype index and distance. Rows at
    distance zero hold inf or nan.

    With shared labels, ``out`` may be class-major, the (rows, C) view of
    a (C, rows) array (told apart by its strides, so at least two rows).
    The distances are then prototype-major, ``scratch`` read as
    (2, M, rows) with the same operations per entry, and the nearest
    prototype is the lowest index holding each column's minimum. At k=M,
    for each prototype i in index order and each class j with
    ``labels[i, j] != 0``, ``inv[i] * labels[i, j]`` is added to class row
    j, and ``prod`` is not used; the skipped ±0.0 terms change no bit of a
    sum that starts at +0.0 (see the module docstring). A class's first
    term is added to +0.0 in place of zeroing its row first, and equal
    weights of one prototype share one product. ``nonzero`` is that
    pattern as :func:`_nonzero_weights` gives it, so that a caller scoring
    many tiles reads the labels once; it is derived from ``labels`` when
    not given. There the nearest index is searched for only where the
    nearest distance is below ``COINCIDENT_TOL``, the exact hits, and is
    -1 elsewhere. At k<M, ``prod`` is
    class-major too, and round r = 0..k-1 finds each column's smallest
    distance left with ``np.fmin`` (which skips NaN), takes the lowest
    index holding it, masks that entry to NaN, gathers that prototype's
    labels into ``prod``, multiplies them by one over the distance and
    adds them to the class rows: the neighbours and operations of the
    stable ``argsort`` path, in its order. Either layout gives the same
    scores.

    Every distance, selection and sum is computed per point from that
    point's own row, so the tile loop may pass any subset of the prototypes
    that holds each point's k nearest (distance ties broken by index), in
    index order, and get the same bits: this is how culled tiles are
    scored. M is the length of what is passed; the tile loop never passes
    exactly k prototypes for 1<k<M, which would switch to the k=M path and
    its index-order sum.
    """
    m, n = positions.shape[-2], len(points)
    by_class = labels.ndim == 2 and out.strides[0] < out.strides[1]
    if by_class:
        # Prototype-major distances: every pass runs along the points.
        dist, tmp = (a.reshape(m, n, copy=False) for a in scratch)
    else:
        dist, tmp = scratch[0], scratch[1]
    if isinstance(points, _Grid):
        # Squared gaps along the columns and along the rows, each with the
        # kernel's subtract and square, then one x**2 + y**2 per cell.
        ncols, nrows = len(points.xs), len(points.ys)
        if by_class:
            gx, gy = (np.subtract(axis, p[:, None]) for axis, p in zip((points.xs, points.ys), positions.T))
            gx, gy, cells = gx[:, None, :], gy[:, :, None], dist.reshape(m, nrows, ncols, copy=False)
        else:
            gx, gy = (np.subtract(axis[:, None], p) for axis, p in zip((points.xs, points.ys), positions.T))
            gy, cells = gy[:, None, :], dist.reshape(nrows, ncols, m, copy=False)
        gx *= gx
        gy *= gy
        np.add(gx, gy, out=cells)
    else:
        cols = points.T
        if by_class:
            q, p = cols[:, None, :], positions.T[:, :, None] if positions.ndim == 2 else positions.transpose(2, 1, 0)
        else:
            q, p = cols[:, :, None], positions.T if positions.ndim == 2 else positions.transpose(2, 0, 1)
        for d in range(len(cols)):
            into = tmp if d else dist
            # Stacked sets: coordinate d of each row's own set, gathered straight into the scratch.
            coord = p[d] if positions.ndim == 2 else np.take(p[d], owner, axis=1 if by_class else 0, out=into, mode="clip")
            np.subtract(q[d], coord, out=into)
            into *= into
            if d:
                dist += into
    np.sqrt(dist, out=dist)
    if by_class and k == m:
        nearest_dist = dist.min(axis=0)
        # The lowest index at the minimum, only where a column hits a prototype.
        hits = np.flatnonzero(nearest_dist < COINCIDENT_TOL)
        nearest = np.full(n, -1)
        nearest[hits] = _first_holding(dist[:, hits], nearest_dist[hits])
        # Each prototype's weights are a row of inv; the distances' buffer,
        # dead now, holds one term.
        inv = np.divide(1.0, dist, out=tmp)
        term, acc = dist.reshape(-1)[:n], list(out.T)
        plan, first, idle = _nonzero_weights(labels) if nonzero is None else nonzero
        out[:, idle] = 0.0
        # A class's sum starts as +0.0 plus its first term; equal weights of
        # one prototype share one term.
        for i, (inv_i, weights, classes) in enumerate(zip(inv, labels, plan)):
            last = None
            for j in classes:
                if weights[j] != last:
                    last = weights[j]
                    np.multiply(inv_i, last, out=term)
                np.add(0.0 if first[j] == i else acc[j], term, out=acc[j])
        return nearest, nearest_dist
    if by_class:
        # Round r takes the r-th nearest of every column: the smallest
        # distance left, at the lowest index holding it, which is then
        # masked to NaN for the rounds after it (fmin skips NaN).
        table, term, acc, columns = np.ascontiguousarray(labels.T), prod.T, out.T, np.arange(n)
        for r in range(k):
            dr = np.fmin.reduce(dist, axis=0)
            index = _first_holding(dist, dr)
            if r == 0:
                nearest, nearest_dist = index, dr
            if r + 1 < k:
                dist[index, columns] = np.nan
            np.take(table, index, axis=1, out=term, mode="clip")
            term *= np.divide(1.0, dr, out=tmp[0])
            np.add(acc if r else 0.0, term, out=acc)
        return nearest, nearest_dist
    rows = np.arange(n)
    if k == m:
        # Every prototype, in index order.
        order = np.broadcast_to(np.arange(m), (n, m))
        inv = np.divide(1.0, dist, out=tmp)
        nearest = dist.argmin(axis=1)
    else:
        order = dist.argmin(axis=1)[:, None] if k == 1 else np.argsort(dist, axis=1, kind="stable")[:, :k]
        inv = 1.0 / dist[rows[:, None], order]
        nearest = order[:, 0]
    for i in range(k):
        if labels.ndim == 3:
            prod[...] = labels[owner, order[:, i]]
        else:
            labels.take(order[:, i], axis=0, out=prod, mode="clip")
        prod *= inv[:, i, None]
        np.add(out if i else 0.0, prod, out=out)
    return nearest, dist[rows, nearest]


def _culls(m: int, k: int) -> bool:
    """Whether the tile loop culls prototypes for k of m, given a call of at least ``_CULL_MIN_POINTS`` points."""
    return k < m and m >= _CULL_MIN_PROTOTYPES


@np.errstate(over="ignore")
def _kept(pcols: np.ndarray, k: int, pts: np.ndarray | _Grid, span: int) -> list[np.ndarray | None]:
    """Per tile of ``span`` consecutive ``pts``, the prototypes that may be among the k nearest of one of its points.

    ``pcols`` is the (dim, M) transpose of the positions. Each entry is an
    index array in increasing order, or ``None`` when every prototype is
    kept. ``pts`` may be a ``_Grid`` whose tiles of ``span`` points are
    whole rows; a tile's box then spans the first to the last column and
    its first to its last row, the smallest and largest centres of
    increasing axes.

    Why culling changes no bit: each prototype's smallest and largest
    distance to a tile's bounding box is computed with the kernel's own
    operations in the kernel's order, per coordinate a correctly rounded
    difference, its square, a sum from coordinate 0 up, then a square root.
    In real numbers the gap from a prototype to a point of the box is, per
    coordinate, at least its gap to the nearest point of the box and at most
    its gap to the farther face, and rounding to nearest is monotone; so
    every distance the kernel computes from a point of the tile lies between
    the two computed bounds. Let H be the k-th smallest upper bound. The k
    prototypes that give the k smallest upper bounds are kept, and every
    dropped one has a lower bound above H, so its computed distance to each
    point of the tile is strictly larger than those of k kept ones: it can
    neither be one of the k nearest nor tie with one, whatever its index.
    The kernel, run on the kept prototypes in index order, therefore selects
    the same neighbours in the same order and adds the same terms in the
    same order.

    A kept set of exactly k prototypes (k > 1) gets one more, so that the
    kernel still takes its sorted path, which adds the neighbours nearest
    first, and not its k=M path, which adds them in index order.
    """
    if isinstance(pts, _Grid):
        # Tiles of whole rows: the ends of the increasing axes bound them.
        first = np.arange(0, len(pts.ys), span // len(pts.xs))
        last = np.append(first[1:], len(pts.ys)) - 1
        lo = np.column_stack((np.full(len(first), pts.xs[0]), pts.ys[first]))
        hi = np.column_stack((np.full(len(first), pts.xs[-1]), pts.ys[last]))
    else:
        starts = np.arange(0, len(pts), span)
        lo, hi = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
    box = np.stack((lo, hi))[..., None]
    lo, hi = box  # (tiles, dim, 1) each
    gaps = np.empty((2, len(lo)) + pcols.shape)
    np.minimum(np.maximum(pcols, lo), hi, out=gaps[0])
    gaps[0] -= pcols
    reach = box - pcols
    np.abs(reach, out=reach)
    np.maximum(reach[0], reach[1], out=gaps[1])
    gaps *= gaps
    bounds = gaps[:, :, 0]
    for d in range(1, len(pcols)):
        bounds += gaps[:, :, d]
    near, far = np.sqrt(bounds, out=bounds)
    keep = near <= np.partition(far, k - 1, axis=1)[:, k - 1 : k]
    kept: list[np.ndarray | None] = []
    for row, count in zip(keep, np.count_nonzero(keep, axis=1)):
        if count == len(row):
            kept.append(None)
            continue
        if count == k > 1:
            row[np.argmin(row)] = True
        kept.append(row.nonzero()[0])
    return kept


def _first_holding(rows: np.ndarray, value: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per column of ``rows``, the lowest row index whose entry equals ``value``: the largest len(rows) - i among them."""
    held = np.equal(rows, value) * np.arange(len(rows), 0, -1, dtype=np.min_scalar_type(len(rows)))[:, None]
    return np.subtract(len(rows), held.max(axis=0), out=out)


def _class_major(labels: np.ndarray, k: int, rows: int) -> bool:
    """Whether tiles of ``rows`` rows score the shared (M, C) ``labels`` at k class-major (see _CALL_ENTRIES).

    At k = M that is where each nonzero label weight's calls cover
    ``_CALL_ENTRIES`` of the tile's rows x M x C entries, and at k < M where
    rows x min(M, C) reaches it: 256 rows at M = 8 and C >= 8. The tile loop
    asks only for tiles that are not culled and whose labels every row
    shares. A one-row tile is never class-major:
    :func:`score_block` tells the layouts apart by their strides, which are
    equal there.
    """
    m, ncls = labels.shape
    if k < m:
        return rows > 1 and rows * min(m, ncls) >= _CALL_ENTRIES
    return m > 1 and rows > 1 and np.count_nonzero(labels) * _CALL_ENTRIES <= rows * m * ncls


def _nonzero_weights(labels: np.ndarray) -> tuple[list[list[int]], list[int], list[int]]:
    """How a class-major tile at k = M adds up the shared (M, C) ``labels``: ``(plan, first, idle)``.

    ``plan`` lists, per prototype in index order, the classes of its
    nonzero weights, in order of weight, so that equal weights are
    adjacent. ``first[j]`` is the lowest prototype that weighs class j,
    and ``idle`` the classes that no prototype weighs.
    """
    nonzero = labels != 0
    plan = [sorted(np.flatnonzero(weights).tolist(), key=weights.__getitem__) for weights in labels]
    return plan, nonzero.argmax(axis=0).tolist(), np.flatnonzero(~nonzero.any(axis=0)).tolist()


def _whole(count: int, width: int) -> int:
    """``count`` points as whole rows ``width`` points long: rounded down to a multiple of ``width``, at least one row."""
    return max(width, count - count % width)


def _score_tile(positions, labels, k, block, sc, hit, scratch, prod, owner=None, nonzero=None) -> None:
    """One :func:`score_block` call, then each exact hit takes the struck prototype's label (from its row's own set)."""
    nearest, nearest_dist = score_block(positions, labels, k, block, sc, scratch, prod, owner, nonzero)
    if np.less(nearest_dist, COINCIDENT_TOL, out=hit).any():
        sc[hit] = labels[owner[hit], nearest[hit]] if labels.ndim == 3 else labels[nearest[hit]]


def _evaluate_into(
    positions: np.ndarray,
    labels: np.ndarray,
    k: int,
    pts: np.ndarray | _Grid,
    predicted: np.ndarray,
    confidence: np.ndarray,
    exact: np.ndarray,
    scores: np.ndarray | None = None,
) -> None:
    """Classify the checked ``pts`` one tile at a time (no tiles for no points).

    ``positions`` (M, dim) and ``labels`` (M, C) are one set for every
    point. Either may instead be a stack of S sets, (S, M, dim) or
    (S, M, C), in which set s owns the s-th run of ``len(pts) // S``
    consecutive points. Writes into the caller's length-n ``predicted``,
    ``confidence`` and ``exact`` and, if given, the (n, C) ``scores``.

    ``pts`` may be a ``_Grid``, a raster rectangle's two axes, scored
    against one set. Then every row count below (of tiles, culling tiles
    and pieces) is rounded down to a multiple of the rectangle's width,
    and up to one row if that leaves none, so each tile hands
    :func:`score_block` whole rows of cells as the axes of those rows.

    With a stack, each tile makes one :func:`score_block` call over the
    whole stack, with the index of each of its rows' own set, so no set is
    copied per row or per point. Stacked tiles take the rows and layouts
    of one-set tiles (class-major only where the labels are shared), and
    nothing is culled.

    With shared labels, an unculled tile is class-major where
    :func:`_class_major` says it pays: the (rows, C) view of a reused
    (C, rows) buffer, copied to ``scores`` when the caller keeps them; at
    k < M its product buffer is class-major too. It gets as many rows as
    fit in the bytes of the full row-major tile it replaces (distances,
    product buffer, partition copy and, without ``scores``, the tile
    itself), at 8(2M + C + 8) + 2(M + C) bytes per row, and 8C more for
    the product buffer at k < M. Culled tiles stay row-major, because k
    rounds cost about k(M + C) per point where the row-major path selects
    once.

    Otherwise a tile holds at most ``_TILE_SCORE_ENTRIES`` row-major
    scores, and without ``scores`` it lives in one reused buffer. Where
    :func:`_culls` says no (fewer than ``_CULL_MIN_PROTOTYPES``
    prototypes), in calls of fewer than ``_CULL_MIN_POINTS`` points and
    on stacks, a tile is one :func:`score_block` call
    against every prototype, and its rows are also bounded by
    ``_BLOCK_ENTRIES`` distance entries; the verify harness's small calls
    take this path. Otherwise a tile is a whole number of culling tiles of
    ``_CULL_TILE`` consecutive points, and each culling tile is scored
    against its kept prototypes in pieces of at most ``_BLOCK_ENTRIES``
    distance entries (one row if a row is longer). The pieces' distance
    matrices share one flat work array of the call, replaced by a larger
    one when a piece needs more. A row-major product buffer has the rows
    of one :func:`score_block` call: the tile's, or a culling tile's.

    Every way, an exact hit takes the struck prototype's own label from
    its row's own set (a kept label is the set's label of that
    prototype), and :func:`_finish_tile` then takes the tile's argmax and
    confidence gap. Results do not depend on the tiling, the layout or the
    culling (see :func:`_kept`).
    """
    n, (m, ncls) = len(pts), labels.shape[-2:]
    stacked = positions.ndim == 3 or labels.ndim == 3
    # A grid's row counts of points round down to whole rows, at least one.
    width = len(pts.xs) if isinstance(pts, _Grid) else 1
    score_rows = _TILE_SCORE_ENTRIES // ncls
    full = max(1, min(score_rows, _BLOCK_ENTRIES // m))
    cull = not stacked and _culls(m, k) and n >= _CULL_MIN_POINTS
    # A class-major tile spends the bytes of a full row-major one on rows of
    # distances, tile, product buffer (k < M), about 8 floats of per-row
    # vectors, and two bytes per prototype and per class for the
    # lowest-index searches.
    budget = full * 8 * (2 * m + (3 if scores is None else 2) * ncls)
    rows = _whole(min(n, budget // (8 * (2 * m + (2 if k < m else 1) * ncls + 8) + 2 * (m + ncls))), width)
    class_major = labels.ndim == 2 and not cull and _class_major(labels, k, rows)
    if cull:
        # Whole culling tiles per tile, and at most _BLOCK_ENTRIES box gaps in _kept.
        span = _whole(min(_CULL_TILE, score_rows), width)
        rows = min(n, span * max(1, min(score_rows // span, _BLOCK_ENTRIES // (2 * positions.shape[1] * m))))
        work = np.empty(0)
    else:
        if not class_major:
            rows = _whole(min(n, full), width)
        scratch = np.empty((2, rows, m))
    # The class-major k = M tiles' label pattern, read once per call.
    nonzero = _nonzero_weights(labels) if class_major and k == m else None
    # One neighbour's weighted labels, for the rows of one score_block call.
    prod = np.empty((ncls, rows if k < m else 0)).T if class_major else np.empty((span if cull else rows, ncls))
    staged = class_major or scores is None
    tile = (np.empty((ncls, rows)).T if class_major else np.empty((rows, ncls))) if staged else None
    per_set = n // len(positions if positions.ndim == 3 else labels)
    for start in range(0, n, rows):
        sl = slice(start, start + rows)
        size = min(rows, n - start)
        sc = tile[:size] if staged else scores[sl]
        hit, block = exact[sl], pts[sl]
        if not cull:
            owner = np.arange(start, start + size) // per_set if stacked else None
            _score_tile(positions, labels, k, block, sc, hit, scratch[:, :size], prod[:size], owner, nonzero)
        else:
            for p0, keep in zip(range(0, size, span), _kept(positions.T, k, block, span)):
                p1 = min(p0 + span, size)
                pos, lab = (positions, labels) if keep is None else (positions[keep], labels[keep])
                mk = len(pos)
                step = _whole(min(p1 - p0, _BLOCK_ENTRIES // mk), width)
                if work.size < 2 * step * mk:
                    work = np.empty(2 * step * mk)
                for q0 in range(p0, p1, step):
                    q1 = min(q0 + step, p1)
                    piece = work[: 2 * (q1 - q0) * mk].reshape(2, q1 - q0, mk)
                    _score_tile(pos, lab, k, block[q0:q1], sc[q0:q1], hit[q0:q1], piece, prod[: q1 - q0])
        if staged and scores is not None:
            scores[sl] = sc
        _finish_tile(sc, hit, predicted[sl], confidence[sl])


def _finish_tile(sc: np.ndarray, hit: np.ndarray, predicted: np.ndarray, confidence: np.ndarray) -> None:
    """Refuse a tile's non-finite scores, then write its argmax and confidence gap, +inf on exact hits.

    A row-major tile takes ``argmax`` and the top two of ``np.partition``.
    A class-major tile, the (rows, C) view of a (C, rows) array (told apart
    by its strides, as in :func:`score_block`), is reduced over its class
    rows instead, and its scores are overwritten: top1 is the maximum
    (held in ``confidence`` until the gap replaces it), the class is the
    lowest index that holds it (the largest C - j over the
    classes j equal to top1), and top2 is the maximum once that entry is
    set to -inf. Every score is finite, so top1 and top2 are the floats
    that ``np.partition`` puts last, and either way the gap is top1 - top2.
    That is -0.0 only where top1 is -0.0 and top2 +0.0, a struck label.
    """
    if not np.isfinite(sc).all():
        raise ValueError("scores overflow to a non-finite value; the label weights are too large")
    ncls = sc.shape[1]
    if sc.strides[0] < sc.strides[1]:
        acc = sc.T
        top1 = acc.max(axis=0, out=confidence)
        _first_holding(acc, top1, out=predicted)
        if ncls >= 2:
            acc[predicted, np.arange(len(top1))] = -np.inf
            np.subtract(top1, acc.max(axis=0), out=confidence)
    else:
        predicted[...] = sc.argmax(axis=1)
        if ncls >= 2:
            top2 = np.partition(sc, ncls - 2, axis=1)[:, ncls - 2 :]
            np.subtract(top2[:, 1], top2[:, 0], out=confidence)
    if ncls < 2:
        confidence[...] = np.inf
    confidence[hit] = np.inf


def _evaluate_stacked(
    positions: np.ndarray, labels: np.ndarray, k: int, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score ``pts[s]`` against the s-th set of a stack of sets, for every s.

    ``pts`` is (S, Q, dim), ``positions`` (S, M, dim) and ``labels``
    (S, M, C); either of the last two may instead be (M, dim) or (M, C),
    shared by every set. Returns ``(scores, predicted, confidence,
    exact_hit)`` shaped (S, Q, C), (S, Q), (S, Q), (S, Q), from one
    :func:`_evaluate_into` call over the S*Q points in order.

    It checks only k and that the positions and labels are finite. It
    takes the points as finite and, unlike :func:`evaluate_points`, does
    not refuse positions that coincide within a set. Wherever
    :func:`evaluate_points` accepts a set, each row is bit for bit what it
    returns for that set alone: an exact hit takes the struck prototype's
    label from its row's own set, overflowing scores are refused, and
    argmax ties go to the lowest class index.
    """
    _check_k(k, labels.shape[-2])
    if not (np.isfinite(positions).all() and np.isfinite(labels).all()):
        raise ValueError("prototype positions and labels must be finite; run validate() for details")
    sets, per_set, dim = pts.shape
    n, ncls = sets * per_set, labels.shape[-1]
    scores = np.empty((n, ncls))
    predicted, confidence, exact = np.empty(n, dtype=int), np.empty(n), np.empty(n, dtype=bool)
    _evaluate_into(positions, labels, k, pts.reshape(n, dim), predicted, confidence, exact, scores)
    shape = (sets, per_set)
    return scores.reshape(shape + (ncls,)), predicted.reshape(shape), confidence.reshape(shape), exact.reshape(shape)


def _checked_points(pset: PrototypeSet, k: int, points) -> np.ndarray:
    """Check ``k`` and the set for the rule, and return ``points`` as finite (n, dim) floats."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:  # one point; an empty vector is no points, not one of dimension 0
        pts = pts[None, :] if pts.size else pts.reshape(0, pset.dim)
    _check_rule_args(pset, k)
    if pts.ndim != 2 or pts.shape[1] != pset.dim:
        raise ValueError(f"query points must have dimension {pset.dim}, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("query points must be finite")
    return pts


def _predicted(pset: PrototypeSet, k: int, points) -> np.ndarray:
    """Predicted classes of ``points``, checked as in :func:`evaluate_points`, without keeping any per-class scores."""
    pts = _checked_points(pset, k, points)
    n = len(pts)
    predicted = np.empty(n, dtype=np.intp)
    _evaluate_into(pset.positions, pset.labels, k, pts, predicted, np.empty(n), np.empty(n, dtype=bool))
    return predicted


def evaluate_points(
    pset: PrototypeSet, k: int, points
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized scoring of many points at once.

    Returns ``(scores, predicted, confidence, exact_hit)`` with shapes
    (n, num_classes), (n,), (n,), (n,). Points are scored in tiles bounded
    by rows x prototypes and rows x classes that share one set of work
    buffers. Distance ties are broken by prototype index (see
    :func:`score_block`), argmax ties by lowest class index.
    """
    pts = _checked_points(pset, k, points)
    n = len(pts)
    scores = np.empty((n, pset.num_classes))
    predicted = np.empty(n, dtype=int)
    confidence = np.empty(n)
    exact = np.empty(n, dtype=bool)
    _evaluate_into(pset.positions, pset.labels, k, pts, predicted, confidence, exact, scores)
    return scores, predicted, confidence, exact


def _classification(scores, predicted, confidence, exact, i: int) -> Classification:
    row = scores[i]
    row.flags.writeable = False
    return Classification(
        scores=row,
        predicted=int(predicted[i]),
        confidence=float(confidence[i]),
        exact_hit=bool(exact[i]),
    )


def classify(pset: PrototypeSet, k: int, x) -> Classification:
    """Classify a single point; see the module docstring for the rule."""
    pts = np.asarray(x, dtype=float)
    if pts.size == 0 or (pts.ndim > 1 and len(pts) != 1):
        raise ValueError(f"classify takes exactly one point, got shape {pts.shape}; use classify_batch")
    return _classification(*evaluate_points(pset, k, pts), 0)


def classify_batch(pset: PrototypeSet, k: int, points) -> list[Classification]:
    """Classify many points; output order matches input order."""
    result = evaluate_points(pset, k, points)
    return [_classification(*result, i) for i in range(len(result[1]))]
