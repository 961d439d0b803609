"""Inverse-distance-weighted soft-label nearest-neighbor rule.

A query point is scored by summing the label vectors of its k nearest
prototypes, each divided by its Euclidean distance to the query. The
predicted class is the argmax of that score vector; the reported
confidence is the gap between the two largest scores, which shrinks to
zero on decision boundaries. A query that lands on a prototype takes that
prototype's own class with infinite confidence, matching the limit of the
inverse weighting as the distance goes to zero.

All operations are pure and read-only over an immutable PrototypeSet.
Batch evaluation partitions work internally but produces results that are
bit-identical to evaluating each point on its own. The rule is written
once, in :func:`score_block`; the radial label fitter in
:mod:`softknn.constructions` calls the same kernel with candidate labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COINCIDENT_TOL, PrototypeSet

# Caps on the rows of one internal tile: rows*prototypes of the distance
# matrix, and rows*classes of the score and product buffers. Small enough
# that a tile's temporaries stay cache-resident and memory is bounded by the
# tile, not by the number of points times the number of classes. The
# distance matrix, its temporary, the product buffer (k>1) and, when the
# caller keeps no scores, the score buffer are allocated once per call and
# reused by every tile; the last, ragged tile takes their leading rows.
# Neighbours are selected three ways: k=1 takes the argmin, k=M uses every
# prototype unsorted, and 1<k<M takes a stable argsort.
_BLOCK_ENTRIES = 1 << 17
_TILE_SCORE_ENTRIES = 1 << 15


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


def _check_rule_args(pset: PrototypeSet, k: int) -> None:
    m = len(pset)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} prototypes")
    if not (np.isfinite(pset.positions).all() and np.isfinite(pset.labels).all()):
        raise ValueError("prototype positions and labels must be finite; run validate() for details")


def score_block(
    positions: np.ndarray,
    labels: np.ndarray,
    k: int,
    points: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    prod: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``out`` with the per-class scores of ``points``.

    The one implementation of the decision rule; the radial label fitter
    calls it to measure its crossings. ``scratch`` is a (2, len(points), M)
    work array holding the distance matrix and its temporary, and ``prod``
    a work array shaped like ``out`` that holds one neighbour's weighted
    labels (unused at k=1); both are overwritten, so a caller scoring many
    tiles allocates them once.

    Squared distances are summed coordinate by coordinate, coordinate 0
    first. Neighbours are selected by one of three paths, each breaking
    distance ties by prototype index: k=1 takes the first minimum
    (``argmin``), k=M accumulates every prototype in index order without
    sorting, and 1<k<M takes the first k of a stable ``argsort``.
    Returns each point's nearest prototype index and distance. Rows at
    distance zero hold inf or nan.
    """
    m = len(positions)
    dist, tmp = scratch[0], scratch[1]
    cols, pcols = points.T, positions.T
    np.subtract(cols[0][:, None], pcols[0], out=dist)
    dist *= dist
    for d in range(1, len(cols)):
        np.subtract(cols[d][:, None], pcols[d], out=tmp)
        tmp *= tmp
        dist += tmp
    np.sqrt(dist, out=dist)
    out[...] = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k == 1 or k == m:
            nearest = dist.argmin(axis=1)
            nearest_dist = dist[np.arange(len(dist)), nearest]
            if k == 1:
                out += labels[nearest] * (1.0 / nearest_dist)[:, None]
            else:
                inv = np.divide(1.0, dist, out=tmp)
                for i in range(m):
                    np.multiply(labels[i], inv[:, i, None], out=prod)
                    out += prod
            return nearest, nearest_dist
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        dk = dist[np.arange(len(dist))[:, None], order]
        inv = 1.0 / dk
        for i in range(k):
            labels.take(order[:, i], axis=0, out=prod)
            prod *= inv[:, i, None]
            out += prod
    return order[:, 0], dk[:, 0]


def _evaluate_into(
    pset: PrototypeSet,
    k: int,
    pts: np.ndarray,
    predicted: np.ndarray,
    confidence: np.ndarray,
    exact: np.ndarray,
    scores: np.ndarray | None = None,
) -> None:
    """Classify the checked ``pts`` one tile at a time (no tiles for no points).

    Writes into the caller's length-n ``predicted``, ``confidence`` and
    ``exact`` and, if given, the (n, C) ``scores``; without ``scores`` the
    per-class scores live only in one reused tile buffer.
    """
    labs = pset.labels
    n, (m, ncls) = len(pts), labs.shape
    rows = max(1, min(n, _BLOCK_ENTRIES // m, _TILE_SCORE_ENTRIES // ncls))
    scratch = np.empty((2, rows, m))
    # k=1 adds one weighted label per point and needs no product buffer.
    prod = np.empty((rows if k > 1 else 0, ncls))
    tile = np.empty((rows, ncls)) if scores is None else None
    for start in range(0, n, rows):
        sl = slice(start, start + rows)
        size = min(rows, n - start)
        sc = tile[:size] if scores is None else scores[sl]
        nearest, nearest_dist = score_block(pset.positions, labs, k, pts[sl], sc, scratch[:, :size], prod[:size])
        hit = np.less(nearest_dist, COINCIDENT_TOL, out=exact[sl])
        if hit.any():
            sc[hit] = labs[nearest[hit]]
        if not np.isfinite(sc).all():
            raise ValueError("scores overflow to a non-finite value; the label weights are too large")
        predicted[sl] = sc.argmax(axis=1)
        conf = confidence[sl]
        if ncls >= 2:
            top2 = np.partition(sc, ncls - 2, axis=1)[:, ncls - 2 :]
            np.subtract(top2[:, 1], top2[:, 0], out=conf)
            np.abs(conf, out=conf)
        else:
            conf[...] = np.inf
        conf[hit] = np.inf


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
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:  # one point; an empty vector is no points, not one of dimension 0
        pts = pts[None, :] if pts.size else pts.reshape(0, pset.dim)
    _check_rule_args(pset, k)
    if pts.ndim != 2 or pts.shape[1] != pset.dim:
        raise ValueError(f"query points must have dimension {pset.dim}, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("query points must be finite")

    n = len(pts)
    scores = np.empty((n, pset.num_classes))
    predicted = np.empty(n, dtype=int)
    confidence = np.empty(n)
    exact = np.empty(n, dtype=bool)
    _evaluate_into(pset, k, pts, predicted, confidence, exact, scores)
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
