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

# Cap on rows*prototypes of the distance matrix built per internal block.
# Small enough that per-block temporaries stay cache-resident.
_BLOCK_ENTRIES = 1 << 17


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


def _check_query_args(pset: PrototypeSet, k: int, pts: np.ndarray) -> None:
    m = len(pset)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} prototypes")
    if pts.ndim != 2 or pts.shape[1] != pset.dim:
        raise ValueError(f"query points must have dimension {pset.dim}, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    if not (np.all(np.isfinite(pset.positions)) and np.all(np.isfinite(pset.labels))):
        raise ValueError("prototype positions and labels must be finite; run validate() for details")


def score_block(
    positions: np.ndarray, labels: np.ndarray, k: int, points: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``out`` with the per-class scores of ``points``.

    The one implementation of the decision rule; the radial label fitter
    calls it with candidate labels. Returns each point's nearest prototype
    index and distance. Rows at distance zero hold inf or nan.
    """
    m = len(positions)
    dist = np.zeros((len(points), m))
    for d in range(points.shape[1]):
        delta = points[:, d, None] - positions[None, :, d]
        dist += delta * delta
    np.sqrt(dist, out=dist)
    out[...] = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k == m:
            # All prototypes contribute, so no distance ordering is needed;
            # labels are accumulated in prototype-index order.
            inv = 1.0 / dist
            for i in range(m):
                out += labels[i] * inv[:, i, None]
            nearest = dist.argmin(axis=1)
            return nearest, np.take_along_axis(dist, nearest[:, None], axis=1)[:, 0]
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        dk = np.take_along_axis(dist, order, axis=1)
        inv = 1.0 / dk
        for i in range(k):
            out += labels[order[:, i]] * inv[:, i, None]
    return order[:, 0], dk[:, 0]


def evaluate_points(
    pset: PrototypeSet, k: int, points
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized scoring of many points at once.

    Returns ``(scores, predicted, confidence, exact_hit)`` with shapes
    (n, num_classes), (n,), (n,), (n,). Distance ties are broken by
    prototype index (stable sort), argmax ties by lowest class index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    n = pts.shape[0]
    if n == 0:
        return (
            np.empty((0, pset.num_classes)),
            np.empty(0, dtype=int),
            np.empty(0),
            np.empty(0, dtype=bool),
        )
    _check_query_args(pset, k, pts)

    labs = pset.labels
    ncls = labs.shape[1]
    scores = np.empty((n, ncls))
    predicted = np.empty(n, dtype=int)
    confidence = np.empty(n)
    exact = np.empty(n, dtype=bool)

    block = max(1, _BLOCK_ENTRIES // len(pset))
    for start in range(0, n, block):
        sl = slice(start, start + block)
        sc = scores[sl]
        nearest, nearest_dist = score_block(pset.positions, labs, k, pts[sl], sc)
        hit = nearest_dist < COINCIDENT_TOL
        if hit.any():
            sc[hit] = labs[nearest[hit]]
        if not np.all(np.isfinite(sc)):
            raise ValueError("scores overflow to a non-finite value; the label weights are too large")
        predicted[sl] = sc.argmax(axis=1)
        if ncls >= 2:
            top2 = np.partition(sc, ncls - 2, axis=1)[:, ncls - 2 :]
            conf = np.abs(top2[:, 1] - top2[:, 0])
        else:
            conf = np.full(len(sc), np.inf)
        conf[hit] = np.inf
        confidence[sl] = conf
        exact[sl] = hit
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
    return _classification(*evaluate_points(pset, k, np.asarray(x, dtype=float)), 0)


def classify_batch(pset: PrototypeSet, k: int, points) -> list[Classification]:
    """Classify many points; output order matches input order."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return []
    result = evaluate_points(pset, k, pts)
    return [_classification(*result, i) for i in range(len(result[1]))]
