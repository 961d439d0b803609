"""Generators for prototype configurations that separate more classes than
they have prototypes.

Each generator returns a :class:`Construction`: a prototype set bundled
with the neighbor count ``required_k`` it is designed for, the number of
classes its decision landscape is claimed to contain, and, where known in
closed form, the boundary crossing positions used by the verification
harness.

Class index conventions (0-based), fixed per generator:

* ``three_from_two`` / ``n_from_two``: classes ordered along the segment
  from the first prototype to the second.
* ``star_pairs``: hub class 0, spoke-tip classes 1..M-1, then the classes
  induced between the hub and each tip as M..2M-2 (same spoke order).
* ``polygon_pairs``: vertex classes 0..M-1, then the class induced on the
  edge from vertex i to vertex i+1 (mod M) as M+i.
* ``polygon_with_center``: hub class 0, vertex classes 1..M-1, hub-vertex
  classes M..2M-2, then the class on the edge from vertex j to vertex j+1
  (mod M-1) as 2M-1+j.
* circle generators: points on the t-th circle (radius t*c) belong to
  class t-1.

Star tips, polygon vertices and hard circle prototypes sit on rings about
the origin: the first prototype of a ring at angle 0, the rest at equal
steps counterclockwise. Probabilistic labels are assembled from exact
rationals and summed symbolically before float conversion, so they satisfy
the distribution invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import LabelKind, PrototypeSet, SoftLabel, _coincident_pairs, make_prototype_set
from .core import require_finite_positive, require_integer, require_positive
from . import classifier
from .landscape import bisect_many

# Segment boundaries: ((prototype index a, prototype index b), fractions of
# the segment from a at which the predicted class changes).
BoundarySpec = list[tuple[tuple[int, int], list[float]]]


@dataclass(frozen=True, eq=False)
class RadialSpec:
    """Boundary radii along a ray, for landscapes organized in nested bands.

    The ray is the +x axis from the origin, about which every banded
    construction is built. Crossing j separates class j from class j+1 at
    distance ``radii[j]``.
    """

    radii: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Construction:
    """A prototype set plus the claims the harness can check against it."""

    set: PrototypeSet
    required_k: int
    claimed_classes: int
    boundary_spec: BoundarySpec | None = None
    radial_spec: RadialSpec | None = None
    # (radius, class index) per circle, for separation checks on circle data.
    circle_spec: tuple[tuple[float, int], ...] | None = None
    fit_residual: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.claimed_classes != self.set.num_classes:
            raise ValueError(
                f"claimed_classes={self.claimed_classes} != num_classes={self.set.num_classes}"
            )
        require_integer("required_k", self.required_k)
        if not 1 <= self.required_k <= len(self.set):
            raise ValueError(f"required_k={self.required_k} out of range for {len(self.set)} prototypes")
        if self.set.defect is not None:
            raise ValueError(f"{self.set.defect}; run validate() for details")
        if self.boundary_spec is not None:
            for (a, b), fractions in self.boundary_spec:
                if not all(0.0 < f < 1.0 for f in fractions):
                    raise ValueError(f"boundary fractions for pair ({a},{b}) must lie in (0,1)")
                if any(f2 <= f1 for f1, f2 in zip(fractions, fractions[1:])):
                    raise ValueError(f"boundary fractions for pair ({a},{b}) must be strictly increasing")


def _ring(count: int, radius: float) -> list[tuple[float, float]]:
    """``count`` points equally spaced on the circle of ``radius`` about the origin, from angle 0."""
    angles = [2.0 * math.pi * i / count for i in range(count)]
    return [(radius * math.cos(a), radius * math.sin(a)) for a in angles]


def _exact_label(n_classes: int, weights: dict[int, Fraction]) -> SoftLabel:
    """A probabilistic label with the given exact weights and 0 on every other class."""
    return SoftLabel.from_exact([weights.get(i, 0) for i in range(n_classes)])


def three_from_two(spacing: float = 3.0) -> Construction:
    """Two prototypes whose shared middle class splits their segment in three.

    This is :func:`n_from_two` with n = 3 under its own name: the labels
    (3/5, 2/5, 0) and its reversal put the crossings at 1/3 and 2/3 of the
    segment regardless of the spacing; the middle class also claims the
    far field, leaving each end class an oval around its prototype.
    """
    cons = n_from_two(3, spacing)
    pset = replace(cons.set, name=f"three_from_two(spacing={spacing})")
    return replace(cons, set=pset, params={"spacing": float(spacing)})


def n_from_two_labels(n: int) -> list[Fraction]:
    """Exact label weights for the first prototype of :func:`n_from_two`."""
    require_positive("n", n)
    if n == 1:
        return [Fraction(1)]
    denom = 2 * sum(j * j for j in range(1, n))
    return [Fraction(n * (n - 1) - i * (i - 1), denom) for i in range(1, n + 1)]


def n_from_two(n: int, spacing: float | None = None) -> Construction:
    """Two prototypes separating ``n`` classes along their segment.

    The first prototype's weight on class i (1-based) is
    ``(n(n-1) - i(i-1)) / (2 * sum(j^2 for j in 1..n-1))`` and the second
    prototype carries the reversed vector. Crossings land at the fractions
    i/n of the segment. The spacing defaults to ``n`` units but the labels,
    and therefore the crossing fractions, do not depend on it.
    """
    weights = n_from_two_labels(n)
    if spacing is None:
        spacing = float(n)
    require_finite_positive("spacing", spacing)
    first = SoftLabel.from_exact(weights)
    second = SoftLabel.from_exact(weights[::-1])
    pset = make_prototype_set(
        [(0.0, 0.0), (float(spacing), 0.0)],
        [first, second],
        name=f"n_from_two(n={n}, spacing={spacing})",
    )
    fractions = [i / n for i in range(1, n)]
    return Construction(
        set=pset,
        required_k=2,
        claimed_classes=n,
        boundary_spec=[((0, 1), fractions)] if fractions else None,
        params={"n": n, "spacing": float(spacing)},
    )


def star_pairs(m: int, radius: float = 1.0) -> Construction:
    """A hub prototype plus M-1 tips, inducing 2M-1 classes.

    Every hub-tip pair shares one induced class. Tips keep the weights
    (3/5 own, 2/5 shared); the hub spreads 3/(2M+1) on its own class and
    2/(2M+1) on each shared class so its label stays a distribution. Along
    each spoke the predicted class changes at distances 5p/(4M+7) and
    10p/(2M+11) from the hub, so the hub-adjacent classes thin out as M
    grows.
    """
    require_positive("m", m, 2)
    require_finite_positive("radius", radius)
    n_classes = 2 * m - 1
    tips = m - 1
    hub = {0: Fraction(3, 2 * m + 1)} | {m + i: Fraction(2, 2 * m + 1) for i in range(tips)}
    labels = [_exact_label(n_classes, hub)]
    labels += [_exact_label(n_classes, {1 + i: Fraction(3, 5), m + i: Fraction(2, 5)}) for i in range(tips)]
    positions = [(0.0, 0.0)] + _ring(tips, radius)
    pset = make_prototype_set(positions, labels, name=f"star_pairs(m={m}, radius={radius})")
    inner = 5.0 / (4 * m + 7)
    outer = 10.0 / (2 * m + 11)
    spec: BoundarySpec = [((0, 1 + i), [inner, outer]) for i in range(tips)]
    return Construction(
        set=pset,
        required_k=2,
        claimed_classes=n_classes,
        boundary_spec=spec,
        params={"m": m, "radius": float(radius)},
    )


def polygon_pairs(m: int, circumradius: float = 1.0) -> Construction:
    """Regular M-gon whose adjacent-vertex pairs induce 2M classes.

    Each vertex keeps weight 3/7 on its own class and 2/7 on the class it
    shares with each neighboring vertex. Solving the two crossing
    conditions on one edge puts the class changes at 1/3 and 2/3 of the
    edge, independent of M; symmetry extends this to every edge.
    """
    require_positive("m", m, 3)
    require_finite_positive("circumradius", circumradius)
    n_classes = 2 * m
    # Own class, the edge to the next vertex, the edge from the previous one.
    labels = [
        _exact_label(n_classes, {j: Fraction(3, 7), m + j: Fraction(2, 7), m + (j - 1) % m: Fraction(2, 7)})
        for j in range(m)
    ]
    positions = _ring(m, circumradius)
    pset = make_prototype_set(positions, labels, name=f"polygon_pairs(m={m}, circumradius={circumradius})")
    spec: BoundarySpec = [((j, (j + 1) % m), [1.0 / 3.0, 2.0 / 3.0]) for j in range(m)]
    return Construction(
        set=pset,
        required_k=2,
        claimed_classes=n_classes,
        boundary_spec=spec,
        params={"m": m, "circumradius": float(circumradius)},
    )


def polygon_with_center_labels(vertices: int) -> tuple[list[Fraction], list[Fraction]]:
    """Hub and vertex weight templates for :func:`polygon_with_center`.

    Returns ``(hub weights, vertex weights)`` as
    ``([own, shared-per-vertex], [own, hub-share, edge-share])``. The vertex
    split 7/20, 1/20, 3/10 keeps each edge class alive (its pooled weight
    6/10 beats the 7/20 a single vertex keeps for itself) while the hub
    share is sized so a hub-vertex band survives on every spoke:
    ``(alpha - beta) * (gamma - delta) < beta * delta`` with the values
    below reduces to choosing beta between 6/(6V+7) and 1/(V+1), and the
    midpoint of that interval is used.
    """
    v = vertices
    beta = Fraction(12 * v + 13, 2 * (6 * v + 7) * (v + 1))
    alpha = 1 - v * beta
    gamma = Fraction(7, 20)
    delta = Fraction(1, 20)
    eps = Fraction(3, 10)
    return [alpha, beta], [gamma, delta, eps]


def polygon_with_center(m: int) -> Construction:
    """Vertices and center of an (M-1)-gon, separating 3M-2 classes at k=M.

    With all M prototypes contributing everywhere, the landscape contains
    the hub's own class, one class per vertex, one class per hub-vertex
    pair, and one class per polygon edge: 1 + 3(M-1) = 3M-2 in total. The
    closed-form crossing positions do not survive the extra terms, so no
    boundary spec is attached; the class count is verified on a grid.
    """
    require_positive("m", m, 4)
    v = m - 1
    n_classes = 3 * m - 2
    (alpha, beta), (gamma, delta, eps) = polygon_with_center_labels(v)
    labels = [_exact_label(n_classes, {0: alpha} | {m + j: beta for j in range(v)})]
    # Own class, the hub-vertex class, the edges to vertex j+1 and from vertex j-1.
    labels += [
        _exact_label(n_classes, {1 + j: gamma, m + j: delta, 2 * m - 1 + j: eps, 2 * m - 1 + (j - 1) % v: eps})
        for j in range(v)
    ]
    positions = [(0.0, 0.0)] + _ring(v, 1.0)
    pset = make_prototype_set(positions, labels, name=f"polygon_with_center(m={m})")
    return Construction(
        set=pset,
        required_k=m,
        claimed_classes=n_classes,
        params={"m": m},
    )


# --- Radial label fitting ---------------------------------------------------


class RadialFitError(RuntimeError):
    """Raised when the closed-form labels miss their target crossings."""

    def __init__(self, residual: float):
        super().__init__(f"radial labels miss their target crossings; residual {residual:.3e}")
        self.residual = residual


@dataclass(frozen=True, eq=False)
class RadialFit:
    """Closed-form labels plus the crossings measured on them.

    ``history`` is ``(residual,)``: the benchmark's tracer reads its length.
    """

    labels: tuple[SoftLabel, ...]
    residual: float
    history: tuple[float, ...]
    targets: tuple[float, ...]
    realized: tuple[float, ...]


def _measure_crossings(
    positions: np.ndarray, weights: np.ndarray, targets: np.ndarray, r_max: float
) -> tuple[float, list[float]]:
    """Squared-error residual between realized score crossings and targets.

    For each adjacent class pair (j, j+1) the crossing is a sign change of
    the k = M score difference along the +x ray from the origin; the change
    nearest the target is refined by bisection, every pair in the same
    steps. A missing crossing costs r_max^2.
    """

    def scores(radii) -> np.ndarray:
        # The ray must avoid prototype positions: exact hits are not replaced.
        r = np.asarray(radii, dtype=float)
        pts = np.column_stack((r, np.zeros_like(r)))
        n, (m, ncls) = len(pts), weights.shape
        out = np.empty((n, ncls))
        classifier.score_block(positions, weights, m, pts, out, np.empty((2, n, m)), np.empty((n, ncls)))
        return out

    samples = np.linspace(r_max * 1e-4, r_max, 1024)
    sampled = scores(samples)
    pairs, lo, hi, below = [], [], [], []
    for j in range(weights.shape[1] - 1):
        g = sampled[:, j] - sampled[:, j + 1]
        flips = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        if len(flips):
            mids = 0.5 * (samples[flips] + samples[flips + 1])
            pick = flips[int(np.argmin(np.abs(mids - targets[j])))]
            pairs.append(j)
            lo.append(samples[pick])
            hi.append(samples[pick + 1])
            below.append(g[pick] < 0)
    pairs, below = np.array(pairs, dtype=int), np.array(below, dtype=bool)

    def on_lo_side(which: np.ndarray, r: np.ndarray) -> np.ndarray:
        rows, j = scores(r), pairs[which]
        at = np.arange(len(r))
        return (rows[at, j] - rows[at, j + 1] < 0) == below[which]

    found = dict(zip(pairs.tolist(), bisect_many(on_lo_side, lo, hi, 1e-12).tolist()))
    realized = [found.get(j, float("nan")) for j in range(weights.shape[1] - 1)]
    residual = 0.0
    for r_hat, target in zip(realized, targets):
        residual += r_max * r_max if math.isnan(r_hat) else (r_hat - target) ** 2
    return residual, realized


def nested_band_labels(
    positions: np.ndarray, target_radii: Sequence[float], class_count: int
) -> np.ndarray:
    """Closed-form label matrix whose bands cross a ray at the given radii.

    The ray is the +x axis from the origin, and the prototype nearest the
    origin acts as the band center; all other prototypes share one label.
    On the ray, the score difference of classes j and j+1 is
    (center_j - center_{j+1})/r - G(r) where G sums the other prototypes'
    inverse distances, so placing the difference at the target radius r_j
    just requires center_j - center_{j+1} = r_j * G(r_j). The outer
    weights count upward so each difference is exactly -1.

    The positions must be a finite, non-empty (M, 2) array of distinct
    points, and ``target_radii`` ``class_count - 1`` finite, strictly
    increasing radii above 0; anything else is refused with a ``ValueError``.
    """
    require_positive("class_count", class_count)
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or not len(pos):
        raise ValueError(f"positions must be a non-empty (M, 2) array, got shape {pos.shape}")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    if _coincident_pairs(pos):
        raise ValueError("prototype positions must be distinct")
    targets = np.asarray(target_radii, dtype=float)
    if targets.ndim != 1 or len(targets) != class_count - 1:
        raise ValueError(f"expected {class_count - 1} target radii, got {targets.shape}")
    if not (np.isfinite(targets).all() and (targets[:1] > 0).all()):
        raise ValueError(f"target radii must be finite and above 0, got {targets.tolist()}")
    if not np.all(np.diff(targets) > 0):
        raise ValueError("target radii must be strictly increasing")
    center_idx = int(np.argmin(np.linalg.norm(pos, axis=1)))
    others = np.delete(np.arange(len(pos)), center_idx)

    def ray_g(r: float) -> float:
        p = np.array([r, 0.0])
        return float(sum(1.0 / np.linalg.norm(p - pos[i]) for i in others))

    steps = [r * ray_g(r) for r in targets]
    center = np.zeros(class_count)
    for j in range(class_count - 2, -1, -1):
        center[j] = center[j + 1] + steps[j]
    outer = np.arange(class_count, dtype=float)
    weights = np.tile(outer, (len(pos), 1))
    weights[center_idx] = center
    return weights


@np.errstate(over="ignore")
def fit_radial_labels(
    positions,
    target_radii: Sequence[float],
    class_count: int,
    *,
    r_max: float | None = None,
) -> RadialFit:
    """Closed-form :func:`nested_band_labels`, measured once against the targets.

    A squared crossing residual that is not at most 1e-6 raises
    :class:`RadialFitError`; so do inputs large enough to overflow, whose
    residual is then inf or NaN.

    Parameters
    ----------
    positions : (M, 2) array of prototype positions; the labels are for k = M.
    target_radii : strictly increasing crossing distances from the origin
        along the +x ray.
    class_count : number of classes the labels span.
    r_max : end of the sampled ray; defaults to 1.6 times the last target.
    """
    pos = np.asarray(positions, dtype=float)
    targets = np.asarray(target_radii, dtype=float)
    weights = nested_band_labels(pos, targets, class_count)
    if r_max is None:
        r_max = 1.6 * float(targets[-1]) if len(targets) else 1.0
    require_finite_positive("r_max", r_max)

    residual, realized = _measure_crossings(pos, weights, targets, r_max)
    if not residual <= 1e-6:
        raise RadialFitError(residual)
    return RadialFit(
        labels=tuple(SoftLabel(row, LabelKind.UNRESTRICTED) for row in weights),
        residual=float(residual),
        history=(float(residual),),
        targets=tuple(float(t) for t in targets),
        realized=tuple(float(r) for r in realized),
    )


def concentric_ellipses(num_classes: int) -> Construction:
    """Three prototypes whose landscape is a stack of nested elliptical bands.

    One prototype sits at the origin; two more sit on the minor axis far
    enough out that their pooled pull elongates every band along the x
    axis. Labels come from :func:`fit_radial_labels` targeting boundary
    radii 1, 2, ..., num_classes-1 along the +x ray.
    """
    require_positive("num_classes", num_classes, 2)
    targets = [float(i) for i in range(1, num_classes)]
    s = max(1.5 * targets[-1], 3.0)
    positions = np.array([(0.0, 0.0), (0.0, s), (0.0, -s)])
    fit = fit_radial_labels(positions, targets, num_classes)
    pset = make_prototype_set(positions, fit.labels, name=f"concentric_ellipses(num_classes={num_classes})")
    return Construction(
        set=pset,
        required_k=3,
        claimed_classes=num_classes,
        radial_spec=RadialSpec(radii=tuple(targets)),
        fit_residual=fit.residual,
        params={"num_classes": num_classes},
    )


# --- Concentric-circle baselines --------------------------------------------


def circle_prototype_count(t: int) -> int:
    """Prototype budget for the t-th circle under the nearest-neighbor bound.

    A point on circle t (radius t*c) is at most 2tc*sin(pi/(2m)) from the
    nearest of m equally spaced prototypes on it, and at least the radial
    gap c from any prototype on another circle. The first distance is at
    most c once m >= pi / arccos(1 - 1/(2t^2)). It equals c only at t = 1,
    m = 3, since cos(pi/m) is rational only for m <= 3; there the arc
    midpoints (60, 180, 300 degrees) miss circle 2's multiples of 360/7.
    """
    require_integer("t", t)
    if t < 1:
        raise ValueError(f"circle index must be >= 1, got {t}")
    return math.ceil(math.pi / math.acos(1.0 - 1.0 / (2.0 * t * t)))


def circle_hard_baseline(n: int, c: float = 1.0) -> Construction:
    """Hard-label prototypes on N concentric circles, separated by 1NN.

    Circle t (radius t*c) carries a ring of :func:`circle_prototype_count`
    prototypes, all labeled class t-1. The bound stated there puts every
    point of a circle nearest one of its own prototypes;
    :func:`softknn.harness.verify_circle_separation` checks it by sampling.
    """
    require_positive("n", n)
    require_finite_positive("c", c)
    counts = [circle_prototype_count(t) for t in range(1, n + 1)]
    positions = [point for t, count in enumerate(counts, start=1) for point in _ring(count, t * c)]
    labels = np.repeat(np.eye(n), counts, axis=0)
    pset = make_prototype_set(
        positions, labels, kind=LabelKind.HARD, name=f"circle_hard_baseline(n={n}, c={c}, counts={counts})"
    )
    circle_spec = tuple((t * c, t - 1) for t in range(1, n + 1))
    return Construction(
        set=pset,
        required_k=1,
        claimed_classes=n,
        circle_spec=circle_spec,
        params={"n": n, "c": float(c), "counts": counts},
    )


def circle_soft_fit(n: int = 6, c: float = 1.0) -> Construction:
    """Five soft-label prototypes separating N concentric circles.

    One prototype at the center and four far outside the data (at distance
    4*N*c on the axes) are fitted so the score crossings fall halfway
    between adjacent circles. The distant quadruple keeps the bands nearly
    circular, so the midpoint margins hold at every angle.
    """
    require_positive("n", n)
    require_finite_positive("c", c)
    s = 4.0 * n * c
    positions = np.array([(0.0, 0.0), (s, 0.0), (-s, 0.0), (0.0, s), (0.0, -s)])
    targets = [(t + 0.5) * c for t in range(1, n)]
    circle_spec = tuple((t * c, t - 1) for t in range(1, n + 1))
    if n == 1:
        labels, residual, radial_spec = np.ones((5, 1)), 0.0, None
    else:
        fit = fit_radial_labels(positions, targets, n, r_max=0.8 * s)
        labels, residual, radial_spec = fit.labels, fit.residual, RadialSpec(radii=tuple(targets))
    pset = make_prototype_set(positions, labels, LabelKind.UNRESTRICTED, f"circle_soft_fit(n={n}, c={c})")
    return Construction(
        set=pset,
        required_k=5,
        claimed_classes=n,
        radial_spec=radial_spec,
        circle_spec=circle_spec,
        fit_residual=residual,
        params={"n": n, "c": float(c)},
    )


# Name -> factory registry used by the CLI and the harness. Values are
# (factory, {parameter: default or REQUIRED}).
REQUIRED = object()
REGISTRY: dict[str, tuple[Callable[..., Construction], dict]] = {
    "three_from_two": (three_from_two, {"spacing": 3.0}),
    "n_from_two": (n_from_two, {"n": REQUIRED, "spacing": None}),
    "star_pairs": (star_pairs, {"m": REQUIRED, "radius": 1.0}),
    "polygon_pairs": (polygon_pairs, {"m": REQUIRED, "circumradius": 1.0}),
    "polygon_with_center": (polygon_with_center, {"m": REQUIRED}),
    "concentric_ellipses": (concentric_ellipses, {"num_classes": REQUIRED}),
    "circle_hard_baseline": (circle_hard_baseline, {"n": REQUIRED, "c": 1.0}),
    "circle_soft_fit": (circle_soft_fit, {"n": 6, "c": 1.0}),
}


def build_named(name: str, **params) -> Construction:
    """Instantiate a registered construction by name."""
    if name not in REGISTRY:
        raise ValueError(f"unknown construction {name!r}; known: {', '.join(sorted(REGISTRY))}")
    factory, defaults = REGISTRY[name]
    kwargs = {}
    for key, default in defaults.items():
        if key in params:
            kwargs[key] = params[key]
        elif default is REQUIRED:
            raise ValueError(f"construction {name!r} requires parameter {key!r}")
        elif default is not None:
            kwargs[key] = default
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    return factory(**kwargs)
