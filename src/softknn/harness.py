"""Automated verification of construction claims.

Every quantitative claim a :class:`~softknn.constructions.Construction`
carries can be checked here: grid class counts at two resolutions,
boundary crossing positions against their closed forms, dense-sampling
separation of concentric circles, and invariance of predictions under
rigid motions, positive label scalings, and label shifts. Verifiers are
deterministic given their seed and emit JSON-serializable reports that
record seeds, resolutions, and tolerances.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import _evaluate_stacked, _predicted, evaluate_points
from .constructions import Construction
from .core import LabelKind, PrototypeSet, require_finite_positive, require_positive
from .landscape import boundary_bisect, default_bounds, rasterize, region_report

# Prediction comparisons skip queries whose confidence gap is below this
# relative threshold: a rotated or rescaled float landscape may legally
# flip the argmax exactly on a tie.
NEAR_TIE_GAP = 1e-9

# Largest accepted crossing errors: a fraction of a segment, and a radius.
BOUNDARY_TOL = 1e-6
RADIAL_TOL = 1e-3

# Samples per circle of a circle separation check, and off-boundary
# queries per invariance trial.
SAMPLES_PER_CIRCLE = 10_000
QUERIES_PER_TRIAL = 5

# verify_invariances builds and scores the variant sets of a tile of trials
# at once: at most this many floats of them (see verify_invariances).
_TRIAL_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class CheckResult:
    name: str
    passed: bool
    observed: object
    expected: object
    tol: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "expected": self.expected,
            "tol": self.tol,
        }


@dataclass(frozen=True, eq=False)
class VerificationReport:
    construction: str
    params: dict
    checks: tuple[CheckResult, ...]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "params": self.params,
            "checks": [c.to_json_dict() for c in self.checks],
            "meta": self.meta,
            "pass": self.passed,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


def verify_class_count(cons: Construction, resolutions: tuple[int, ...] = (512, 1024)) -> CheckResult:
    """Rasterize at each resolution and compare distinct classes to the claim.

    Two resolutions guard against aliasing: a class thinner than a cell at
    the coarse grid must still show up at the fine one.
    """
    require_positive("resolutions", len(resolutions))
    observed = {}
    for res in resolutions:
        grid = rasterize(cons.set, cons.required_k, width=res, height=res)
        observed[str(res)] = region_report(grid).distinct_classes
    passed = all(v == cons.claimed_classes for v in observed.values())
    return CheckResult("class_count", passed, observed, cons.claimed_classes)


def _windows(values, first: float, last: float) -> list[tuple[float, float]]:
    """One ``(lo, hi)`` window per value, split at the midpoints of neighbouring values."""
    edges = [first, *(0.5 * (v1 + v2) for v1, v2 in zip(values, values[1:])), last]
    return list(zip(edges[:-1], edges[1:]))


def _crossing_segments(cons: Construction) -> tuple[np.ndarray, np.ndarray, list[tuple[dict, float, float]]]:
    """One bracketing segment per stated crossing, stacked for :func:`boundary_bisect`.

    Returns the segment starts and ends, and per segment its report entry
    (the crossing's place and expected position) and the window ``(lo,
    hi)`` that maps a fraction of the segment back to the stated scale.
    Segment crossings come first, then ray crossings along the +x axis
    from the origin.
    """
    starts, ends, windows = [], [], []
    if cons.boundary_spec:
        pos = cons.set.positions
        for (ia, ib), fractions in cons.boundary_spec:
            a, b = pos[ia], pos[ib]
            for expected, (lo, hi) in zip(fractions, _windows(fractions, 0.0, 1.0)):
                starts.append(a + lo * (b - a))
                ends.append(a + hi * (b - a))
                windows.append(({"segment": [ia, ib], "expected": expected}, lo, hi))

    if cons.radial_spec:
        radii = cons.radial_spec
        last = radii[-1] + 0.5 * (radii[-1] - radii[-2]) if len(radii) > 1 else 1.5 * radii[-1]
        for expected, (lo, hi) in zip(radii, _windows(radii, 0.5 * radii[0], last)):
            starts.append((lo, 0.0))
            ends.append((hi, 0.0))
            windows.append(({"ray": True, "expected": expected}, lo, hi))
    return np.array(starts).reshape(-1, cons.set.dim), np.array(ends).reshape(-1, cons.set.dim), windows


def verify_boundaries(cons: Construction) -> CheckResult:
    """Bisect every specified crossing and compare against its stated position.

    Segment crossings (fractions between prototype pairs) are checked
    against :data:`BOUNDARY_TOL`; ray crossings (radii of nested bands)
    against :data:`RADIAL_TOL`, since fitted bands are only as sharp as
    their fit. All crossings are bisected together in one
    :func:`boundary_bisect` call.
    """
    details = []
    max_frac_err = 0.0
    max_radial_err = 0.0
    starts, ends, windows = _crossing_segments(cons)
    fractions = boundary_bisect(cons.set, cons.required_k, starts, ends)
    for frac, (entry, lo, hi) in zip(fractions, windows):
        observed = lo + float(frac) * (hi - lo)
        err = abs(observed - entry["expected"])
        if "ray" in entry:
            max_radial_err = max(max_radial_err, err)
        else:
            max_frac_err = max(max_frac_err, err)
        details.append({**entry, "observed": observed, "error": err})

    passed = max_frac_err <= BOUNDARY_TOL and max_radial_err <= RADIAL_TOL
    return CheckResult(
        "boundaries",
        passed,
        {"max_fraction_error": max_frac_err, "max_radius_error": max_radial_err, "crossings": details},
        "stated crossing positions",
        BOUNDARY_TOL,
    )


def verify_circle_separation(cons: Construction, samples_per_circle: int = SAMPLES_PER_CIRCLE) -> CheckResult:
    """Sample each circle densely; every sample must take its circle's class.

    The samples go to the classifier in angle order, so consecutive ones
    form short arcs and the kernel's culling keeps few prototypes per tile;
    no per-class scores are kept.
    """
    if cons.circle_spec is None:
        raise ValueError("construction carries no circle specification")
    require_positive("samples_per_circle", samples_per_circle)
    angles = 2.0 * math.pi * np.arange(samples_per_circle) / samples_per_circle
    per_circle = []
    total_bad = 0
    for radius, cls in cons.circle_spec:
        pts = np.column_stack((radius * np.cos(angles), radius * np.sin(angles)))
        bad = int(np.count_nonzero(_predicted(cons.set, cons.required_k, pts) != cls))
        per_circle.append({"radius": radius, "class": cls, "misclassified": bad})
        total_bad += bad
    return CheckResult(
        "circle_separation",
        total_bad == 0,
        {"total_misclassified": total_bad, "samples_per_circle": samples_per_circle, "per_circle": per_circle},
        0,
    )


# --- Invariance checks -------------------------------------------------------


def transformed_set(pset: PrototypeSet, rotation: np.ndarray, translation: np.ndarray) -> PrototypeSet:
    """Apply a rigid motion to every prototype position; labels unchanged."""
    rotation, translation = np.asarray(rotation, dtype=float), np.asarray(translation, dtype=float)
    if rotation.shape != (pset.dim, pset.dim) or translation.shape != (pset.dim,):
        raise ValueError(
            f"rotation must be ({pset.dim}, {pset.dim}) and translation ({pset.dim},), got {rotation.shape} and {translation.shape}"
        )
    moved = pset.positions @ rotation.T + translation
    return PrototypeSet(moved, pset.labels, pset.label_kind, pset.name + " (moved)")


def scaled_label_set(pset: PrototypeSet, c: float) -> PrototypeSet:
    """Multiply every label vector by a finite c > 0. Kind becomes unrestricted."""
    require_finite_positive("label scale", c)
    return PrototypeSet(pset.positions, pset.labels * c, LabelKind.UNRESTRICTED, pset.name + f" (labels*{c})")


def shifted_label_set(pset: PrototypeSet, c: float) -> PrototypeSet:
    """Add the same finite constant to every element of every label."""
    if not isinstance(c, numbers.Real) or isinstance(c, bool):
        raise ValueError(f"label shift must be a real number, got {c!r}")
    if not math.isfinite(c):
        raise ValueError(f"label shift must be finite, got {c}")
    return PrototypeSet(pset.positions, pset.labels + c, LabelKind.UNRESTRICTED, pset.name + f" (labels+{c})")


def _rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _draw_trials(pset: PrototypeSet, rng: np.random.Generator, trials: int, k: int):
    """Each trial's off-boundary queries, their predicted classes and the trial's transform draws.

    θ, the shift, ``log c`` and ``d`` are drawn first, one ``rng.uniform``
    call each over all trials; then x and y of every query, uniform over the
    padded frame. Each round classifies the pending queries in one call and
    keeps those whose confidence gap is above rounding; only the rejected
    ones are drawn again. Exactly-on-boundary predictions are tie-break
    artifacts, not class structure, so invariance is not asserted there.
    Queries still rejected after 200 rounds are an error.

    Returns the (trials, QUERIES_PER_TRIAL, 2) queries, their (trials,
    QUERIES_PER_TRIAL) predictions, and per trial θ, the (2,) shift, ``c`` and ``d``.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi, size=trials)
    shift = rng.uniform(-10.0, 10.0, size=(trials, 2))
    c = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=trials))
    d = rng.uniform(-5.0, 5.0, size=trials)
    xmin, xmax, ymin, ymax = default_bounds(pset)
    queries = np.empty((trials * QUERIES_PER_TRIAL, 2))
    base = np.empty(len(queries), dtype=int)
    pending = np.arange(len(queries))
    for _ in range(200):
        queries[pending] = rng.uniform((xmin, ymin), (xmax, ymax), size=(len(pending), 2))
        scores, predicted, conf, _ = evaluate_points(pset, k, queries[pending])
        good = conf > NEAR_TIE_GAP * np.maximum(1.0, np.abs(scores).max(axis=1))
        base[pending[good]] = predicted[good]
        pending = pending[~good]
        if len(pending) == 0:
            return queries.reshape(trials, -1, 2), base.reshape(trials, -1), theta, shift, c, d
    raise RuntimeError("could not sample off-boundary queries")


def verify_invariances(cons: Construction, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Predicted classes must survive rigid motions, label scalings, shifts.

    Each trial has its own transform and its own :data:`QUERIES_PER_TRIAL`
    off-boundary queries from the padded frame, all drawn by
    :func:`_draw_trials`; the transformed set is queried at the matching
    transformed points. Trials are taken in tiles of at most
    ``_TRIAL_ENTRIES`` floats of what a tile builds per trial: moved
    positions and queries (M x 2 + QUERIES_PER_TRIAL x 2) and two label
    stacks (2 x M x C). Per tile, each variant kind stacks its trials'
    sets, built as :func:`transformed_set`, :func:`scaled_label_set` and
    :func:`shifted_label_set` build them (a per-trial ``positions @ rot.T +
    shift``, ``labels * c``, ``labels + d``), and scores them all in one
    stacked classifier call. That call reads each query's own set in place,
    never copying a set per query, and gives the bits of one call per
    trial. Deterministic given the seed. A report holds only counts, so on
    a set that passes, which queries a seed draws changes no report byte.
    """
    require_positive("trials", trials)
    require_positive("seed", seed, 0)
    pset, k = cons.set, cons.required_k
    queries, base, theta, shift, c, d = _draw_trials(pset, np.random.default_rng(seed), trials, k)
    failures = {"rigid_motion": 0, "label_scale": 0, "label_shift": 0}
    m, dim = pset.positions.shape
    span = max(1, min(trials, _TRIAL_ENTRIES // (m * dim + 2 * pset.labels.size + QUERIES_PER_TRIAL * dim)))
    for t in range(0, trials, span):
        sl = slice(t, t + span)
        motions = [(_rotation(float(a)), s) for a, s in zip(theta[sl], shift[sl])]
        variants = {
            "rigid_motion": (
                np.stack([pset.positions @ rot.T + s for rot, s in motions]),
                pset.labels,
                np.stack([q @ rot.T + s for q, (rot, s) in zip(queries[sl], motions)]),
            ),
            "label_scale": (pset.positions, pset.labels * c[sl, None, None], queries[sl]),
            "label_shift": (pset.positions, pset.labels + d[sl, None, None], queries[sl]),
        }
        for name, (positions, labels, points) in variants.items():
            failures[name] += int(np.count_nonzero(_evaluate_stacked(positions, labels, k, points)[1] != base[sl]))

    total = trials * QUERIES_PER_TRIAL
    return [
        CheckResult(
            f"invariance_{name}",
            bad == 0,
            {"mismatches": bad, "comparisons": total, "trials": trials, "seed": seed},
            0,
        )
        for name, bad in failures.items()
    ]


def verify_hard_label_oracle(instances: int = 1000, seed: int = 0) -> CheckResult:
    """k=1 on hard labels must match brute-force nearest neighbor exactly.

    Random prototype sets with one-hot labels are queried off-boundary
    (distance gap above rounding); the oracle is a direct argmin over
    distances with the same lowest-index tie rule.
    """
    require_positive("instances", instances)
    require_positive("seed", seed, 0)
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(instances):
        m = int(rng.integers(2, 13))
        positions = rng.uniform(-5.0, 5.0, size=(m, 2))
        classes = rng.integers(0, m, size=m)
        n_classes = int(classes.max()) + 1
        labels = np.zeros((m, n_classes))
        labels[np.arange(m), classes] = 1.0
        pset = PrototypeSet(positions, labels, LabelKind.HARD, "hard-oracle instance")
        while True:
            q = rng.uniform(-6.0, 6.0, size=2)
            dists = np.linalg.norm(positions - q, axis=1)
            two = np.sort(dists)[:2]
            if two[1] - two[0] > 1e-9:
                break
        _, predicted, _, _ = evaluate_points(pset, 1, q[None, :])
        if int(predicted[0]) != int(classes[int(np.argmin(dists))]):
            mismatches += 1
    return CheckResult(
        "hard_label_nearest_oracle",
        mismatches == 0,
        {"mismatches": mismatches, "instances": instances, "seed": seed},
        0,
    )


def standard_report(
    name: str,
    cons: Construction,
    *,
    resolutions: tuple[int, ...] = (512, 1024),
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Run every check the construction's claims support.

    Crossings are held to :data:`BOUNDARY_TOL` and :data:`RADIAL_TOL`, and
    circles are sampled :data:`SAMPLES_PER_CIRCLE` times each; the report's
    ``meta`` records all three. The sizes and the seed are checked before
    any check runs, so a bad one is refused without rasterizing first.
    """
    require_positive("resolutions", len(resolutions))
    require_positive("trials", trials)
    require_positive("seed", seed, 0)
    checks: list[CheckResult] = [verify_class_count(cons, resolutions)]
    if cons.boundary_spec or cons.radial_spec:
        checks.append(verify_boundaries(cons))
    if cons.circle_spec is not None:
        checks.append(verify_circle_separation(cons))
    if cons.fit_residual is not None:
        checks.append(CheckResult("fit_residual", cons.fit_residual < 1e-3, cons.fit_residual, "< 1e-3", 1e-3))
    checks.extend(verify_invariances(cons, trials=trials, seed=seed))
    meta = {
        "version": __version__,
        "seed": seed,
        "resolutions": list(resolutions),
        "boundary_tol": BOUNDARY_TOL,
        "radial_tol": RADIAL_TOL,
        "samples_per_circle": SAMPLES_PER_CIRCLE,
        "trials": trials,
    }
    return VerificationReport(construction=name, params=dict(cons.params), checks=tuple(checks), meta=meta)
