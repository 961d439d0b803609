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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import evaluate_points
from .constructions import Construction, misclassified_on_circle
from .core import LabelKind, PrototypeSet
from .landscape import boundary_bisect, default_bounds, rasterize, region_report

# Prediction comparisons skip queries whose confidence gap is below this
# relative threshold: a rotated or rescaled float landscape may legally
# flip the argmax exactly on a tie.
NEAR_TIE_GAP = 1e-9


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
    observed = {}
    for res in resolutions:
        grid = rasterize(cons.set, cons.required_k, default_bounds(cons.set), res, res)
        observed[str(res)] = region_report(grid).distinct_classes
    passed = all(v == cons.claimed_classes for v in observed.values())
    return CheckResult("class_count", passed, observed, cons.claimed_classes)


def _segment_windows(fractions: list[float]) -> list[tuple[float, float]]:
    edges = [0.0]
    edges += [0.5 * (f1 + f2) for f1, f2 in zip(fractions, fractions[1:])]
    edges.append(1.0)
    return [(edges[i], edges[i + 1]) for i in range(len(fractions))]


def verify_boundaries(cons: Construction, tol: float = 1e-6, radial_tol: float = 1e-3) -> CheckResult:
    """Bisect every specified crossing and compare against its stated position.

    Segment crossings (fractions between prototype pairs) are checked
    against ``tol``; ray crossings (radii of nested bands) against
    ``radial_tol``, since fitted bands are only as sharp as their fit.
    """
    details = []
    max_frac_err = 0.0
    max_radial_err = 0.0
    pset, k = cons.set, cons.required_k

    if cons.boundary_spec:
        pos = pset.positions
        for (ia, ib), fractions in cons.boundary_spec:
            a, b = pos[ia], pos[ib]
            for expected, (lo, hi) in zip(fractions, _segment_windows(fractions)):
                frac = boundary_bisect(pset, k, a + lo * (b - a), b=a + hi * (b - a))
                observed = lo + frac * (hi - lo)
                err = abs(observed - expected)
                max_frac_err = max(max_frac_err, err)
                details.append(
                    {"segment": [ia, ib], "expected": expected, "observed": observed, "error": err}
                )

    if cons.radial_spec:
        spec = cons.radial_spec
        origin = np.asarray(spec.origin, dtype=float)
        direction = np.array([math.cos(spec.angle), math.sin(spec.angle)])
        radii = list(spec.radii)
        edges = [0.5 * radii[0]]
        edges += [0.5 * (r1 + r2) for r1, r2 in zip(radii, radii[1:])]
        edges.append(radii[-1] + 0.5 * (radii[-1] - radii[-2]) if len(radii) > 1 else 1.5 * radii[-1])
        for expected, lo, hi in zip(radii, edges[:-1], edges[1:]):
            frac = boundary_bisect(pset, k, origin + lo * direction, origin + hi * direction)
            observed = lo + frac * (hi - lo)
            err = abs(observed - expected)
            max_radial_err = max(max_radial_err, err)
            details.append({"ray": True, "expected": expected, "observed": observed, "error": err})

    passed = max_frac_err <= tol and max_radial_err <= radial_tol
    return CheckResult(
        "boundaries",
        passed,
        {"max_fraction_error": max_frac_err, "max_radius_error": max_radial_err, "crossings": details},
        "stated crossing positions",
        tol,
    )


def verify_circle_separation(cons: Construction, samples_per_circle: int = 10_000) -> CheckResult:
    """Sample each circle densely; every sample must take its circle's class."""
    if cons.circle_spec is None:
        raise ValueError("construction carries no circle specification")
    per_circle = []
    total_bad = 0
    for radius, cls in cons.circle_spec:
        bad = misclassified_on_circle(cons.set, cons.required_k, radius, cls, samples_per_circle)
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
    moved = pset.positions @ np.asarray(rotation, dtype=float).T + np.asarray(translation, dtype=float)
    return PrototypeSet(moved, pset.labels, pset.label_kind, pset.name + " (moved)")


def scaled_label_set(pset: PrototypeSet, c: float) -> PrototypeSet:
    """Multiply every label vector by c > 0. Kind becomes unrestricted."""
    if not c > 0:
        raise ValueError(f"label scale must be positive, got {c}")
    return PrototypeSet(pset.positions, pset.labels * c, LabelKind.UNRESTRICTED, pset.name + f" (labels*{c})")


def shifted_label_set(pset: PrototypeSet, c: float) -> PrototypeSet:
    """Add the same constant to every element of every label."""
    return PrototypeSet(pset.positions, pset.labels + c, LabelKind.UNRESTRICTED, pset.name + f" (labels+{c})")


def _rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _sample_queries(pset: PrototypeSet, rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """Off-boundary query points inside the padded frame.

    Points whose confidence gap is within rounding of zero get resampled:
    exactly-on-boundary predictions are tie-break artifacts, not class
    structure, so invariance is not asserted there.
    """
    xmin, xmax, ymin, ymax = default_bounds(pset)
    out = np.empty((count, 2))
    found = 0
    for _ in range(200):
        cand = np.column_stack(
            (rng.uniform(xmin, xmax, size=count), rng.uniform(ymin, ymax, size=count))
        )
        scores, _, conf, _ = evaluate_points(pset, k, cand)
        scale = np.maximum(1.0, np.abs(scores).max(axis=1))
        good = cand[conf > NEAR_TIE_GAP * scale]
        take = min(len(good), count - found)
        out[found : found + take] = good[:take]
        found += take
        if found == count:
            return out
    raise RuntimeError("could not sample off-boundary queries")


def verify_invariances(
    cons: Construction, trials: int = 100, seed: int = 0, queries_per_trial: int = 5
) -> list[CheckResult]:
    """Predicted classes must survive rigid motions, label scalings, shifts.

    Each trial draws a fresh transform and fresh off-boundary queries from
    the padded frame; the transformed set is queried at the matching
    transformed points. Deterministic given the seed.
    """
    pset, k = cons.set, cons.required_k
    rng = np.random.default_rng(seed)
    failures = {"rigid_motion": 0, "label_scale": 0, "label_shift": 0}

    for _ in range(trials):
        queries = _sample_queries(pset, rng, queries_per_trial, k)
        base = evaluate_points(pset, k, queries)[1]
        rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
        shift = rng.uniform(-10.0, 10.0, size=2)
        c = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        d = float(rng.uniform(-5.0, 5.0))
        variants = {
            "rigid_motion": (transformed_set(pset, rot, shift), queries @ rot.T + shift),
            "label_scale": (scaled_label_set(pset, c), queries),
            "label_shift": (shifted_label_set(pset, d), queries),
        }
        for name, (other, points) in variants.items():
            failures[name] += int(np.count_nonzero(evaluate_points(other, k, points)[1] != base))

    total = trials * queries_per_trial
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
    boundary_tol: float = 1e-6,
    radial_tol: float = 1e-3,
    samples_per_circle: int = 10_000,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Run every check the construction's claims support."""
    checks: list[CheckResult] = [verify_class_count(cons, resolutions)]
    if cons.boundary_spec or cons.radial_spec:
        checks.append(verify_boundaries(cons, tol=boundary_tol, radial_tol=radial_tol))
    if cons.circle_spec is not None:
        checks.append(verify_circle_separation(cons, samples_per_circle))
    if cons.fit_residual is not None:
        checks.append(CheckResult("fit_residual", cons.fit_residual < 1e-3, cons.fit_residual, "< 1e-3", 1e-3))
    checks.extend(verify_invariances(cons, trials=trials, seed=seed))
    meta = {
        "version": __version__,
        "seed": seed,
        "resolutions": list(resolutions),
        "boundary_tol": boundary_tol,
        "radial_tol": radial_tol,
        "samples_per_circle": samples_per_circle,
        "trials": trials,
    }
    return VerificationReport(construction=name, params=dict(cons.params), checks=tuple(checks), meta=meta)
