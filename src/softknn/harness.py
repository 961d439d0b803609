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
from .classifier import _predicted, evaluate_points
from .constructions import Construction
from .core import LabelKind, PrototypeSet, require_positive
from .landscape import boundary_bisect, default_bounds, rasterize, region_report

# Prediction comparisons skip queries whose confidence gap is below this
# relative threshold: a rotated or rescaled float landscape may legally
# flip the argmax exactly on a tie.
NEAR_TIE_GAP = 1e-9

# Largest accepted crossing errors: a fraction of a segment, and a radius.
BOUNDARY_TOL = 1e-6
RADIAL_TOL = 1e-3


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
        grid = rasterize(cons.set, cons.required_k, default_bounds(cons.set), res, res)
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
        radii = cons.radial_spec.radii
        last = radii[-1] + 0.5 * (radii[-1] - radii[-2]) if len(radii) > 1 else 1.5 * radii[-1]
        for expected, (lo, hi) in zip(radii, _windows(radii, 0.5 * radii[0], last)):
            starts.append((lo, 0.0))
            ends.append((hi, 0.0))
            windows.append(({"ray": True, "expected": expected}, lo, hi))
    return np.array(starts).reshape(-1, cons.set.dim), np.array(ends).reshape(-1, cons.set.dim), windows


def verify_boundaries(cons: Construction, tol: float = BOUNDARY_TOL, radial_tol: float = RADIAL_TOL) -> CheckResult:
    """Bisect every specified crossing and compare against its stated position.

    Segment crossings (fractions between prototype pairs) are checked
    against ``tol``; ray crossings (radii of nested bands) against
    ``radial_tol``, since fitted bands are only as sharp as their fit. All
    crossings are bisected together in one :func:`boundary_bisect` call.
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

    passed = max_frac_err <= tol and max_radial_err <= radial_tol
    return CheckResult(
        "boundaries",
        passed,
        {"max_fraction_error": max_frac_err, "max_radius_error": max_radial_err, "crossings": details},
        "stated crossing positions",
        tol,
    )


def verify_circle_separation(cons: Construction, samples_per_circle: int = 10_000) -> CheckResult:
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


def _uniform(u, low: float, high: float):
    """Scale doubles from ``Generator.random`` as ``Generator.uniform(low, high)`` does, bit for bit."""
    return low + (high - low) * u


def _draw_trials(pset: PrototypeSet, rng: np.random.Generator, trials: int, count: int, k: int):
    """Off-boundary queries, their predicted classes and the transform draws of every trial.

    The doubles of ``rng.random`` are read in a per-trial layout: ``x[count]``
    and ``y[count]`` of the padded frame, another ``x[count]``, ``y[count]``
    per rejected attempt, then θ, ``shift[2]``, ``c`` and ``d``. Queries whose
    confidence gap is within rounding of zero are rejected and the trial
    draws again: exactly-on-boundary predictions are tie-break artifacts,
    not class structure, so invariance is not asserted there. All pending
    trials are drawn and classified in one call; at a rejection, the trials
    before it are kept and the rest are drawn again from the next attempt
    on. A trial that finds too few queries in 200 attempts is an error.

    Returns the (trials, count, 2) queries, their (trials, count)
    predictions, and per trial θ, the (2,) shift, ``c`` and ``d``.
    """
    xmin, xmax, ymin, ymax = default_bounds(pset)
    per = 2 * count + 5
    queries = np.empty((trials, count, 2))
    base = np.empty((trials, count), dtype=int)
    draws = np.empty((trials, 5))
    stream, cursor = np.empty(0), 0
    done = held = failed = 0
    while done < trials:
        n = trials - done
        short = n * per - (len(stream) - cursor)
        if short > 0:
            stream, cursor = np.concatenate((stream[cursor:], rng.random(short))), 0
        u = stream[cursor : cursor + n * per].reshape(n, per)
        cand = np.stack((_uniform(u[:, :count], xmin, xmax), _uniform(u[:, count : 2 * count], ymin, ymax)), axis=-1)
        scores, predicted, conf, _ = evaluate_points(pset, k, cand.reshape(-1, 2))
        good = (conf > NEAR_TIE_GAP * np.maximum(1.0, np.abs(scores).max(axis=1))).reshape(n, count)
        predicted = predicted.reshape(n, count)

        def keep(i: int, start: int) -> int:
            take = np.flatnonzero(good[i])[: count - start]
            queries[done + i, start : start + len(take)] = cand[i, take]
            base[done + i, start : start + len(take)] = predicted[i, take]
            return start + len(take)

        complete = good.all(axis=1)
        held = keep(0, held)
        complete[0] = held == count
        ok = n if complete.all() else int(np.argmin(complete))
        queries[done + 1 : done + ok] = cand[1:ok]
        base[done + 1 : done + ok] = predicted[1:ok]
        draws[done : done + ok] = u[:ok, 2 * count :]
        if ok == n:
            break
        failed = failed + 1 if ok == 0 else 1
        if failed == 200:
            raise RuntimeError("could not sample off-boundary queries")
        if ok:
            held = keep(ok, 0)
        cursor += ok * per + 2 * count
        done += ok

    c = np.array([np.exp(v) for v in _uniform(draws[:, 3], math.log(0.1), math.log(10.0))])
    theta = _uniform(draws[:, 0], 0.0, 2.0 * math.pi)
    return queries, base, theta, _uniform(draws[:, 1:3], -10.0, 10.0), c, _uniform(draws[:, 4], -5.0, 5.0)


def verify_invariances(
    cons: Construction, trials: int = 100, seed: int = 0, queries_per_trial: int = 5
) -> list[CheckResult]:
    """Predicted classes must survive rigid motions, label scalings, shifts.

    Each trial draws a fresh transform and fresh off-boundary queries from
    the padded frame; the transformed set is queried at the matching
    transformed points. The queries of all trials are drawn and classified
    together, and each variant set is queried once per trial.
    Deterministic given the seed.
    """
    require_positive("trials", trials)
    require_positive("queries_per_trial", queries_per_trial)
    pset, k = cons.set, cons.required_k
    draws = _draw_trials(pset, np.random.default_rng(seed), trials, queries_per_trial, k)
    failures = {"rigid_motion": 0, "label_scale": 0, "label_shift": 0}

    for queries, base, theta, shift, c, d in zip(*draws):
        rot = _rotation(float(theta))
        variants = {
            "rigid_motion": (transformed_set(pset, rot, shift), queries @ rot.T + shift),
            "label_scale": (scaled_label_set(pset, float(c)), queries),
            "label_shift": (shifted_label_set(pset, float(d)), queries),
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
    samples_per_circle: int = 10_000,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Run every check the construction's claims support.

    Crossings are held to :data:`BOUNDARY_TOL` and :data:`RADIAL_TOL`,
    which the report's ``meta`` records. The sizes are checked before any
    check runs, so a bad one is refused without rasterizing first.
    """
    require_positive("resolutions", len(resolutions))
    require_positive("samples_per_circle", samples_per_circle)
    require_positive("trials", trials)
    checks: list[CheckResult] = [verify_class_count(cons, resolutions)]
    if cons.boundary_spec or cons.radial_spec:
        checks.append(verify_boundaries(cons))
    if cons.circle_spec is not None:
        checks.append(verify_circle_separation(cons, samples_per_circle))
    if cons.fit_residual is not None:
        checks.append(CheckResult("fit_residual", cons.fit_residual < 1e-3, cons.fit_residual, "< 1e-3", 1e-3))
    checks.extend(verify_invariances(cons, trials=trials, seed=seed))
    meta = {
        "version": __version__,
        "seed": seed,
        "resolutions": list(resolutions),
        "boundary_tol": BOUNDARY_TOL,
        "radial_tol": RADIAL_TOL,
        "samples_per_circle": samples_per_circle,
        "trials": trials,
    }
    return VerificationReport(construction=name, params=dict(cons.params), checks=tuple(checks), meta=meta)
