"""Data model for soft-label prototypes.

A prototype couples a position in Euclidean space with a soft label: a
vector holding one weight per class. Labels come in three kinds. Hard
labels are one-hot, probabilistic labels form a distribution over the
classes, and unrestricted labels may hold any finite real weights.

A prototype set is two arrays, the (M, dim) positions and the
(M, num_classes) labels, plus one label kind shared by every row. Their
shapes are checked once, when the set is built; :func:`validate` then
reports value errors. This module provides the set type, exact
probabilistic label rows, validation, and the JSON interchange format.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Absolute tolerance for the probabilistic "weights sum to 1" check.
PROB_SUM_TOL = 1e-9

# Positions closer than this are treated as coincident. Inverse-distance
# weighting has no meaning at distance zero, so duplicates are invalid and
# queries within this radius of a prototype are handled as exact hits.
COINCIDENT_TOL = 1e-12


def require_integer(name: str, value) -> None:
    """Refuse a ``value`` that is not an integer (a bool is not one), naming the argument ``name``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_positive(name: str, value: int, least: int = 1) -> None:
    """Refuse a count or seed that is not an integer of at least ``least``, by default 1: a check that compares nothing would pass."""
    require_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def require_finite_positive(name: str, value: float) -> None:
    """Refuse a length or scale that is not a real number (a bool is not one), finite and above 0, naming the argument ``name``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}, got {value}")


class LabelKind(str, Enum):
    """How a label's weight vector is constrained."""

    HARD = "hard"
    PROBABILISTIC = "probabilistic"
    UNRESTRICTED = "unrestricted"


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    arr.flags.writeable = False
    return arr


def exact_label(weights: Sequence[Fraction]) -> np.ndarray:
    """A probabilistic label row from exact rationals, as a read-only float vector.

    The sum-to-one constraint and the signs are checked symbolically
    before any float conversion, so generated labels are valid by
    construction rather than by floating-point luck.
    """
    fracs = [Fraction(w) for w in weights]
    total = sum(fracs, Fraction(0))
    if total != 1:
        raise ValueError(f"exact weights sum to {total}, expected 1")
    if any(f < 0 for f in fracs):
        raise ValueError("exact probabilistic weights must be non-negative")
    return _readonly([float(f) for f in fracs])


def label_violations(values, kind: LabelKind) -> list[str]:
    """Describe every invariant of ``kind`` that the label row ``values`` breaks; a scalar is one element."""
    row = _readonly(np.atleast_1d(values))
    if row.ndim != 1 or not row.size:
        raise ValueError(f"label values must be a non-empty 1-D vector, got shape {row.shape}")
    return _label_violations(row[None], LabelKind(kind))[0]


def _label_violations(labels: np.ndarray, kind: LabelKind) -> list[list[str]]:
    """Per row of the (M, C) ``labels``, a description of every invariant of ``kind`` that the row breaks.

    A row with a non-finite element gets that message alone. The finite
    rows are checked together; sets keep their labels in C order, so each
    row's sum adds its elements as ``row.sum()`` does.
    """
    finite = np.isfinite(labels).all(axis=1)
    rows: list[list[str]] = [[] if ok else ["non-finite element"] for ok in finite.tolist()]
    checked = np.flatnonzero(finite)
    v = labels[checked]
    if kind == LabelKind.HARD:
        broken = (np.count_nonzero(v == 1.0, axis=1) != 1) | (np.count_nonzero(v == 0.0, axis=1) != v.shape[1] - 1)
        for i in checked[broken].tolist():
            rows[i].append("hard label is not a one-hot vector")
    elif kind == LabelKind.PROBABILISTIC:
        for i, negative, total in zip(checked.tolist(), np.any(v < 0, axis=1).tolist(), v.sum(axis=1).tolist()):
            if negative:
                rows[i].append("negative element")
            if abs(total - 1.0) > PROB_SUM_TOL:
                rows[i].append(f"elements sum to {total!r}, not 1")
    return rows


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """An ordered collection of prototypes over a fixed class space.

    The two arrays are the set: row i of ``positions`` (M, dim) and of
    ``labels`` (M, num_classes) is prototype i, and every label has the
    kind ``label_kind``. Shapes are checked on construction, so ``dim``,
    ``num_classes`` and ``len`` always agree with the arrays; value errors
    (non-finite entries, broken label invariants, duplicate positions) are
    left to :func:`validate`, so such sets can still be built and diagnosed.
    The classifier refuses a set whose :attr:`defect` is not None. The
    arrays are read-only C-ordered copies, which makes the set immutable
    and safe for unrestricted concurrent use.
    """

    positions: np.ndarray
    labels: np.ndarray
    label_kind: LabelKind
    name: str = ""

    def __post_init__(self) -> None:
        pos, labs = _readonly(self.positions), _readonly(self.labels)
        if pos.ndim != 2 or labs.ndim != 2 or len(pos) != len(labs) or 0 in pos.shape + labs.shape:
            raise ValueError(f"need non-empty (M, dim) and (M, num_classes) arrays, got {pos.shape} and {labs.shape}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "label_kind", LabelKind(self.label_kind))

    def __len__(self) -> int:
        return len(self.positions)

    @functools.cached_property
    def defect(self) -> str | None:
        """Why the decision rule refuses this set, or None: non-finite values, else coincident positions.

        Worked out on first use and kept; :func:`validate` names the rows.
        """
        if not (np.isfinite(self.positions).all() and np.isfinite(self.labels).all()):
            return "prototype positions and labels must be finite"
        if _coincident_pairs(self.positions):
            return "prototype positions must be distinct"
        return None

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]


def _check_rows(rows, what: str) -> np.ndarray | list[np.ndarray]:
    """Convert per-prototype vectors to float rows of one width, naming the first ragged row.

    All rows are converted in one call; a 1-D result holds one scalar per
    prototype and becomes a column. Only where that call fails or nests
    deeper are the rows converted one by one, which names the first ragged
    row and still takes rows that do not stack in one call, such as
    ``[0.0, [1.0]]``.
    """
    try:
        stacked = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):  # the row-by-row pass below names what is wrong
        stacked = np.empty(())
    if stacked.ndim in (1, 2) and len(stacked):
        return stacked.reshape(len(stacked), -1)
    rows = [np.atleast_1d(np.asarray(r, dtype=float)) for r in rows]
    if not rows:
        raise ValueError("a prototype set needs at least one prototype")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if row.shape != (width,):
            raise ValueError(f"prototype {i}: {what} has length {row.size}, expected {width}")
    return rows


def make_prototype_set(
    positions: Iterable[Sequence[float]],
    labels: Iterable[Sequence[float]],
    kind: LabelKind | None = None,
    name: str = "",
) -> PrototypeSet:
    """Assemble a PrototypeSet from parallel position and label rows.

    ``kind`` applies to every label row and defaults to probabilistic. A
    flat sequence of labels holds one class weight per prototype. Ragged
    rows are rejected with the index of the first one.
    """
    pos, labs = _check_rows(positions, "position"), _check_rows(labels, "label")
    return PrototypeSet(pos, labs, kind or LabelKind.PROBABILISTIC, name)


def validate(pset: PrototypeSet) -> list[str]:
    """Check every value invariant; return one message per violation.

    An empty list means the set is valid. Shapes were checked when the set
    was built; this reports non-finite positions, labels that break their
    kind's invariant, and duplicate positions. It never raises.
    """
    errors: list[str] = []
    finite = np.isfinite(pset.positions).all(axis=1)
    for i, (ok, messages) in enumerate(zip(finite.tolist(), _label_violations(pset.labels, pset.label_kind))):
        if not ok:
            errors.append(f"prototype {i}: non-finite position")
        errors.extend(f"prototype {i}: {msg}" for msg in messages)
    # Duplicate positions break inverse-distance weighting.
    if finite.all():
        errors.extend(f"prototypes {i} and {j}: duplicate position" for i, j in _coincident_pairs(pset.positions))
    return errors


@np.errstate(over="ignore")
def _coincident_pairs(pos: np.ndarray) -> list[tuple[int, int]]:
    """Every pair i < j with ``norm(pos[i] - pos[j]) < COINCIDENT_TOL``, in order of i, then j.

    The positions are sorted along their widest axis, and each is compared
    only with those that follow it within a window of twice the tolerance
    on that axis: a coincident pair differs by less than the tolerance in
    every coordinate, and the doubled window absorbs rounding. Step d
    compares every sorted position with the one d places after it, for all
    windows that reach that far at once. The distance of each candidate
    pair is the same ``np.linalg.norm`` of ``pos[i] - pos[j]``, so the same
    pairs are found as by comparing every pair.
    """
    axis = int(np.argmax(np.ptp(pos, axis=0)))
    order = np.argsort(pos[:, axis], kind="stable")
    keys = pos[order, axis]
    reach = np.searchsorted(keys, keys + 2 * COINCIDENT_TOL, side="right") - np.arange(len(keys))
    pairs: list[tuple[int, int]] = []
    for d in range(1, int(reach.max())):
        s = np.flatnonzero(reach > d)
        first, second = np.minimum(order[s], order[s + d]), np.maximum(order[s], order[s + d])
        close = np.linalg.norm(pos[first] - pos[second], axis=1) < COINCIDENT_TOL
        pairs.extend(zip(first[close].tolist(), second[close].tolist()))
    return sorted(pairs)


# --- JSON interchange -------------------------------------------------------
#
# The on-disk schema is fixed:
#   {"dim": int, "num_classes": int, "label_kind": str,
#    "prototypes": [{"position": [...], "label": [...]}, ...], "name": str}
# Class indices are 0-based; positions and labels are plain decimal numbers.


def to_json_dict(pset: PrototypeSet) -> dict:
    return {
        "dim": pset.dim,
        "num_classes": pset.num_classes,
        "label_kind": pset.label_kind.value,
        "prototypes": [
            {"position": p, "label": l} for p, l in zip(pset.positions.tolist(), pset.labels.tolist())
        ],
        "name": pset.name,
    }


def from_json_dict(data: dict) -> PrototypeSet:
    try:
        entries = data["prototypes"]
        pset = make_prototype_set(
            [entry["position"] for entry in entries],
            [entry["label"] for entry in entries],
            kind=LabelKind(data["label_kind"]),
            name=str(data.get("name", "")),
        )
        for key, actual in (("dim", pset.dim), ("num_classes", pset.num_classes)):
            require_integer(key, data[key])
            if data[key] != actual:
                raise ValueError(f"{key} is {data[key]!r} but the arrays give {actual}")
        return pset
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed prototype-set JSON: {exc}") from exc


def save_json(pset: PrototypeSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(pset), indent=2) + "\n")


def load_json(path: str | Path) -> PrototypeSet:
    try:
        data = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"malformed prototype-set JSON: {exc}") from exc
    return from_json_dict(data)
