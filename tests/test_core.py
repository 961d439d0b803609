"""Label model, validation, and JSON round-trips."""

import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import softknn
from softknn import (
    COINCIDENT_TOL,
    LabelKind,
    PrototypeSet,
    evaluate_points,
    exact_label,
    from_json_dict,
    label_violations,
    load_json,
    make_prototype_set,
    save_json,
    star_pairs,
    to_json_dict,
    validate,
)
from softknn.core import _coincident_pairs


class TestValidate:
    def test_valid_hard_set(self):
        pset = make_prototype_set(
            [(0.0, 0.0), (1.0, 0.0)],
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
            kind=LabelKind.HARD,
        )
        assert validate(pset) == []

    def test_negative_probabilistic_element(self):
        pset = make_prototype_set(
            [(0.0, 0.0)], np.array([[0.6, 0.6, -0.2]]), kind=LabelKind.PROBABILISTIC
        )
        errors = validate(pset)
        assert any("negative element" in e for e in errors)

    def test_duplicate_positions(self):
        pset = make_prototype_set(
            [(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)],
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
            kind=LabelKind.HARD,
        )
        assert validate(pset) == [
            "prototypes 0 and 1: duplicate position",
            "prototypes 0 and 2: duplicate position",
            "prototypes 1 and 2: duplicate position",
        ]

    def test_duplicate_scan_matches_pair_loop(self):
        rng = np.random.default_rng(5)
        positions = rng.integers(0, 4, size=(40, 2)).astype(float)
        pset = make_prototype_set(positions, np.ones((40, 1)), kind=LabelKind.UNRESTRICTED)
        expected = [
            f"prototypes {i} and {j}: duplicate position"
            for i in range(40)
            for j in range(i + 1, 40)
            if np.linalg.norm(positions[i] - positions[j]) < COINCIDENT_TOL
        ]
        assert expected
        assert validate(pset) == expected

    def test_probabilistic_sum_violation(self):
        assert any("sum" in v for v in label_violations(np.array([0.5, 0.4]), LabelKind.PROBABILISTIC))

    def test_hard_must_be_one_hot(self):
        assert label_violations(np.array([0.5, 0.5]), LabelKind.HARD)

    def test_non_finite_rejected(self):
        assert label_violations(np.array([np.inf, 0.0]), LabelKind.UNRESTRICTED) == ["non-finite element"]

    def test_dimension_mismatch_reported_with_index(self):
        with pytest.raises(ValueError, match="^prototype 1:"):
            make_prototype_set(
                [(0.0, 0.0), (1.0, 0.0, 3.0)],
                np.array([[1.0, 0.0], [0.0, 1.0]]),
                kind=LabelKind.HARD,
            )


def _pair_loop_validate(pset):
    """``validate`` as it was before the sorted duplicate scan: every pair, one numpy call per row."""
    errors = []
    pos = pset.positions
    for i, (position, label) in enumerate(zip(pos, pset.labels)):
        if not np.all(np.isfinite(position)):
            errors.append(f"prototype {i}: non-finite position")
        errors.extend(f"prototype {i}: {msg}" for msg in label_violations(label, pset.label_kind))
    if np.all(np.isfinite(pos)):
        for i in range(len(pos) - 1):
            close = np.linalg.norm(pos[i] - pos[i + 1 :], axis=1) < COINCIDENT_TOL
            errors.extend(f"prototypes {i} and {j}: duplicate position" for j in i + 1 + np.flatnonzero(close))
    return errors


class TestSortedDuplicateScan:
    """The sort-and-window duplicate scan reports what the all-pairs loop reported, in the same order."""

    @staticmethod
    def _planted(seed, m, dim, scale):
        # Random positions, then pairs planted just inside and just outside
        # the tolerance, a few exact copies, and a run sharing one sort key.
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-scale, scale, size=(m, dim))
        for factor in (0.5, 0.999, 0.999999, 1.0, 1.000001, 1.001, 2.0):
            i, j = rng.choice(m, size=2, replace=False)
            step = rng.normal(size=dim)
            pos[j] = pos[i] + factor * COINCIDENT_TOL * step / np.linalg.norm(step)
        for _ in range(3):
            i, j = rng.choice(m, size=2, replace=False)
            pos[j] = pos[i]
        run = rng.choice(m, size=6, replace=False)
        pos[run, 0] = pos[run[0], 0]
        return pos

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e4])
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_pairs(self, seed, dim, scale):
        pos = self._planted(seed, 60, dim, scale)
        pset = make_prototype_set(pos, np.ones((60, 1)), kind=LabelKind.UNRESTRICTED)
        expected = _pair_loop_validate(pset)
        assert validate(pset) == expected
        if scale == 1.0:
            assert any("duplicate" in e for e in expected)

    def test_clusters_within_tolerance(self):
        # Chains of points each within the tolerance of the next, so windows overlap.
        rng = np.random.default_rng(11)
        pos = np.repeat(rng.uniform(-1, 1, size=(8, 2)), 5, axis=0)
        pos += rng.uniform(-0.6, 0.6, size=pos.shape) * COINCIDENT_TOL
        pos = pos[rng.permutation(len(pos))]
        pset = make_prototype_set(pos, np.ones((len(pos), 1)), kind=LabelKind.UNRESTRICTED)
        assert validate(pset) == _pair_loop_validate(pset)

    def test_vertical_line_sorts_by_the_other_axis(self):
        pos = np.column_stack((np.zeros(30), np.arange(30.0)))
        pos[17] = pos[4]
        pset = make_prototype_set(pos, np.ones((30, 1)), kind=LabelKind.UNRESTRICTED)
        assert validate(pset) == _pair_loop_validate(pset) == ["prototypes 4 and 17: duplicate position"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_skip_the_scan(self, bad):
        pos = self._planted(3, 40, 2, 1.0)
        pos[[5, 21], 1] = bad
        pset = make_prototype_set(pos, np.ones((40, 1)), kind=LabelKind.UNRESTRICTED)
        expected = _pair_loop_validate(pset)
        assert validate(pset) == expected
        assert expected == ["prototype 5: non-finite position", "prototype 21: non-finite position"]

    def test_one_prototype(self):
        pset = make_prototype_set([(0.0, 0.0)], np.ones((1, 1)), kind=LabelKind.UNRESTRICTED)
        assert validate(pset) == []


def _row_label_violations(v, kind):
    """The per-row label check as it was before ``validate`` checked all rows at once."""
    if not np.all(np.isfinite(v)):
        return ["non-finite element"]
    out = []
    if kind == LabelKind.HARD:
        ones = int(np.count_nonzero(v == 1.0))
        zeros = int(np.count_nonzero(v == 0.0))
        if ones != 1 or zeros != len(v) - 1:
            out.append("hard label is not a one-hot vector")
    elif kind == LabelKind.PROBABILISTIC:
        if np.any(v < 0):
            out.append("negative element")
        if abs(float(v.sum()) - 1.0) > 1e-9:
            out.append(f"elements sum to {float(v.sum())!r}, not 1")
    return out


def _row_loop_validate(pset):
    """``validate`` with one label check per row."""
    errors = []
    for i, (position, label) in enumerate(zip(pset.positions, pset.labels)):
        if not np.all(np.isfinite(position)):
            errors.append(f"prototype {i}: non-finite position")
        errors.extend(f"prototype {i}: {msg}" for msg in _row_label_violations(label, pset.label_kind))
    if np.all(np.isfinite(pset.positions)):
        errors.extend(f"prototypes {i} and {j}: duplicate position" for i, j in _coincident_pairs(pset.positions))
    return errors


class TestLabelChecksAtOnce:
    """``validate`` checks every label row at once and reports what the per-row check reported, in the same order."""

    @staticmethod
    def _labels(rng, kind, m, c):
        # Valid rows of the kind, then rows broken in every way the check names.
        if kind == LabelKind.HARD:
            labels = np.eye(c)[rng.integers(0, c, size=m)]
        elif kind == LabelKind.PROBABILISTIC:
            labels = rng.dirichlet(np.full(c, 0.3), size=m) * rng.choice([1.0, 1.0 + 3e-10, 1.0 - 1.5e-9, 1.2], size=(m, 1))
        else:
            labels = rng.normal(scale=5.0, size=(m, c))
        for value in (np.nan, np.inf, -np.inf, -0.25, 1.0, 0.0, 0.5, 2.0, 1e300):
            rows = rng.choice(m, size=3, replace=False)
            labels[rows, rng.integers(0, c, size=3)] = value
        if c >= 2:  # a sum of inf and -inf must not warn
            labels[rng.integers(m), :2] = (np.inf, -np.inf)
        return labels

    @pytest.mark.parametrize("kind", list(LabelKind))
    @pytest.mark.parametrize("c", [1, 3, 9, 17, 130])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets(self, seed, c, kind):
        rng = np.random.default_rng([seed, c])
        m = 60
        pos = rng.uniform(-1, 1, size=(m, 2))
        pos[rng.integers(m)] = np.nan if seed % 2 else pos[rng.integers(m)]
        labels = self._labels(rng, kind, m, c)
        for order in ("C", "F"):  # F-ordered rows must still add up as row.sum() adds them
            pset = make_prototype_set(pos, np.array(labels, order=order), kind=kind)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert validate(pset) == _row_loop_validate(pset)
            for row in pset.labels[:12]:
                assert label_violations(row, kind) == _row_label_violations(row, kind)

    def test_sums_off_by_an_ulp_print_their_own_repr(self):
        # Twelve classes sum pairwise, not left to right; the message quotes the sum the row check took.
        rng = np.random.default_rng(5)
        labels = rng.dirichlet(np.ones(12), size=400) * (1.0 + rng.uniform(-2e-9, 2e-9, size=(400, 1)))
        pset = make_prototype_set(rng.uniform(size=(400, 2)), np.asfortranarray(labels))
        expected = _row_loop_validate(pset)
        assert validate(pset) == expected
        assert any("sum" in e for e in expected) and len(expected) < 400


class TestClassWeightSum:
    def test_star_totals_match_direct_addition(self):
        cons = star_pairs(3)
        # Independent oracle: per-class sums from the exact label fractions.
        expected = [Fraction(0)] * 5
        hub = {0: Fraction(3, 7), 3: Fraction(2, 7), 4: Fraction(2, 7)}
        tip0 = {1: Fraction(3, 5), 3: Fraction(2, 5)}
        tip1 = {2: Fraction(3, 5), 4: Fraction(2, 5)}
        for contrib in (hub, tip0, tip1):
            for cls, w in contrib.items():
                expected[cls] += w
        np.testing.assert_allclose(cons.set.labels.sum(axis=0), [float(f) for f in expected], atol=1e-15)


class TestImmutability:
    def test_label_and_set_arrays_are_read_only(self):
        pset = make_prototype_set(
            [(0.0, 0.0), (3.0, 0.0)], np.array([[0.6, 0.4], [0.4, 0.6]])
        )
        with pytest.raises(ValueError):
            pset.positions[0, 0] = 9.0
        with pytest.raises(ValueError):
            pset.labels[0, 0] = 9.0

    def test_exact_label_is_a_read_only_row(self):
        row = exact_label([Fraction(3, 5), Fraction(2, 5)])
        assert row.shape == (2,) and row.dtype == float
        with pytest.raises(ValueError):
            row[0] = 9.0


class TestShapes:
    @pytest.mark.parametrize(
        "positions, labels, shapes",
        [
            pytest.param(np.zeros(2), np.eye(2), "(2,) and (2, 2)", id="one-dimensional-positions"),
            pytest.param(np.zeros((3, 2)), np.eye(2), "(3, 2) and (2, 2)", id="row-counts-differ"),
        ],
    )
    def test_malformed_arrays_refused(self, positions, labels, shapes):
        message = f"need non-empty (M, dim) and (M, num_classes) arrays, got {shapes}"
        with pytest.raises(ValueError) as raised:
            PrototypeSet(positions, labels, LabelKind.UNRESTRICTED)
        assert str(raised.value) == message


    @pytest.mark.parametrize(
        "values, shape",
        [(np.ones((2, 2)), "(2, 2)"), ([], "(0,)"), (np.ones((1, 0)), "(1, 0)")],
        ids=["matrix", "empty", "empty-matrix"],
    )
    def test_label_and_position_must_be_vectors(self, values, shape):
        # A (2, 2) label used to be accepted, and label_violations then
        # raised IndexError; an empty one reached numpy's reductions.
        with pytest.raises(ValueError, match=rf"^label values must be a non-empty 1-D vector, got shape {re.escape(shape)}$"):
            label_violations(values, LabelKind.UNRESTRICTED)


class TestMemoryOrder:
    def test_fortran_ordered_input_is_stored_in_c_order(self):
        rng = np.random.default_rng(13)
        pos, labels = rng.uniform(-3, 3, size=(20, 2)), rng.normal(size=(20, 9))
        c_set = PrototypeSet(pos, labels, LabelKind.UNRESTRICTED)
        f_set = PrototypeSet(np.asfortranarray(pos), np.asfortranarray(labels), LabelKind.UNRESTRICTED)
        assert f_set.positions.flags.c_contiguous and f_set.labels.flags.c_contiguous
        points = rng.uniform(-4, 4, size=(300, 2))
        for k in (20, 3):  # the k = M path and the selecting path
            for got, want in zip(evaluate_points(f_set, k, points), evaluate_points(c_set, k, points)):
                assert got.tobytes() == want.tobytes()


class TestExactConstruction:
    def test_from_exact_checks_sum(self):
        with pytest.raises(ValueError, match="sum"):
            exact_label([Fraction(1, 2), Fraction(1, 3)])

    def test_from_exact_checks_sign(self):
        with pytest.raises(ValueError, match="non-negative"):
            exact_label([Fraction(3, 2), Fraction(-1, 2)])

    def test_from_exact_valid(self):
        label = exact_label([Fraction(3, 5), Fraction(2, 5)])
        assert label.tolist() == [0.6, 0.4]
        assert label_violations(label, LabelKind.PROBABILISTIC) == []

    def test_labels_are_rows_only(self):
        # A label is a row of the set's labels array; there is no label object.
        assert not hasattr(softknn, "SoftLabel") and not hasattr(softknn.core, "SoftLabel")


class TestJson:
    def _sample_set(self):
        return make_prototype_set(
            [(0.0, 0.0), (3.0, 0.0)],
            np.array([[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]]),
            name="sample",
        )

    def test_schema_field_names(self):
        data = to_json_dict(self._sample_set())
        assert list(data.keys()) == ["dim", "num_classes", "label_kind", "prototypes", "name"]
        assert data["dim"] == 2
        assert data["num_classes"] == 3
        assert data["label_kind"] == "probabilistic"
        assert list(data["prototypes"][0].keys()) == ["position", "label"]

    def test_round_trip(self, tmp_path):
        pset = self._sample_set()
        path = tmp_path / "set.json"
        save_json(pset, path)
        loaded = load_json(path)
        np.testing.assert_array_equal(loaded.positions, pset.positions)
        np.testing.assert_array_equal(loaded.labels, pset.labels)
        assert loaded.name == pset.name
        assert loaded.label_kind == LabelKind.PROBABILISTIC
        assert validate(loaded) == []

    def test_save_is_deterministic(self, tmp_path):
        pset = self._sample_set()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json(pset, a)
        save_json(pset, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda d: {"dim": 2}, id="missing-keys"),
            pytest.param(lambda d: d["prototypes"][1].update(position=["a", 0.0]), id="string-coordinate"),
            pytest.param(lambda d: d.update(label_kind="bogus"), id="unknown-kind"),
            pytest.param(lambda d: d.update(prototypes=[]), id="no-prototypes"),
            pytest.param(lambda d: d["prototypes"][1].update(position=[3.0, 0.0, 1.0]), id="ragged-positions"),
            pytest.param(lambda d: d["prototypes"][1].update(label=[0.5, 0.5]), id="ragged-labels"),
            pytest.param(lambda d: d.update(dim=3), id="dim-mismatch"),
            pytest.param(lambda d: d.update(num_classes=2), id="num-classes-mismatch"),
            pytest.param(lambda d: d.update(dim=2.7), id="float-dim"),
            pytest.param(lambda d: d.update(dim="2"), id="string-dim"),
            pytest.param(lambda d: d.update(num_classes=3.9), id="float-num-classes"),
        ],
    )
    def test_malformed_json_rejected(self, change):
        data = to_json_dict(self._sample_set())
        data = change(data) or data
        with pytest.raises(ValueError, match="^malformed prototype-set JSON: "):
            from_json_dict(data)

    @pytest.mark.parametrize(
        "key, value, shown",
        [("dim", 2.7, "2.7"), ("dim", "2", "'2'"), ("dim", True, "True"), ("num_classes", 3.9, "3.9")],
        ids=["float-dim", "string-dim", "bool-dim", "float-num-classes"],
    )
    def test_non_integer_counts_named(self, key, value, shown):
        # int() would truncate each of these to the arrays' own count.
        data = to_json_dict(self._sample_set())
        data[key] = value
        with pytest.raises(ValueError) as raised:
            from_json_dict(data)
        assert str(raised.value) == f"malformed prototype-set JSON: {key} must be an integer, got {shown}"

    @pytest.mark.parametrize(
        "positions, labels, message",
        [
            pytest.param(
                [(0.0, 0.0), (3.0, 0.0, 1.0)], np.eye(2),
                "prototype 1: position has length 3, expected 2", id="position",
            ),
            pytest.param(
                [(0.0, 0.0), (3.0, 0.0)], [(1.0, 0.0, 0.0), (0.0, 1.0)],
                "prototype 1: label has length 2, expected 3", id="label",
            ),
            pytest.param(
                [(0.0, 0.0), ((1, 2), (3, 4))], np.eye(2),
                "prototype 1: position has length 4, expected 2", id="nested",
            ),
        ],
    )
    def test_ragged_row_messages(self, positions, labels, message):
        with pytest.raises(ValueError) as raised:
            make_prototype_set(positions, labels, kind=LabelKind.HARD)
        assert str(raised.value) == message
        entries = [{"position": p, "label": list(l)} for p, l in zip(positions, labels)]
        data = {"label_kind": "hard", "dim": 2, "num_classes": 2, "prototypes": entries}
        with pytest.raises(ValueError) as raised:
            from_json_dict(data)
        assert str(raised.value) == f"malformed prototype-set JSON: {message}"

    def test_rows_that_do_not_stack_at_once(self):
        # A scalar and a one-element row are each one coordinate.
        pset = make_prototype_set([0.0, [1.0]], [[1.0, 0.0], np.array([0.0, 1.0])], kind=LabelKind.HARD)
        assert pset.positions.tolist() == [[0.0], [1.0]]
        assert pset.labels.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        scalars = make_prototype_set([0.0, 1.0], np.eye(2), kind=LabelKind.HARD)
        assert scalars.positions.tolist() == [[0.0], [1.0]]

    def test_flat_labels_are_one_class_column_as_array_or_list(self):
        # A 1-D array of labels was once read as one row of two classes and refused.
        from_array = make_prototype_set([[0, 0], [1, 0]], np.array([1.0, 2.0]), kind=LabelKind.UNRESTRICTED)
        from_list = make_prototype_set([[0, 0], [1, 0]], [1.0, 2.0], kind=LabelKind.UNRESTRICTED)
        assert from_array.labels.tolist() == from_list.labels.tolist() == [[1.0], [2.0]]
        assert from_array.positions.tobytes() == from_list.positions.tobytes()
        assert to_json_dict(from_array) == to_json_dict(from_list)

    def test_label_kind_round_trips_all_kinds(self, tmp_path):
        for kind in LabelKind:
            values = np.array([[1.0, 0.0]]) if kind == LabelKind.HARD else np.array([[0.25, 0.75]])
            if kind == LabelKind.UNRESTRICTED:
                values = np.array([[-1.5, 2.0]])
            pset = make_prototype_set([(0.0, 1.0)], values, kind=kind)
            path = tmp_path / f"{kind.value}.json"
            save_json(pset, path)
            assert json.loads(path.read_text())["label_kind"] == kind.value
            assert load_json(path).label_kind == kind
