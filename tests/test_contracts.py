"""Contracts with code outside the package: pinned output bytes and traced names."""

import ast
import dataclasses
import functools
import hashlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import softknn
from softknn import circle_hard_baseline, polygon_pairs, polygon_with_center, star_pairs
from softknn.cli import main
from softknn.landscape import pgm_bytes, ppm_bytes, rasterize, risk_render

REPO = Path(__file__).resolve().parents[1]

# The constructions of the benchmark's verify workload, each run as
# `softknn verify NAME ... --resolutions 256 --seed 0`, with the SHA-256 of
# the report it writes.
VERIFY_DIGESTS = {
    ("three_from_two",): "fabec467782f62f90dd40ae9d970ae931b005a01471b0c8b26d2f15f752b31fe",
    ("n_from_two", "--n", "12"): "8ccc33744d0c80407a7fa04e2a31436ca76033c58c74ea4c20bb28c1c57c2fd0",
    ("star_pairs", "--m", "8"): "217414197c00c14546b912bc7cc014580f15afeae5cc3c049d81ff387872b95e",
    ("polygon_pairs", "--m", "8"): "724158db1b79caaba391b62e373e1feaab66dc14a9942b73213276103e19d01b",
    ("polygon_with_center", "--m", "6"): "33f9ed4d4110e673b5634053594aaad98018909e7a7d04eb86564f00e006a2a9",
    ("concentric_ellipses", "--num-classes", "6"): "d0b9da06d2c211f2fbf6b85a84bf3469083259ae1db03b36f2985dd94bda735f",
    ("circle_soft_fit", "--n", "6"): "6d75a545ceb8825263530b951be785c71e0d8f4dcb55ead89062cd514a6d30e4",
}

# Verify reports whose ray check has one crossing, so the window past it is
# half the crossing radius again; run as VERIFY_DIGESTS are.
ONE_RADIUS_VERIFY_DIGESTS = {
    ("concentric_ellipses", "--num-classes", "2"): "2a772123088d7005a0b3e14522613e0e5fd6e66dbbdf433e32189fc037875041",
    ("circle_soft_fit", "--n", "2"): "d46d59ba549c853418eab0c127a3ffad79c083a0b4b98de3a86d8c2836cdd12f",
}

# `softknn circles --n 12 --mode MODE -o SET --report REPORT`: SHA-256 of SET and REPORT.
CIRCLES_12_DIGESTS = {
    "hard": (
        "31b91da613743f7dd31f27ec473897c1935905ce1d63029647a2f2ba1c733b87",
        "3d2b2d3de1bbb430a44d63f7a961fcc88ffc1ae99f636f1bfa207f1b53e02336",
    ),
    "soft": (
        "3d41d0435908628fdbcdf856f80cad4ff273a629fe0458736bf96faa5b628111",
        "85f22b376131e7c57546d5d66f740ac7cb3ad32890eb1f51d4ef6d0000ff9458",
    ),
}

# `softknn construct NAME ... -o SET`: SHA-256 of SET.
CONSTRUCT_DIGESTS = {
    ("three_from_two",): "f896586882213d21c7f38fc1c5b0ba4d17d56ba3a09fd190d1c80a38161c92da",
    ("three_from_two", "--spacing", "2"): "665418dca765d0d394615732c2543077455a07c96fadaeac7db5a5cfe049c12a",
    ("concentric_ellipses", "--num-classes", "6"): "c0020f3cb727023613eaeafa8903bbf3951ac3b19d7db13219a048c787a34aa2",
    ("circle_hard_baseline", "--n", "20"): "1c3e621564f1979f57a5c1f2c31ba97f6ca707be60c8dd5ea14628857a7c1fc6",
    # One circle: five prototypes with the one-class label 1, no fit.
    ("circle_soft_fit", "--n", "1"): "ba430890d670a4c668e01d88b0dc355e0912fda6b9005f4fbe1703aa0b2bd478",
}

# SHA-256 over `positions.tobytes()` then `labels.tobytes()` of each ring
# construction, in the order `_ring_builds` makes them.
RING_ARRAYS_DIGEST = "f63bff4ff1fdf4f5019f1fe972d6e62dee23a6cd05fd5159f756940fa638e3e7"


def _ring_builds() -> list:
    builds = [star_pairs(m, 1.7) for m in range(2, 40)]
    builds += [polygon_pairs(m, 0.3) for m in range(3, 40)]
    builds += [polygon_with_center(m) for m in range(4, 40)]
    builds += [circle_hard_baseline(n, c) for n in range(1, 30) for c in (0.37, 1.0, 2.5)]
    return builds


# One construction per selection path of the kernel, rasterized at 256x256
# over its default bounds with k = required_k: SHA-256 of the PPM bytes and
# of the clip-mode and log-mode risk PGM bytes.
RASTER_256_DIGESTS = {
    "circle_hard_baseline-6-k1": (
        lambda: circle_hard_baseline(6),
        "ace6504bf209fe5e317306bc636c8d5dff6df5af5a003ed6d8efd710dfa69e36",
        "e687c1f06aae0267e282047e47161c354de37353e790c4d5856893945cdc77ba",
        "9547c33becae0cc9f7e4058b76113444b747cc1267a403c889f5790ecac51510",
    ),
    "polygon_pairs-8-sorted": (
        lambda: polygon_pairs(8),
        "49a6a6591755547536df2630b2ef12ce84e4c195d721fa0f9996157f6528a32d",
        "6e57d33f2fc6fa42f84661ebe261c247e5ace4cacfae40fdcb91ecc6e3354c05",
        "4e77b86b9f88e97680c43e3cd102fd966dba0697edbd572687395e9838e593ce",
    ),
    "polygon_with_center-8-kM": (
        lambda: polygon_with_center(8),
        "f4ffcaf33ea0f284047a334fd4d53116bee72722a26757ce50af59dd2c7affef",
        "4465e9e689309f094f619707aae840ac46ec38d04203d1bcf299ed38eae4b2e6",
        "ae9b0f35c096e4d74ed39603587e16328385d7fef1c787979c2eae84a5b4895a",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# These digests guard the ROADMAP's contract that verify reports (and the
# circle outputs) stay byte-identical while the code under them changes.
@pytest.mark.parametrize("target", list(VERIFY_DIGESTS), ids=lambda t: t[0])
def test_verify_report_bytes_pinned(tmp_path, target):
    report = tmp_path / "report.json"
    argv = ["verify", *target, "--resolutions", "256", "--seed", "0", "--report", str(report)]
    assert main(argv) == 0
    assert sha256(report) == VERIFY_DIGESTS[target]


@pytest.mark.parametrize("target", list(ONE_RADIUS_VERIFY_DIGESTS), ids=lambda t: t[0])
def test_one_radius_report_bytes_pinned(tmp_path, target):
    report = tmp_path / "report.json"
    argv = ["verify", *target, "--resolutions", "256", "--seed", "0", "--report", str(report)]
    assert main(argv) == 0
    assert sha256(report) == ONE_RADIUS_VERIFY_DIGESTS[target]


def test_ring_construction_arrays_pinned():
    # Every prototype position and label of the ring constructions, bit for bit.
    builds = _ring_builds()
    assert len(builds) == 198
    digest = hashlib.sha256()
    for cons in builds:
        digest.update(cons.set.positions.tobytes())
        digest.update(cons.set.labels.tobytes())
    assert digest.hexdigest() == RING_ARRAYS_DIGEST


def test_circles_soft_bytes_pinned(tmp_path):
    _check_circles_bytes(tmp_path, "soft")


def test_circles_hard_bytes_pinned(tmp_path):
    _check_circles_bytes(tmp_path, "hard")


def _check_circles_bytes(tmp_path, mode):
    out, report = tmp_path / "set.json", tmp_path / "report.json"
    argv = ["circles", "--n", "12", "--mode", mode, "-o", str(out), "--report", str(report)]
    assert main(argv) == 0
    assert (sha256(out), sha256(report)) == CIRCLES_12_DIGESTS[mode]


@pytest.mark.parametrize("target", list(CONSTRUCT_DIGESTS), ids="-".join)
def test_construct_bytes_pinned(tmp_path, target):
    out = tmp_path / "set.json"
    assert main(["construct", *target, "-o", str(out)]) == 0
    assert sha256(out) == CONSTRUCT_DIGESTS[target]


@pytest.mark.parametrize("case", list(RASTER_256_DIGESTS))
def test_raster_bytes_pinned(case):
    build, ppm_digest, pgm_digest, log_pgm_digest = RASTER_256_DIGESTS[case]
    cons = build()
    grid = rasterize(cons.set, cons.required_k, None, 256, 256)
    assert hashlib.sha256(ppm_bytes(grid)).hexdigest() == ppm_digest
    assert hashlib.sha256(pgm_bytes(risk_render(grid, "clip"))).hexdigest() == pgm_digest
    assert hashlib.sha256(pgm_bytes(risk_render(grid, "log"))).hexdigest() == log_pgm_digest


def _traced_names() -> tuple:
    # Read TRACED from the benchmark's tracer source without importing it.
    tree = ast.parse((REPO / "perfbench" / "bench_trace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in perfbench/bench_trace.py")


def test_traced_functions_exist():
    # The tracer looks every name up with getattr, so a deleted or renamed
    # function would break `perfbench/run.py --trace 1`.
    names = _traced_names()
    assert names
    missing = [f"{mod}.{fn}" for mod, fn in names if not callable(getattr(getattr(softknn, mod, None), fn, None))]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # The package re-exports names from __init__.py; every other module
    # must use what it imports.
    modules = sorted(p for p in (REPO / "src" / "softknn").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for p in modules for entry in _unused_imports(p)] == []


def _third_party_imports(paths) -> set[str]:
    """Top-level modules that absolute imports in ``paths`` name, minus the standard library and softknn."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"softknn"}


def _requirements(project: dict, extra: str | None = None) -> set[str]:
    reqs = project["dependencies"] if extra is None else project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in reqs}


def test_imports_match_declared_dependencies():
    # The package imports exactly its runtime dependencies; the tests may
    # also import the test extra (scipy is the region labeller's oracle).
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    runtime = _requirements(project)
    assert _third_party_imports((REPO / "src" / "softknn").glob("*.py")) == runtime == {"numpy"}
    assert _third_party_imports((REPO / "tests").glob("*.py")) <= runtime | _requirements(project, "test")


def test_import_leaves_scipy_unloaded():
    code = "import sys, softknn, softknn.cli; print(sorted(m for m in ('scipy', 'hypothesis') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_risk_render_leaves_numpy_ma_unloaded():
    # np.percentile imports numpy.ma (1.1 MiB traced) on its first call; the clip ceiling does without it.
    code = (
        "import sys, softknn.cli; from softknn import rasterize, risk_render, three_from_two; "
        "grid = rasterize(three_from_two().set, 2, None, 32, 32); "
        "[risk_render(grid, mode) for mode in ('clip', 'log')]; print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_thread_pools_unloaded():
    # concurrent.futures and the logging it imports would lengthen every CLI start-up; nothing in the package uses them.
    code = "import sys, softknn.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return names


def test_no_unused_top_level_names():
    # Every top-level def, class or constant is used somewhere in the
    # package or re-exported by __init__.py; dunder names are exempt.
    package = REPO / "src" / "softknn"
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in _top_level_names(tree).items()
        if name not in used and name not in exported and not name.startswith("__")
    ]
    assert unused == []


def _unread_parameters(path: Path) -> list[str]:
    """Every parameter of a function or lambda in ``path`` that its body, nested scopes included, never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread.extend(f"{path.name}:{node.lineno}: {name}({a.arg})" for a in params if a.arg not in read)
    return unread


def test_no_unread_parameters(tmp_path):
    # A parameter that no caller's value reaches is an unused one.
    sample = tmp_path / "sample.py"
    sample.write_text("def f(a, *b, c, **d):\n    def g():\n        return a, c\n    return g\n\nh = lambda x, y: y\n")
    assert _unread_parameters(sample) == ["sample.py:1: f(b)", "sample.py:1: f(d)", "sample.py:6: <lambda>(x)"]
    modules = sorted((REPO / "src" / "softknn").glob("*.py"))
    assert modules
    assert [entry for p in modules for entry in _unread_parameters(p)] == []


# Public names, class members and dataclass fields that no module of the
# package (outside __init__.py) and no bench script reads, each with the
# reason it stays public.
UNREAD_PUBLIC_NAMES = {
    "classify_batch": "perfbench/bench_trace.py wraps it through its name string, so it goes with that tracer",
    "RasterGrid.cell_centers_x": "acceptance tests 9 and 10 rebuild the raster's exact cell centres from it",
    "RasterGrid.cell_centers_y": "acceptance test 10 rebuilds the raster's exact cell centres from it",
    "transformed_set": "the invariance tests compare the stacked rigid motions against it",
    "scaled_label_set": "the invariance tests compare the stacked label scalings against it",
    "shifted_label_set": "the invariance tests compare the stacked label shifts against it",
    "verify_hard_label_oracle": "acceptance test 8 runs it",
    "label_violations": "it is the one check of a lone label row",
    "RadialFit.realized": "test_realized_crossings_pinned pins the measured crossings bit for bit",
    "RasterGrid.exact_hits": "the raster tests check which cells hit a prototype",
}


def _public_names() -> list[str]:
    """``softknn.__all__`` without its submodules, then each exported class's own public methods, properties and dataclass fields as ``Class.name``."""
    names = []
    for name in softknn.__all__:
        obj = getattr(softknn, name)
        if inspect.ismodule(obj):
            continue
        names.append(name)
        if inspect.isclass(obj):
            names.extend(
                f"{name}.{attr}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and isinstance(member, (types.FunctionType, classmethod, staticmethod, property, functools.cached_property))
            )
        if dataclasses.is_dataclass(obj):
            names.extend(f"{name}.{f.name}" for f in dataclasses.fields(obj) if not f.name.startswith("_"))
    return names


def test_every_public_name_has_a_reader():
    # A public name that nothing in the package or the bench reads is dead
    # code that only its own tests keep alive.
    sources = [p for p in sorted((REPO / "src" / "softknn").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((REPO / "perfbench").glob("*.py"))
    names, attributes = set(), set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    # A class member is read as an attribute: a local variable of the same name does not read it.
    unread = {
        name for name in _public_names()
        if name.rpartition(".")[2] not in (attributes if "." in name else names | attributes)
    }
    # Either a new name without a reader, or a kept one that gained a reader or went.
    assert sorted(unread ^ UNREAD_PUBLIC_NAMES.keys()) == []
