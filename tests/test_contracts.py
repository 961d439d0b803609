"""Contracts with code outside the package: pinned output bytes and traced names."""

import ast
import hashlib
from pathlib import Path

import pytest

import softknn
from softknn import circle_hard_baseline, polygon_pairs, polygon_with_center
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


# One construction per selection path of the kernel, rasterized at 256x256
# over its default bounds with k = required_k: SHA-256 of the PPM bytes and
# of the clip-mode risk PGM bytes.
RASTER_256_DIGESTS = {
    "circle_hard_baseline-6-k1": (
        lambda: circle_hard_baseline(6),
        "ace6504bf209fe5e317306bc636c8d5dff6df5af5a003ed6d8efd710dfa69e36",
        "e687c1f06aae0267e282047e47161c354de37353e790c4d5856893945cdc77ba",
    ),
    "polygon_pairs-8-sorted": (
        lambda: polygon_pairs(8),
        "49a6a6591755547536df2630b2ef12ce84e4c195d721fa0f9996157f6528a32d",
        "6e57d33f2fc6fa42f84661ebe261c247e5ace4cacfae40fdcb91ecc6e3354c05",
    ),
    "polygon_with_center-8-kM": (
        lambda: polygon_with_center(8),
        "f4ffcaf33ea0f284047a334fd4d53116bee72722a26757ce50af59dd2c7affef",
        "4465e9e689309f094f619707aae840ac46ec38d04203d1bcf299ed38eae4b2e6",
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


def test_circles_soft_bytes_pinned(tmp_path):
    _check_circles_bytes(tmp_path, "soft")


def test_circles_hard_bytes_pinned(tmp_path):
    _check_circles_bytes(tmp_path, "hard")


def _check_circles_bytes(tmp_path, mode):
    out, report = tmp_path / "set.json", tmp_path / "report.json"
    argv = ["circles", "--n", "12", "--mode", mode, "-o", str(out), "--report", str(report)]
    assert main(argv) == 0
    assert (sha256(out), sha256(report)) == CIRCLES_12_DIGESTS[mode]


@pytest.mark.parametrize("case", list(RASTER_256_DIGESTS))
def test_raster_bytes_pinned(case):
    build, ppm_digest, pgm_digest = RASTER_256_DIGESTS[case]
    cons = build()
    grid = rasterize(cons.set, cons.required_k, None, 256, 256)
    assert hashlib.sha256(ppm_bytes(grid)).hexdigest() == ppm_digest
    assert hashlib.sha256(pgm_bytes(risk_render(grid, "clip"))).hexdigest() == pgm_digest


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
