"""Command-line interface: subcommands, file outputs, and determinism."""

import json

import pytest

from softknn import cli, landscape
from softknn.cli import main
from softknn.core import load_json


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def pair_json(tmp_path):
    path = tmp_path / "pair.json"
    assert run("construct", "three_from_two", "--spacing", "3", "-o", str(path)) == 0
    return path


def test_parser_built_once(pair_json, monkeypatch, capsys):
    # Every call parses with the one parser of the process instead of building its own.
    assert cli.build_parser() is cli.build_parser()

    def forbidden(*args, **kwargs):
        raise AssertionError("built another parser")

    monkeypatch.setattr("argparse.ArgumentParser", forbidden)
    assert run("classify", "-s", str(pair_json), "-k", "2", "-x", "0.5,0") == 0
    assert run("verify", str(pair_json)) == 0
    assert run("classify", "-s", str(pair_json)) == 2  # a usage error leaves the parser reusable
    assert run("verify", str(pair_json)) == 0


class TestConstruct:
    def test_n_from_two_labels(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        assert run("construct", "n_from_two", "--n", "4", "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["num_classes"] == 4
        assert data["prototypes"][0]["label"] == [6 / 14, 5 / 14, 3 / 14, 0.0]
        assert "reproducibility" not in capsys.readouterr().err

    def test_identical_argv_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("construct", "star_pairs", "--m", "4", "-o", str(a))
        run("construct", "star_pairs", "--m", "4", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_echoes_repro_line(self, tmp_path, capsys):
        run("construct", "three_from_two", "-o", str(tmp_path / "x.json"))
        out = capsys.readouterr().out
        assert out.startswith("# softknn")
        assert "construct three_from_two" in out


class TestClassify:
    def test_exact_hit_at_prototype(self, pair_json, capsys):
        assert run("classify", "-s", str(pair_json), "-k", "2", "-x", "0,0") == 0
        out = capsys.readouterr().out
        assert "class: 0" in out
        assert "exact_hit: true" in out
        assert "confidence: inf" in out

    def test_scores_printed(self, pair_json, capsys):
        assert run("classify", "-s", str(pair_json), "-k", "2", "-x", "0.5,0") == 0
        out = capsys.readouterr().out
        score_line = next(line for line in out.splitlines() if line.startswith("scores:"))
        scores = [float(v) for v in score_line.split()[1:]]
        assert scores == pytest.approx([1.2, 0.96, 0.24], abs=1e-12)
        assert "class: 0" in out


class TestRaster:
    def test_writes_the_bytes_of_rasterize_and_the_exports(self, pair_json, tmp_path):
        target = tmp_path / "map.ppm"
        code = run(
            "raster", "-s", str(pair_json), "-k", "2", "--res", "128x96",
            "--bounds=-1,4,-2,2", "--risk", "log", "--csv", "-o", str(target),
        )
        assert code == 0
        grid = landscape.rasterize(load_json(pair_json), 2, (-1.0, 4.0, -2.0, 2.0), 128, 96)
        assert target.read_bytes() == landscape.ppm_bytes(grid)
        assert target.with_suffix(".pgm").read_bytes() == landscape.pgm_bytes(landscape.risk_render(grid, "log"))
        assert target.with_suffix(".csv").read_bytes() == landscape.class_csv_bytes(grid)
        assert target.with_suffix(".confidence.csv").read_bytes() == landscape.confidence_csv_bytes(grid)

    def test_partitions_flag_refused(self, pair_json, tmp_path, capsys):
        target = tmp_path / "m.ppm"
        code = run("raster", "-s", str(pair_json), "-k", "2", "--res", "32x32", "--partitions", "4", "-o", str(target))
        assert code == 2
        assert "unrecognized arguments: --partitions 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [pair_json]

    def test_reports_distinct_classes(self, pair_json, tmp_path, capsys):
        run(
            "raster", "-s", str(pair_json), "-k", "2", "--res", "96x96",
            "-o", str(tmp_path / "m.ppm"),
        )
        assert "distinct classes: 3" in capsys.readouterr().out

    def test_refused_percentile_writes_no_file(self, pair_json, tmp_path, capsys):
        target = tmp_path / "m.ppm"
        code = run(
            "raster", "-s", str(pair_json), "-k", "2", "--res", "32x32",
            "--risk", "clip", "--percentile", "40", "-o", str(target),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [pair_json]  # neither the PPM nor the PGM


class TestVerify:
    def test_named_construction_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(
            "verify", "polygon_pairs", "--m", "5", "--trials", "5",
            "--resolutions", "128,256", "--report", str(report_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS class_count" in out
        assert "overall: PASS" in out
        data = json.loads(report_path.read_text())
        assert data["pass"] is True
        count = next(c for c in data["checks"] if c["name"] == "class_count")
        assert count["observed"] == {"128": 10, "256": 10}

    def test_set_file_validation(self, pair_json, capsys):
        assert run("verify", str(pair_json)) == 0
        assert "PASS validate" in capsys.readouterr().out

    def test_invalid_set_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "num_classes": 2,
                    "label_kind": "probabilistic",
                    "prototypes": [
                        {"position": [0.0, 0.0], "label": [0.9, 0.9]},
                        {"position": [0.0, 0.0], "label": [0.5, 0.5]},
                    ],
                    "name": "bad",
                }
            )
        )
        assert run("verify", str(bad)) == 1
        assert "FAIL validate" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(
                json.dumps(
                    {
                        "dim": 2,
                        "num_classes": 2,
                        "label_kind": "probabilistic",
                        "prototypes": [
                            {"position": [0.0, 0.0], "label": [0.5, 0.5]},
                            {"position": [1.0, 0.0, 2.0], "label": [0.5, 0.5]},
                        ],
                        "name": "ragged",
                    }
                ).encode(),
                id="ragged-rows",
            ),
            pytest.param(
                json.dumps(
                    {
                        "dim": 2.7,
                        "num_classes": 2,
                        "label_kind": "probabilistic",
                        "prototypes": [
                            {"position": [0.0, 0.0], "label": [0.5, 0.5]},
                            {"position": [1.0, 0.0], "label": [0.5, 0.5]},
                        ],
                        "name": "float-dim",
                    }
                ).encode(),
                id="float-dim",
            ),
            pytest.param(b"not json", id="not-json"),
            pytest.param(b'{"name": "\xff\xfe"}', id="not-utf8"),
        ],
    )
    def test_ragged_set_file_is_malformed(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run("verify", str(bad)) == 2
        assert "error: malformed prototype-set JSON" in capsys.readouterr().err


class TestSweepK:
    def test_writes_per_k_outputs(self, pair_json, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        code = run(
            "sweep-k", "-s", str(pair_json), "--k", "1..2", "--res", "64x64",
            "-o", str(outdir),
        )
        assert code == 0
        assert (outdir / "k01.ppm").exists()
        assert (outdir / "k02.ppm").exists()
        regions = json.loads((outdir / "k01_regions.json").read_text())
        assert regions["distinct_classes"] == 2
        summary = json.loads((outdir / "summary.json").read_text())
        assert [entry["k"] for entry in summary] == [1, 2]
        assert [entry["distinct_classes"] for entry in summary] == [2, 3]


class TestCircles:
    def test_hard_mode(self, tmp_path, capsys):
        out = tmp_path / "circles.json"
        code = run("circles", "--n", "2", "--mode", "hard", "--samples", "500", "-o", str(out))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS circle_separation" in stdout
        data = json.loads(out.read_text())
        assert data["label_kind"] == "hard"
        assert data["num_classes"] == 2

    def test_soft_mode_with_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = run(
            "circles", "--n", "3", "--mode", "soft", "--samples", "500", "--report", str(report)
        )
        assert code == 0
        assert "fit residual" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["pass"] is True

    def test_hard_mode_at_forty_circles(self, capsys):
        # 2594 hard prototypes against 400 000 samples: brute force took
        # seconds, per-tile culling keeps a few dozen prototypes per tile.
        assert run("circles", "--n", "40", "--mode", "hard") == 0
        stdout = capsys.readouterr().out
        assert "prototypes: 2594" in stdout
        assert "PASS circle_separation: 0 misclassified" in stdout


class TestErrors:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run("frobnicate") == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_construction_parameter(self, tmp_path):
        assert run("construct", "three_from_two", "--n", "4", "-o", str(tmp_path / "x.json")) == 2

    def test_missing_file_surfaces_error(self, tmp_path, capsys):
        assert run("raster", "-s", str(tmp_path / "nope.json"), "-k", "2", "-o", str(tmp_path / "x.ppm")) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["circles", "--n", "3", "--samples", "0"], id="circles-no-samples"),
            pytest.param(["verify", "three_from_two", "--trials", "0", "--resolutions", "64"], id="verify-no-trials"),
        ],
    )
    def test_vacuous_check_refused(self, argv, capsys):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify", "three_from_two", "--trials", "0"], id="verify-no-trials"),
            pytest.param(["circles", "--n", "12", "--mode", "hard", "--samples", "0"], id="circles-no-samples"),
        ],
    )
    def test_refused_before_any_work(self, argv, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr("softknn.harness.rasterize", forbidden)
        monkeypatch.setattr("softknn.constructions.circle_hard_baseline", forbidden)
        assert run(*argv) == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["construct", "n_from_two", "--n", "3", "--spacing", "inf"], "spacing must be finite", id="spacing"),
            pytest.param(["construct", "star_pairs", "--m", "4", "--radius", "1e-300"], "must be distinct", id="radius"),
            pytest.param(["circles", "--n", "3", "--mode", "soft", "--c", "1e307"], "miss their target crossings", id="fit"),
        ],
    )
    def test_degenerate_geometry_refused(self, argv, message, tmp_path, capsys):
        # The spacing used to exit 0 with Infinity in the JSON, and the
        # failed fit to end in a RadialFitError traceback with exit 1.
        out = tmp_path / "f.json"
        assert run(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "256,,512"], ids=["empty", "empty-part"])
    def test_malformed_resolutions_named(self, text, capsys):
        assert run("verify", "three_from_two", "--resolutions", text) == 2
        assert "argument --resolutions:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1", "0", "256,1"])
    def test_small_resolution_refused_before_build(self, text, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("built the construction before the resolutions were checked")

        monkeypatch.setattr("softknn.constructions.build_named", forbidden)
        assert run("verify", "circle_hard_baseline", "--n", "12", "--resolutions", text) == 2
        assert "argument --resolutions:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["classify", "-s", "set.json", "-k", "2", "-x", "1,a"],
                "argument -x/--point: expected comma-separated numbers, got '1,a'",
                id="point",
            ),
            pytest.param(
                ["raster", "-s", "set.json", "-k", "2", "--bounds=a,b,c,d", "-o", "out.ppm"],
                "argument --bounds: bounds must be xmin,xmax,ymin,ymax, got 'a,b,c,d'",
                id="bounds-not-numbers",
            ),
            pytest.param(
                ["raster", "-s", "set.json", "-k", "2", "--bounds=1,2,3", "-o", "out.ppm"],
                "argument --bounds: bounds must be xmin,xmax,ymin,ymax, got '1,2,3'",
                id="bounds-three-numbers",
            ),
            pytest.param(
                ["raster", "-s", "set.json", "-k", "2", "--res", "12", "-o", "out.ppm"],
                "argument --res: resolution must look like 512x512",
                id="res",
            ),
            pytest.param(
                ["raster", "-s", "set.json", "-k", "2", "--res", "axb", "-o", "out.ppm"],
                "argument --res: resolution must look like 512x512, got 'axb'",
                id="res-not-numbers",
            ),
            pytest.param(
                ["sweep-k", "-s", "set.json", "--k", "a..3", "-o", "out"],
                'argument --k: k must be a range "1..5" or a list "1,3,5", got \'a..3\'',
                id="k-range",
            ),
            pytest.param(
                ["sweep-k", "-s", "set.json", "--k", "1,x", "-o", "out"],
                'argument --k: k must be a range "1..5" or a list "1,3,5", got \'1,x\'',
                id="k-list",
            ),
        ],
    )
    def test_malformed_argument_named(self, argv, message, capsys):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "_parse" not in err

    def test_empty_k_range_refused(self, pair_json, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        assert run("sweep-k", "-s", str(pair_json), "--k", "5..1", "-o", str(outdir)) == 2
        assert "empty k range" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_k_refused_before_any_raster(self, pair_json, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("rasterized before every k was checked")

        monkeypatch.setattr("softknn.landscape.rasterize", forbidden)
        outdir = tmp_path / "sweep"
        assert run("sweep-k", "-s", str(pair_json), "--k", "1,3", "-o", str(outdir)) == 2
        assert "out of range" in capsys.readouterr().err
        assert not outdir.exists()

    def test_k_out_of_range_reported(self, pair_json, capsys):
        assert run("classify", "-s", str(pair_json), "-k", "9", "-x", "0,0") == 2
        assert "out of range" in capsys.readouterr().err
