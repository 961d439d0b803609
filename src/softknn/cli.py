"""Command-line front end.

Subcommands tie the pieces into reproducible runs:

* ``construct``: emit a named prototype configuration as JSON.
* ``classify``: score one point against a saved set.
* ``raster``: rasterize a decision landscape to PPM (optionally a risk
  PGM and CSV dumps).
* ``verify``: run the verification harness on a named construction, or
  structural validation on a saved set.
* ``sweep-k``: rasterize the same set across a range of k values.
* ``circles``: build and check a concentric-circle separation, with hard
  prototypes on every circle or five fitted soft ones.

Every run starts by echoing a reproducibility line with the arguments,
seed, and tool version. Identical argv produces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import constructions, core, harness, landscape
from .classifier import classify


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bounds must be xmin,xmax,ymin,ymax, got {text!r}") from exc
    return xmin, xmax, ymin, ymax


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"resolution must look like 512x512, got {text!r}") from exc


def _parse_resolutions(text: str) -> tuple[int, ...]:
    try:
        resolutions = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if min(resolutions) < 2:
        raise argparse.ArgumentTypeError(f"every resolution must be at least 2, got {text!r}")
    return resolutions


def _parse_k_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        ks = list(range(int(lo), int(hi) + 1)) if dots else [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f'k must be a range "1..5" or a list "1,3,5", got {text!r}') from exc
    if not ks:
        raise argparse.ArgumentTypeError(f"empty k range {text!r}")
    return ks


def _construction_params(args: argparse.Namespace) -> dict:
    params = {}
    for key in ("spacing", "n", "m", "radius", "circumradius", "num_classes", "c"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _echo_repro(args: argparse.Namespace, argv: list[str]) -> None:
    seed = getattr(args, "seed", None)
    print(f"# softknn {__version__} | argv: {' '.join(argv)} | seed: {seed}")


def _add_construction_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spacing", type=float, help="prototype spacing (segment constructions)")
    parser.add_argument("--n", type=int, help="class count / circle count")
    parser.add_argument("--m", type=int, help="prototype count (star and polygon constructions)")
    parser.add_argument("--radius", type=float, help="spoke length for star_pairs")
    parser.add_argument("--circumradius", type=float, help="circumradius for polygon_pairs")
    parser.add_argument("--num-classes", dest="num_classes", type=int, help="band count for concentric_ellipses")
    parser.add_argument("--c", type=float, help="radial gap between circles")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call; every caller shares it unchanged."""
    parser = argparse.ArgumentParser(prog="softknn", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"softknn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named prototype configuration as JSON")
    p.add_argument("name", choices=sorted(constructions.REGISTRY))
    _add_construction_params(p)
    p.add_argument("-o", "--output", required=True, help="output JSON path")

    p = sub.add_parser("classify", help="classify one point against a saved set")
    p.add_argument("-s", "--set", required=True, help="prototype-set JSON")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-x", "--point", type=_parse_point, required=True, help='query point "x,y"')

    p = sub.add_parser("raster", help="rasterize a decision landscape to PPM")
    p.add_argument("-s", "--set", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--bounds", type=_parse_bounds, help="xmin,xmax,ymin,ymax (default: padded bbox)")
    p.add_argument("--res", type=_parse_resolution, default=(512, 512), help="WxH, default 512x512")
    p.add_argument("--risk", choices=["clip", "log"], help="also write a risk PGM in this mode")
    p.add_argument("--percentile", type=float, default=99.0, help="clip percentile (default 99)")
    p.add_argument("--csv", action="store_true", help="also dump class and confidence CSVs")
    p.add_argument("-o", "--output", required=True, help="output PPM path")

    p = sub.add_parser("verify", help="verify a named construction or validate a set file")
    p.add_argument("target", help="construction name or prototype-set JSON path")
    _add_construction_params(p)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--resolutions", type=_parse_resolutions, default="512,1024", help="comma-separated raster resolutions"
    )

    p = sub.add_parser("sweep-k", help="rasterize the same set for a range of k")
    p.add_argument("-s", "--set", required=True)
    p.add_argument("--k", dest="k_range", type=_parse_k_range, required=True, help='range "1..5" or list "1,3,5"')
    p.add_argument("--res", type=_parse_resolution, default=(512, 512))
    p.add_argument("--bounds", type=_parse_bounds)
    p.add_argument("-o", "--output", required=True, help="output directory")

    p = sub.add_parser("circles", help="separate concentric circles with hard or soft prototypes")
    p.add_argument("--n", type=int, default=6, help="number of circles")
    p.add_argument("--mode", choices=["hard", "soft"], default="hard")
    p.add_argument("--c", type=float, default=1.0, help="radial gap between circles")
    p.add_argument("--samples", type=int, default=harness.SAMPLES_PER_CIRCLE, help="separation samples per circle")
    p.add_argument("-o", "--output", help="write the prototype set JSON here")
    p.add_argument("--report", help="write the JSON report here")

    return parser


def _cmd_construct(args) -> int:
    cons = constructions.build_named(args.name, **_construction_params(args))
    core.save_json(cons.set, args.output)
    print(f"wrote {args.output}: {len(cons.set)} prototypes, {cons.claimed_classes} classes, k={cons.required_k}")
    return 0


def _cmd_classify(args) -> int:
    pset = core.load_json(args.set)
    result = classify(pset, args.k, args.point)
    print(f"scores: {' '.join(repr(float(s)) for s in result.scores)}")
    print(f"class: {result.predicted}")
    print(f"confidence: {result.confidence!r}")
    print(f"exact_hit: {str(result.exact_hit).lower()}")
    return 0


def _cmd_raster(args) -> int:
    pset = core.load_json(args.set)
    width, height = args.res
    grid = landscape.rasterize(pset, args.k, args.bounds, width, height)
    # Render the risk map first, so that a refused percentile writes no file.
    intensity = landscape.risk_render(grid, mode=args.risk, percentile=args.percentile) if args.risk else None
    landscape.write_ppm(grid, args.output)
    written = [args.output]
    base = Path(args.output)
    if args.risk:
        pgm = base.with_suffix(".pgm")
        landscape.write_pgm(intensity, pgm)
        written.append(str(pgm))
    if args.csv:
        classes_csv = base.with_suffix(".csv")
        conf_csv = base.with_suffix(".confidence.csv")
        classes_csv.write_bytes(landscape.class_csv_bytes(grid))
        conf_csv.write_bytes(landscape.confidence_csv_bytes(grid))
        written += [str(classes_csv), str(conf_csv)]
    report = landscape.region_report(grid)
    print(f"distinct classes: {report.distinct_classes}")
    print(f"wrote {', '.join(written)}")
    return 0


def _cmd_verify(args) -> int:
    target = args.target
    if target in constructions.REGISTRY:
        harness.require_positive("--trials", args.trials)
        cons = constructions.build_named(target, **_construction_params(args))
        report = harness.standard_report(
            target, cons, resolutions=args.resolutions, trials=args.trials, seed=args.seed
        )
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {check.name}: observed {_brief(check.observed)} expected {_brief(check.expected)}")
        if args.report:
            report.save(args.report)
            print(f"wrote {args.report}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
        return 0 if report.passed else 1
    # A file path: structural validation only, since a bare set carries no claims.
    pset = core.load_json(target)
    errors = core.validate(pset)
    if errors:
        for err in errors:
            print(f"FAIL validate: {err}")
        return 1
    print(f"PASS validate: {len(pset)} prototypes, {pset.num_classes} classes, dim {pset.dim}")
    return 0


def _brief(value) -> str:
    text = json.dumps(value, default=str)
    return text if len(text) <= 120 else text[:117] + "..."


def _cmd_sweep_k(args) -> int:
    pset = core.load_json(args.set)
    width, height = args.res
    sweep = landscape.k_sweep(pset, args.k_range, args.bounds, width, height)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []
    for k, grid, report in sweep:
        ppm = outdir / f"k{k:02d}.ppm"
        regions = outdir / f"k{k:02d}_regions.json"
        landscape.write_ppm(grid, ppm)
        landscape.write_region_report(report, regions)
        summary.append({"k": k, "distinct_classes": report.distinct_classes})
        print(f"k={k}: {report.distinct_classes} classes -> {ppm}")
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_circles(args) -> int:
    harness.require_positive("--samples", args.samples)
    if args.mode == "hard":
        cons = constructions.circle_hard_baseline(args.n, args.c)
    else:
        cons = constructions.circle_soft_fit(args.n, args.c)
    check = harness.verify_circle_separation(cons, samples_per_circle=args.samples)
    print(f"prototypes: {len(cons.set)}")
    if cons.fit_residual is not None:
        print(f"fit residual: {cons.fit_residual:.3e}")
    status = "PASS" if check.passed else "FAIL"
    print(f"{status} circle_separation: {check.observed['total_misclassified']} misclassified")
    if args.output:
        core.save_json(cons.set, args.output)
        print(f"wrote {args.output}")
    if args.report:
        report = harness.VerificationReport(
            construction=f"circles_{args.mode}",
            params=dict(cons.params),
            checks=(check,),
            meta={"version": __version__, "samples_per_circle": args.samples},
        )
        report.save(args.report)
        print(f"wrote {args.report}")
    return 0 if check.passed else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _echo_repro(args, argv)
    handlers = {
        "construct": _cmd_construct,
        "classify": _cmd_classify,
        "raster": _cmd_raster,
        "verify": _cmd_verify,
        "sweep-k": _cmd_sweep_k,
        "circles": _cmd_circles,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, constructions.RadialFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
