"""The benchmark workloads as lists of jobs with output checks.

A job's ``run`` is the timed work; ``prepare`` (clearing stale outputs)
and ``check`` run outside the timed region. ``check`` returns ``None`` when
the output is correct and a message otherwise. Jobs call softknn only
through public functions and the in-process ``softknn.cli.main``, looked
up at call time so that traced bindings are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] = lambda: None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def region_json_bytes(report) -> bytes:
    """The bytes ``softknn.landscape.write_region_report`` writes."""
    return (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()


def _digest_check(expected: dict):
    def check(outputs: dict) -> str | None:
        bad = [key for key, data in outputs.items() if sha256(data) != expected.get(key)]
        return f"SHA-256 mismatch for {', '.join(bad)}" if bad else None

    return check


def _cli(sk, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return sk.cli.main(argv)


def landscape_jobs(sk, spec: dict, expected: dict, seed: int, tmp: Path) -> list[Job]:
    jobs = []
    for job in spec["jobs"]:
        cons = sk.constructions.build_named(job["construction"], **job["params"])
        res = job["res"]

        def run(cons=cons, res=res):
            grid = sk.landscape.rasterize(cons.set, cons.required_k, width=res, height=res)
            report = sk.landscape.region_report(grid)
            risk = sk.landscape.risk_render(grid, "clip")
            return report, {"ppm": sk.landscape.ppm_bytes(grid), "pgm": sk.landscape.pgm_bytes(risk)}

        def check(out, cons=cons, digests=_digest_check(expected[job["name"]])):
            report, data = out
            if report.distinct_classes != cons.claimed_classes:
                return f"{report.distinct_classes} classes, claimed {cons.claimed_classes}"
            return digests({**data, "region_json": region_json_bytes(report)})

        jobs.append(Job(job["name"], run, check))
    return jobs


def verify_jobs(sk, spec: dict, expected: dict, seed: int, tmp: Path) -> list[Job]:
    jobs = []
    for i, job in enumerate(spec["jobs"]):
        report = tmp / f"verify-{i}.json"
        argv = [*job["argv"], "--report", str(report), "--seed", str(seed)]

        def check(code, report=report):
            if code != 0:
                return f"exit code {code}"
            if json.loads(report.read_text()).get("pass") is not True:
                return "report does not say pass"
            return None

        clear = lambda report=report: report.unlink(missing_ok=True)  # noqa: E731
        jobs.append(Job(job["name"], lambda argv=argv: _cli(sk, argv), check, clear))
    return jobs


def circles_jobs(sk, spec: dict, expected: dict, seed: int, tmp: Path) -> list[Job]:
    hard_set = tmp / "h.json"
    jobs = []
    for job in spec["jobs"]:
        argv = [arg.replace("{tmp}", str(tmp)) for arg in job["argv"]]
        writes_hard_set = "-o" in argv

        def check(code, writes_hard_set=writes_hard_set):
            if code != 0:
                return f"exit code {code}"
            if writes_hard_set:
                count = len(json.loads(hard_set.read_text())["prototypes"])
                if count != expected["hard_prototypes"]:
                    return f"hard set has {count} prototypes, expected {expected['hard_prototypes']}"
            return None

        prepare = (lambda: hard_set.unlink(missing_ok=True)) if writes_hard_set else (lambda: None)
        jobs.append(Job(job["name"], lambda argv=argv: _cli(sk, argv), check, prepare))
    return jobs


WORKLOADS = {
    "landscape": landscape_jobs,
    "verify": verify_jobs,
    "circles": circles_jobs,
}
