"""softknn benchmark: one workload per run, as a closed loop with one client.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; softknn is imported from ./src.
Each job starts only after the previous one has finished, and the
benchmark starts no threads. A run:

1. imports softknn and builds the workload's jobs, then does the same five
   more times, each in a fresh interpreter started and waited for one at a
   time (``setup_s`` is the median time from starting the interpreter to
   the jobs being ready);
2. runs one untimed pass under ``tracemalloc`` (``peak_mib``, and
   ``landscape.rasterize.peak_mib`` for the traced run);
3. runs whole passes over the job list until ``--seconds`` have passed.
   With ``--trace 1`` the passes alternate between untraced and traced
   ones, and the spans of the traced passes give the per-layer metrics.

``pass_s`` is the median pass and ``slowest_job_s`` the largest of the
per-job-kind medians. On a small shared machine the neighbours' load
slows everything by a third or more for minutes at a time, so each time
is divided by the machine's slowness around it, which gives the time the
reference machine would show. For a job of an untraced pass, slowness is
sampled with a fixed mix of work that does not call softknn
(``Calibration``, ``Runner.scaled_passes``); a pass is the sum of its
scaled job times. For a set-up, it is the time a fresh interpreter takes
to import numpy and scipy.ndimage, taken before and after each set-up.
The unscaled times are kept in the full record.

Every job's output is checked outside the timed region; a failed check
or an exception counts the job as failed and the run goes on. The last
line of standard output is the JSON result; the full record, with the
samples, quartiles and environment, goes to ``perfbench/out/``, and the
spans of a traced run next to it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_jobs  # noqa: E402
import bench_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# Typical time of each calibration part, and of importing softknn's
# dependencies, on the reference machine: a 2-core Xeon VM with Python
# 3.11, numpy 2.4.6 and scipy 1.17.1. Reported times are scaled to it.
PARTS_REF_S = {"objects": 0.0075, "in_cache": 0.0040, "memory": 0.0040}
DEPENDENCIES_REF_S = 0.5
# Each is run in a fresh interpreter by timed_interpreter and ends by
# printing the system-wide monotonic clock. _SET_UP sets the workload up;
# _DEPENDENCIES makes the third-party imports softknn makes, which take
# most of a set-up and slow down and speed up with the machine's load.
_SET_UP = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
    "run.set_up(sys.argv[2], int(sys.argv[3]), run.Path(sys.argv[4])); print(time.monotonic())"
)
_DEPENDENCIES = "import time, numpy, scipy.ndimage; print(time.monotonic())"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_PLACES",
)


def import_softknn():
    src = ROOT / "src"
    if not (src / "softknn" / "__init__.py").is_file():
        sys.exit(f"error: no softknn sources at {src}; run from the root of a softknn checkout")
    sys.path.insert(0, str(src))
    import softknn
    import softknn.cli

    if Path(softknn.__file__).resolve().parent != (src / "softknn").resolve():
        sys.exit(f"error: imported softknn from {softknn.__file__}, not from {src}")
    return softknn


def set_up(workload: str, seed: int, tmp: Path):
    """Everything before the first timed job: import softknn, build the jobs."""
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"][workload]
    expected = json.loads((HERE / "expected.json").read_text()).get(workload, {})
    sk = import_softknn()
    return sk, bench_jobs.WORKLOADS[workload](sk, spec, expected, seed, tmp)


def timed_interpreter(code: str, *args: str) -> float:
    """Seconds from starting a fresh interpreter on ``code`` to the time it prints."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout.split()[-1]) - start


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Calibration:
    """How slowly the machine runs at the moment, relative to the reference machine.

    A sample times three fixed parts of a few milliseconds each: Python
    objects (a sort, a dict build and lookups over about a MiB),
    numpy work that fits in cache (distances and a stable argsort, as in
    the kernel), and a numpy pass over arrays larger than a last-level
    cache. It returns the mean of the three times, each over its time on
    the reference machine (``PARTS_REF_S``). The parts do not call softknn.
    Over two-minute traces of the ``verify`` and ``landscape`` passes, this
    mix followed their slowdowns more closely than a tight interpreter loop
    or small numpy calls did.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.keys = rng.random(10000).tolist()
        self.points = rng.random((1 << 13, 2))
        self.values = rng.random(1 << 15)
        self.big = rng.random(1 << 21)  # 16 MiB in and 16 MiB out
        self.out = numpy.empty_like(self.big)
        self.sample()  # the first run pays for page faults and cold caches

    def objects(self) -> None:
        items = [(key, i) for i, key in enumerate(self.keys)]
        items.sort()
        table = dict(items)
        total = 0
        for key in self.keys[::2]:
            total += table[key]

    def in_cache(self) -> None:
        d = ((self.points[:, None, :] - self.points[:8][None, :, :]) ** 2).sum(axis=2)
        self.np.argsort(d, axis=1, kind="stable")
        self.np.sort(self.values)

    def memory(self) -> None:
        self.np.multiply(self.big, 1.5, out=self.out)

    def sample(self) -> float:
        ratios = []
        for name, ref in PARTS_REF_S.items():
            start = time.perf_counter()
            getattr(self, name)()
            ratios.append((time.perf_counter() - start) / ref)
        return statistics.fmean(ratios)


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "n": len(values), "samples": values}


class Runner:
    """Runs jobs, checks their outputs, and counts attempts and failures."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.passes: list[dict] = []

    def run_job(self, job) -> float:
        job.prepare()
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = job.run()
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(job, traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            problem = job.check(output)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            self._fail(job, problem)
        return elapsed

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        if job.kind not in self.failures:
            self.failures[job.kind] = message
            print(f"job {job.kind} failed: {message}", file=sys.stderr)

    def calibrated_pass(self, calibration: "Calibration") -> None:
        """Run every job once, sampling ``calibration`` before the first job and after each."""
        times, slowness = [], [calibration.sample()]
        for job in self.jobs:
            times.append(self.run_job(job))
            slowness.append(calibration.sample())
        self.passes.append({"job_s": times, "slowness": slowness})

    def scaled_passes(self) -> tuple[list[float], dict[str, list[float]]]:
        """Each pass's scaled time, and each job kind's scaled times.

        A job's time is divided by the median of the five calibration
        samples nearest to it: the two taken just before and after it, and
        the two before and one after those. One sample of a few
        milliseconds is noisy; five still follow a slowdown that lasts
        seconds.
        """
        flat = [s for p in self.passes for s in p["slowness"]]
        pass_s, per_kind, start = [], {}, 0
        for p in self.passes:
            total = 0.0
            for i, (job, t) in enumerate(zip(self.jobs, p["job_s"])):
                before = start + i
                t /= statistics.median(flat[max(0, before - 2) : before + 3])
                per_kind.setdefault(job.kind, []).append(t)
                total += t
            pass_s.append(total)
            start += len(p["slowness"])
        return pass_s, per_kind

    def traced_pass(self, tracer) -> float:
        total = 0.0
        for job in self.jobs:
            tracer.job = self.attempted
            total += self.run_job(job)
        return total

    def memory_pass(self, probe) -> list[int]:
        peaks = []
        restore = probe.install()
        try:
            for job in self.jobs:
                probe.start_job()
                try:
                    self.run_job(job)
                finally:
                    peaks.append(probe.end_job())
        finally:
            restore()
        return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    sk, jobs = set_up(args.workload, args.seed, tmp)
    first_setup_s = time.perf_counter() - _T0
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        setup_cal = [timed_interpreter(_DEPENDENCIES) / DEPENDENCIES_REF_S]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_times.append(timed_interpreter(_SET_UP, str(HERE), args.workload, str(args.seed), str(tmp)))
            setup_cal.append(timed_interpreter(_DEPENDENCIES) / DEPENDENCIES_REF_S)
        calibration = Calibration()
        runner = Runner(jobs)
        probe = bench_trace.MemoryProbe(sk)
        start = time.perf_counter()
        peaks = runner.memory_pass(probe)
        memory_pass_s = time.perf_counter() - start

        traced: list[float] = []
        tracer = bench_trace.Tracer(sk) if args.trace else None
        deadline = time.perf_counter() + args.seconds
        while not runner.passes or (tracer and not traced) or time.perf_counter() < deadline:
            if tracer is not None and len(traced) < len(runner.passes):
                restore = tracer.install()
                try:
                    traced.append(runner.traced_pass(tracer))
                finally:
                    restore()
            else:
                runner.calibrated_pass(calibration)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    pass_s, per_kind = runner.scaled_passes()
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures,
        "first_setup_s": first_setup_s,
        "memory_pass_s": memory_pass_s,
        "setup_slowness": setup_cal,
        "raw_setup_s": summary(setup_times),
        "raw_pass_s": summary([sum(p["job_s"]) for p in runner.passes]),
        "setup_s": summary([t * 2 / (a + b) for t, a, b in zip(setup_times, setup_cal, setup_cal[1:])]),
        "pass_s": summary(pass_s),
        "job_s": {kind: summary(times) for kind, times in per_kind.items()},
        "passes": runner.passes,
        "memory_pass_peak_mib": {job.kind: peak / bench_trace.MIB for job, peak in zip(jobs, peaks)},
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "pass_s": {"value": record["pass_s"]["median"], "unit": "s"},
            "slowest_job_s": {"value": max(s["median"] for s in record["job_s"].values()), "unit": "s"},
            "peak_mib": {"value": max(peaks) / bench_trace.MIB, "unit": "MiB"},
        }
    else:
        overhead = min(traced) / record["raw_pass_s"]["min"] - 1.0
        metrics = bench_trace.layer_metrics(tracer.spans, len(traced), sum(traced), overhead, probe.rasterize_peak)
        record["traced_pass_s"] = summary(traced)
    record["metrics"] = metrics

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[s[0]], *s[1:]] for s in tracer.spans]
        fields = ["name", "start_ns", "end_ns", "parent", "job", "extra"]
        (OUT / f"spans-{name}.json").write_text(json.dumps({"names": names, "fields": fields, "spans": spans}) + "\n")

    print_summary(record)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} seed {env['seed']} | {env['nproc']} cpu {env['cpu_model']} | "
        f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} | threads {env['thread_env']}"
    )
    rows = [("error_rate", record["error_rate"], "ratio", f"{record['failed']} of {record['attempted']} jobs")]
    if record["trace"] == 0:
        m = record["metrics"]

        def measured(name: str) -> str:
            k, raw = record[name], record[f"raw_{name}"]
            return (f"median of {k['n']}, q1 {k['q1']:.4f} q3 {k['q3']:.4f}; "
                    f"unscaled median {raw['median']:.4f} q1 {raw['q1']:.4f} q3 {raw['q3']:.4f}")

        rows[:0] = [
            ("setup_s", m["setup_s"]["value"], "s", f"{measured('setup_s')} (fresh interpreters)"),
            ("pass_s", m["pass_s"]["value"], "s", measured("pass_s")),
            ("slowest_job_s", m["slowest_job_s"]["value"], "s",
             "largest per-kind median: "
             + ", ".join(f"{k} {v['median']:.4f} (n={v['n']})" for k, v in record["job_s"].items())),
            ("peak_mib", m["peak_mib"]["value"], "MiB",
             f"max over {len(record['memory_pass_peak_mib'])} jobs of one tracemalloc pass"),
        ]
    else:
        rows += [(name, m["value"], m["unit"], "") for name, m in record["metrics"].items()]
    for name, value, unit, note in rows:
        print(f"{name:48s} {value:14.6g} {unit:6s} {note}")


if __name__ == "__main__":
    sys.exit(main())
