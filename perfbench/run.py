"""End-to-end benchmark of the spinweave CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0

The benchmark generates a seeded job list for the workload (see
workloads.py) and runs it as a closed loop with one client: each job is a
fresh ``python -m spinweave.cli`` process, and the next job starts only
after the previous one has exited.  The job list is repeated until
``--seconds`` have passed; the pass in progress is cut at that point, but
the first pass always completes.  Every job goes through the correctness
gate (gate.py); failed jobs are counted, never retried.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced passes with passes whose jobs run under
tracer.py, and reports the per-layer metrics of the traced passes plus
the tracing overhead.  Spans are written to .perfbench/traces/ when the
run ends.  The last line of stdout is the result as one JSON object.

End-to-end times are in reference seconds.  The benchmark machine is
shared and its speed swings by tens of percent within seconds, so each
child's wall time is multiplied by PROBE_REFERENCE_S over the mean of a
fixed pure-Python probe timed just before and just after that child.
The probe shares no code with spinweave, so a change to spinweave moves
the times and not the scale.  Unscaled figures are printed as well.

Nothing carries over between runs: catalog files and the bytecode cache
live in a per-run directory under .perfbench/ that is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no state in the checkout between runs
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Tail percentile per workload, fixed so that the metric keeps its meaning
# as the code gets faster.  At the seed code a 35 s run completes 18-28
# verify-sweep jobs (p55 leaves 8-12 beyond it) and 31-46 jobs of the other
# workloads (p70 leaves 9-14), depending on how busy the machine is.
TAIL_PERCENTILE = {"verify-sweep": 55, "bundle-samples": 70, "catalog-scan": 70}
SETUP_EVERY_S = 2.0
SETUP_CODE = "import spinweave.cli as c; c.make_parser()"
JOB_TIMEOUT_S = 60.0
# speed_probe() time on a quiet benchmark machine (2-core sandbox, Python 3.11)
PROBE_REFERENCE_S = 0.025


def speed_probe() -> float:
    """Seconds this machine takes right now for a fixed piece of pure-Python
    rational arithmetic that does not touch spinweave."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        x = Fraction(i % 97 + 1, i % 89 + 2)
        y = x * x + x / (x + 1) - Fraction(i, 7)
        acc += y.numerator % 7
    return time.perf_counter() - t0


@dataclass
class Spawned:
    """One finished child: exit code, stdout, wall time, peak RSS and the
    mean probe time around it."""

    code: int
    stdout: bytes
    wall_s: float
    rss_kb: int
    probe_s: float

    @property
    def scaled_s(self) -> float:
        return self.wall_s * PROBE_REFERENCE_S / self.probe_s


@dataclass
class JobResult:
    job: workloads.Job
    run: Spawned
    failure: Optional[str]
    dump: Optional[dict] = None


class Runner:
    """Runs CLI jobs from one checkout; owns the per-run work directory."""

    def __init__(self, root: Path, golden: Optional[Dict[str, str]]):
        self.root = root
        self.golden = golden
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)  # left by a killed run
        self.work.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "SPINWEAVE_"))}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(self.work / "pycache")
        self.catalogs: Dict[str, str] = {}  # catalog text -> digest
        self.serial = 0
        self.last_probe: Optional[float] = None
        self.setup: List[Spawned] = []
        self.last_setup = float("-inf")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def catalog(self, text: str) -> str:
        """Digest of a catalog, written to the work directory on first use."""
        name = self.catalogs.get(text)
        if name is None:
            name = gate.digest(text.encode())[:16]
            (self.work / f"catalog-{name}.json").write_text(text)
            self.catalogs[text] = name
        return name

    def spawn(self, cmd: List[str]) -> Spawned:
        """Run one child to exit, with a speed probe on either side."""
        before = self.last_probe if self.last_probe is not None else speed_probe()
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_probe = speed_probe()
        return Spawned(proc.returncode, out, wall, usage.ru_maxrss,
                       (before + self.last_probe) / 2)

    def run_job(self, job: workloads.Job, traced: bool) -> JobResult:
        digest = self.catalog(job.catalog) if job.catalog is not None else None
        argv = [str(self.work / f"catalog-{digest}.json") if a == "{catalog}" else a
                for a in job.argv]
        self.serial += 1
        dump_path = self.work / f"trace-{self.serial}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(dump_path), str(self.serial)] + argv
        else:
            cmd = [sys.executable, "-m", "spinweave.cli"] + argv
        run = self.spawn(cmd)
        failure = gate.check(job, run.code, run.stdout, self.golden, job.key(digest))
        if failure is not None and run.code != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace").strip()[-300:]
            failure += f" ({tail})" if tail else ""
        dump = None
        if traced and dump_path.exists():
            dump = json.loads(dump_path.read_text())
            dump_path.unlink()
        elif traced and failure is None:
            failure = "tracer wrote no trace"
        return JobResult(job, run, failure, dump)

    def sample_setup(self, record: bool = True) -> None:
        """Time a fresh interpreter importing the CLI, at most every
        SETUP_EVERY_S, so the samples spread over the whole run."""
        if record and time.perf_counter() - self.last_setup < SETUP_EVERY_S:
            return
        run = self.spawn([sys.executable, "-c", SETUP_CODE])
        if run.code != 0:
            raise RuntimeError("spinweave.cli does not import")
        if record:
            self.setup.append(run)
        self.last_setup = time.perf_counter()


def run_pass(runner: Runner, jobs, traced: bool, results: List[JobResult],
             deadline: Optional[float]) -> Optional[float]:
    """One pass of the job list; returns its wall time, or None if cut."""
    t0 = time.perf_counter()
    for job in jobs:
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        runner.sample_setup()
        results.append(runner.run_job(job, traced))
    return time.perf_counter() - t0


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def load_golden(seed: int) -> Optional[Dict[str, str]]:
    if seed not in workloads.DEFAULT_SEEDS:
        return None
    return json.loads((HERE / "golden.json").read_text())["digests"]


def write_traces(root: Path, workload: str, seed: int, meta: dict,
                 results: List[JobResult]) -> Path:
    """All spans of the run, one row per span: job, name, start, end, parent."""
    out = root / ".perfbench" / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    jobs = []
    for r in results:
        if r.dump is None:
            continue
        job = r.dump["job"]
        jobs.append({"job": job, "argv": r.job.argv, "wall_s": r.run.wall_s,
                     "spans": [[job] + span for span in r.dump["spans"]]})
    out.write_text(json.dumps({**meta, "jobs": jobs}))
    return out


def untraced_run(runner: Runner, jobs, seconds: float, results: List[JobResult],
                 workload: str) -> Dict[str, tuple]:
    deadline = time.perf_counter() + seconds
    run_pass(runner, jobs, False, results, None)
    while time.perf_counter() < deadline:
        run_pass(runner, jobs, False, results, deadline)
    pct = TAIL_PERCENTILE[workload]
    print(f"run_s: sum over the {len(jobs)} jobs of the list of each job's median over "
          f"{len(results) / len(jobs):.1f} passes; verdict_s_tail: p{pct} of {len(results)} "
          f"jobs; setup_s: median of {len(runner.setup)} imports")
    metrics = {}
    for label, time_of in (("unscaled", lambda s: s.wall_s), ("scaled", lambda s: s.scaled_s)):
        walls = [time_of(r.run) for r in results]
        # time to finish the job list: each job at its median over the passes,
        # which keeps one disturbed pass from moving the figure
        per_job = [statistics.median(walls[i::len(jobs)]) for i in range(len(jobs))]
        metrics = {
            "run_s": (sum(per_job), "s"),
            "verdict_s_p50": (statistics.median(walls), "s"),
            "verdict_s_tail": (percentile(walls, pct), "s"),
            "setup_s": (statistics.median(time_of(s) for s in runner.setup), "s"),
        }
        print(f"{label}: " + ", ".join(f"{k} {v:.4f} s" for k, (v, _) in metrics.items()))
    probes = [r.run.probe_s for r in results]
    print(f"speed probe median {statistics.median(probes) * 1000:.2f} ms, "
          f"range {min(probes) * 1000:.2f}-{max(probes) * 1000:.2f} ms")
    metrics["peak_rss_mb"] = (max(r.run.rss_kb for r in results) / 1024, "MiB")
    return metrics


def traced_run(runner: Runner, jobs, seconds: float,
               results: List[JobResult]) -> Dict[str, tuple]:
    """Alternate untraced and traced passes while another pair fits.

    Per-layer times come from the children's own clocks and are not scaled.
    """
    start = time.perf_counter()
    plain: List[float] = []
    traced: List[float] = []
    while True:
        plain.append(run_pass(runner, jobs, False, results, None))
        traced.append(run_pass(runner, jobs, True, results, None))
        pair = plain[-1] + traced[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    dumps = [(r.run.wall_s, r.dump, len(r.run.stdout)) for r in results if r.dump is not None]
    metrics = tracer.summarize(dumps, len(traced))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    print(f"per-layer metrics: per pass, over {len(traced)} traced passes")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinweave" / "cli.py").is_file():
        print("error: run from the root of a spinweave checkout (no src/spinweave/cli.py)",
              file=sys.stderr)
        return 2
    jobs = workloads.jobs_for(args.workload, args.seed)
    meta = {"workload": args.workload, "seed": args.seed, "source": source_digest(root),
            "python": platform.python_version(), "nproc": os.cpu_count()}
    print(" ".join(f"{k} {v}" for k, v in meta.items()) + f" jobs_per_pass {len(jobs)}")

    runner = Runner(root, load_golden(args.seed))
    results: List[JobResult] = []
    try:
        runner.sample_setup(record=False)  # compiles the bytecode cache of this run
        start = time.perf_counter()
        if args.trace:
            metrics = traced_run(runner, jobs, args.seconds, results)
            print(f"spans written to {write_traces(root, args.workload, args.seed, meta, results)}")
        else:
            metrics = untraced_run(runner, jobs, args.seconds, results, args.workload)
        elapsed = time.perf_counter() - start
    finally:
        runner.close()

    failed = [r for r in results if r.failure is not None]
    for r in failed[:5]:
        print(f"FAILED {' '.join(r.job.argv)}: {r.failure}")
    print(f"jobs {len(results)} in {elapsed:.1f} s, failed {len(failed)}, "
          f"failed_share {len(failed) / len(results):.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
