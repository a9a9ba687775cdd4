"""Tests of the benchmark itself (not of spinweave).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

They spawn a handful of short CLI jobs, so they take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    r = run.Runner(ROOT, golden=None)
    yield r
    r.close()


def _small_verify() -> workloads.Job:
    """A verify job of seed 1 with m = 3 (under a second)."""
    return next(j for j in workloads.verify_sweep(1) if sum(map(int, j.argv[2].split(","))) == 3)


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    a = workloads.jobs_for(workload, 7)
    b = workloads.jobs_for(workload, 7)
    assert [(j.argv, j.catalog, j.expected) for j in a] == [(j.argv, j.catalog, j.expected) for j in b]
    c = workloads.jobs_for(workload, 8)
    assert [(j.argv, j.catalog) for j in a] != [(j.argv, j.catalog) for j in c]


@pytest.mark.parametrize("workload", ("verify-sweep", "bundle-samples"))
def test_cli_seeds_are_positive(workload):
    for seed in range(20):
        for job in workloads.jobs_for(workload, seed):
            assert int(job.argv[job.argv.index("--seed") + 1]) >= 1


def test_verify_sweep_covers_parities_and_forms():
    sigs = [tuple(map(int, j.argv[2].split(","))) for j in workloads.verify_sweep(3)]
    assert {(k + l) % 2 for k, l in sigs} == {0, 1}
    assert any(k == 0 or l == 0 for k, l in sigs) and any(k and l for k, l in sigs)
    assert all(3 <= k + l <= 6 for k, l in sigs)


def test_golden_covers_the_default_seeds(runner):
    golden = json.loads((HERE / "golden.json").read_text())
    assert golden["seeds"] == list(workloads.DEFAULT_SEEDS)
    for seed in workloads.DEFAULT_SEEDS:
        for name in workloads.WORKLOADS:
            for job in workloads.jobs_for(name, seed):
                digest = runner.catalog(job.catalog) if job.catalog is not None else None
                assert job.key(digest) in golden["digests"]


# -- correctness gate -----------------------------------------------------------


def test_gate_accepts_real_output_and_rejects_a_corrupted_byte(runner):
    job = _small_verify()
    result = runner.run_job(job, traced=False)
    assert result.failure is None
    out = result.run.stdout
    key = job.key()
    golden = {key: gate.digest(out)}
    assert gate.check(job, 0, out, golden, key) is None
    corrupted = out.replace(b'"pass"', b'"pasS"', 1)
    assert gate.check(job, 0, corrupted, golden, key) is not None
    assert gate.check(job, 0, out.replace(b"  ", b"   ", 1), golden, key) is not None
    assert gate.check(job, 0, out.replace(b'"pass"', b'"fail"', 1), None, key) is not None
    assert gate.check(job, 1, out, None, key) is not None
    assert gate.check(job, 0, b"not json", None, key) is not None


@pytest.mark.parametrize("fmt", ("json", "table"))
def test_gate_rejects_a_flipped_catalog_verdict(runner, fmt):
    job = next(j for j in workloads.catalog_scan(2) if j.fmt == fmt)
    result = runner.run_job(job, traced=False)
    assert result.failure is None
    out = result.run.stdout.decode()
    row = job.expected[0]
    if fmt == "json":
        doc = json.loads(out)
        doc["obstructions"][0]["pin+"] = not row["pin+"]
        flipped = json.dumps(doc, indent=2)
    else:
        lines = out.splitlines(keepends=True)
        cells = lines[2].split()
        column = lines[0].split().index("pin+")
        cells[column] = "F" if cells[column] == "T" else "T"
        flipped = "".join(lines[:2]) + "  ".join(cells) + "\n" + "".join(lines[3:])
    assert gate.check(job, 0, flipped.encode(), None, "") is not None


# -- tracing ---------------------------------------------------------------------


def _layer_self(dump):
    out = dict.fromkeys(tracer.LAYERS, 0.0)
    for name, (_, _, self_s) in dump["agg"].items():
        out[dump["layer_of"][name]] += self_s
    return out


@pytest.fixture(scope="module")
def traced(runner):
    """One traced job per workload: (job result, per-layer metrics)."""
    picks = {
        "verify-sweep": _small_verify(),
        "bundle-samples": next(j for j in workloads.bundle_samples(1) if "sphere" in j.argv),
        "catalog-scan": workloads.catalog_scan(1)[0],
    }
    out = {}
    for name, job in picks.items():
        result = runner.run_job(job, traced=True)
        assert result.failure is None, result.failure
        metrics = tracer.summarize([(result.run.wall_s, result.dump, len(result.run.stdout))], 1)
        out[name] = (result, {k: v for k, (v, _) in metrics.items()})
    return out


def test_traced_stdout_matches_untraced(runner, traced):
    for result, _ in traced.values():
        plain = runner.run_job(result.job, traced=False)
        assert plain.run.stdout == result.run.stdout


def test_layer_self_times_fit_in_the_job(traced):
    for result, _ in traced.values():
        layers = _layer_self(result.dump)
        assert all(v >= 0 for v in layers.values())
        assert sum(layers.values()) <= result.run.wall_s


def test_layer_split_matches_the_workload_design(traced):
    for name, (_, m) in traced.items():
        groups = [v for k, v in m.items() if k.startswith("groups.")]
        bundles = [v for k, v in m.items() if k.startswith("bundles.")]
        charclass = [v for k, v in m.items() if k.startswith("charclass.")]
        assert any(groups) == (name == "verify-sweep"), name
        assert any(bundles) == (name == "bundle-samples"), name
        assert any(charclass) == (name == "catalog-scan"), name
    assert traced["catalog-scan"][1]["scalars.ops"] == 0
    assert traced["verify-sweep"][1]["scalars.ops"] > 0


def test_lru_cached_entry_points_are_wrapped_outside_the_cache(traced):
    result, m = traced["verify-sweep"]
    assert result.dump["caches"]["spin_space"][0] >= 1  # the frame group's lookup hits
    assert m["reps.spin_space_cache_hit_ratio"] > 0
    assert result.dump["agg"]["frame_group"][0] >= 1


def test_every_listed_per_layer_metric_is_reported(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(traced["verify-sweep"][1]) | {"trace.overhead_s"}
    assert listed == produced


# -- the benchmark without the program ---------------------------------------------


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog-scan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
