"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench/tests -q

They pin the computed counters of the default seed, show that the
known-answer checks reject planted wrong answers, and check that the
printed metrics are exactly the ones BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Computed counters of one traced pass at the default seed. They come
# from inputs and return values only, so any change here is a change in
# the work the program does (or in the job list), never timing noise.
PINNED = {
    "law_scan": {
        "structures.verify_calls": 95,
        "structures.assignments": 1626228,
        "structures.build_entries": 0,
        "morphisms.enum_calls": 0,
        "morphisms.enum_found": 0,
        "xmod.pair_yield": 0.0,
        "xmod.cone_triples": 0,
        "limits.build_entries": 0,
        "cat1.pair_yield": 0.0,
        "cat1.iso_candidates": 0.0,
    },
    "search_sweep": {
        "structures.verify_calls": 176,
        "structures.assignments": 458128,
        "structures.build_entries": 28018,
        "morphisms.enum_calls": 248,
        "morphisms.enum_found": 4815,
        "xmod.pair_yield": 0.4928909952606635,
        "xmod.cone_triples": 57,
        "limits.build_entries": 740,
        "cat1.pair_yield": 0.011784050424773911,
        "cat1.iso_candidates": 3.510204081632653,
    },
    "build_roundtrip": {
        "structures.verify_calls": 0,
        "structures.assignments": 0,
        "structures.build_entries": 6329014,
        "morphisms.enum_calls": 0,
        "morphisms.enum_found": 0,
        "xmod.pair_yield": 0.0,
        "xmod.cone_triples": 0,
        "limits.build_entries": 83515,
        "cat1.pair_yield": 0.0,
        "cat1.iso_candidates": 0.0,
    },
    "cli_golden": {
        "structures.verify_calls": 44,
        "structures.assignments": 35482,
        "structures.build_entries": 4615,
        "morphisms.enum_calls": 24,
        "morphisms.enum_found": 71,
        "xmod.pair_yield": 0.6285714285714286,
        "xmod.cone_triples": 16,
        "limits.build_entries": 104,
        "cat1.pair_yield": 0.060240963855421686,
        "cat1.iso_candidates": 2.5,
    },
}


def _plan(workload, seed=run.DEFAULT_SEED):
    m = run.load_package()
    return m, workloads.BUILDERS[workload](m, seed, ROOT)


def _traced_counters(workload):
    m, plan = _plan(workload)
    if workload == "cli_golden":
        plan.close()
        plan = workloads.cli_inprocess(m, ROOT)
    tr = tracing.Tracer(m)
    tr.install()
    try:
        plain, traced = run.run_paired_pass(plan, tr)
    finally:
        tr.uninstall()
        plan.close()
    assert plain.problems == traced.problems == []
    rolled = tracing.rollup(traced.spans)
    return {k: rolled[k] for k in tracing.COUNTERS}


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_counters_pinned_for_default_seed(workload):
    assert _traced_counters(workload) == PINNED[workload]


@pytest.mark.parametrize("workload", ["law_scan", "search_sweep", "build_roundtrip"])
def test_same_seed_same_inputs(workload):
    first = _plan(workload)[1].digest()
    assert _plan(workload)[1].digest() == first
    assert _plan(workload, run.HELD_OUT_SEED)[1].digest() != first


def test_cli_inputs_do_not_depend_on_seed():
    a = _plan("cli_golden")[1]
    b = _plan("cli_golden", run.HELD_OUT_SEED)[1]
    a.close()
    b.close()
    assert a.digest() == b.digest()


def _first(plan, prefix):
    return next(j for j in plan.jobs if j.name.startswith(prefix))


def test_checks_reject_planted_wrong_answers():
    m, plan = _plan("law_scan")
    passing = _first(plan, "verify_structure z48")
    failing = next(j for j in plan.jobs if "_add_" in j.name)
    assert passing.check(passing.run()) is None
    assert failing.check(failing.run()) is None
    # each check is handed the other job's verdict
    assert passing.check(failing.run()) is not None
    assert failing.check(passing.run()) is not None

    m, plan = _plan("search_sweep")
    hom = _first(plan, "enumerate_morphisms")
    assert hom.check(hom.run() + hom.run()) is not None
    iso = _first(plan, "find_xmod_isomorphism")
    assert iso.check(None) is not None

    m, plan = _plan("build_roundtrip")
    job = _first(plan, "semidirect_product")
    obj, same = job.run()
    assert job.check((obj, same)) is None
    assert job.check((obj, False)) is not None
    small = m.zoo.make_cyclic(2)
    assert job.check((small, True)) is not None

    m, plan = _plan("cli_golden")
    plan.close()
    job = plan.jobs[0]
    good = workloads.pinned_records(BENCH)[0]
    assert job.check(good) is None
    assert job.check(good.replace("PASS", "FAIL", 1)) is not None
    assert job.check(good.replace("exit 0", "exit 1")) is not None


def test_run_pass_counts_a_wrong_answer_as_failed():
    m, plan = _plan("search_sweep")
    job = _first(plan, "enumerate_morphisms")
    planted = workloads.Job(job.name, job.spec, lambda: [], job.check)
    raising = workloads.Job("raises", "", lambda: 1 / 0, job.check)
    stats = run.run_pass(workloads.Plan([job, planted, raising]))
    assert [name for name, _ in stats.problems] == [job.name, "raises"]


def _last_json(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return proc, None
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc, result = _last_json(
        ["--workload", "build_roundtrip", "--seconds", "0.1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    units = run.END_TO_END if trace == "0" else tracing.METRICS
    assert units == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "law_scan"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
