"""Self-tests for the benchmark.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibration  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
from bipers.bigraded import minimize, stable_grid  # noqa: E402
from bipers.cli import parse_module_file  # noqa: E402
from bipers.decomposition import decompose_oracle, hook_profile  # noqa: E402
from bipers.generators import SplitMix64  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _traced(lib, cases):
    tracer = Tracer()
    tracer.install()
    try:
        tally = run.measure(lib, cases, count=len(cases), tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, tally


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_corpus_is_deterministic_in_the_seed(workload):
    first = corpora.corpus(workload, 7, 40)
    assert first == corpora.corpus(workload, 7, 40)
    assert first != corpora.corpus(workload, 8, 40)


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_seed_changes_presentations_not_shapes(workload):
    first, second = corpora.corpus(workload, 1, 30), corpora.corpus(workload, 2, 30)
    truth = [[(c.hooks, c.betti, c.pd) for c in cases] for cases in (first, second)]
    assert truth[0] == truth[1]
    # A lone hook over F_2 has one presentation; larger modules differ.
    assert sum(a.text != b.text for a, b in zip(first, second)) >= len(first) // 2


def test_calibration_scales_times_to_the_nominal_kernel_time():
    assert calibration.kernel() == 8 * calibration.ROUNDS  # every matrix has full rank
    slow = 2 * calibration.NOMINAL_S
    tally = run.Tally(times=[0.1, 0.1, 0.15, 0.2], probes=[slow, slow, slow, 2 * slow, 2 * slow])
    assert run.reference_times(tally) == pytest.approx([0.05, 0.05, 0.05, 0.05])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_finds_small_glued_pairs_indecomposable(p):
    rng = SplitMix64(p)
    for _ in range(4):
        grid, _ = stable_grid(corpora.random_glued_pair(rng, rng, p, 3))
        summands = decompose_oracle(grid)
        assert len(summands) == 1
        assert hook_profile(summands[0]) is None


def test_minimize_cancels_staircase_padding():
    for case in corpora.corpus("staircases", 3, 12):
        pres = parse_module_file(case.text)
        m = minimize(pres)
        assert pres.n_gens > len(case.betti[0]) and pres.n_rels > len(case.betti[1])
        assert tuple(sorted(m.gens)) == case.betti[0]
        assert tuple(sorted(m.rels)) == case.betti[1]


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_ground_truth_holds_at_this_commit(lib, workload):
    tally = run.measure(lib, corpora.corpus(workload, 4, 6), count=6)
    assert (tally.attempted, tally.failed) == (6, 0), tally.notes


def test_injected_wrong_verdict_counts_as_failed(lib):
    case = corpora.corpus("hook-sums", 1, 1)[0]
    wrong = dataclasses.replace(case, pd=case.pd + 1)
    tally = run.measure(lib, [case, wrong], count=2)
    assert (tally.attempted, tally.wrong, tally.failed) == (2, 1, 1)
    assert run.report({}, [tally], {}, {}) is False


def test_time_limit_records_a_failure_and_goes_on(lib):
    cases = corpora.corpus("glued", 1, 2)
    tally = run.measure(lib, cases, count=2, limit=1e-4)
    assert (tally.attempted, tally.timeouts, tally.wrong) == (2, 2, 0)


def test_every_metric_is_printed_with_its_unit(lib, capsys):
    cases = corpora.corpus("hook-sums", 2, 3)
    plain = run.measure(lib, cases, count=len(cases))
    tracer, traced = _traced(lib, cases)
    layer = run.per_layer_metrics(tracer.summary("pipeline"), tracer.summary("verify"), plain, traced)
    for key, metrics in (("end_to_end", run.end_to_end_metrics(plain, 0.5)), ("per_layer", layer)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared
        run.report({}, [plain], metrics, {})
        lines = capsys.readouterr().out.splitlines()
        for name, unit in declared.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(declared)


def test_traced_counts_repeat_exactly(lib):
    cases = corpora.corpus("staircases", 5, 3)
    counts = []
    for _ in range(2):
        tracer, _ = _traced(lib, cases)
        summary = tracer.summary("pipeline").items()
        counts.append({layer: {k: n for k, n in v.items() if k != "self_s"} for layer, v in summary})
    assert counts[0] == counts[1]
    assert counts[0]["bigraded.stable_grid"]["calls"] == 2 * len(cases)


def test_tracer_restores_every_wrapped_function(lib):
    bigraded, classify = sys.modules["bipers.bigraded"], lib.classify
    before = (classify.minimize, bigraded.minimize, bigraded.Matrix.__init__)
    assert classify.minimize is bigraded.minimize
    tracer = Tracer()
    tracer.install()
    try:
        assert classify.minimize is bigraded.minimize is not before[1]
    finally:
        tracer.uninstall()
    assert (classify.minimize, bigraded.minimize, bigraded.Matrix.__init__) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "glued", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
