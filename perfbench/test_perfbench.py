"""Tests of the benchmark harness itself (not collected by the repo's suite).

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_output_is_counted_as_failed(tmp_path):
    w = workloads.EvaluateComb(tmp_path, seed=5, tiny=True)
    honest = w.outputs
    calls = []

    def corrupt_second(result):
        outputs = honest(result)
        calls.append(1)
        if len(calls) != 2:
            return outputs
        report = json.loads(outputs[0])
        report["uc"]["top_class"]["value"] += 1e-6
        return (json.dumps(report, indent=2).encode() + b"\n",)

    w.outputs = corrupt_second
    result = run.measure(w, seconds=0.3, import_s=0.0)
    assert result["attempted"] >= 3
    assert len(result["failures"]) == 1
    assert any("top_class" in p for p in result["failures"][0])


def test_failing_command_is_counted_as_failed(tmp_path):
    w = workloads.PatchFitApply(tmp_path, seed=5, tiny=True)
    w.build()
    w.reference()
    (tmp_path / "cal.csv").write_text("not,a,number\n")
    seconds, problems = run.Checker(w).run()
    assert problems and "exited with codes [3]" in problems[0]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "evaluate-comb", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generators_are_seeded_and_chunk_sized():
    a = list(workloads.continuous_chunks(np.random.default_rng([7, 1]), 1000, 300))
    b = list(workloads.continuous_chunks(np.random.default_rng([7, 1]), 1000, 300))
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert max(p.size for p, _ in a) <= workloads.CHUNK_ELEMENTS
    probs, labels = np.empty((5000, 6)), np.empty(5000, dtype=np.int64)
    facts = workloads.fill(
        workloads.finite_chunks(np.random.default_rng(1), 5000, 6, 7), probs, labels, None
    )
    assert facts["distinct_rows"] == 7
    assert np.allclose(probs.sum(axis=1), 1.0) and labels.max() < 6


def test_reference_uc_matches_the_program():
    from utilcal import dataset, estimators, utilities

    rng = np.random.default_rng(2)
    probs, labels = next(workloads.continuous_chunks(rng, 300, 5))
    preds = dataset.LabeledPredictions(probs, labels)
    for spec in (utilities.UtilitySpec.top_k(2), utilities.UtilitySpec.dcg(1.0),
                 utilities.sample_linear(5, rng)):
        want = estimators.uc_hat(preds, spec).value
        assert abs(workloads.reference_uc(spec, probs, labels) - want) <= 1e-12


def test_tracer_restores_attributes_and_reports_missing_names(monkeypatch):
    from utilcal import ecdf, estimators

    before = (estimators.uc_hat, ecdf.uc_hat)
    targets = {k: dict(v) for k, v in tracing.TARGETS.items()}
    targets["estimators"]["no_such_function"] = None
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    assert ecdf.uc_hat is not before[1]
    assert tracer.missing == ["estimators.no_such_function"]
    tracer.uninstall()
    assert (estimators.uc_hat, ecdf.uc_hat) == before


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [1, 0, 0, "ecdf.ecdf_evaluate", 0.0, 10.0, None],
        [2, 1, 0, "estimators.uc_hat", 1.0, 5.0, None],
        [3, 1, 0, "estimators.uc_hat", 3.0, 7.0, None],  # overlaps span 2
    ]
    metrics = tracing.layer_metrics(spans, jobs=1)
    assert metrics["ecdf.sweep_self_s"] == pytest.approx(4.0)
    assert metrics["ecdf.parallel_ratio"] == pytest.approx(0.8)
    assert metrics["estimators.uc_calls"] == 2


def test_tracer_covers_the_job_and_not_its_checks(tmp_path):
    w = workloads.PatchFitApply(tmp_path, seed=3, tiny=True)
    w.build()
    w.reference()
    tracer = tracing.Tracer()
    seconds, problems = run.Checker(w).run(tracer)
    assert problems == []
    # patch-apply transforms once; the check's own transform is not traced.
    assert sum(1 for s in tracer.spans if s[3] == "patching.transform") == 1
    assert tracer._patched == []
