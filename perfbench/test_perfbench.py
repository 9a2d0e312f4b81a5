"""Fast checks of the benchmark itself, on a handful of small fuzz_mixed tasks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import passes
import run
from workloads import base_docs, make_tasks

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((run.HERE / "reference.json").read_text())["tasks"]


@pytest.fixture(scope="module")
def small_tasks():
    tasks = make_tasks("fuzz_mixed", 7)
    return sorted(tasks, key=lambda t: len(t[1]))[:8]


def timed_result(tasks):
    out = passes.timed_pass(tasks, d2_timed=True)
    out["peak_rss_mb"] = 30.0  # filled in by passes.main
    return out


def test_inputs_depend_only_on_the_seed():
    assert make_tasks("braid_g1_12", 3) == make_tasks("braid_g1_12", 3)
    assert make_tasks("braid_g1_12", 3) != make_tasks("braid_g1_12", 4)


def test_braid_workload_is_the_corpus_performance_case():
    corpus = json.loads((run.ROOT / "corpus" / "perf12_genus1.json").read_text())
    [(_, doc)] = base_docs("braid_g1_12")
    assert doc == corpus


def test_every_end_to_end_metric_is_emitted(small_tasks):
    result = timed_result(small_tasks)
    assert run.gate(result["results"], REFERENCE) == []
    values = run.end_to_end([result], [0.1], len(small_tasks), 0)
    metrics = run.render(values, SPEC["end_to_end"])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_every_per_layer_metric_is_emitted_and_counts_repeat(small_tasks):
    traced = []
    for _ in range(2):
        tr = passes.Tracer()
        with tr.span("randgen.generate"):
            pass
        traced.append(passes.traced_pass(small_tasks, tr, d2_timed=True))
    assert run.gate(traced[0]["results"], REFERENCE) == []
    alloc = [passes.alloc_pass(small_tasks, fl) for fl in passes.FLAVORS]
    values = run.per_layer([timed_result(small_tasks)], traced, alloc)
    metrics = run.render(values, SPEC["per_layer"])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_a_wrong_reference_digest_fails_the_gate(small_tasks):
    result = timed_result(small_tasks)
    name = result["results"][0]["task"]
    wrong = dict(REFERENCE)
    wrong[name] = {**wrong[name], "homotopical": "0" * 16}
    failures = run.gate(result["results"], wrong)
    assert len(failures) == 1 and failures[0].startswith(name)
    values = run.end_to_end([result], [0.1], len(small_tasks), len(failures))
    assert values["ops_ok_frac"] == 1 - 1 / len(small_tasks)
