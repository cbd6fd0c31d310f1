"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def bl():
    harness.forget_package()
    return harness.fresh_import()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(workload):
    make = workloads.GENERATORS[workload]
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert json.dumps(make(7)) != json.dumps(make(8))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_round_holds_at_least_100_queries(workload):
    assert len(workloads.GENERATORS[workload](1)) >= 100


def _sample(bl, workload, tmp_path, count):
    """Run the first `count` queries of a round (and, for the tree sweep,
    every point they build on) and return queries and answers."""
    queries = workloads.GENERATORS[workload](3)
    ctx = workloads.prepare(bl, workload, queries, str(tmp_path))
    if workload == "tree-sweep":
        chosen = list(range(count))
    else:
        quick = [i for i, q in enumerate(queries) if q.get("family") not in workloads.RUNAWAY
                 and q.get("argv", [""])[0] != "demo"]
        chosen = sorted(quick, key=lambda i: json.dumps(queries[i]).count("^"))[:count]
    answers = {qid: workloads.execute(ctx, queries[qid]) for qid in chosen}
    return queries, answers


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_answers_pass_the_checker(bl, workload, tmp_path):
    queries, answers = _sample(bl, workload, tmp_path, 25)
    assert checks.check(workload, queries, answers) == []


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_wrong_answer_fails_the_checker(bl, workload, tmp_path):
    queries, answers = _sample(bl, workload, tmp_path, 25)
    qid = next(iter(answers))
    answers[qid] = {"tampered": True}
    assert [q for q, _ in checks.check(workload, queries, answers)] == [qid]


def test_wrong_reference_fails_the_checker(bl, tmp_path, monkeypatch):
    queries, answers = _sample(bl, "tree-sweep", tmp_path, 60)
    monkeypatch.setattr(reference, "proximate_levels",
                        lambda path: [level for level in range(len(path))])
    assert checks.check("tree-sweep", queries, answers)


def test_wrong_position_reference_fails_the_checker(bl, tmp_path, monkeypatch):
    queries, answers = _sample(bl, "deep-charts", tmp_path, 25)
    real = reference.classify
    monkeypatch.setattr(reference, "classify",
                        lambda p, q: "unit" if real(p, q) == "zero" else "zero")
    assert checks.check("deep-charts", queries, answers)


def test_time_limit_stops_a_query_and_counts_it_failed():
    def execute(ctx, q):
        if q["kind"] == "spin":
            while True:
                pass
        return ["done"]

    queries = [{"kind": "spin", "limit_s": 0.05}, {"kind": "quick", "limit_s": 0.05}]
    records, wall, rounds = harness.run_rounds(execute, None, queries, None, rounds=2)
    assert [r.status for r in records] == ["timeout", "ok", "timeout", "ok"]
    assert records[3].answer is harness.REPEATED
    failed, wrong = harness.judge(records, {})
    assert len(failed) == 2 and not wrong
    assert all(r.latency_s < 1.0 for r in records)


def test_spans_self_times_add_up_and_patches_are_undone(bl):
    original = bl.poly.poly_gcd
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["blowup.position"].poly_gcd is not original
        start = perf_counter()
        root = tracer.begin_query(0, "resolve")
        bl.resolve(bl.parse_element("x*y/(y^2 + x^3)"))
        tracer.end_query(root, False)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    assert sys.modules["blowup.position"].poly_gcd is original
    assert bl.poly.poly_gcd is original
    metrics = tracer.layer_metrics()
    assert metrics["position.resolve.calls"] == 1
    assert metrics["tree.Point.child.calls"] == 4
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.root_spans_s"])
    assert metrics["trace.root_spans_s"] <= wall


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)


def test_containment_oracle_refutes_a_false_proximity_claim(bl):
    queries = [{"kind": "point", "path": ["1", "1"], "ancestor": 0}]
    bad = checks._containment_sample(queries, {0: {"is_prox": True}}, 0, str(ROOT))
    assert [qid for qid, _ in bad] == [0]
    assert checks._containment_sample(queries, {0: {"is_prox": False}}, 0, str(ROOT)) == []
