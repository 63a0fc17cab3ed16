"""Tests of the benchmark itself, on tiny pools:

    python3 -m pytest benchmark
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import run

assert run.load_package() is None
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def tiny(name, tmp_path, size=2):
    return workloads.make(name, tmp_path / "work", pool_size=size)


def run_items(workload, pool, tracer=None):
    if tracer is None:
        return [workload.collect(item, workload.run(item)) for item in pool]
    with tracer.installed():
        return [workload.collect(item, tracer.run_item(i, workload.run, item)) for i, item in enumerate(pool)]


def test_declared_metric_names_are_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(METRIC_NAME.match(n) for n in names)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(tmp_path, trace):
    declared = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    for seed in (1, 2):
        result = run.measure(tiny("rows", tmp_path), seed, seconds=0, trace=bool(trace))["result"]
        assert set(result["metrics"]) == declared
        assert all(METRIC_NAME.match(n) for n in result["metrics"])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_the_inputs(tmp_path, name):
    def inputs(seed):
        pool = tiny(name, tmp_path).build(seed)
        if name == "rows":
            return [sweep.seed for sweep in pool]
        boxes = [inv.box for inv in pool] if name == "report" else pool
        return [box.x0.tolist() for box in boxes]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def _tamper(name, output):
    """Raise one reported bound far above anything achievable."""
    if name == "report":
        output["targets"][0]["l_hybrid"] += 100.0
        return output
    if name == "rows":
        first = dataclasses.replace(output[0], lower=output[0].attack + 100.0)
        return [first] + output[1:]
    bounds = list(output.bounds)
    bounds[0] = dataclasses.replace(bounds[0], l_hybrid=bounds[0].l_hybrid + 100.0)
    return dataclasses.replace(output, bounds=bounds)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_injected_wrong_bound_counts_as_a_failure(tmp_path, name):
    workload = tiny(name, tmp_path)
    pool = workload.build(1)
    outputs = run_items(workload, pool)
    attempts = [run.Attempt(i, 1, 1, out, None) for i, out in enumerate(outputs)]
    assert run.check_attempts(workload, pool, attempts, {}) == []
    attempts[1].output = _tamper(name, outputs[1])
    failures = run.check_attempts(workload, pool, attempts, {})
    assert len(failures) == 1 and "above" in failures[0]
    workload.close()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced_bit_for_bit(tmp_path, name):
    workload = tiny(name, tmp_path)
    pool = workload.build(3)
    plain = [workload.fingerprint(o) for o in run_items(workload, pool)]
    tracer = tracing.Tracer()
    traced = [workload.fingerprint(o) for o in run_items(workload, pool, tracer)]
    assert traced == plain
    assert len(tracer.spans) > 2 * len(pool)
    workload.close()


def test_item_self_times_sum_to_its_wall_time(tmp_path):
    workload = tiny("verify", tmp_path, size=1)
    pool = workload.build(1)
    tracer = tracing.Tracer()
    run_items(workload, pool, tracer)
    spans = tracer.spans
    own = tracing.self_times(spans)
    root = next(s for s in spans if s.name == tracing.ITEM)
    assert sum(own) == root.end - root.start
    assert all(t >= 0 for t in own)
    tracing.check_item_sums(spans, own)
    with pytest.raises(RuntimeError):
        tracing.check_item_sums(spans, own[:-1] + [own[-1] + 1])


def test_fast_mode_bounds_match_the_reference(tmp_path):
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, tmp_path / "work")
        try:
            attempted, failures = run.check_reference(workload)
        finally:
            workload.close()
        assert attempted == run.REFERENCE_SIZE and failures == []


def test_directory_without_sources_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert "no attncert sources" in run.load_package()
