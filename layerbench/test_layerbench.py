"""Self-tests of the benchmark: seeding, checkers, tracing, printed names.

Run from the repository root::

    python3 -m pytest layerbench -q

The graphs are shrunk so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_repro()

import batch  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import report as rep  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402
from repro.cache import RepresentationCache  # noqa: E402
from repro.graph.generators import random_weights, rmat  # noqa: E402
from repro.reference import golden  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's graphs."""
    monkeypatch.setattr(batch, "RMAT_VERTICES", 1_500)
    monkeypatch.setattr(batch, "RMAT_EDGES", 6_000)
    monkeypatch.setattr(batch, "ROAD_ROWS", 60)
    monkeypatch.setattr(batch, "SETUPS", 1)
    monkeypatch.setattr(service_mix, "RMAT_VERTICES", 600)
    monkeypatch.setattr(service_mix, "RMAT_EDGES", 2_400)
    monkeypatch.setattr(service_mix, "ROAD_ROWS", 30)
    monkeypatch.setattr(service_mix, "SETUPS", 1)


def _same_graph(a, b) -> bool:
    return (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
            and np.array_equal(a.weights, b.weights))


# -- seeding -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(batch.SPECS))
def test_batch_inputs_follow_the_seed(small, name):
    spec = batch.SPECS[name]
    a, b = batch.make_inputs(spec, 7), batch.make_inputs(spec, 7)
    c = batch.make_inputs(spec, 8)
    assert _same_graph(a.graph, b.graph) and a.source == b.source
    assert not _same_graph(a.graph, c.graph)
    sources = {batch.make_inputs(spec, s).source for s in range(8)}
    assert len(sources) > 1


def test_batch_exact_counts_repeat_for_a_seed(small):
    spec = batch.SPECS["overlays-sparse"]
    first = batch.run_pass(spec, batch.make_inputs(spec, 3),
                           RepresentationCache())
    again = batch.run_pass(spec, batch.make_inputs(spec, 3),
                           RepresentationCache())
    for (_, a, _), (_, b, _) in zip(first, again):
        assert checks.same_run(a, b)


def test_service_arrivals_follow_the_seed(small):
    def shape(inputs):
        return [(qps, [(r.due, r.program, r.source, r.tenant,
                        r.graph.src.tobytes()) for r in reqs])
                for qps, _, reqs in inputs.rungs]

    a, b = service_mix.make_inputs(5, 4), service_mix.make_inputs(5, 4)
    c = service_mix.make_inputs(6, 4)
    assert shape(a) == shape(b)
    assert all(_same_graph(x, y) for x, y in zip(a.hot, b.hot))
    assert shape(a) != shape(c)
    assert not _same_graph(a.hot[0], c.hot[0])
    programs = {r.program for _, _, reqs in a.rungs for r in reqs}
    assert programs == {"bfs", "sssp", "pr", "cc"}


# -- the checkers are not vacuous ----------------------------------------

def test_planted_wrong_answer_is_a_failure(small):
    spec = batch.SPECS["matrix-rmat"]
    inputs = batch.make_inputs(spec, 1)
    results = [r for _, r, _ in batch.run_pass(spec, inputs,
                                                RepresentationCache())]
    clean = rep.Report("matrix-rmat", 1, 1, 0)
    batch.verify(inputs, results, clean, checks.Oracle())
    assert clean.correct and clean.failed == 0

    planted = rep.Report("matrix-rmat", 1, 1, 0)
    bad = results[0]
    field = bad.values.dtype.names[0]
    bad.values[field][5] += 1
    batch.verify(inputs, results, planted, checks.Oracle())
    assert not planted.correct and planted.failed == 1


def test_same_run_sees_a_changed_count(small):
    spec = batch.SPECS["overlays-dense"]
    inputs = batch.make_inputs(spec, 2)
    (_, a, _), = batch.run_pass(spec, inputs, RepresentationCache())[:1]
    (_, b, _), = batch.run_pass(spec, inputs, RepresentationCache())[:1]
    assert checks.same_run(a, b)
    b.exchange_bytes += 1
    assert not checks.same_run(a, b)


def test_planted_wrong_service_answer_is_a_failure(small):
    class Handle:
        def __init__(self, result):
            self._result = result

        def result(self, timeout=None):
            return self._result

    inputs = service_mix.make_inputs(1, 2)
    req = next(r for _, _, reqs in inputs.rungs for r in reqs
               if r.program == "bfs")
    from repro.frameworks import make_engine
    from repro.algorithms import make_program
    solo = make_engine("cusha-cw").run(
        req.graph, make_program("bfs", req.graph, source=req.source))
    good = service_mix.Outcome(req, 0.0, done=0.01, handle=Handle(solo))
    wrong = solo.values.copy()
    wrong["level"][req.source] = 3
    solo_bad = type(solo)(**{**solo.__dict__, "values": wrong})
    bad = service_mix.Outcome(req, 0.0, done=0.01, handle=Handle(solo_bad))
    report = rep.Report("service-mix", 1, 1, 0)
    kept = service_mix.account([good, bad], report, checks.Oracle())
    assert kept == [good]
    assert report.wrong == 1 and report.failed == 1 and report.attempted == 2


# -- the scalable oracles agree with repro.reference.golden --------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracles_match_golden(seed):
    g = random_weights(rmat(200, 900, seed=seed), seed=seed)
    assert np.allclose(checks.pagerank_fixpoint(g),
                       golden.pagerank_fixpoint(g), atol=1e-9)
    assert np.array_equal(checks.ancestor_min_labels(g),
                          golden.ancestor_min_labels(g))
    oracle = checks.Oracle()
    for source in (0, 17, 99):
        want = golden.sssp_distances(g, source)
        assert np.array_equal(oracle.expected(g, "sssp", source), want)


# -- tracing -------------------------------------------------------------

def test_traced_run_restores_and_matches(small):
    spec = batch.SPECS["overlays-dense"]
    inputs = batch.make_inputs(spec, 4)
    plain = batch.run_pass(spec, inputs, RepresentationCache())
    recorder = spans.SpanRecorder()
    with spans.Patcher(recorder):
        assert spans.wrapped_bindings()
        traced = batch.run_pass(spec, inputs, RepresentationCache())
    assert spans.wrapped_bindings() == []
    for (_, a, _), (_, b, _) in zip(plain, traced):
        assert checks.same_run(a, b)
    per_layer, root_wall = spans.layer_self_seconds(recorder.spans)
    assert root_wall > 0
    assert sum(per_layer.values()) == pytest.approx(root_wall, rel=1e-9)
    for layer in ("graph", "cache", "analysis", "frameworks", "algorithms",
                  "gpu", "frontier", "placement", "telemetry"):
        assert per_layer[layer] > 0, layer
    # The engines' own import-time bindings were wrapped, not only the
    # defining module's.
    names = {s[2] for s in recorder.spans}
    assert "repro.gpu.pcie.transfer_ms" in names
    assert "repro.placement.multi_device_run" in names


def test_self_time_subtracts_children():
    spans_ = [(1, 0, "a", "frameworks", 0.0, 10.0, 1),
              (2, 1, "b", "gpu", 1.0, 4.0, 1),
              (3, 2, "c", "frameworks", 2.0, 3.0, 1),
              (4, 0, "d", "gpu", 0.0, 5.0, 2)]
    assert spans.self_times(spans_) == {1: 7.0, 2: 2.0, 3: 1.0, 4: 5.0}
    per_layer, wall = spans.layer_self_seconds(spans_, roots=("a",))
    assert wall == 10.0
    assert per_layer["frameworks"] == 8.0 and per_layer["gpu"] == 2.0


# -- what gets printed ---------------------------------------------------

def _printed_metrics(capsys, argv) -> str:
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return "".join(f"trace={argv[-1]} {name} {m['unit']}\n"
                   for name, m in result["metrics"].items())


def test_printed_metric_names_and_units(small, capsys):
    actual = "".join(
        _printed_metrics(capsys, ["--workload", "overlays-sparse", "--seed",
                                  "1", "--seconds", "0.1", "--trace", t])
        for t in ("0", "1"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "metrics.actual").write_text(actual)
    expected = (HERE / "metrics.expected").read_text()
    assert actual == expected


def test_benchmark_json_mirrors_the_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(
        run.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "matrix-rmat", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode == 2
    assert "{" not in proc.stdout
