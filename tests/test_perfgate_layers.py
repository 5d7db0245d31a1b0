"""Characterization of ``python -m repro perfgate``'s benchmark layers.

Every live layer (perf_smoke, service, frontier, ranges, placement) is
driven through ``main(["perfgate", ...])`` with a scripted fake bench
module in place of ``benchmarks/bench_<name>.py``, so the compare /
retry / rebaseline / artifact paths run in milliseconds.  The tests run
in a temporary working directory that holds the default baselines
(``benchmarks/baselines/<name>.json``) and the gate report.
"""

import copy
import json

import pytest

from repro import cli
from repro.analysis import budgets

ORDER = ("perf_smoke", "service", "frontier", "ranges", "placement")

SKIP_FLAG = {
    "perf_smoke": "--skip-bench", "service": "--skip-service",
    "frontier": "--skip-frontier", "ranges": "--skip-ranges",
    "placement": "--skip-placement",
}

#: layer -> (drift code, report keys of its baseline path and its bench)
GATE = {
    "perf_smoke": ("P320", "baseline", "bench"),
    "service": ("P323", "service_baseline", "service_bench"),
    "frontier": ("P325", "frontier_baseline", "frontier_bench"),
    "ranges": ("P327", "ranges_baseline", "ranges_bench"),
    "placement": ("P329", "placement_baseline", "placement_bench"),
}

#: layer -> (contract code, section field that breaks the contract)
CONTRACT = {
    "service": ("P322", {"model_speedup": 1.0}),
    "frontier": ("P324", {"bit_exact": False}),
    "ranges": ("P326", {"byte_reduction": 0.05}),
    "placement": ("P328", {"exchange_bytes": 0}),
}

TIMED = ("perf_smoke", "service", "frontier", "placement")


def _report(layer: str) -> dict:
    """A comparable, contract-clean report shaped like the bench output."""
    if layer == "perf_smoke":
        row = {
            "exec_path": "fast", "reference_exec_path": "reference",
            "fast_median_s": 1.0, "reference_median_s": 2.0, "speedup": 2.0,
            "cold_cache_s": 1.2, "warm_cache_median_s": 0.9,
            "fast_min_s": 0.9, "reference_min_s": 1.9,
            "warm_cache_min_s": 0.8, "cache_hits": 2,
            "cache_hits_per_run": 2, "cache_misses": 2, "iterations": 40,
        }
        return {
            "graph": {"vertices": 512, "edges": 4096, "seed": 13,
                      "generator": "rmat"},
            "program": "pr", "max_iterations": 60, "repeats": 1,
            "engines": {"cusha-cw": dict(row), "vwc-8": dict(row)},
        }
    common = {
        "graph": {"generator": "rmat", "vertices": 1024, "edges": 8192,
                  "seed": 5},
        "program": "bfs", "engine": "cusha-cw", "max_iterations": 50,
        "repeats": 1,
    }
    sections = {
        "service": {
            "batched_with": 32, "iterations": 18,
            "sequential_model_ms": 3.5, "batched_model_ms": 0.4,
            "model_speedup": 8.0,
            "sequential_wall_min_s": 0.08, "batched_wall_min_s": 0.05,
        },
        "frontier": {
            "bit_exact": True, "iterations": 193, "peak_iteration": 30,
            "edges_processed": 500_000, "shards_skipped": 21_000,
            "skip_fraction": 0.88, "tail_model_savings": 8.7,
            "full_model_ms": 60.0, "sparse_model_ms": 47.0,
            "model_speedup": 1.28,
            "full_wall_min_s": 0.10, "sparse_wall_min_s": 0.085,
        },
        "ranges": {
            "bit_exact": True, "iterations": 6,
            "narrowed_fields": ["level:uint16"], "vertex_bytes_off": 4,
            "vertex_bytes_auto": 2, "bytes_off": 798_240,
            "bytes_auto": 614_832, "byte_reduction": 0.2298,
        },
        "placement": {
            "bit_exact": True, "iterations": 44, "devices": 4,
            "exchange_bytes": 704_028, "exchange_ms": 0.4887,
            "single_model_ms": 3.5394, "multi_model_ms": 2.2213,
            "model_speedup": 1.59,
            "single_wall_min_s": 0.2805, "multi_wall_min_s": 0.2821,
        },
    }
    out = dict(common, **{layer: dict(sections[layer])})
    if layer == "service":
        out["sources"] = 32
    if layer == "placement":
        out["devices"] = 4
    return out


def _rows(layer: str, report: dict) -> list[dict]:
    if layer == "perf_smoke":
        return list(report["engines"].values())
    return [report[layer]]


def _timing(layer: str) -> str:
    return {
        "perf_smoke": "fast_min_s",
        "service": "batched_wall_min_s",
        "frontier": "sparse_wall_min_s",
        "placement": "multi_wall_min_s",
    }[layer]


def _exact(layer: str) -> str:
    return {
        "perf_smoke": "iterations", "service": "iterations",
        "frontier": "shards_skipped", "ranges": "bytes_auto",
        "placement": "exchange_bytes",
    }[layer]


def _with(layer: str, **fields) -> dict:
    """``_report(layer)`` with ``fields`` set on every engine/section row."""
    report = _report(layer)
    for row in _rows(layer, report):
        row.update(fields)
    return report


def _scaled(layer: str, factor: float) -> dict:
    report = _report(layer)
    for row in _rows(layer, report):
        row[_timing(layer)] = round(row[_timing(layer)] * factor, 4)
    return report


class FakeBench:
    """Stands in for a ``benchmarks/bench_<name>.py`` module: each
    ``run_bench`` call returns the next scripted report (the last one
    repeats) and records the ``repeats`` it was asked for."""

    def __init__(self, results, reports):
        self.RESULTS = results
        self.reports = list(reports)
        self.calls = []

    def run_bench(self, repeats=1, echo=print):
        self.calls.append(repeats)
        i = min(len(self.calls), len(self.reports)) - 1
        return copy.deepcopy(self.reports[i])


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """``gate.script(layer, *reports)`` sets a layer's bench output;
    ``gate(*args)`` runs perfgate and returns ``(rc, report)``."""
    monkeypatch.chdir(tmp_path)
    baselines = tmp_path / "benchmarks" / "baselines"
    baselines.mkdir(parents=True)
    results = tmp_path / "results"

    class Gate:
        benches = {layer: FakeBench(results, [_report(layer)])
                   for layer in ORDER}

        @staticmethod
        def baseline_path(layer):
            return baselines / f"{layer}.json"

        @staticmethod
        def artifact(layer):
            return results / f"BENCH_{layer}.json"

        def script(self, layer, *reports):
            self.benches[layer].reports = list(reports)

        def write_baseline(self, layer, report):
            self.baseline_path(layer).write_text(json.dumps(report))

        def calls(self):
            return {layer: b.calls for layer, b in self.benches.items()}

        def __call__(self, *args):
            rc = cli.main(["perfgate", "--skip-drift", *args])
            path = tmp_path / "benchmarks" / "results" / \
                "PERFGATE_report.json"
            report = json.loads(path.read_text()) if path.exists() else None
            return rc, report

    g = Gate()
    for layer in ORDER:
        g.write_baseline(layer, _report(layer))
    monkeypatch.setattr(
        cli, "_load_bench_module",
        lambda name="bench_perf_smoke":
            g.benches[name.removeprefix("bench_")])
    return g


def _codes(report) -> set:
    return {v["code"] for v in report["violations"]}


def test_clean_pass_runs_every_layer_once(gate):
    rc, report = gate()
    assert rc == 0
    assert report["ok"] is True and report["violations"] == []
    assert gate.calls() == {layer: [1] for layer in ORDER}
    assert set(report) == {
        "command", "ok", "errors", "warnings", "violations", "drift",
        "baseline", "bench", "service_baseline", "service_bench",
        "frontier_baseline", "frontier_bench", "ranges_baseline",
        "ranges_bench", "placement_baseline", "placement_bench", "metrics",
    }
    for layer in ORDER:
        _, base_key, bench_key = GATE[layer]
        assert report[base_key] == f"benchmarks/baselines/{layer}.json"
        assert report[bench_key] == _report(layer)


def test_live_layers_write_their_bench_artifact(gate):
    gate.script("frontier", _with("frontier", iterations=194))
    rc, _ = gate()
    assert rc == 1
    for layer in ORDER[1:]:
        expect = (_with("frontier", iterations=194) if layer == "frontier"
                  else _report(layer))
        assert json.loads(gate.artifact(layer).read_text()) == expect
    assert not gate.artifact("perf_smoke").exists()


def test_repeats_scale_every_live_run(gate):
    rc, _ = gate("--repeats", "3")
    assert rc == 0
    assert gate.calls() == {layer: [3] for layer in ORDER}


@pytest.mark.parametrize("layer", TIMED)
def test_timing_regression_cleared_by_faster_rerun(gate, layer):
    gate.script(layer, _scaled(layer, 1.5), _scaled(layer, 0.8))
    rc, report = gate()
    assert rc == 0, report["violations"]
    assert gate.calls()[layer] == [1, 2]
    # The min fold keeps the faster re-run's timing and nothing else.
    want = _scaled(layer, 0.8)
    for row, wrow in zip(_rows(layer, report[GATE[layer][2]]),
                         _rows(layer, want)):
        assert row[_timing(layer)] == wrow[_timing(layer)]
    if layer != "perf_smoke":
        got = json.loads(gate.artifact(layer).read_text())
        assert got == report[GATE[layer][2]]


@pytest.mark.parametrize("layer", TIMED)
def test_min_fold_keeps_the_first_runs_exact_metrics(gate, layer):
    # The re-run is fast but reports a different exact metric: the fold
    # must not launder it in, so the gate passes on the first run's.
    rerun = _scaled(layer, 0.8)
    for row in _rows(layer, rerun):
        row[_exact(layer)] += 1
    gate.script(layer, _scaled(layer, 1.5), rerun)
    rc, report = gate()
    assert rc == 0, report["violations"]
    for row in _rows(layer, report[GATE[layer][2]]):
        assert row[_exact(layer)] == _rows(layer, _report(layer))[0][
            _exact(layer)]


@pytest.mark.parametrize("layer", TIMED)
def test_timing_regression_that_survives_both_retries(gate, layer):
    gate.script(layer, _scaled(layer, 1.5))
    rc, report = gate()
    assert rc == 1
    assert gate.calls()[layer] == [1, 2, 3]
    assert _codes(report) == {GATE[layer][0]}
    assert all(_timing(layer) in v["message"] for v in report["violations"])


@pytest.mark.parametrize("layer", ORDER)
def test_exact_metric_change_fails_without_retry(gate, layer):
    report = _report(layer)
    for row in _rows(layer, report):
        row[_exact(layer)] += 1
    gate.script(layer, report)
    rc, out = gate()
    assert rc == 1
    assert gate.calls()[layer] == [1]
    assert _codes(out) == {GATE[layer][0]}


@pytest.mark.parametrize("layer", TIMED)
def test_exact_change_with_timing_regression_is_not_retried(gate, layer):
    report = _scaled(layer, 1.5)
    for row in _rows(layer, report):
        row[_exact(layer)] += 1
    gate.script(layer, report)
    rc, out = gate()
    assert rc == 1
    assert gate.calls()[layer] == [1]
    assert _codes(out) == {GATE[layer][0]}


@pytest.mark.parametrize("layer", ORDER)
def test_match_key_mismatch_fires_p321(gate, layer):
    report = _report(layer)
    report["program"] = "sswp"
    gate.script(layer, report)
    rc, out = gate()
    assert rc == 1
    assert gate.calls()[layer] == [1]
    assert _codes(out) == {"P321"}
    assert any("program" in v["message"] for v in out["violations"])


def test_exec_path_mismatch_fires_p321_and_blocks_retry(gate):
    report = _scaled("perf_smoke", 1.5)
    report["engines"]["vwc-8"]["exec_path"] = "reference"
    gate.script("perf_smoke", report)
    rc, out = gate()
    assert rc == 1
    assert gate.calls()["perf_smoke"] == [1]
    assert "P321" in _codes(out)


@pytest.mark.parametrize("layer", sorted(CONTRACT))
def test_contract_violation_fails_the_gate(gate, layer):
    code, fields = CONTRACT[layer]
    broken = _with(layer, **fields)
    gate.write_baseline(layer, broken)
    gate.script(layer, broken)
    rc, out = gate()
    assert rc == 1
    assert gate.calls()[layer] == [1]
    assert _codes(out) == {code}


def test_rebaseline_writes_the_max_fold(gate):
    for layer in ORDER:
        gate.baseline_path(layer).unlink()
        rerun = _scaled(layer, 1.25) if layer in TIMED else _report(layer)
        for row in _rows(layer, rerun):
            row[_exact(layer)] += 1
        gate.script(layer, _report(layer), rerun)
    rc, report = gate("--rebaseline")
    assert rc == 0
    calls = gate.calls()
    for layer in ORDER:
        # Ranges has no timing metric to fold, so it never re-measures.
        assert calls[layer] == ([1] if layer == "ranges" else [1, 1])
        written = json.loads(gate.baseline_path(layer).read_text())
        if layer in TIMED:
            for row, slow in zip(_rows(layer, written),
                                 _rows(layer, _scaled(layer, 1.25))):
                assert row[_timing(layer)] == slow[_timing(layer)]
        for row in _rows(layer, written):
            assert row[_exact(layer)] == _rows(layer, _report(layer))[0][
                _exact(layer)]
        _, base_key, bench_key = GATE[layer]
        assert report[base_key] is None
        assert report[bench_key] == written
        if layer != "perf_smoke":
            assert json.loads(gate.artifact(layer).read_text()) == written


def test_rebaseline_from_current_file_does_not_run_anything(gate, tmp_path):
    current = tmp_path / "current.json"
    current.write_text(json.dumps(_scaled("perf_smoke", 1.25)))
    rc, _ = gate("--rebaseline", "--current", str(current))
    assert rc == 0
    assert gate.calls() == {layer: [] for layer in ORDER}
    assert json.loads(gate.baseline_path("perf_smoke").read_text()) == \
        _scaled("perf_smoke", 1.25)


def test_current_file_is_never_retried_and_skips_live_layers(gate, tmp_path):
    current = tmp_path / "current.json"
    current.write_text(json.dumps(_scaled("perf_smoke", 1.5)))
    rc, report = gate("--current", str(current))
    assert rc == 1
    assert gate.calls() == {layer: [] for layer in ORDER}
    assert _codes(report) == {"P320"}
    for layer in ORDER[1:]:
        _, base_key, bench_key = GATE[layer]
        assert report[base_key] is None and report[bench_key] is None


@pytest.mark.parametrize("layer", ORDER)
def test_missing_baseline_exits_2(gate, layer, capsys):
    gate.baseline_path(layer).unlink()
    rc, _ = gate()
    assert rc == 2
    assert "perfgate-rebaseline" in capsys.readouterr().err
    calls = gate.calls()
    at = ORDER.index(layer)
    assert all(calls[x] == [1] for x in ORDER[:at + 1])
    assert all(calls[x] == [] for x in ORDER[at + 1:])
    assert not gate.artifact(layer).exists()


@pytest.mark.parametrize("layer", ORDER)
def test_skip_flag_skips_its_layer(gate, layer):
    rc, report = gate(SKIP_FLAG[layer])
    assert rc == 0
    assert gate.calls()[layer] == []
    _, base_key, bench_key = GATE[layer]
    assert report[base_key] is None and report[bench_key] is None
    assert all(gate.calls()[x] == [1] for x in ORDER if x != layer)


def test_every_timed_metric_is_folded():
    """The scripted rows carry every gated timing metric, so the fold
    and the compare see the same metric sets the gate does."""
    metrics = {
        "perf_smoke": budgets.PERFGATE_TIMING_METRICS,
        "service": budgets.SERVICE_TIMING_METRICS,
        "frontier": budgets.FRONTIER_TIMING_METRICS,
        "placement": budgets.PLACEMENT_TIMING_METRICS,
    }
    for layer, names in metrics.items():
        for row in _rows(layer, _report(layer)):
            assert set(names) <= set(row)
