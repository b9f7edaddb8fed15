"""The tracer: identity rebinding, restoration, self time and repeatable counts."""

import json
import sys
from pathlib import Path

import pytest

import cpmasa as cm
import workloads
from tracer import LAYERS, Tracer, metric_units

ROOT = Path(__file__).resolve().parents[2]
# layers' self times must account for the traced task time to within this fraction
SELF_TIME_FRACTION = 0.02


def _bindings():
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "cpmasa" or name.startswith("cpmasa.")
        for attr, value in vars(module).items()
    }


def _small_tasks(workload, seed=1, max_dim=8):
    tasks, _ = workloads.build(workload, seed)
    return [t for t in tasks if t.size <= max_dim]


def _traced_summary(tasks):
    tracer = Tracer()
    with tracer:
        for i, task in enumerate(tasks):
            assert task.check(tracer.run_task(i, task.call)) is None, task.label
    return tracer.summary()


def test_untraced_run_leaves_every_binding_untouched():
    before = _bindings()
    for task in _small_tasks("gksl") + _small_tasks("certify"):
        assert task.check(task.call()) is None, task.label
    assert _bindings() == before


def test_install_rebinds_aliases_and_uninstall_restores():
    before = _bindings()
    original = cm.cpmaps.superoperator
    tracer = Tracer().install()
    try:
        wrapped = cm.cpmaps.superoperator
        assert wrapped is not original
        # the same function object under its aliases gets the same wrapper
        assert cm.map_superoperator is wrapped
        assert cm.gksl.map_superoperator is wrapped
        assert cm.masa.map_superoperator is wrapped
        assert cm.gksl.superoperator is not wrapped
        for layer, fns in LAYERS.items():
            for fn in fns:
                assert getattr(getattr(cm, layer), fn).__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert cm.cpmaps.superoperator is original


def test_layer_self_times_sum_to_task_time():
    summary = _traced_summary(_small_tasks("gksl") + _small_tasks("certify"))
    layers = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    wall = summary["task.wall_s"]
    assert wall > 0
    assert abs(wall - layers) <= SELF_TIME_FRACTION * wall
    assert sum(summary[f"{layer}.share"] for layer in LAYERS) == pytest.approx(layers / wall)


def test_call_counts_repeat_across_traced_runs():
    tasks = _small_tasks("search", max_dim=3)[:4]
    first = _traced_summary(tasks)
    second = _traced_summary(tasks)
    counts = [k for k, unit in metric_units().items() if unit == "count" and k in first]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_search_counts_restarts_beneath_search_masa():
    tasks = [t for t in _small_tasks("search", max_dim=3) if not t.label.startswith("m2")][:2]
    summary = _traced_summary(tasks)
    assert summary["masa.search_masa.calls"] == 2
    assert summary["masa.search_masa.restarts"] == 2 * workloads.SEARCH_RESTARTS
    assert summary["masa.search_masa.line_search_trials"] == summary["linalg.expm_skew.calls"]


def test_corpus_task_counts_cli_and_corpus():
    task = workloads.build("corpus", 0)[0][1]  # ex2_2, a few milliseconds
    summary = _traced_summary([task])
    assert summary["cli.main.calls"] == 1
    assert summary["corpus.verify_example.calls"] == 1
    assert summary["corpus.ex2_2.wall_s"] > 0
    assert summary["corpus.ex2_1.wall_s"] == 0


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
