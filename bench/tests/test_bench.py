"""Tests of the benchmark itself: a tiny end-to-end run and the span arithmetic.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402

CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "reg": workloads.Workload(
        name="tiny_reg",
        task="reg",
        rows=60,
        cols=3,
        classes=0,
        datasets_per_process=1,
        replay_repeats=2,
        config={
            "episodes": 1,
            "steps_per_episode": 2,
            "application_episodes": 1,
            "folds": 2,
            "trees": 2,
            "max_depth": 3,
            "hidden_size": 8,
            "batch_size": 1,
        },
        why="smoke test",
    ),
    "cls": workloads.Workload(
        name="tiny_cls",
        task="cls",
        rows=60,
        cols=4,
        classes=3,
        datasets_per_process=1,
        replay_repeats=2,
        config={
            "episodes": 1,
            "steps_per_episode": 2,
            "application_episodes": 0,
            "model": "nearest-centroid",
            "hidden_size": 8,
            "batch_size": 1,
        },
        why="smoke test",
    ),
}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("task", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(monkeypatch, capsys, task, trace):
    w = TINY[task]
    monkeypatch.setitem(workloads.WORKLOADS, w.name, w)
    code = run.main(["--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in out.splitlines()
        )
    if not trace:
        assert "digest d0" in out
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_same_seed_gives_same_inputs(tmp_path):
    w = workloads.WORKLOADS["cls_forest_nodewise"]
    for k in (0, 1):
        workloads.write_inputs(w, 5, tmp_path / f"{k}.csv", tmp_path / f"{k}.json")
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()


def _span(name, start, end, parent, info=None):
    return [name, float(start), float(end), parent, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.train", 0, 10, -1),
        _span("pipeline.step", 1, 9, 0),
        _span("evaluator.evaluate", 2, 5, 1, [6, "a"]),
        _span("agents.train_step", 5, 8, 1),
        _span("encoder.rgcn_forward", 6, 7, 3),
    ]
    assert self_times(spans) == [2.0, 2.0, 3.0, 2.0, 1.0]


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        _span("cli.train", 0, 20, -1),
        _span("pipeline.step", 1, 10, 0),
        _span("encoder.rgcn_forward", 1, 2, 1),
        _span("evaluator.evaluate", 2, 6, 1, [6, "m1"]),
        _span("agents.train_step", 6, 9, 1),
        _span("encoder.rgcn_forward", 7, 8, 4),
        _span("pipeline.step", 10, 19, 0),
        _span("evaluator.evaluate", 11, 13, 6, [6, "m1"]),
        _span("opset.apply", 13, 14, 6, True),
        _span("opset.apply", 14, 15, 6, False),
        _span("cli.apply", 30, 32, -1),
        _span("evaluator.evaluate", 30, 31, 10, [6, "m1"]),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, train_s=16.0, overhead_ratio=0.25).items()}
    assert m["evaluator.evaluate.calls"] == 3
    assert m["evaluator.evaluate.self_s"] == 7.0
    # Repeats count within the train process only: 1 of its 2 calls.
    assert m["evaluator.evaluate.repeat_ratio"] == 0.5
    assert m["evaluator.evaluate.share_of_train"] == 6.0 / 16.0
    assert m["evaluator.evaluate.p50_ms"] == 2000.0
    assert m["encoder.rgcn_forward.outside_learning_per_step"] == 0.5
    assert m["agents.train_step.self_s"] == 2.0
    assert m["agents.train_step.total_s"] == 3.0
    assert m["opset.apply.accept_ratio"] == 0.5
    assert m["pipeline.steps"] == 2
    # Step 1: 9 - (1 + 4 + 3) = 1; step 2: 9 - (2 + 1 + 1) = 5.
    assert m["pipeline.self_s"] == 6.0
    assert m["cli.train.self_s"] == 20.0 - 18.0
    assert m["trace.overhead_ratio"] == 0.25


def test_tracer_records_parents_and_info():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("opset.apply", lambda v: None if v < 0 else v)
    outer = tracer.wrap("pipeline.step", lambda: [inner(1), inner(-1)])
    outer()
    assert tracer.spans == [
        ["pipeline.step", 0, 5, -1, None],
        ["opset.apply", 1, 2, 0, True],
        ["opset.apply", 3, 4, 0, False],
    ]
