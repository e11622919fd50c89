"""Command line interface: artifacts, exit codes, configuration."""

import json
import math

import numpy as np
import pytest

from tcto import cli, evaluator
from tcto.cli import main
from tcto.pipeline import Pipeline, RunConfig, config_from_dict, config_to_dict
from tcto.roadmap import Roadmap
from tcto.synth import synthetic_regression, write_csv
from tcto.tabular import CLASSIFICATION, Dataset

FAST_CONFIG = {
    "episodes": 1,
    "steps_per_episode": 3,
    "application_episodes": 1,
    "hidden_size": 8,
    "batch_size": 4,
    "candidate_cap": 8,
    "folds": 2,
    "trees": 2,
    "max_depth": 3,
}


def _write_dataset(path, n=48, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=n)
    x1 = rng.uniform(-2.0, 2.0, size=n)
    x2 = rng.normal(size=n)
    d = Dataset(
        column_names=("a", "b", "c"),
        columns=(x0, x1, x2),
        labels=x0 * x1 + 0.05 * rng.normal(size=n),
        task="regression",
    )
    write_csv(d, path)
    return d


@pytest.fixture()
def fast_config_path(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


@pytest.fixture()
def run_dir(tmp_path, fast_config_path):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(out),
            "--config",
            fast_config_path,
        ]
    )
    assert code == 0
    return tmp_path, csv_path, out


# -- usage errors ----------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flags_are_usage_errors(capsys):
    assert main(["train"]) == 1
    assert main(["export", "--roadmap", "x"]) == 1  # no --format
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


# -- train ------------------------------------------------------------------------


def test_train_prints_a_score_summary(tmp_path, fast_config_path, capsys):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(tmp_path / "run"),
            "--config",
            fast_config_path,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "baseline score" in stdout
    assert "test score" in stdout


def test_train_writes_the_full_artifact_set(run_dir):
    _, csv_path, out = run_dir
    for name in (
        "config.json",
        "steps.jsonl",
        "best_roadmap.json",
        "checkpoint.json",
        "summary.json",
    ):
        assert (out / name).exists(), name

    config = json.loads((out / "config.json").read_text())
    assert config["task"] == "reg"
    assert config["label"] == "label"
    assert config["run"]["episodes"] == 1
    assert config["run"]["folds"] == 2

    lines = (out / "steps.jsonl").read_text().splitlines()
    assert len(lines) == 3 + 3
    first = json.loads(lines[0])
    assert first["phase"] == "explore"
    assert json.loads(lines[-1])["phase"] == "apply"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "reg"
    assert summary["n_train"] + summary["n_test"] == 48
    assert set(summary["phases"]) == {"explore", "apply"}
    assert summary["phases"]["explore"]["steps"] == 3
    assert set(summary["timings"]["explore"]) == {
        "clustering",
        "decision",
        "roadmap_update",
        "reward_estimation",
        "learning",
        "pruning",
        "total",
    }

    roadmap = Roadmap.import_json((out / "best_roadmap.json").read_bytes())
    assert roadmap.root_count == 3


def test_identical_trains_write_identical_loadable_checkpoints(run_dir):
    tmp_path, csv_path, out = run_dir
    again = tmp_path / "again"
    args = ["train", "--data", str(csv_path), "--task", "reg", "--label", "label"]
    assert main(args + ["--out", str(again), "--config", str(tmp_path / "fast.json")]) == 0
    blob = (out / "checkpoint.json").read_bytes()
    assert (again / "checkpoint.json").read_bytes() == blob
    assert json.loads(blob)["version"] == 2

    cfg = config_from_dict(json.loads((out / "config.json").read_text())["run"])
    pipe = Pipeline(_write_dataset(tmp_path / "copy.csv"), cfg)
    pipe.load_checkpoint(out / "checkpoint.json")
    assert pipe.trained


def test_train_cli_flags_override_the_config_file(tmp_path, fast_config_path):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(out),
            "--config",
            fast_config_path,
            "--episodes",
            "2",
            "--steps",
            "2",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    config = json.loads((out / "config.json").read_text())
    assert config["run"]["episodes"] == 2
    assert config["run"]["steps_per_episode"] == 2
    assert config["run"]["seed"] == 5
    lines = (out / "steps.jsonl").read_text().splitlines()
    assert len(lines) == 2 * 2 + 1 * 2


def _train(tmp_path, config: dict, *flags):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    config_path = tmp_path / "config_in.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = ["train", "--data", str(csv_path), "--task", "reg", "--label", "label"]
    code = main(argv + ["--out", str(out), "--config", str(config_path), *flags])
    return code, out


def test_the_environment_does_not_set_the_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("TCTO_SEED", "123")
    code, out = _train(tmp_path, FAST_CONFIG, "--seed", "5")
    assert code == 0
    assert json.loads((out / "config.json").read_text())["run"]["seed"] == 5


def test_a_flag_replaces_a_file_value_before_validation(tmp_path):
    code, out = _train(tmp_path, {**FAST_CONFIG, "episodes": -1}, "--episodes", "1")
    assert code == 0
    assert json.loads((out / "config.json").read_text())["run"]["episodes"] == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("episodes", 1.5),
        ("steps_per_episode", 2.0),
        ("folds", 2.5),
        ("seed", 1.5),
        ("use_rgcn", "false"),
        ("hidden_size", 2.5),
        ("candidate_cap", 1.5),
        ("episodes", True),
    ],
)
def test_a_config_value_of_the_wrong_json_type_exits_one(tmp_path, capsys, key, value):
    code, out = _train(tmp_path, {**FAST_CONFIG, key: value})
    assert code == 1
    assert capsys.readouterr().err.startswith(f"tcto: config key {key!r}")
    assert not out.exists()


FLOAT_KEYS = [k for k, v in config_to_dict(RunConfig()).items() if isinstance(v, float)]


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        pytest.param(10**400, id="1e400"),
        pytest.param(-(10**400), id="-1e400"),
    ],
)
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_config_value_exits_one(tmp_path, capsys, key, value):
    code, out = _train(tmp_path, {**FAST_CONFIG, key: value})
    assert code == 1
    assert capsys.readouterr().err.startswith(f"tcto: config key {key!r} must be finite")
    assert not out.exists()


def test_a_batch_larger_than_the_replay_buffer_exits_one(tmp_path, capsys):
    code, out = _train(tmp_path, {**FAST_CONFIG, "batch_size": 17})
    assert code == 1
    assert capsys.readouterr().err.startswith("tcto: batch_size must be <= 16")
    assert not out.exists()


def test_a_diverging_run_exits_two_and_writes_no_nan(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    write_csv(synthetic_regression(n=80, seed=1), csv_path)
    config = {
        "episodes": 3,
        "steps_per_episode": 12,
        "application_episodes": 1,
        "learning_rate": 10.0,
        "folds": 2,
        "trees": 2,
        "max_depth": 3,
    }
    config_path = tmp_path / "diverge.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = ["train", "--data", str(csv_path), "--task", "reg", "--label", "label"]
    code = main(argv + ["--out", str(out), "--config", str(config_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tcto: training diverged") and "learning_rate" in err
    assert "agent" in err or "encoder" in err
    assert not any("NaN" in f.read_text() for f in out.iterdir())


def test_unknown_config_key_exits_one(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weep": 1}))
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(tmp_path / "run"),
            "--config",
            str(bad),
        ]
    )
    assert code == 1
    assert "weep" in capsys.readouterr().err


def test_malformed_config_json_exits_one(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(tmp_path / "run"),
            "--config",
            str(bad),
        ]
    )
    assert code == 1
    capsys.readouterr()


def test_missing_data_file_exits_two(tmp_path, capsys):
    code = main(
        [
            "train",
            "--data",
            str(tmp_path / "nope.csv"),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_missing_label_column_exits_two(tmp_path, fast_config_path, capsys):
    csv_path = tmp_path / "data.csv"
    _write_dataset(csv_path)
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "target",
            "--out",
            str(tmp_path / "run"),
            "--config",
            fast_config_path,
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_a_label_named_twice_in_the_header_exits_two(tmp_path, fast_config_path, capsys):
    csv_path = tmp_path / "data.csv"
    rows = "".join(f"{i},{i % 3},{0.5 * i}\n" for i in range(40))
    csv_path.write_text("x,label,label\n" + rows, encoding="utf-8")
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(tmp_path / "run"),
            "--config",
            fast_config_path,
        ]
    )
    assert code == 2
    assert "column 'label' appears 2 times" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_on_a_column_at_the_float_limit_exits_zero(tmp_path, fast_config_path, capsys):
    rng = np.random.default_rng(3)
    n = 60
    huge = np.where(np.arange(n) % 2 == 0, -1e308, 1e308)
    x = rng.normal(size=n)
    d = Dataset(
        column_names=("huge", "x"),
        columns=(huge, x),
        labels=x + 0.1 * rng.normal(size=n),
        task="regression",
    )
    csv_path = tmp_path / "huge.csv"
    write_csv(d, csv_path)
    with pytest.warns(UserWarning, match="stratification group"):
        code = main(
            [
                "train",
                "--data",
                str(csv_path),
                "--task",
                "reg",
                "--label",
                "label",
                "--out",
                str(tmp_path / "run"),
                "--config",
                fast_config_path,
            ]
        )
    assert code == 0
    capsys.readouterr()


def test_train_with_too_few_rows_for_the_split_names_the_split(
    tmp_path, fast_config_path, capsys
):
    csv_path = tmp_path / "tiny.csv"
    _write_dataset(csv_path, n=8)
    argv = ["train", "--data", str(csv_path), "--task", "reg", "--label", "label"]
    argv += ["--out", str(tmp_path / "run"), "--config", fast_config_path]
    with pytest.warns(UserWarning, match="placing them all in the training split"):
        code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "tcto: the test split of the 8-row dataset" in err
    assert "has 0 row(s); each split needs at least 2" in err


def test_train_on_a_split_too_small_for_cv_exits_two_before_searching(tmp_path, capsys):
    rng = np.random.default_rng(5)
    csv_path = tmp_path / "tiny.csv"
    write_csv(
        Dataset(
            column_names=("a", "b"),
            columns=(rng.normal(size=12), rng.normal(size=12)),
            labels=np.arange(12) % 2,
            task="classification",
        ),
        csv_path,
    )
    config = {k: v for k, v in FAST_CONFIG.items() if k != "folds"}
    config_path = tmp_path / "default_folds.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = ["train", "--data", str(csv_path), "--task", "cls", "--label", "label"]
    assert main(argv + ["--out", str(out), "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "tcto: the test split of the 12-row dataset has 2 row(s), too few for 5-fold CV" in err
    assert not (out / "steps.jsonl").exists()


def test_apply_on_a_split_too_small_for_cv_exits_two_before_scoring(run_dir, capsys):
    tmp_path, _, out = run_dir
    csv_path = tmp_path / "small.csv"
    _write_dataset(csv_path, n=17)
    capsys.readouterr()
    apply_out = tmp_path / "rescore"
    argv = ["apply", "--data", str(csv_path), "--roadmap", str(out / "best_roadmap.json")]
    assert main(argv + ["--out", str(apply_out)]) == 2
    err = capsys.readouterr().err
    assert "tcto: the test split of the 17-row dataset has 3 row(s), too few for 2-fold CV" in err
    assert not (apply_out / "apply_summary.json").exists()


def _overflowing_label_dataset(names, n=60, seed=4):
    """Regression labels spread over the float range, so the score is NaN."""
    rng = np.random.default_rng(seed)
    return Dataset(
        column_names=names,
        columns=tuple(rng.normal(size=n) for _ in names),
        labels=np.linspace(-1.0, 1.0, n) * 1e308,
        task="regression",
    )


def _assert_no_nan_written(out):
    for path in out.rglob("*"):
        if path.is_file():
            assert "NaN" not in path.read_text(), path


def test_train_with_a_non_finite_score_exits_two(tmp_path, fast_config_path, capsys):
    csv_path = tmp_path / "overflow.csv"
    write_csv(_overflowing_label_dataset(("x", "z")), csv_path)
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--data",
            str(csv_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(out),
            "--config",
            fast_config_path,
        ]
    )
    assert code == 2
    assert "tcto: " in capsys.readouterr().err
    _assert_no_nan_written(out)


def test_apply_with_a_non_finite_score_exits_two(run_dir, capsys):
    tmp_path, _, out = run_dir
    csv_path = tmp_path / "overflow.csv"
    write_csv(_overflowing_label_dataset(("a", "b", "c")), csv_path)
    capsys.readouterr()
    apply_out = tmp_path / "rescore"
    code = main(
        [
            "apply",
            "--data",
            str(csv_path),
            "--roadmap",
            str(out / "best_roadmap.json"),
            "--out",
            str(apply_out),
        ]
    )
    assert code == 2
    assert "tcto: " in capsys.readouterr().err
    _assert_no_nan_written(apply_out)


# -- apply ------------------------------------------------------------------------------


def test_apply_rescoring_matches_the_training_summary(run_dir, capsys):
    tmp_path, csv_path, out = run_dir
    apply_out = tmp_path / "rescore"
    code = main(
        [
            "apply",
            "--data",
            str(csv_path),
            "--roadmap",
            str(out / "best_roadmap.json"),
            "--out",
            str(apply_out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "train score" in stdout

    result = json.loads((apply_out / "apply_summary.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert result["train_score"] == summary["best_score"]
    assert result["test_score"] == summary["test_score"]
    assert result["n_train"] == summary["n_train"]


def test_apply_scores_both_splits_in_one_forest_fit(run_dir, monkeypatch, capsys):
    tmp_path, csv_path, out = run_dir
    argv = ["apply", "--data", str(csv_path), "--roadmap", str(out / "best_roadmap.json")]
    fits = []
    forest_folds = evaluator._MODELS["forest"]

    def counted(folds, task, cfg):
        fits.append(len(folds))
        return forest_folds(folds, task, cfg)

    monkeypatch.setitem(evaluator._MODELS, "forest", counted)
    assert main(argv + ["--out", str(tmp_path / "together")]) == 0
    # One fit holds both splits' folds.
    assert fits == [2 * FAST_CONFIG["folds"]]

    def each_alone(pairs, task, cfg):
        return [evaluator.evaluate(X, y, task, cfg) for X, y in pairs]

    monkeypatch.setattr(cli, "evaluate_pairs", each_alone)
    assert main(argv + ["--out", str(tmp_path / "alone")]) == 0
    assert len(fits) == 3
    capsys.readouterr()
    together = (tmp_path / "together" / "apply_summary.json").read_bytes()
    assert together == (tmp_path / "alone" / "apply_summary.json").read_bytes()


@pytest.mark.parametrize("model", ["forest", "nearest-centroid"])
def test_apply_replays_a_run_whose_top_class_a_fold_lacks(tmp_path, capsys, model):
    # Class 2 has 3 rows, so the test split gets one of them, and the fold
    # that holds it out trains without class 2.
    n = 64
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, 3))
    labels = np.where(np.arange(n) % 22 == 0, 2.0, (x[:, 0] + 0.3 * x[:, 1] > 0).astype(float))
    assert np.sum(labels == 2.0) == 3
    csv_path = tmp_path / "data.csv"
    write_csv(Dataset(("a", "b", "c"), tuple(x.T), labels, CLASSIFICATION), csv_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**FAST_CONFIG, "folds": 3, "trees": 10, "model": model}))
    out = tmp_path / "run"
    train = ["train", "--data", str(csv_path), "--task", "cls", "--label", "label"]
    assert main(train + ["--out", str(out), "--config", str(config_path)]) == 0
    roadmap = str(out / "best_roadmap.json")
    assert main(["apply", "--data", str(csv_path), "--roadmap", roadmap, "--out", str(out)]) == 0
    capsys.readouterr()

    result = json.loads((out / "apply_summary.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert result["train_score"] == summary["best_score"]
    assert result["test_score"] == summary["test_score"]


def test_apply_without_the_run_config_exits_two(run_dir, tmp_path, capsys):
    _, csv_path, out = run_dir
    orphan = tmp_path / "orphan"
    orphan.mkdir()
    blob = (out / "best_roadmap.json").read_bytes()
    (orphan / "roadmap.json").write_bytes(blob)
    code = main(
        [
            "apply",
            "--data",
            str(csv_path),
            "--roadmap",
            str(orphan / "roadmap.json"),
            "--out",
            str(tmp_path / "rescore"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_apply_with_a_corrupt_roadmap_exits_two(run_dir, capsys):
    tmp_path, csv_path, out = run_dir
    bad = out / "broken.json"
    bad.write_bytes(b"{definitely not a roadmap")
    code = main(
        [
            "apply",
            "--data",
            str(csv_path),
            "--roadmap",
            str(bad),
            "--out",
            str(tmp_path / "rescore"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def _with_negative_parent(doc):
    nodes = doc["nodes"]
    child = {
        "id": len(nodes),
        "op": "add",
        "parents": [0, -1],
        "depth": max(nodes[0]["depth"], nodes[-1]["depth"]) + 1,
        "alive": True,
        "stats": nodes[0]["stats"],
    }
    return {**doc, "nodes": nodes + [child]}


@pytest.mark.parametrize(
    "artifact,mutate",
    [
        ("best_roadmap.json", _with_negative_parent),
        ("best_roadmap.json", lambda doc: {**doc, "original_columns": 5}),
        (
            "best_roadmap.json",
            lambda doc: {**doc, "nodes": [{**n, "alive": False} for n in doc["nodes"]]},
        ),
        (
            "best_roadmap.json",
            lambda doc: {**doc, "nodes": [{**n, "alive": "false"} for n in doc["nodes"]]},
        ),
        ("config.json", lambda doc: []),
        ("config.json", lambda doc: {**doc, "task": ["reg"]}),
        ("config.json", lambda doc: {**doc, "run": {**doc["run"], "episodes": 1.5}}),
        ("config.json", lambda doc: {**doc, "run": {**doc["run"], "bogus": 1}}),
        ("config.json", lambda doc: {**doc, "run": {**doc["run"], "folds": 1}}),
    ],
    ids=[
        "negative-parent",
        "columns-not-a-list",
        "all-dead",
        "alive-a-string",
        "config-a-list",
        "task-a-list",
        "episodes-a-float",
        "unknown-run-key",
        "one-fold",
    ],
)
def test_malformed_run_artifacts_exit_two(run_dir, capsys, artifact, mutate):
    tmp_path, csv_path, out = run_dir
    path = out / artifact
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    roadmap = str(out / "best_roadmap.json")
    capsys.readouterr()
    code = main(
        ["apply", "--data", str(csv_path), "--roadmap", roadmap, "--out", str(tmp_path / "a")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "tcto: " in err
    if artifact == "config.json":
        assert "config.json" in err
    if artifact == "best_roadmap.json":
        assert main(["export", "--roadmap", roadmap, "--format", "json"]) == 2
        assert "tcto: " in capsys.readouterr().err


# -- export -------------------------------------------------------------------------------


def test_export_json_round_trips(run_dir, capsys):
    _, _, out = run_dir
    code = main(["export", "--roadmap", str(out / "best_roadmap.json"), "--format", "json"])
    assert code == 0
    printed = capsys.readouterr().out
    blob = (out / "best_roadmap.json").read_bytes()
    assert printed.strip() == blob.decode("utf-8")
    json.loads(printed)


def test_export_dot_prints_a_graph(run_dir, capsys):
    _, _, out = run_dir
    code = main(["export", "--roadmap", str(out / "best_roadmap.json"), "--format", "dot"])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("digraph roadmap {")
    assert printed.rstrip().endswith("}")


def test_export_missing_file_exits_two(tmp_path, capsys):
    assert main(["export", "--roadmap", str(tmp_path / "x.json"), "--format", "json"]) == 2
    capsys.readouterr()


# -- report -------------------------------------------------------------------------------


def test_report_prints_per_episode_bests(run_dir, capsys):
    _, _, out = run_dir
    code = main(["report", "--run", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "explore" in stdout
    assert "apply" in stdout
    assert "overall best" in stdout


BASELINE_SUMMARY = {
    "best_episode": -1,
    "best_phase": "explore",
    "best_step": -1,
    "best_score": 0.25,
    "test_score": 0.2,
}


def test_report_for_a_baseline_only_run_names_the_raw_features(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "steps.jsonl").write_text("")
    (run / "summary.json").write_text(json.dumps(BASELINE_SUMMARY))
    assert main(["report", "--run", str(run)]) == 0
    assert "raw feature baseline" in capsys.readouterr().out


@pytest.mark.parametrize(
    "steps, summary",
    [
        (b"{}\n", BASELINE_SUMMARY),
        (b"[1, 2]\n", BASELINE_SUMMARY),
        (b"\xff{}\n", BASELINE_SUMMARY),
        (b'{"phase": "explore", "episode": 0, "score": "high"}\n', BASELINE_SUMMARY),
        (b"", []),
        (b"", {**BASELINE_SUMMARY, "best_score": None}),
    ],
    ids=["object-line", "array-line", "bad-utf8", "string-score", "array-summary", "null-best"],
)
def test_report_rejects_malformed_run_files(tmp_path, capsys, steps, summary):
    (tmp_path / "steps.jsonl").write_bytes(steps)
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert main(["report", "--run", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tcto: ")


def test_report_rejects_a_non_run_directory(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path)]) == 2
    capsys.readouterr()
