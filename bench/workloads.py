"""Benchmark workloads and the data generators behind them.

tcto sees only the CSV files and config files written here. Every input of
a run comes from the workload name and the run seed: the same pair always
gives byte-identical files.

Each workload puts a different layer in charge of the run time, so a change
to one layer shows on one workload and should leave the others unchanged:

- reg_forest_backtrack: the forest evaluator's regression path dominates,
  and backtracking plus two identical greedy application episodes re-score
  matrices already scored (a score memo would hit here).
- cls_forest_nodewise: the forest evaluator's classification path (Gini,
  macro-F1) dominates, with node-wise MI pruning on every overflow and no
  repeated matrices (a memo has nothing to hit here).
- cls_centroid_wide: a nearest-centroid evaluator makes scoring nearly
  free, so the agents' learning step, the RGCN encoder and clustering of up
  to ~160 alive nodes take the time.

The datasets are small and a run trains as many as fit in its time: a
run's times are a mean over its datasets, and the search's cost differs
from one dataset to the next by about 12%.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

LABEL = "label"


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "reg" or "cls", as tcto train --task takes it
    rows: int
    cols: int
    classes: int  # 0 for regression
    datasets_per_process: int  # datasets each of a run's processes trains
    replay_repeats: int  # applies of the replay roadmap per dataset
    config: dict  # flat tcto config, written with "seed" 0
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reg_forest_backtrack",
            task="reg",
            rows=300,
            cols=6,
            classes=0,
            datasets_per_process=3,
            replay_repeats=3,
            config={
                "episodes": 1,
                "steps_per_episode": 4,
                "application_episodes": 2,
                "folds": 3,
                "trees": 10,
                "max_depth": 5,
                "model": "forest",
            },
            why=(
                "forest regression evaluator dominates; backtracking and two identical "
                "greedy apply episodes re-score matrices, so a score memo would hit"
            ),
        ),
        Workload(
            name="cls_forest_nodewise",
            task="cls",
            rows=300,
            cols=8,
            classes=4,
            datasets_per_process=2,
            replay_repeats=4,
            config={
                "episodes": 2,
                "steps_per_episode": 4,
                "application_episodes": 0,
                "node_budget_factor": 2,
                "node_wise_fraction": 1.0,
                "folds": 3,
                "trees": 10,
                "max_depth": 6,
                "model": "forest",
            },
            why=(
                "forest classification evaluator (Gini, macro-F1) dominates with MI "
                "pruning on every overflow and no repeated matrices, so a memo is bypassed"
            ),
        ),
        Workload(
            name="cls_centroid_wide",
            task="cls",
            rows=300,
            cols=24,
            classes=3,
            datasets_per_process=5,
            replay_repeats=10,
            config={
                "episodes": 2,
                "steps_per_episode": 20,
                "application_episodes": 1,
                "model": "nearest-centroid",
            },
            why=(
                "nearest-centroid scoring is nearly free, so agent learning, the RGCN "
                "encoder and clustering of many alive nodes dominate; evaluator bypassed"
            ),
        ),
    )
}


def dataset_seed(seed: int, j: int) -> int:
    """Seed of the j-th dataset a run trains on, derived from the run seed."""
    return int(np.random.SeedSequence([seed, 31, j]).generate_state(1)[0])


def regression_data(rows: int, cols: int, seed: int):
    """y = sin(x0) + x1*x2 + noise; columns past x2 are standard-normal distractors."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    x = _features(rng, rows, cols)
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + rng.normal(0.0, 0.05, size=rows)
    return x, y


def classification_data(rows: int, cols: int, classes: int, seed: int):
    """Equal-frequency bins of sin(x0) + x1*x2 + 0.5*x3 + noise as class labels."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    x = _features(rng, rows, cols)
    signal = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + 0.5 * x[:, 3]
    signal = signal + rng.normal(0.0, 0.1, size=rows)
    edges = np.quantile(signal, np.arange(1, classes) / classes)
    y = np.searchsorted(edges, signal, side="right")
    return x, y


def _features(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    x = rng.normal(0.0, 1.0, size=(rows, cols))
    x[:, 0] = rng.uniform(-3.0, 3.0, size=rows)
    x[:, 1] = rng.uniform(-2.0, 2.0, size=rows)
    x[:, 2] = rng.uniform(-2.0, 2.0, size=rows)
    return x


def write_inputs(w: Workload, seed: int, csv_path, config_path) -> None:
    """Write one dataset of the workload and its tcto config file.

    tcto's own seed (split, parameters, exploration) stays 0 so that the
    datasets of a run differ only in their data; with it varied too, train
    time spread about twice as widely across datasets.
    """
    if w.task == "reg":
        x, y = regression_data(w.rows, w.cols, seed)
        labels = [repr(float(v)) for v in y]
    else:
        x, y = classification_data(w.rows, w.cols, w.classes, seed)
        labels = [str(int(v)) for v in y]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(w.cols)] + [LABEL])
        for row, label in zip(x, labels):
            writer.writerow([repr(float(v)) for v in row] + [label])
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(dict(w.config, seed=0), fh, sort_keys=True)
