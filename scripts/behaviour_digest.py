#!/usr/bin/env python3
"""Print two behaviour digests per (task, config) of a short in-process run.

Each run trains a Pipeline and applies its policy on tcto.synth data: for
regression, for a two-class version of the same labels (above or below
their median) and, as `reg1`, for regression on the first column alone.
A one-column roadmap starts as one cluster, so only there does a binary
operation meet a single cluster and fall back to a unary one. Every run
has 5 x 12 explore steps, 2 apply episodes, 2 folds, 2 trees and depth 3,
or the benchmark's forest size: 3 folds, 10 trees and depth 5, whose
training-split fits are big enough to be spread over processes. Each run
prints two lines:

- `full`: the sha256 over every step record, both phases' best roadmaps
  and scores, and the JSON of Pipeline.checkpoint(). It is the same only
  when every learned weight has the same bits.
- `search`: the sha256 over every step record without its `losses`, both
  phases' best roadmaps and scores, and no checkpoint. It covers what the
  search did: every decision, column, score, reward and pruning. A change
  that moves learned weights in their last bits, such as a different
  summation order in the learning step, changes `full` but should leave
  `search` as it was.

Two checkouts behave the same on these runs when their outputs match,
and search the same when their `search` lines match:

    PYTHONPATH=src python3 scripts/behaviour_digest.py > a.txt
    diff a.txt b.txt
    diff <(grep search a.txt) <(grep search b.txt)
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from tcto.evaluator import EvalConfig
from tcto.pipeline import Pipeline, RunConfig, record_to_json
from tcto.synth import synthetic_regression
from tcto.tabular import CLASSIFICATION

BASE = RunConfig(
    episodes=5,
    steps_per_episode=12,
    application_episodes=2,
    eval=EvalConfig(folds=2, trees=2, max_depth=3),
)

CONFIGS = {
    "default": {},
    "no_rgcn": {"use_rgcn": False},
    "no_structure": {"use_structure": False},
    "no_similarity": {"use_similarity": False},
    "random_policy": {"random_policy": True},
    "node_wise": {"node_wise_fraction": 1.0, "node_budget_factor": 2},
    "centroid": {"eval": replace(BASE.eval, model="nearest-centroid")},
    "forest_3x10": {"eval": replace(BASE.eval, folds=3, trees=10, max_depth=5)},
}


def datasets() -> dict:
    reg = synthetic_regression(n=150, seed=2)
    cls = replace(
        reg, labels=(reg.labels > np.median(reg.labels)).astype(float), task=CLASSIFICATION
    )
    reg1 = replace(reg, column_names=reg.column_names[:1], columns=reg.columns[:1])
    return {"reg": reg, "cls": cls, "reg1": reg1}


def digests(data, cfg: RunConfig) -> tuple:
    """(full, search) sha256 digests of one train and apply."""
    pipe = Pipeline(data, cfg)
    full, search = hashlib.sha256(), hashlib.sha256()
    for report in (pipe.train(), pipe.apply_policy()):
        for rec in report.records:
            full.update(record_to_json(rec).encode("utf-8"))
            search.update(record_to_json(replace(rec, losses={})).encode("utf-8"))
        for h in (full, search):
            h.update(report.best_roadmap_json)
            h.update(repr((report.best_score, report.test_score)).encode("ascii"))
    full.update(json.dumps(pipe.checkpoint(), sort_keys=True).encode("ascii"))
    return full.hexdigest(), search.hexdigest()


def main() -> int:
    for task, data in datasets().items():
        for name, overrides in CONFIGS.items():
            full, search = digests(data, replace(BASE, **overrides))
            print(f"{task} {name} full {full}", flush=True)
            print(f"{task} {name} search {search}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
