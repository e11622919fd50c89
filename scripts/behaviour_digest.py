#!/usr/bin/env python3
"""Print one behaviour digest per (task, config) of a short in-process run.

Each run trains a Pipeline and applies its policy on tcto.synth data, for
regression and for a two-class version of the same labels (above or below
their median), with 5 x 12 explore steps, 2 apply episodes, 2 folds, 2
trees and depth 3, and once with the benchmark's forest size: 3 folds, 10
trees and depth 5, whose training-split fits are big enough to be spread
over processes. A digest is the sha256 over every step record, both
phases' best roadmaps and scores, and the JSON of Pipeline.checkpoint().
Two checkouts behave the same on these runs when their outputs match:

    PYTHONPATH=src python3 scripts/behaviour_digest.py > a.txt
    diff a.txt b.txt
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
    return {"reg": reg, "cls": cls}


def digest(data, cfg: RunConfig) -> str:
    pipe = Pipeline(data, cfg)
    h = hashlib.sha256()
    for report in (pipe.train(), pipe.apply_policy()):
        for rec in report.records:
            h.update(record_to_json(rec).encode("utf-8"))
        h.update(report.best_roadmap_json)
        h.update(repr((report.best_score, report.test_score)).encode("ascii"))
    h.update(json.dumps(pipe.checkpoint(), sort_keys=True).encode("ascii"))
    return h.hexdigest()


def main() -> int:
    for task, data in datasets().items():
        for name, overrides in CONFIGS.items():
            print(f"{task} {name} {digest(data, replace(BASE, **overrides))}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
