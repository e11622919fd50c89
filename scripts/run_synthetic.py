#!/usr/bin/env python3
"""Train on the built-in synthetic regression task and print a summary.

The dataset is sin(x0) + x1*x2 plus noise over six raw columns, the same
generator the test suite drives end to end. Useful as a quick smoke run
and as a starting point for experiments:

    python scripts/run_synthetic.py --episodes 8 --steps 30 --seed 0
"""

import argparse
import time

from tcto.evaluator import EvalConfig
from tcto.pipeline import Pipeline, RunConfig
from tcto.synth import synthetic_regression


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=500, help="rows in the dataset")
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--steps", type=int, default=30, help="steps per episode")
    parser.add_argument("--apply-episodes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument("--trees", type=int, default=10)
    parser.add_argument("--folds", type=int, default=3)
    parser.add_argument("--max-depth", type=int, default=5)
    parser.add_argument(
        "--random-policy",
        action="store_true",
        help="replace the learned agents with uniform random choices",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    data = synthetic_regression(n=args.n, noise=args.noise, seed=args.data_seed)
    cfg = RunConfig(
        episodes=args.episodes,
        steps_per_episode=args.steps,
        application_episodes=args.apply_episodes,
        seed=args.seed,
        random_policy=args.random_policy,
        eval=EvalConfig(folds=args.folds, trees=args.trees, max_depth=args.max_depth),
    )

    started = time.perf_counter()
    pipe = Pipeline(data, cfg)
    explore = pipe.train()
    application = pipe.apply_policy() if cfg.application_episodes > 0 else None
    elapsed = time.perf_counter() - started

    best = explore
    if application is not None and application.best_score > explore.best_score:
        best = application

    print(f"rows {data.n_rows}, features {len(data.column_names)}, task {data.task}")
    print(f"baseline train CV   {explore.baseline_score:.4f}")
    print(
        f"best train CV       {best.best_score:.4f} "
        f"(phase {best.phase}, episode {best.best_episode}, step {best.best_step})"
    )
    print(f"test baseline       {best.test_baseline:.4f}")
    print(f"test with roadmap   {best.test_score:.4f}")
    for name, report in (("explore", explore), ("apply", application)):
        if report is None:
            continue
        spent = " ".join(f"{k} {v:.1f}s" for k, v in sorted(report.timings.items()))
        print(f"{name:<7} timings     {spent}")
    print(f"wall time           {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
