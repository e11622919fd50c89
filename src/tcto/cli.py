"""Command line interface: train, apply, export, report.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .evaluator import cv_split, evaluate_pairs
from .pipeline import (
    APPLY,
    EXPLORE,
    ConfigError,
    Pipeline,
    PipelineError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    record_to_json,
)
from .roadmap import Roadmap, RoadmapError, SchemaError
from .tabular import CLASSIFICATION, REGRESSION, DataError, load_csv

_TASK_FLAGS = {"cls": CLASSIFICATION, "reg": REGRESSION}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tcto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="search for transformations and save artifacts")
    train.add_argument("--data", required=True, help="CSV file with a header row")
    train.add_argument("--task", required=True, choices=sorted(_TASK_FLAGS))
    train.add_argument("--label", required=True, help="name of the label column")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--episodes", type=int, default=None)
    train.add_argument("--steps", type=int, default=None, help="steps per episode")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--config", default=None, help="flat JSON overriding defaults")

    apply_p = sub.add_parser("apply", help="re-score a saved roadmap on a dataset")
    apply_p.add_argument("--data", required=True)
    apply_p.add_argument("--roadmap", required=True, help="best_roadmap.json from a run")
    apply_p.add_argument("--out", required=True)

    export = sub.add_parser("export", help="print a saved roadmap as JSON or DOT")
    export.add_argument("--roadmap", required=True)
    export.add_argument("--format", required=True, choices=("json", "dot"))

    report = sub.add_parser("report", help="summarize a run directory")
    report.add_argument("--run", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "export":
            return _cmd_export(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"tcto: {exc}", file=sys.stderr)
        return 1
    except (
        DataError, SchemaError, RoadmapError, PipelineError, OSError, UnicodeDecodeError
    ) as exc:
        print(f"tcto: {exc}", file=sys.stderr)
        return 2


def _resolve_config(args) -> RunConfig:
    """The --config file's values, each flag given replacing its key."""
    doc = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
    flags = {"episodes": args.episodes, "steps_per_episode": args.steps, "seed": args.seed}
    doc.update((key, value) for key, value in flags.items() if value is not None)
    return config_from_dict(doc)


def _cmd_train(args) -> int:
    task = _TASK_FLAGS[args.task]
    cfg = _resolve_config(args)
    dataset = load_csv(args.data, task, args.label)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    pipe = Pipeline(dataset, cfg)
    explore = pipe.train()
    application = pipe.apply_policy() if cfg.application_episodes > 0 else None

    best = explore
    if application is not None and application.best_score > explore.best_score:
        best = application

    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"task": args.task, "label": args.label, "run": config_to_dict(cfg)},
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    with open(out / "steps.jsonl", "w", encoding="utf-8") as fh:
        for rec in explore.records + (application.records if application else []):
            fh.write(record_to_json(rec) + "\n")
    with open(out / "best_roadmap.json", "wb") as fh:
        fh.write(best.best_roadmap_json)
    with open(out / "checkpoint.json", "w", encoding="utf-8") as fh:
        json.dump(pipe.checkpoint(), fh, sort_keys=True)

    summary = {
        "task": args.task,
        "label": args.label,
        "data": str(args.data),
        "seed": cfg.seed,
        "n_train": pipe.train_data.n_rows,
        "n_test": pipe.test_data.n_rows,
        "baseline_score": explore.baseline_score,
        "best_score": best.best_score,
        "best_phase": best.phase,
        "best_episode": best.best_episode,
        "best_step": best.best_step,
        "test_baseline": best.test_baseline,
        "test_score": best.test_score,
        "phases": {
            EXPLORE: _phase_summary(explore),
            APPLY: _phase_summary(application) if application else None,
        },
        "timings": {
            EXPLORE: explore.timings,
            APPLY: application.timings if application else None,
        },
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")

    print(f"baseline score      {explore.baseline_score:.6f}")
    print(f"best train score    {best.best_score:.6f} ({best.phase})")
    print(f"test baseline       {best.test_baseline:.6f}")
    print(f"test score          {best.test_score:.6f}")
    print(f"artifacts in        {out}")
    return 0


def _phase_summary(report) -> dict:
    return {
        "baseline_score": report.baseline_score,
        "best_score": report.best_score,
        "best_episode": report.best_episode,
        "best_step": report.best_step,
        "test_baseline": report.test_baseline,
        "test_score": report.test_score,
        "steps": len(report.records),
    }


def _read_roadmap(path: Path) -> Roadmap:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read roadmap: {exc}") from exc
    return Roadmap.import_json(blob)


def _cmd_apply(args) -> int:
    roadmap_path = Path(args.roadmap)
    roadmap = _read_roadmap(roadmap_path)

    config_path = roadmap_path.parent / "config.json"
    if not config_path.exists():
        raise DataError(f"missing {config_path}; apply needs the run's config.json")
    task, label, run = _fields(
        config_path.read_text(encoding="utf-8"), "config.json", task=str, label=str, run=dict
    )
    if task not in _TASK_FLAGS:
        raise DataError(f"config.json has an unknown task {task!r}")
    try:
        cfg = config_from_dict(run)
    except ConfigError as exc:
        raise DataError(f"config.json has a malformed run: {exc}") from exc
    task = _TASK_FLAGS[task]

    dataset = load_csv(args.data, task, label)
    train_d, test_d = cv_split(dataset, cfg.test_fraction, cfg.seed, cfg.eval.folds)
    # Both splits in one fit: the test split's trees share the training split's rounds.
    train_score, test_score = evaluate_pairs(
        [(roadmap.materialize(d), d.labels) for d in (train_d, test_d)], task, cfg.eval
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = {
        "roadmap": str(roadmap_path),
        "data": str(args.data),
        "n_train": train_d.n_rows,
        "n_test": test_d.n_rows,
        "train_score": train_score,
        "test_score": test_score,
    }
    with open(out / "apply_summary.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"train score  {train_score:.6f}")
    print(f"test score   {test_score:.6f}")
    return 0


def _cmd_export(args) -> int:
    roadmap = _read_roadmap(Path(args.roadmap))
    if args.format == "json":
        sys.stdout.write(roadmap.export_json().decode("utf-8") + "\n")
    else:
        sys.stdout.write(roadmap.export_dot())
    return 0


def _cmd_report(args) -> int:
    run = Path(args.run)
    steps_path = run / "steps.jsonl"
    summary_path = run / "summary.json"
    if not steps_path.exists() or not summary_path.exists():
        raise DataError(f"{run} does not look like a run directory")
    best_by_episode: dict = {}
    with open(steps_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            phase, episode, score = _fields(
                line, "steps.jsonl line", phase=str, episode=int, score=_NUMBER
            )
            key = (phase, episode)
            best_by_episode[key] = max(best_by_episode.get(key, float("-inf")), score)
    best_score, test_score, best_phase, best_episode, best_step = _fields(
        summary_path.read_text(encoding="utf-8"),
        "summary.json",
        best_score=_NUMBER,
        test_score=_NUMBER,
        best_phase=str,
        best_episode=int,
        best_step=int,
    )

    print(f"{'phase':<8} {'episode':>7} {'best score':>12}")
    for (phase, episode) in sorted(best_by_episode, key=lambda k: (k[0] != EXPLORE, k)):
        print(f"{phase:<8} {episode:>7} {best_by_episode[(phase, episode)]:>12.6f}")
    if best_episode < 0:
        where = "raw feature baseline"
    else:
        where = f"{best_phase} episode {best_episode}, step {best_step}"
    print(f"overall best {best_score:.6f} ({where}); test {test_score:.6f}")
    return 0


_NUMBER = (int, float)


def _fields(text: str, where: str, **kinds) -> list:
    """Members of the JSON object in text, each checked against its type."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed {where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{where} is not a JSON object")
    values = [doc.get(key) for key in kinds]
    for (key, kind), value in zip(kinds.items(), values):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise DataError(f"{where} has no {key!r} of the right type")
    return values


if __name__ == "__main__":
    sys.exit(main())
