"""One fresh tcto process of a benchmark run.

    python3 bench/child.py PLAN_JSON

Imports tcto from the checkout's ``src`` and works through the plan's
steps in order, then writes the plan's ``result`` file. A step is
``{"cli": [...]}``, which runs ``tcto.cli.main`` on those arguments and
records its exit code and wall time; ``{"replay_roadmap": {...}}``, which
writes a fixed-width roadmap (see ``write_replay_roadmap``); or
``{"calibrate": n}``, which times n calls of ``calibration_call``.

The plan's ``spawned_at`` is the parent's CLOCK_MONOTONIC reading just
before it started this process, so set-up time counts process start and
imports; set-up ends when ``tcto.cli`` has built its first ``Pipeline``.
A train step's ``train_s`` runs from the end of its ``Pipeline``
construction to the end of the step, and every step records the process's
peak RSS so far. With ``trace`` set, tcto's layers are wrapped by
``spans.Tracer`` and the spans go into the result too.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# Derived columns of a replay roadmap: each raw column through each of
# these, so the roadmap holds 4x the raw columns, the default node budget.
REPLAY_OPS = ("square", "sin", "tanh")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.normal(size=(300, 6))
_CAL_ONEHOT = np.eye(4)[_CAL_RNG.integers(0, 4, 300)]
_CAL_COUNTS = np.arange(1, 301)[:, None]


def calibration_call() -> float:
    """Seconds that a fixed piece of work takes on this CPU now.

    The work mixes small numpy calls with interpreted Python, as tcto's
    forest and search loops do. Its inputs never change, so its time moves
    only with the speed the shared machine gives this process.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        for j in range(_CAL_X.shape[1]):
            order = np.argsort(_CAL_X[:, j], kind="stable")
            counts = np.cumsum(_CAL_ONEHOT[order], axis=0)
            acc += float((1.0 - ((counts / _CAL_COUNTS) ** 2).sum(axis=1)).min())
            for k in range(300):
                acc += (k * 3 % 7) * 0.5
    return time.perf_counter() - start


def write_replay_roadmap(data, task: str, label: str, path) -> None:
    from tcto.opset import OP_BY_NAME, unary_values
    from tcto.roadmap import Roadmap
    from tcto.tabular import CLASSIFICATION, REGRESSION, load_csv

    dataset = load_csv(data, {"reg": REGRESSION, "cls": CLASSIFICATION}[task], label)
    roadmap = Roadmap.from_dataset(dataset, lineage="replay")
    for name in REPLAY_OPS:
        op = OP_BY_NAME[name]
        for j, col in enumerate(dataset.columns):
            roadmap.add_node(op, (j,), unary_values(op, col))
    Path(path).write_bytes(roadmap.export_json())


def main(plan_path) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, str(SRC))
    import tcto.cli

    if Path(tcto.cli.__file__).resolve().parent.parent != SRC:
        print(f"tcto imported from {tcto.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ready = []
    pipeline_cls = tcto.cli.Pipeline

    def timed_pipeline(*args, **kwargs):
        pipe = pipeline_cls(*args, **kwargs)
        ready.append(_now())
        return pipe

    tcto.cli.Pipeline = timed_pipeline
    steps, calibration = [], []
    for step in plan["steps"]:
        if "replay_roadmap" in step:
            write_replay_roadmap(**step["replay_roadmap"])
            continue
        if "calibrate" in step:
            calibration += [calibration_call() for _ in range(step["calibrate"])]
            continue
        built = len(ready)
        start = _now()
        with contextlib.redirect_stdout(io.StringIO()):
            code = tcto.cli.main(step["cli"])
        end = _now()
        steps.append({
            "code": code,
            "seconds": end - start,
            "train_s": end - ready[built] if len(ready) > built else None,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
    out = {
        "steps": steps,
        "setup_s": ready[0] - plan["spawned_at"] if ready else None,
        "calibration": calibration,
        "spans": tracer.spans if tracer else None,
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
