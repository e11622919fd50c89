"""tcto benchmark: timed `tcto train` and `tcto apply` runs on generated CSVs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tcto is imported from its ``src``. The
workload's datasets come from ``--seed`` (``bench/workloads.py``); a run
trains as many of them as fit in ``--seconds``. Each fresh process
(``bench/child.py``) takes the next few datasets and, for each, trains it,
applies its best roadmap, writes the replay roadmap and applies that a few
times. The second process first trains dataset 0 again, so every run
checks that a train repeats exactly. Processes run one at a time, with
BLAS limited to one thread, and repeat while the next one fits in
``--seconds``; at least two always run.

Every train is checked:

- it exits 0 and writes all five artifacts;
- ``steps.jsonl`` has the configured number of explore and apply lines;
- the behaviour digest (sha256 of ``steps.jsonl`` and ``best_roadmap.json``)
  and the summary's scores are the same when dataset 0 is trained again;
- ``tcto apply`` of ``best_roadmap.json`` on the training CSV reproduces the
  summary's ``best_score`` and ``test_score`` bit for bit.

With ``--trace 0`` the last line reports the end-to-end metrics. The
machine is shared, and other tenants slow it down for seconds to minutes
at a time. So the process also times a fixed calibration loop
(``child.calibration_call``) before each train and before each dataset's
replays, and every time metric is scaled by CALIBRATION_REF_S over the
run's median calibration call: it is given in seconds of a machine on
which one call takes CALIBRATION_REF_S. The unscaled values are printed
too.

- train_s: wall time of ``tcto train`` after set-up; mean over the datasets
  of each dataset's median train, scaled.
- setup_s: process start, ``import tcto``, ``load_csv`` and ``Pipeline``
  construction; median over the run's processes, scaled.
- replay_s: one ``tcto apply`` on the training CSV of a fixed-width roadmap
  (``child.REPLAY_OPS``), so its cost does not depend on what the search
  found; mean over the datasets of each dataset's median apply, scaled.
- peak_rss_mb: peak RSS of a process at the end of each train; median over
  the trains.
- success_rate: share of attempted trains that passed every check.

With ``--trace 1`` dataset 0 is trained untraced and traced, alternately
and twice each, each in its own process with its best roadmap applied
after the train; the last line reports the per-layer metrics of
``bench/spans.py`` from the last traced process.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. A checkout without ``src/tcto`` exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import layer_metrics
from workloads import LABEL, WORKLOADS, dataset_seed, write_inputs

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
ARTIFACTS = ("config.json", "steps.jsonl", "best_roadmap.json", "checkpoint.json", "summary.json")
# Calibration calls before each train and each dataset's replays, and the
# seconds one call takes on the reference machine reported times are scaled to.
CALIBRATION_CALLS = 10
CALIBRATION_REF_S = 0.010
# Leaves room under the 180 s limit on one run for writing the result.
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"


class CheckFailed(Exception):
    """A tcto run exited non-zero or its output failed a correctness check."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run: its inputs, work directory, deadline and children."""

    def __init__(self, workload, seed: int, seconds: int):
        self.w = workload
        self.seconds = seconds
        self.start = _now()
        self.work = ROOT / ".bench_run" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        self.env.pop("TCTO_SEED", None)
        self.seed = seed
        self.datasets = []
        self._children = 0

    def dir(self, j: int) -> Path:
        """Directory of dataset j; writes its CSV and config the first time."""
        while len(self.datasets) <= j:
            k = len(self.datasets)
            ds_seed = dataset_seed(self.seed, k)
            d = self.work / f"d{k}"
            d.mkdir(parents=True)
            write_inputs(self.w, ds_seed, d / "data.csv", d / "config.json")
            self.datasets.append((ds_seed, d))
        return self.datasets[j][1]

    def child(self, steps, trace=False) -> dict:
        """Run one child process to completion."""
        self._children += 1
        result_path = self.work / f"result{self._children}.json"
        plan_path = self.work / f"plan{self._children}.json"
        plan_path.write_text(
            json.dumps({"result": str(result_path), "trace": trace, "steps": steps, "spawned_at": _now()})
        )
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(plan_path)],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(self.start + RUN_LIMIT_S - _now(), 1.0),
        )
        if proc.returncode != 0:
            raise CheckFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        sys.stderr.write(proc.stderr)
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def data(self, j: int) -> str:
        return str(self.dir(j) / "data.csv")

    def train(self, j: int, out: Path) -> dict:
        return {"cli": ["train", "--data", self.data(j), "--task", self.w.task, "--label", LABEL,
                        "--out", str(out), "--config", str(self.dir(j) / "config.json")]}

    def apply(self, j: int, roadmap: Path, out: Path) -> dict:
        return {"cli": ["apply", "--data", self.data(j), "--roadmap", str(roadmap), "--out", str(out)]}

    def check_train(self, step: dict, out: Path) -> tuple:
        """Check one train's exit code and artifacts; returns (digest, scores)."""
        if step["code"] != 0:
            raise CheckFailed(f"tcto train exited {step['code']}")
        missing = [a for a in ARTIFACTS if not (out / a).is_file()]
        if missing:
            raise CheckFailed(f"missing artifacts {missing}")
        cfg = self.w.config
        want = {
            "explore": cfg["episodes"] * cfg["steps_per_episode"],
            "apply": cfg["application_episodes"] * cfg["steps_per_episode"],
        }
        got = {"explore": 0, "apply": 0}
        with open(out / "steps.jsonl", encoding="utf-8") as fh:
            for line in fh:
                got[json.loads(line)["phase"]] += 1
        if got != want:
            raise CheckFailed(f"steps.jsonl has {got} lines, want {want}")
        summary = json.loads((out / "summary.json").read_text())
        digest = (_sha256(out / "steps.jsonl"), _sha256(out / "best_roadmap.json"))
        return digest, (summary["best_score"], summary["test_score"])

    @staticmethod
    def check_replay(step: dict, applied: Path, scores: tuple) -> None:
        """Check that ``tcto apply`` of a best roadmap reproduced its scores bit for bit."""
        if step["code"] != 0:
            raise CheckFailed(f"tcto apply exited {step['code']}")
        replayed = json.loads((applied / "apply_summary.json").read_text())
        if (replayed["train_score"], replayed["test_score"]) != scores:
            raise CheckFailed(
                f"apply gave {replayed['train_score']!r}/{replayed['test_score']!r}, "
                f"summary has {scores[0]!r}/{scores[1]!r}"
            )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def process_plan(run: Run, p: int) -> tuple:
    """Child steps of the run's process p and, per CLI step, (kind, dataset)."""
    steps, kinds = [], []
    if p == 1:
        # Dataset 0 again in a fresh process: its outputs must repeat exactly (A8).
        steps += [{"calibrate": CALIBRATION_CALLS}, run.train(0, run.dir(0) / "again")]
        kinds.append(("train", 0))
    size = run.w.datasets_per_process
    for j in range(p * size, (p + 1) * size):
        out = run.dir(j) / "out"
        # tcto apply reads the config.json beside the roadmap, which the train wrote.
        replay_roadmap = out / "replay_roadmap.json"
        steps += [
            {"calibrate": CALIBRATION_CALLS},
            run.train(j, out),
            run.apply(j, out / "best_roadmap.json", out / "applied"),
            {"replay_roadmap": {"data": run.data(j), "task": run.w.task, "label": LABEL, "path": str(replay_roadmap)}},
            {"calibrate": CALIBRATION_CALLS},
        ]
        steps += [run.apply(j, replay_roadmap, out / "replayed")] * run.w.replay_repeats
        kinds += [("train", j), ("replay_check", j)] + [("replay", j)] * run.w.replay_repeats
    return steps, kinds


def measure(run: Run) -> tuple:
    """Untraced processes, each on new datasets; end-to-end metrics."""
    train_s, replay_s, digests, scores = {}, {}, {}, {}
    setup_s, rss_kb, calibration = [], [], []
    attempted = failed = p = 0
    last_s = 0.0
    while p < 2 or _now() - run.start + last_s <= run.seconds:
        t0 = _now()
        steps, kinds = process_plan(run, p)
        trains = [j for kind, j in kinds if kind == "train"]
        attempted += len(trains)
        again_s = 0.0
        try:
            res = run.child(steps)
        except (CheckFailed, OSError, ValueError) as exc:
            failed += len(trains)
            print(f"FAIL process {p}: {exc}", file=sys.stderr)
        else:
            setup_s.append(res["setup_s"])
            calibration += res["calibration"]
            trained, replayed, bad = {}, {}, set()
            for (kind, j), step in zip(kinds, res["steps"]):
                if j in bad:
                    continue
                out = run.dir(j) / ("again" if p == 1 and j == 0 else "out")
                try:
                    if kind == "train":
                        digest, got = run.check_train(step, out)
                        if digests.setdefault(j, digest) != digest or scores.setdefault(j, got) != got:
                            raise CheckFailed("a second train on the same inputs gave other outputs")
                        trained[j] = step
                    elif kind == "replay_check":
                        run.check_replay(step, out / "applied", scores[j])
                    elif step["code"] != 0:
                        raise CheckFailed("tcto apply of the replay roadmap failed")
                    else:
                        replayed.setdefault(j, []).append(step["seconds"])
                except (CheckFailed, OSError, ValueError, KeyError) as exc:
                    bad.add(j)
                    print(f"FAIL d{j} process {p}: {exc}", file=sys.stderr)
            failed += len(bad)
            for j, step in trained.items():
                if j not in bad:
                    train_s.setdefault(j, []).append(step["train_s"])
                    rss_kb.append(step["peak_rss_kb"])
                    replay_s.setdefault(j, []).extend(replayed.get(j, []))
            if p == 1 and 0 not in bad:
                again_s = trained[0]["seconds"]
        # Later processes do not train dataset 0 again.
        last_s = _now() - t0 - again_s
        p += 1

    for j in sorted(digests):
        print(
            f"digest d{j} dataset_seed={run.datasets[j][0]} steps_sha256={digests[j][0]} "
            f"roadmap_sha256={digests[j][1]} best_cv_score={scores[j][0]!r} "
            f"test_score={scores[j][1]!r} "
            f"train_s={[round(t, 4) for t in train_s.get(j, [])]} "
            f"replay_s={[round(t, 4) for t in replay_s.get(j, [])]}"
        )
    good = [j for j in train_s if replay_s.get(j)]
    if not good:
        raise CheckFailed("no dataset passed its checks")

    def mean_of_medians(samples):
        return statistics.fmean(statistics.median(samples[j]) for j in good)

    raw = {
        "train_s": mean_of_medians(train_s),
        "setup_s": statistics.median(setup_s),
        "replay_s": mean_of_medians(replay_s),
    }
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    print(f"unscaled {json.dumps(raw)} calibration_call_s={statistics.median(calibration)!r} scale={scale!r}")
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (statistics.median(rss_kb) / 1024.0, "MB")
    metrics["success_rate"] = ((attempted - failed) / attempted, "ratio")
    counts = {"processes": p, "datasets": len(good), "trains": sum(map(len, train_s.values())),
              "replays": sum(map(len, replay_s.values()))}
    return metrics, attempted, failed, counts


def measure_traced(run: Run) -> tuple:
    """Dataset 0 untraced and traced, twice each; per-layer metrics from the spans."""
    res = {False: [], True: []}
    digests = set()
    for k, trace in enumerate((False, True, False, True)):
        out = run.dir(0) / f"t{k}"
        r = run.child([run.train(0, out), run.apply(0, out / "best_roadmap.json", out / "applied")], trace=trace)
        digest, scores = run.check_train(r["steps"][0], out)
        run.check_replay(r["steps"][1], out / "applied", scores)
        digests.add(digest)
        res[trace].append(r)
    if len(digests) != 1:
        raise CheckFailed("tracing changed the run's behaviour digest")
    traced = res[True][-1]

    def median_train_s(results):
        return statistics.median(r["steps"][0]["train_s"] for r in results)

    overhead = median_train_s(res[True]) / median_train_s(res[False])
    metrics = layer_metrics(traced["spans"], traced["steps"][0]["train_s"], overhead - 1.0)
    return metrics, 4, 0, {"spans": len(traced["spans"])}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tcto" / "cli.py").is_file():
        print(f"no tcto sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    print(json.dumps({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment()}))
    run = Run(w, args.seed, args.seconds)
    try:
        metrics, attempted, failed, counts = (measure_traced if args.trace else measure)(run)
    except (CheckFailed, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print(f"samples {json.dumps(counts)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
