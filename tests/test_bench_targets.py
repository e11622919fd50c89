"""Every tcto name that the benchmark reads still resolves, bar a listed few.

bench/child.py imports tcto names and reads attributes of tcto.cli, and
bench/spans.py wraps functions where the program looks them up. A traced
run skips a target that no longer resolves, and its metrics then read 0.
So a new missing target fails here, and so does a listed stale one that
resolves again.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Targets that the benchmark still names and the program no longer has.
STALE = {
    "tcto.cli.evaluate",
    "tcto.pipeline.stratified_split",
    "tcto.cli.stratified_split",
    "tcto.encoder.encoder_sgd_step",
    "tcto.roadmap.Roadmap.adjacency_matrix",
}


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_targets() -> set:
    """(module, attribute path) of each tcto object that bench/ reads."""
    targets = set()
    for name in ("child.py", "spans.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tcto":
                targets.update((node.module, a.name) for a in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "tcto"
            ):
                targets.add((f"tcto.{node.value.attr}", node.attr))
    spans = _spans_module()
    targets.update((module, attr) for _, module, attr in spans.MODULE_TARGETS)
    targets.update(("tcto.roadmap", f"Roadmap.{m}") for m in spans.ROADMAP_METHODS)
    targets.update(("tcto.pipeline", f"Pipeline.{m}") for m, _ in spans.PIPELINE_METHODS)
    return targets


def resolves(module: str, path: str) -> bool:
    """Whether the owner's own namespace holds the name, as the tracer looks it up."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return False
    return name in vars(owner)


def test_the_scan_reads_both_bench_files():
    targets = bench_targets()
    assert {
        ("tcto.opset", "unary_values"),
        ("tcto.cli", "Pipeline"),
        ("tcto.cli", "main"),
        ("tcto.pipeline", "Pipeline"),
        ("tcto.pipeline", "cluster_nodes"),
        ("tcto.agents", "select_candidate"),
        ("tcto.roadmap", "Roadmap.materialize"),
        ("tcto.pipeline", "Pipeline._step"),
    } <= targets
    assert resolves("tcto.roadmap", "Roadmap.from_dataset")
    assert not resolves("tcto.roadmap", "Nowhere.materialize")


def test_every_tcto_name_the_benchmark_reads_resolves_bar_the_stale_ones():
    targets = bench_targets()
    missing = {f"{module}.{path}" for module, path in targets if not resolves(module, path)}
    assert missing == STALE
