"""The transformation roadmap: a growing DAG of derived feature columns.

Nodes are feature states (roots = original columns), edges carry the
operation that produced the child. Each node keeps its column and that
column's statistics, so the roadmap is the one store of the features a
search has built. Deletion is a dead flag, never removal, so node ids and
signatures stay stable across pruning and backtracking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .evaluator import mutual_information
from .opset import OP_BY_NAME, Operation, binary_values, unary_values
from .tabular import STAT_DIM, Dataset, column_stats

SCHEMA_VERSION = 1


class RoadmapError(ValueError):
    """Structural misuse of a roadmap."""


class SchemaError(ValueError):
    """A serialized roadmap does not conform to the JSON schema."""


@dataclass(eq=False)
class RoadmapNode:
    """One feature state: values is its column on the roadmap's dataset
    (None in a roadmap read by import_json), stats that column's
    column_stats vector."""

    id: int
    op: Operation | None
    parents: tuple[int, ...]
    depth: int
    stats: np.ndarray
    alive: bool = True
    origin_name: str | None = None
    values: np.ndarray | None = None

    @property
    def is_root(self) -> bool:
        return self.op is None


@dataclass(frozen=True)
class AddResult:
    node_id: int
    created: bool
    revived: bool


@dataclass(frozen=True)
class Snapshot:
    """Alive-set capture; restoring replays exactly this alive flags state."""

    lineage: str
    alive_ids: frozenset
    score: float


def node_signature(op: Operation | None, parents, origin_name: str | None = None) -> str:
    if op is None:
        return f"root:{origin_name}"
    ids = list(parents)
    if op.commutative:
        ids = sorted(ids)
    return f"{op.name}({','.join(str(i) for i in ids)})"


def _node_fields(obj) -> tuple:
    """(id, op name, parents, depth, alive, stats) of one node as json.loads
    read it, each checked for its JSON type, never coerced: a bool is not an
    integer, and a stat is a finite number."""
    nid, op_name, parents = obj["id"], obj["op"], obj["parents"]
    depth, alive, stats = obj["depth"], obj["alive"], obj["stats"]
    if type(alive) is not bool:
        raise TypeError(f"alive must be true or false, got {alive!r}")
    if type(op_name) is not str:
        raise TypeError(f"op must be a string, got {op_name!r}")
    if type(parents) is not list or any(type(p) is not int for p in parents):
        raise TypeError(f"parents must be a list of integers, got {parents!r}")
    if type(nid) is not int:
        raise TypeError(f"id must be an integer, got {nid!r}")
    if type(depth) is not int:
        raise TypeError(f"depth must be an integer, got {depth!r}")
    if type(stats) is not list or not all(
        type(x) is int or type(x) is float and math.isfinite(x) for x in stats
    ):
        raise TypeError(f"stats must be a list of finite numbers, got {stats!r}")
    stats = np.array(stats, dtype=float)  # OverflowError past the float range
    if stats.shape != (STAT_DIM,):
        raise ValueError(f"stat vector must have {STAT_DIM} entries, got {stats.size}")
    return nid, op_name, tuple(parents), depth, alive, stats


class Roadmap:
    def __init__(self, original_columns, lineage: str):
        names = tuple(str(c) for c in original_columns)
        if not names:
            raise RoadmapError("roadmap needs at least one original column")
        if len(set(names)) != len(names):
            raise RoadmapError("original column names must be unique")
        self.original_columns = names
        self.lineage = lineage
        self.nodes: list[RoadmapNode] = []
        self._index: dict[str, int] = {}
        self._n_rows: int | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dataset(cls, d: Dataset, lineage: str) -> "Roadmap":
        """The roadmap of d's columns. lineage names it: export_json writes
        it, and restore takes only snapshots of the same lineage."""
        r = cls(d.column_names, lineage=lineage)
        r._n_rows = d.n_rows
        for name, col in zip(d.column_names, d.columns):
            node = RoadmapNode(
                id=len(r.nodes),
                op=None,
                parents=(),
                depth=0,
                stats=column_stats(col),
                origin_name=name,
                values=col,
            )
            r.nodes.append(node)
            r._index[node_signature(None, (), name)] = node.id
        return r

    def add_node(self, op: Operation, parents, values) -> AddResult:
        """Register a derived column; duplicates dedup, dead duplicates revive.
        values is read only when the signature is new."""
        parents = tuple(int(p) for p in parents)
        if len(parents) != op.arity:
            raise RoadmapError(f"{op.name} takes {op.arity} parent(s), got {len(parents)}")
        for p in parents:
            if not 0 <= p < len(self.nodes):
                raise RoadmapError(f"unknown parent id {p}")
            if not self.nodes[p].alive:
                raise RoadmapError(f"parent {p} is dead")
        node = self.find(op, parents)
        if node is not None:
            if node.alive:
                return AddResult(node.id, created=False, revived=False)
            node.alive = True
            return AddResult(node.id, created=False, revived=True)

        values = np.asarray(values, dtype=float)
        if self._n_rows is None:
            self._n_rows = values.shape[0]
        if values.shape != (self._n_rows,):
            raise RoadmapError("column length does not match the roadmap's dataset")
        node = RoadmapNode(
            id=len(self.nodes),
            op=op,
            parents=parents,
            depth=max(self.nodes[p].depth for p in parents) + 1,
            stats=column_stats(values),
            values=values,
        )
        self.nodes.append(node)
        self._index[node_signature(op, parents)] = node.id
        return AddResult(node.id, created=True, revived=False)

    def find(self, op: Operation, parents) -> RoadmapNode | None:
        """The node op derives from parents, alive or dead, if there is one."""
        i = self._index.get(node_signature(op, parents))
        return None if i is None else self.nodes[i]

    # -- views ------------------------------------------------------------

    def alive_nodes(self) -> list[RoadmapNode]:
        return [n for n in self.nodes if n.alive]

    def alive_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.alive]

    @property
    def alive_count(self) -> int:
        return sum(1 for n in self.nodes if n.alive)

    @property
    def root_count(self) -> int:
        return len(self.original_columns)

    def alive_edges(self):
        """(parent_id, child_id, op) for every edge between alive nodes."""
        out = []
        for n in self.nodes:
            if not n.alive or n.is_root:
                continue
            for p in n.parents:
                if self.nodes[p].alive:
                    out.append((p, n.id, n.op))
        return out

    # -- materialization --------------------------------------------------

    def materialize(self, d: Dataset) -> np.ndarray:
        """Recompute every alive column on a dataset, in alive-id order.

        Scaling operations refit their statistics on the given data.
        """
        if d.column_names != self.original_columns:
            raise RoadmapError(
                "dataset columns do not match the roadmap's original columns"
            )
        needed = set(self.alive_ids())
        # A node's parents have lower ids, so one pass from the top finds them all.
        for node in reversed(self.nodes):
            if node.id in needed:
                needed.update(node.parents)
        values: dict[int, np.ndarray] = {}
        for node in self.nodes:
            if node.id not in needed:
                continue
            if node.is_root:
                values[node.id] = np.asarray(d.columns[node.id], dtype=float)
            elif node.op.arity == 1:
                values[node.id] = unary_values(node.op, values[node.parents[0]])
            else:
                values[node.id] = binary_values(
                    node.op, values[node.parents[0]], values[node.parents[1]]
                )
        return np.column_stack([values[i] for i in self.alive_ids()])

    # -- pruning and backtracking ------------------------------------------

    def take_snapshot(self, score: float) -> Snapshot:
        return Snapshot(
            lineage=self.lineage,
            alive_ids=frozenset(self.alive_ids()),
            score=float(score),
        )

    def restore(self, snap: Snapshot) -> None:
        if snap.lineage != self.lineage:
            raise RoadmapError("snapshot comes from a different roadmap lineage")
        for node in self.nodes:
            node.alive = node.id in snap.alive_ids

    def prune_node_wise(self, labels, task: str, budget: int) -> list[int]:
        """Keep the budget-many highest-MI alive nodes plus every original.

        MI is taken between each alive node's column and labels, so the
        nodes must hold their columns: an imported roadmap does not. MI ties
        break toward the lower node id. Returns the ids switched off,
        ascending.
        """
        alive = self.alive_nodes()
        if len(alive) <= budget:
            return []
        scored = []
        for n in alive:
            if n.values is None:
                raise RoadmapError(f"alive node {n.id} holds no column")
            scored.append((-mutual_information(n.values, labels, task), n.id))
        scored.sort()
        keep = {nid for _, nid in scored[:budget]}
        killed = []
        for n in alive:
            if n.is_root or n.id in keep:
                continue
            n.alive = False
            killed.append(n.id)
        return killed

    # -- serialization ------------------------------------------------------

    def export_json(self) -> bytes:
        nodes = []
        for n in self.nodes:
            obj = {
                "id": n.id,
                "op": "root" if n.is_root else n.op.name,
                "parents": list(n.parents),
                "depth": n.depth,
                "alive": n.alive,
                "stats": [float(x) for x in n.stats],
            }
            if n.is_root:
                obj["origin_name"] = n.origin_name
            nodes.append(obj)
        doc = {
            "version": SCHEMA_VERSION,
            "lineage": self.lineage,
            "original_columns": list(self.original_columns),
            "nodes": nodes,
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @classmethod
    def import_json(cls, data) -> "Roadmap":
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed roadmap JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("roadmap document must be a JSON object")
        if doc.get("version") != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema version {doc.get('version')!r}")
        try:
            columns = doc["original_columns"]
            raw_nodes = doc["nodes"]
            lineage = doc["lineage"]
        except KeyError as exc:
            raise SchemaError(f"missing roadmap key {exc}") from exc
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise SchemaError("original_columns must be a list of column names")
        if not isinstance(raw_nodes, list) or len(raw_nodes) < len(columns):
            raise SchemaError("node list shorter than the original column list")

        if not isinstance(lineage, str):
            raise SchemaError(f"lineage must be a string, got {lineage!r}")

        r = cls(columns, lineage=lineage)
        for k, obj in enumerate(raw_nodes):
            try:
                nid, op_name, parents, depth, alive, stats = _node_fields(obj)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"bad node record at position {k}: {exc}") from exc
            if nid != k:
                raise SchemaError(f"node ids must be 0..N-1 in order, got {nid} at {k}")
            if op_name == "root":
                if k >= len(columns) or obj.get("origin_name") != columns[k]:
                    raise SchemaError(f"root node {k} does not match column order")
                node = RoadmapNode(k, None, (), 0, stats, alive, str(columns[k]))
            else:
                if op_name not in OP_BY_NAME:
                    raise SchemaError(f"unknown operation {op_name!r}")
                op = OP_BY_NAME[op_name]
                if len(parents) != op.arity or any(not 0 <= p < k for p in parents):
                    raise SchemaError(f"node {k} has invalid parents {parents}")
                want = max(r.nodes[p].depth for p in parents) + 1
                if depth != want:
                    raise SchemaError(f"node {k} depth {depth} inconsistent, want {want}")
                node = RoadmapNode(k, op, parents, depth, stats, alive)
            sig = node_signature(node.op, node.parents, node.origin_name)
            if sig in r._index:
                raise SchemaError(f"duplicate node signature {sig!r}")
            r.nodes.append(node)
            r._index[sig] = k
        if any(not r.nodes[i].is_root for i in range(len(columns))):
            raise SchemaError("the first nodes must be the original columns")
        if not r.alive_ids():
            raise SchemaError("the roadmap has no alive node")
        return r

    def export_dot(self) -> str:
        lines = ["digraph roadmap {"]
        for n in self.alive_nodes():
            label = f"{n.id}:{n.origin_name}" if n.is_root else f"{n.id}:{n.op.name}"
            lines.append(f'  n{n.id} [label="{label}"];')
        for p, c, op in self.alive_edges():
            lines.append(f'  n{p} -> n{c} [label="{op.name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
