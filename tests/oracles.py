"""Reference implementations used to check the package from the outside.

Everything here is written independently of the code under test: plain
Python loops, dict counting and math-module arithmetic wherever possible,
so that a bug in the package cannot hide inside its own oracle. The
exceptions are the two train_step references: train_step_reference
reuses the package's dense forward pass and backprop one transition at a
time, with its own per-snapshot encoder passes, and checks the batching
and the target max-Q memo of agents.train_step to rounding;
dense_train_step_reference reuses its batched passes too and checks its
sparse SGD step, which skips the arrays without a gradient, bit for bit.
"""

import itertools
import math

import numpy as np

from tcto import encoder as enc
from tcto.nnsub import backprop, forward, forward_cache


def stats7(values):
    """Mean, population std, min, max and linearly interpolated quartiles."""
    s = sorted(float(x) for x in values)
    n = len(s)
    mean = math.fsum(s) / n
    var = math.fsum((x - mean) ** 2 for x in s) / n

    def quantile(q):
        h = (n - 1) * q
        lo = math.floor(h)
        hi = min(lo + 1, n - 1)
        return s[lo] + (h - lo) * (s[hi] - s[lo])

    return (
        mean,
        math.sqrt(var),
        s[0],
        s[-1],
        quantile(0.25),
        quantile(0.5),
        quantile(0.75),
    )


def dense_rgcn(stats, relations, parents, layers, n_relations):
    """Per-node relational message passing with explicit loops.

    Node i aggregates the mean of its parents' embeddings, transforms it
    with the weight of its single incoming relation, and adds its own
    embedding through the self-loop weight (index n_relations). ReLU
    between layers, linear output.
    """
    h = np.asarray(stats, dtype=float)
    last = len(layers) - 1
    for layer_idx, layer in enumerate(layers):
        m = h.shape[0]
        d_out = layer[0].shape[1]
        z = np.zeros((m, d_out))
        for i in range(m):
            z[i] = h[i] @ layer[n_relations]
            ps = list(parents[i])
            rel = int(relations[i])
            if ps and rel >= 0:
                msg = sum(h[p] for p in ps) / len(ps)
                z[i] = z[i] + msg @ layer[rel]
        h = z if layer_idx == last else np.maximum(z, 0.0)
    return h


def set_partitions(items, k):
    """Every split of items into exactly k non-empty unlabeled blocks."""
    items = list(items)
    if k < 1 or k > len(items):
        return
    if k == 1:
        yield [list(items)]
        return
    if len(items) == k:
        yield [[x] for x in items]
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest, k - 1):
        yield [[first]] + [list(b) for b in smaller]
    for smaller in set_partitions(rest, k):
        for i in range(len(smaller)):
            yield [b + [first] if j == i else list(b) for j, b in enumerate(smaller)]


def pooled_within_distance(points, blocks):
    """Mean Euclidean distance over all within-block point pairs."""
    total = 0.0
    pairs = 0
    for block in blocks:
        for a, b in itertools.combinations(block, 2):
            total += math.dist(points[a], points[b])
            pairs += 1
    return total / pairs if pairs else 0.0


def best_partition(points, k):
    """Exhaustive minimizer of the pooled within-block distance."""
    points = [tuple(float(x) for x in row) for row in points]
    best = None
    best_obj = math.inf
    for blocks in set_partitions(range(len(points)), k):
        obj = pooled_within_distance(points, blocks)
        if obj < best_obj:
            best_obj = obj
            best = blocks
    return frozenset(frozenset(b) for b in best)


def average_linkage_reference(points, k):
    """Average-linkage clustering down to k clusters, ties spelled out.

    Clusters are keyed by their smallest member. Of the closest pairs of
    clusters, the one whose two keys, sorted, are lowest merges. Distances
    and the Lance-Williams update use the package's arithmetic one pair at
    a time, so distances, and therefore ties, are the same bits.
    """
    x = np.asarray(points, dtype=float)
    members = {i: [i] for i in range(len(x))}
    dist = {}
    for a, b in itertools.combinations(range(len(x)), 2):
        d = x[a] - x[b]
        dist[a, b] = math.sqrt(float((d * d).sum()))
    while len(members) > k:
        a, b = min(dist, key=lambda pair: (dist[pair], pair))
        size_a, size_b = float(len(members[a])), float(len(members[b]))
        for c in members:
            if c not in (a, b):
                ac, bc = (min(a, c), max(a, c)), (min(b, c), max(b, c))
                dist[ac] = (size_a * dist[ac] + size_b * dist[bc]) / (size_a + size_b)
        members[a] += members.pop(b)
        dist = {pair: d for pair, d in dist.items() if b not in pair}
    return [sorted(members[c]) for c in sorted(members)]


def as_partition(groups):
    """Normalize a list of member groups into a set of frozensets."""
    return frozenset(frozenset(g) for g in groups)


def plug_in_mi(values, labels, task):
    """Histogram mutual information in nats, counted with plain dicts.

    Feature values go into min(20, floor(sqrt(n))) equal-frequency bins by
    stable rank; classification labels are used as-is and regression labels
    fall into 5 equal-width ranges.
    """
    values = [float(v) for v in values]
    n = len(values)
    n_bins = max(1, min(20, math.isqrt(n)))
    order = sorted(range(n), key=lambda i: (values[i], i))
    vb = [0] * n
    for pos, i in enumerate(order):
        vb[i] = (pos * n_bins) // n

    if task == "classification":
        seen = {}
        yb = [seen.setdefault(int(y), len(seen)) for y in labels]
    else:
        ys = [float(y) for y in labels]
        lo, hi = min(ys), max(ys)
        if hi <= lo:
            yb = [0] * n
        else:
            yb = [min(max(int(math.floor((y - lo) / (hi - lo) * 5)), 0), 4) for y in ys]

    joint = {}
    for a, b in zip(vb, yb):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    px = {}
    py = {}
    for (a, b), c in joint.items():
        px[a] = px.get(a, 0) + c
        py[b] = py.get(b, 0) + c
    terms = [
        (c / n) * math.log(c * n / (px[a] * py[b])) for (a, b), c in joint.items()
    ]
    return max(math.fsum(terms), 0.0)


def central_difference(f, array, h=1e-5):
    """Central finite-difference gradient of f() with respect to array.

    f is a closure reading the array; entries are perturbed in place.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def fd_close(analytic, numeric, tol=1e-4):
    """True when gradients agree within tol, relative with a unit floor."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return bool(
        np.all(np.abs(analytic - numeric) <= tol * np.maximum(1.0, np.abs(numeric)))
    )


def random_graph(rng, max_nodes=5, n_relations=3, stat_dim=7):
    """A random layered DAG in snapshot form: (stats, relations, parents).

    Node 0 is always a root; later nodes either stay roots or attach to one
    or two earlier nodes under a random relation.
    """
    m = int(rng.integers(1, max_nodes + 1))
    stats = rng.normal(size=(m, stat_dim))
    relations = np.full(m, -1, dtype=int)
    parents = []
    for i in range(m):
        if i == 0 or rng.random() < 0.3:
            parents.append(())
            continue
        n_par = int(rng.integers(1, min(i, 2) + 1))
        picks = rng.choice(i, size=n_par, replace=False)
        parents.append(tuple(int(p) for p in picks))
        relations[i] = int(rng.integers(n_relations))
    return stats, relations, tuple(parents)


def blob_points(rng, m, k, dim=2):
    """m points in k well-separated blobs: centers 20 apart, jitter <= 0.5.

    Every blob receives at least one point. Returns (points, blob_of) where
    blob_of[i] is the blob index of point i. Any within-blob distance is at
    most sqrt(dim), any cross-blob distance at least 19, so the blob split
    uniquely minimises the pooled within-cluster average distance.
    """
    counts = [1] * k
    for _ in range(m - k):
        counts[int(rng.integers(k))] += 1
    centers = np.zeros((k, dim))
    centers[:, 0] = 20.0 * np.arange(k)
    points = np.zeros((m, dim))
    blob_of = []
    i = 0
    for b, c in enumerate(counts):
        for _ in range(c):
            points[i] = centers[b] + rng.uniform(-0.5, 0.5, size=dim)
            blob_of.append(b)
            i += 1
    return points, blob_of


def best_split_reference(X, y, idx, feats, task, n_classes, min_gain=1e-12):
    """The split search one feature at a time, as the package did before it
    scored all candidate features of a node in one pass.

    Each feature's rows are stably sorted, every cut between distinct
    neighbours is scored, and the feature whose best gain beats the running
    best with a strict '>' (starting from min_gain) wins; a feature whose
    first maximal gain is NaN never wins. Returns (feature, threshold) or
    None. It keeps the package's floating-point operations and their order,
    so its results are comparable bit for bit.
    """
    n = idx.shape[0]
    ys_all = y[idx]
    if task == "classification":
        ys_int = ys_all.astype(int)
        parent_counts = np.bincount(ys_int, minlength=n_classes).astype(float)
        frac = parent_counts / float(n)
        parent_imp = float(1.0 - (frac * frac).sum())
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            parent_imp = float(ys_all.var())

    def gini(counts, total):
        frac = counts / total[:, None]
        return 1.0 - (frac * frac).sum(axis=-1)

    best_gain = min_gain
    best = None
    for f in feats:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_s = xs[order]
        cuts = np.flatnonzero(xs_s[1:] > xs_s[:-1])
        if cuts.size == 0:
            continue
        n_left = (cuts + 1).astype(float)
        n_right = n - n_left
        with np.errstate(over="ignore", invalid="ignore"):
            if task == "classification":
                onehot = np.zeros((n, n_classes))
                onehot[np.arange(n), ys_int[order]] = 1.0
                cum = onehot.cumsum(axis=0)
                left_counts = cum[cuts]
                right_counts = cum[-1] - left_counts
                child_imp = (
                    n_left * gini(left_counts, n_left)
                    + n_right * gini(right_counts, n_right)
                ) / n
            else:
                ys = ys_all[order]
                s1 = ys.cumsum()
                s2 = (ys * ys).cumsum()
                mean_l = s1[cuts] / n_left
                var_l = np.maximum(s2[cuts] / n_left - mean_l * mean_l, 0.0)
                mean_r = (s1[-1] - s1[cuts]) / n_right
                var_r = np.maximum((s2[-1] - s2[cuts]) / n_right - mean_r * mean_r, 0.0)
                child_imp = (n_left * var_l + n_right * var_r) / n
            gains = parent_imp - child_imp
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            cut = cuts[j]
            best = (int(f), float((xs_s[cut] + xs_s[cut + 1]) / 2.0))
    return best


def _zero_grads(params):
    return [np.zeros_like(p) for p in params]


def zeros_for_none(grads, params):
    """A backward pass's gradient list with each None read as zeros."""
    return [np.zeros_like(p) if g is None else g for g, p in zip(grads, params, strict=True)]


def _add_grads(acc, grads, scale=1.0):
    for a, g in zip(acc, grads, strict=True):
        a += scale * g


def _sgd_step(params, grads, lr):
    for p, g in zip(params, grads, strict=True):
        p -= lr * g


def _max_target_q_reference(agent, candidates):
    best = -np.inf
    for x in candidates:
        q = forward(agent.target, x)
        best = max(best, float(np.max(q)))
    return best


def _rows_by_relation(graph):
    """(relation, rows) pairs, relations ascending, for the nodes with at
    least one alive parent."""
    out = {}
    for i, parents in enumerate(graph.parents):
        rel = int(graph.relations[i])
        if rel >= 0 and parents:
            out.setdefault(rel, []).append(i)
    return [(rel, np.array(rows)) for rel, rows in sorted(out.items())]


def rgcn_forward_reference(graph, params):
    """The package's RGCN forward pass over one snapshot, as it was before
    it took batches: the bits a batch of one must reproduce."""
    p = graph.message_operator
    rows_by_rel = _rows_by_relation(graph)
    self_idx = params.n_relations
    h = np.asarray(graph.stats, dtype=float)
    last = len(params.layers) - 1
    inputs, msgs_all, pre = [], [], []
    for l, layer in enumerate(params.layers):
        msgs = p @ h
        z = h @ layer[self_idx]
        for rel, rows in rows_by_rel:
            z[rows] += msgs[rows] @ layer[rel]
        inputs.append(h)
        msgs_all.append(msgs)
        pre.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    return h, (graph, inputs, msgs_all, pre)


def _rgcn_backward_reference(params, cache, d_out):
    graph, inputs, msgs_all, pre = cache
    p, rows_by_rel = graph.message_operator, _rows_by_relation(graph)
    width = params.n_relations + 1
    self_idx = params.n_relations
    grads = [np.zeros_like(w) for w in params.params]
    last = len(params.layers) - 1
    da = np.asarray(d_out, dtype=float)
    for l in range(last, -1, -1):
        dz = da if l == last else da * (pre[l] > 0.0)
        layer = params.layers[l]
        h, msgs = inputs[l], msgs_all[l]
        grads[l * width + self_idx] += h.T @ dz
        dmsgs = np.zeros_like(msgs)
        for rel, rows in rows_by_rel:
            grads[l * width + rel] += msgs[rows].T @ dz[rows]
            dmsgs[rows] = dz[rows] @ layer[rel].T
        da = dz @ layer[self_idx].T + p.T @ dmsgs
    return grads


def _state_forward_reference(encoder, graph, spec):
    h, rcache = rgcn_forward_reference(graph, encoder.rgcn)
    parts = [h[list(g)].mean(axis=0) for g in spec.groups]
    if spec.op_id is not None:
        parts.append(encoder.op_table[spec.op_id])
    return np.concatenate(parts), (spec, rcache, h.shape)


def _state_backward_reference(encoder, cache, dx):
    spec, rcache, h_shape = cache
    m, d = h_shape
    dh = np.zeros((m, d))
    offset = 0
    for g in spec.groups:
        seg = dx[offset : offset + d]
        dh[list(g)] += seg / len(g)
        offset += d
    op_grads = np.zeros_like(encoder.op_table)
    if spec.op_id is not None:
        op_grads[spec.op_id] = dx[offset : offset + d]
        offset += d
    if offset != dx.shape[0]:
        raise ValueError("dx length does not match the state layout")
    return _rgcn_backward_reference(encoder.rgcn, rcache, dh) + [op_grads]


def train_step_reference(agent, rng, *, gamma, lr, batch_size, encoder=None):
    """agents.train_step one transition at a time, as it was before it
    took whole minibatches: each transition has its own encoder pass,
    forward pass and backprop, allocates a zero gradient for every
    parameter, and adds them all into a full accumulator; SGD updates
    every array, and each target max-Q is recomputed from the target net.
    Its rounding is that of the per-transition loop, so the batched step
    matches it to rounding, not bit for bit."""
    if len(agent.buffer) < batch_size:
        return None
    picks = rng.choice(len(agent.buffer), size=batch_size, replace=False)
    batch = [agent.buffer[int(i)] for i in picks]

    params = agent.prediction.params
    if encoder is not None:
        params = params + encoder.params
    acc = _zero_grads(params)
    total_loss = 0.0
    for t in batch:
        state_cache = None
        if encoder is not None and t.state_ctx is not None:
            x, state_cache = _state_forward_reference(encoder, *t.state_ctx)
        else:
            x = t.state_input
        out, cache = forward_cache(agent.prediction, x)
        a = int(t.action) if agent.output_dim > 1 else 0
        q = float(out[a])
        y = t.reward
        if t.next_candidates:
            y += gamma * _max_target_q_reference(agent, t.next_candidates)
        diff = q - y
        total_loss += diff * diff
        dy = np.zeros_like(out)
        dy[a] = 2.0 * diff
        grads, dx = backprop(agent.prediction, cache, dy)
        if state_cache is not None:
            grads = grads + _state_backward_reference(encoder, state_cache, dx)
        _add_grads(acc[: len(grads)], grads, 1.0 / batch_size)

    _sgd_step(params, acc, lr)
    return total_loss / batch_size


def dense_train_step_reference(agent, rng, *, gamma, lr, batch_size, encoder=None):
    """agents.train_step in its dense form: the same batched passes over
    the minibatch and the same target max-Q memo, but the encoder's
    gradients are read with zeros for None, every gradient is added into
    a full zero accumulator, and SGD updates every array."""
    if len(agent.buffer) < batch_size:
        return None
    picks = rng.choice(len(agent.buffer), size=batch_size, replace=False)
    batch = [agent.buffer[int(i)] for i in picks]

    x = np.stack([t.state_input for t in batch])
    ctx = []
    if encoder is not None:
        ctx = [k for k, t in enumerate(batch) if t.state_ctx is not None]
    if ctx:
        x[ctx], state_cache = enc.state_forward(encoder, [batch[k].state_ctx for k in ctx])
    out, cache = forward_cache(agent.prediction, x)
    todo = [t for t in batch if t.next_candidates and t.max_target_q is None]
    if todo:
        q = forward(agent.target, np.stack([c for t in todo for c in t.next_candidates]))
        q = q.max(axis=1)
        start = 0
        for t in todo:
            t.max_target_q = float(q[start : start + len(t.next_candidates)].max())
            start += len(t.next_candidates)
    diff = np.zeros(batch_size)
    dy = np.zeros_like(out)
    for k, t in enumerate(batch):
        a = int(t.action) if agent.output_dim > 1 else 0
        y = t.reward
        if t.next_candidates:
            y += gamma * t.max_target_q
        diff[k] = out[k, a] - y
        dy[k, a] = (2.0 / batch_size) * diff[k]
    grads, dx = backprop(agent.prediction, cache, dy)

    params = agent.prediction.params
    if encoder is not None:
        params = params + encoder.params
    acc = _zero_grads(params)
    _add_grads(acc[: len(grads)], grads)
    if ctx:
        enc_grads = enc.state_backward(encoder, state_cache, dx[ctx])
        _add_grads(acc[len(grads) :], zeros_for_none(enc_grads, encoder.params))
    _sgd_step(params, acc, lr)
    return float(diff @ diff) / batch_size


def grow_reference(X, y, idx, X_te, te, out, depth, max_depth, feat_rng, n_subset, task, n_classes):
    """A CART tree grown depth first, one node at a time, as the package grew
    it before it grew trees in lockstep: a node that can split draws its
    candidate features from feat_rng, which is used for nothing else,
    best_split_reference picks its split, and the left subtree grows before
    the right. The rows te of X_te follow each split, and each leaf writes
    its value to the ones that reach it in out. feat_rng may be None when
    n_subset equals the number of features.
    """
    ys = y[idx]
    if depth < max_depth and idx.shape[0] >= 2 and not (ys == ys[0]).all():
        p = X.shape[1]
        if n_subset < p:
            feats = np.sort(feat_rng.choice(p, size=n_subset, replace=False))
        else:
            feats = np.arange(p)
        split = best_split_reference(X, y, idx, feats, task, n_classes)
        if split is not None:
            f, thr = split
            mask = X[idx, f] <= thr
            if mask.any() and not mask.all():
                go_left = X_te[te, f] <= thr
                rest = (out, depth + 1, max_depth, feat_rng, n_subset, task, n_classes)
                grow_reference(X, y, idx[mask], X_te, te[go_left], *rest)
                grow_reference(X, y, idx[~mask], X_te, te[~go_left], *rest)
                return
    # A leaf predicts its most common class, the lowest on ties, or its mean label.
    if task == "classification":
        out[te] = float(np.bincount(ys.astype(int), minlength=n_classes).argmax())
    else:
        out[te] = float(ys.sum() / ys.shape[0])


def tree_reference(X, y, X_te, seed, t, max_depth, task, n_classes):
    """Tree t of a forest trained on (X, y) with model seed seed, grown alone
    by grow_reference, and its predictions for X_te: a bootstrap sample and
    then every node's candidate features drawn from one generator seeded by
    (seed, t), with isqrt(p) candidates per node."""
    n, p = X.shape
    rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
    sample = np.sort(rng.integers(0, n, size=n))
    out = np.empty(X_te.shape[0])
    te = np.arange(X_te.shape[0])
    grow_reference(X, y, sample, X_te, te, out, 0, max_depth, rng, math.isqrt(p), task, n_classes)
    return out
