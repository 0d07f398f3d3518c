"""Parameterized blocks: MLPs, an LSTM cell, a message-passing graph block.

Parameters live in a :class:`ParamStore` (name -> Tensor). Updates are
functional: :func:`adam_step` and :func:`polyak_update` return new stores, so
readers holding the old store never observe a half-applied update.

The blocks take their parameters as any name -> value map: a store, the
leaves of `ParamStore.bind` (the tape records the pass) or the plain arrays
of `ParamStore.arrays` (no tape, and plain arrays out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import OpError, Tensor


class ParamStore:
    """Named, ordered map of parameter tensors with fixed shapes.

    `arrays` maps the same names to the read-only arrays themselves, for
    passes off the tape; a store never changes, so it builds that map once,
    on first use.
    """

    def __init__(self, values):
        self._values = {}
        self._arrays = None
        for name, value in values.items():
            if name in self._values:
                raise ValueError(f"duplicate parameter name: {name}")
            self._values[name] = value if isinstance(value, Tensor) else Tensor(value)

    def __getitem__(self, name) -> Tensor:
        return self._values[name]

    def __contains__(self, name) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def names(self):
        return list(self._values)

    @property
    def arrays(self) -> dict:
        if self._arrays is None:
            self._arrays = {name: t.data for name, t in self._values.items()}
        return self._arrays

    def items(self):
        return self._values.items()

    def shapes(self):
        return {name: t.data.shape for name, t in self._values.items()}

    def bind(self, tape):
        """Leaf tensors on `tape` sharing this store's values, keyed by name."""
        return {name: tape.leaf(t.data) for name, t in self._values.items()}

    def replace(self, updates) -> "ParamStore":
        """A new store with some values replaced; shapes must be preserved."""
        merged = {}
        for name, t in self._values.items():
            if name in updates:
                new = updates[name]
                new = new if isinstance(new, Tensor) else Tensor(new)
                if new.data.shape != t.data.shape:
                    raise OpError(
                        f"replace: shape mismatch for {name}: "
                        f"{new.data.shape} vs {t.data.shape}"
                    )
                merged[name] = new
            else:
                merged[name] = t
        return ParamStore(merged)

    def merged_with(self, other: "ParamStore", prefix: str = "") -> "ParamStore":
        values = dict(self._values)
        for name, t in other.items():
            values[prefix + name] = t
        return ParamStore(values)


def _uniform_fan_in(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_mlp(sizes, rng, prefix="") -> ParamStore:
    """Fully connected stack; weights U(-1/sqrt(fan_in), +1/sqrt(fan_in)), zero biases."""
    if len(sizes) < 2:
        raise ValueError("init_mlp: need at least an input and an output size")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"init_mlp: sizes must be positive, got {sizes}")
    values = {}
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        values[f"{prefix}w{layer}"] = _uniform_fan_in(rng, fan_in, (fan_in, fan_out))
        values[f"{prefix}b{layer}"] = np.zeros(fan_out)
    return ParamStore(values)


def init_lstm(input_size, hidden_size, rng, prefix="") -> ParamStore:
    """Single LSTM cell with one combined gate matrix (order i, f, g, o)."""
    if input_size <= 0 or hidden_size <= 0:
        raise ValueError("init_lstm: sizes must be positive")
    fan_in = input_size + hidden_size
    return ParamStore(
        {
            f"{prefix}w": _uniform_fan_in(rng, fan_in, (fan_in, 4 * hidden_size)),
            f"{prefix}b": np.zeros(4 * hidden_size),
        }
    )


def init_graph_block(node_dim, edge_sizes, node_sizes, rng) -> ParamStore:
    """Edge and node MLPs of a fully connected message-passing block."""
    edge = init_mlp([2 * node_dim, *edge_sizes], rng, prefix="edge.")
    node = init_mlp([node_dim + edge_sizes[-1], *node_sizes], rng, prefix="node.")
    return edge.merged_with(node)


_ACTIVATIONS = {
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
    "relu": T.relu,
    "leaky-relu": T.leaky_relu,
    "softmax": T.softmax,
    None: lambda x: x,
}


# prefix -> ((weight, bias) name per layer, first weight name past the last).
_LAYER_NAMES = {}


def _layers(params, prefix):
    """The (weight, bias) names of the MLP under `prefix`, in layer order.

    The names of the layer count last seen under a prefix are reused when
    `params` holds that count's last weight and not the next one.
    """
    cached = _LAYER_NAMES.get(prefix)
    if cached is not None and cached[0][-1][0] in params and cached[1] not in params:
        return cached[0]
    if f"{prefix}w0" not in params:
        raise OpError(f"mlp_forward: no layers under prefix {prefix!r}")
    count = 1
    while f"{prefix}w{count}" in params:
        count += 1
    names = tuple((f"{prefix}w{layer}", f"{prefix}b{layer}") for layer in range(count))
    _LAYER_NAMES[prefix] = (names, f"{prefix}w{count}")
    return names


def mlp_forward(params, x, schedule=None, prefix=""):
    """Alternating affine + nonlinearity.

    `schedule` holds one activation name (or None) per layer; the default is
    leaky-relu everywhere except the final, linear layer.
    """
    layers = _layers(params, prefix)
    last = len(layers) - 1
    if schedule is not None and len(schedule) != last + 1:
        raise OpError(
            f"mlp_forward: schedule length {len(schedule)} != layer count {last + 1}"
        )
    out = x
    for layer, (w, b) in enumerate(layers):
        out = T.matmul(out, params[w]) + params[b]
        if schedule is not None:
            out = _ACTIVATIONS[schedule[layer]](out)
        elif layer < last:
            out = T.leaky_relu(out)
    return out


def lstm_step(params, x, state, prefix=""):
    """One gated-recurrence step.

    i, f, o = sigmoid(affine), g = tanh(affine); c' = f*c + i*g,
    h' = o*tanh(c'). Inputs are row batches: x (n, in), h and c (n, hidden).
    """
    h, c = state
    hidden = h.shape[-1]
    z = T.matmul(T.concat_last([x, h]), params[f"{prefix}w"]) + params[f"{prefix}b"]
    # One sigmoid over the whole gate slab; its g columns are never read.
    gates = T.sigmoid(z)
    i = T.slice_cols(gates, 0, hidden)
    f = T.slice_cols(gates, hidden, 2 * hidden)
    g = T.tanh(T.slice_cols(z, 2 * hidden, 3 * hidden))
    o = T.slice_cols(gates, 3 * hidden, 4 * hidden)
    c_new = f * c + i * g
    h_new = o * T.tanh(c_new)
    return h_new, c_new


def graph_edges(node_values: np.ndarray, groups):
    """Edge index lists for fully connected directed graphs over row groups.

    Returns (src, dst, segments, agg_map): `segments` are contiguous
    (start, stop) ranges of edges per destination with at least one incoming
    edge, in global row order; `agg_map[row]` is the segment index for that
    row, or -1 for rows with no incoming edges (singleton groups).
    """
    src, dst, segments = [], [], []
    agg_map = np.full(node_values.shape[0], -1, dtype=np.intp)
    rows = node_values.tolist()
    for start, count in groups:
        if count < 1:
            raise OpError("graph_block: agent count must be >= 1")
        if count == 1:
            continue
        # Rank rows by value (lexicographically, ties in row order) so that
        # edge aggregation sums contributions in an order independent of how
        # the caller happened to index the agents.
        order = sorted(range(start, start + count), key=rows.__getitem__)
        for k in range(start, start + count):
            lo = len(src)
            for j in order:
                if j != k:
                    src.append(j)
                    dst.append(k)
            agg_map[k] = len(segments)
            segments.append((lo, len(src)))
    return src, dst, segments, agg_map


def graph_block_grouped(params, nodes, groups, prefix=""):
    """Message passing over one or more independent fully connected graphs.

    `nodes` stacks the node inputs of every graph; `groups` lists
    (start row, node count) per graph. For each directed edge (j -> k) an
    edge embedding is computed from concat(node_j, node_k); each node then
    combines its input with the sum of incoming edge embeddings (zero when
    the node is alone in its graph).
    """
    src, dst, segments, agg_map = graph_edges(T.raw(nodes), groups)
    edge_prefix, node_prefix = prefix + "edge.", prefix + "node."
    edge_out = params[_layers(params, edge_prefix)[-1][1]].shape[-1]
    if src:
        pair = T.concat_last([T.select_rows(nodes, src), T.select_rows(nodes, dst)])
        edges = mlp_forward(params, pair, prefix=edge_prefix)
        agg_rows = T.segment_sum(edges, segments)
        if np.any(agg_map < 0):
            stacked = T.concat_first([agg_rows, np.zeros((1, edge_out))])
            index = np.where(agg_map < 0, len(segments), agg_map)
            agg = T.select_rows(stacked, index)
        else:
            agg = T.select_rows(agg_rows, agg_map)
    else:
        agg = np.zeros((nodes.shape[0], edge_out))
    return mlp_forward(params, T.concat_last([nodes, agg]), prefix=node_prefix)


@dataclass
class AdamState:
    """Per-parameter moment estimates plus shared step counter."""

    lr: float = 2.5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: ParamStore, grads, state: AdamState):
    """One Adam update with bias correction; untouched parameters unchanged."""
    new_state = AdamState(
        lr=state.lr,
        beta1=state.beta1,
        beta2=state.beta2,
        eps=state.eps,
        step=state.step + 1,
        m=dict(state.m),
        v=dict(state.v),
    )
    t = new_state.step
    updates = {}
    for name, grad in grads.items():
        g = grad.data if isinstance(grad, Tensor) else np.asarray(grad, dtype=np.float64)
        p = params[name].data
        if g.shape != p.shape:
            raise OpError(f"adam_step: gradient shape {g.shape} != {p.shape} for {name}")
        m = new_state.m.get(name)
        v = new_state.v.get(name)
        m = (1 - state.beta1) * g if m is None else state.beta1 * m + (1 - state.beta1) * g
        v = (1 - state.beta2) * g * g if v is None else state.beta2 * v + (1 - state.beta2) * g * g
        new_state.m[name] = m
        new_state.v[name] = v
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        updates[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params.replace(updates), new_state


def polyak_update(target: ParamStore, online: ParamStore, alpha: float) -> ParamStore:
    """target' = (1 - alpha) * target + alpha * online, entry by entry."""
    if target.names() != online.names():
        raise OpError("polyak_update: parameter name sets differ")
    updates = {}
    for name, t in target.items():
        o = online[name].data
        if o.shape != t.data.shape:
            raise OpError(f"polyak_update: shape mismatch for {name}")
        updates[name] = (1.0 - alpha) * t.data + alpha * o
    return target.replace(updates)
