"""Parameterized blocks: MLPs, an LSTM cell, a message-passing graph block.

Parameters live in a :class:`ParamStore`: one read-only float64 vector and
the layout that maps each name to its (offset, shape) in it. A network is
described by its parameter layout (name -> (shape, fan-in), see
:func:`mlp_layout`), which gives its shapes without drawing anything, and
is built only as ``draw(layout, rng)``, straight into one vector; a layout
function per block or network is all there is. Training updates vectors in
place: :func:`adam_step`, :func:`polyak_update` and
:meth:`ParamStore.accumulate` write whole vectors with ``out=`` ufuncs into
buffers their caller owns, so an update allocates nothing. Whoever owns such
a buffer hands out copies, so a store handed out is a snapshot that never
changes.

The blocks take their parameters as any name -> value map: a store, the
leaves of `ParamStore.bind` (the tape records the pass) or the plain arrays
of `ParamStore.arrays` (no tape, and plain arrays out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import OpError, Tensor


class ParamStore:
    """Named parameters with fixed shapes, laid end to end in one read-only
    float64 vector (`vector`), in insertion order.

    The store alone decides the layout (`layout`: name -> (offset, shape) in
    the vector). Every parameter is a read-only view of the vector: a
    `Tensor` through `store[name]` and `items()`, a plain array through
    `arrays` (for passes off the tape, built once, on first use).
    """

    def __init__(self, values):
        arrays = {name: np.asarray(T.raw(v), dtype=np.float64) for name, v in values.items()}
        vector = np.concatenate([a.ravel() for a in arrays.values()] or [np.zeros(0)])
        self._adopt(_layout_of({name: a.shape for name, a in arrays.items()}), vector)

    @classmethod
    def from_vector(cls, shapes, vector) -> "ParamStore":
        """The store over `vector` holding `shapes` (name -> shape, in order)."""
        store = cls.__new__(cls)
        store._adopt(_layout_of(shapes), vector)
        return store

    def with_vector(self, vector) -> "ParamStore":
        """A store with this layout over `vector`."""
        store = ParamStore.__new__(ParamStore)
        store._adopt((self.layout, self.vector.size), vector)
        return store

    def _adopt(self, layout, vector):
        (self.layout, size), self.vector, self._arrays = layout, vector, None
        if vector.dtype != np.float64 or vector.shape != (size,):
            raise OpError(f"{vector.dtype} vector {vector.shape} does not fit {size} parameters")
        vector.setflags(write=False)

    def views(self, vector) -> dict:
        """Name -> that parameter's view of `vector` (laid out as this store)."""
        return {
            name: vector[offset : offset + math.prod(shape)].reshape(shape)
            for name, (offset, shape) in self.layout.items()
        }

    @property
    def arrays(self) -> dict:
        if self._arrays is None:
            self._arrays = self.views(self.vector)
        return self._arrays

    def __getitem__(self, name) -> Tensor:
        return Tensor(self.arrays[name])

    def items(self):
        return [(name, Tensor(a)) for name, a in self.arrays.items()]

    def __contains__(self, name) -> bool:
        return name in self.layout

    def names(self):
        return list(self.layout)

    def shapes(self):
        return {name: shape for name, (_, shape) in self.layout.items()}

    def name_at(self, index: int) -> str:
        """The parameter that holds entry `index` of the vector."""
        for name, (offset, shape) in self.layout.items():
            if offset <= index < offset + math.prod(shape):
                return name
        raise IndexError(f"entry {index} is outside a store of {self.vector.size}")

    def bind(self, tape):
        """Leaf tensors on `tape` sharing this store's values, keyed by name."""
        return {name: tape.leaf(a) for name, a in self.arrays.items()}

    def accumulate(self, acc, leaves, grads, fresh=False):
        """Add to `acc` (a vector in this layout, updated in place and
        returned) the gradients of `leaves` (this store's `bind`) found in
        `grads` (tape id -> array, as `tensor.backward` returns them). With
        `fresh`, what `acc` held is dropped: it ends up holding those
        gradients, and zeros where none reached."""
        for leaf, view in zip(leaves.values(), self.views(acc).values()):
            g = grads.get(leaf.tid)
            if fresh:
                view[...] = 0.0 if g is None else g
            elif g is not None:
                view += g
        return acc


def _layout_of(shapes):
    """(name -> (offset, shape) laid end to end, total length)."""
    layout, size = {}, 0
    for name, shape in shapes.items():
        layout[name] = (size, tuple(shape))
        size += math.prod(shape)
    return layout, size


def _uniform_fan_in(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def mlp_layout(sizes, prefix="") -> dict:
    """Parameter layout of a fully connected stack: name -> (shape, fan-in
    of a weight, None for a bias)."""
    if len(sizes) < 2:
        raise ValueError("mlp_layout: need at least an input and an output size")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"mlp_layout: sizes must be positive, got {sizes}")
    layout = {}
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layout[f"{prefix}w{layer}"] = ((fan_in, fan_out), fan_in)
        layout[f"{prefix}b{layer}"] = ((fan_out,), None)
    return layout


def lstm_layout(input_size, hidden_size, prefix="") -> dict:
    """Parameter layout of a single LSTM cell with one combined gate matrix
    (order i, f, g, o)."""
    if input_size <= 0 or hidden_size <= 0:
        raise ValueError("lstm_layout: sizes must be positive")
    fan_in = input_size + hidden_size
    return {
        f"{prefix}w": ((fan_in, 4 * hidden_size), fan_in),
        f"{prefix}b": ((4 * hidden_size,), None),
    }


def graph_block_layout(node_dim, edge_sizes, node_sizes, prefix="") -> dict:
    """Parameter layout of the edge and node MLPs of a fully connected
    message-passing block."""
    return {
        **mlp_layout([2 * node_dim, *edge_sizes], prefix=f"{prefix}edge."),
        **mlp_layout([node_dim + edge_sizes[-1], *node_sizes], prefix=f"{prefix}node."),
    }


def layout_shapes(layout) -> dict:
    """Name -> shape of parameter layout `layout`."""
    return {name: shape for name, (shape, _) in layout.items()}


def draw(layout, rng) -> ParamStore:
    """The store of parameter layout `layout`, drawn straight into its
    vector: each weight U(-1/sqrt(fan_in), +1/sqrt(fan_in)) from `rng`, in
    layout order, and zero biases."""
    offsets, size = _layout_of(layout_shapes(layout))
    vector = np.zeros(size)
    for name, (shape, fan_in) in layout.items():
        if fan_in is not None:
            offset = offsets[name][0]
            vector[offset : offset + math.prod(shape)] = _uniform_fan_in(rng, fan_in, shape).ravel()
    return ParamStore.from_vector(layout_shapes(layout), vector)


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


def mlp_forward(params, x, prefix=""):
    """Alternating affine + leaky-relu; the final layer is linear."""
    layers = _layers(params, prefix)
    last = len(layers) - 1
    out = x
    for layer, (w, b) in enumerate(layers):
        out = T.matmul(out, params[w]) + params[b]
        if layer < last:
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
    """Settings, step counter and moments of Adam on a vector of `size`
    entries. The moments are two vectors in its layout that `adam_step`
    writes in place."""

    size: int
    lr: float = 2.5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.m, self.v = np.zeros(self.size), np.zeros(self.size)


def adam_step(params, grad, state: AdamState, scratch):
    """One Adam update with bias correction of the whole parameter vector
    `params`, in place, with the moments of `state`.

    `grad` is the summed gradient in the same layout
    (`ParamStore.accumulate`). Once the moments are updated it serves as
    scratch space, so it holds no gradient afterwards; `scratch` is one more
    vector of the same length. Every entry is computed as in
    p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps), operation by
    operation, after m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g (at the
    first step m = (1-b1)*g and v = (1-b2)*g*g). Every parameter takes part
    in every step: one that no loss reached has a zero gradient there, so
    its moments decay and it still moves while its first moment is non-zero
    (at the first step it stays put).
    """
    if grad.shape != params.shape:
        raise OpError(f"adam_step: gradient shape {grad.shape} != {params.shape}")
    b1, b2, m, v = state.beta1, state.beta2, state.m, state.v
    if state.step == 0:
        np.multiply(1 - b1, grad, out=m)
        np.multiply(np.multiply(1 - b2, grad, out=v), grad, out=v)
    else:
        np.add(np.multiply(b1, m, out=m), np.multiply(1 - b1, grad, out=scratch), out=m)
        g2 = np.multiply(np.multiply(1 - b2, grad, out=scratch), grad, out=scratch)
        np.add(np.multiply(b2, v, out=v), g2, out=v)
    state.step += 1
    t = state.step
    step = np.multiply(state.lr, np.divide(m, 1 - b1**t, out=scratch), out=scratch)
    denom = np.add(np.sqrt(np.divide(v, 1 - b2**t, out=grad), out=grad), state.eps, out=grad)
    np.subtract(params, np.divide(step, denom, out=scratch), out=params)


def polyak_update(target, online, alpha: float, scratch):
    """target = (1 - alpha) * target + alpha * online, entry by entry, in
    place on the vector `target`; `scratch` is a vector of the same length."""
    if target.shape != online.shape:
        raise OpError(f"polyak_update: vector shapes differ, {target.shape} != {online.shape}")
    np.add(
        np.multiply(1.0 - alpha, target, out=target),
        np.multiply(alpha, online, out=scratch),
        out=target,
    )
