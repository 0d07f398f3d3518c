"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

All values are 64-bit float numpy arrays. Differentiable operations go
through :func:`forward_op`, which records a node on a :class:`Tape` whenever
one of its inputs is attached to a tape. :func:`backward` replays the tape in
reverse to produce gradients for every attached tensor.

Off the tape, values are plain numpy arrays: plain arrays in give the
kernel's plain array out, with no node, no id and no wrapper, and a
:class:`Tensor` comes out only when a Tensor goes in. A plain input to a
taped op is a constant; its node records the id None. Both forms run the
same kernels, so their outputs are bit-identical. Kernels leave bad shapes
for numpy to reject and only then build the error message, so a valid op
pays for no check.

Tensors are immutable values (their arrays are marked read-only) and can be
shared freely; a Tape belongs to one logical execution stream.
"""

from __future__ import annotations

import numpy as np


class OpError(ValueError):
    """Raised when an operation is applied to incompatible operands."""


_F64 = np.dtype(np.float64)


class Tensor:
    """A dense float64 array, optionally attached to a tape.

    ``tape``/``tid`` link the value into a computation record; constants have
    ``tape is None``.
    """

    __slots__ = ("data", "tape", "tid")

    def __init__(self, data, tape=None, tid=None):
        if type(data) is np.ndarray and data.dtype == _F64:
            arr = data
        else:
            arr = np.asarray(data, dtype=_F64)
        arr.setflags(write=False)
        self.data = arr
        self.tape = tape
        self.tid = tid

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f", tid={self.tid}" if self.tape is not None else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # numpy defers `ndarray op Tensor` to the reflected operator below
    # instead of building an object array.
    __array_ufunc__ = None

    # Operator sugar; everything funnels through forward_op.
    def __add__(self, other):
        return forward_op("add", [self, _operand(other)])

    def __radd__(self, other):
        return forward_op("add", [_operand(other), self])

    def __sub__(self, other):
        return forward_op("subtract", [self, _operand(other)])

    def __rsub__(self, other):
        return forward_op("subtract", [_operand(other), self])

    def __mul__(self, other):
        return forward_op("elementwise-multiply", [self, _operand(other)])

    def __rmul__(self, other):
        return forward_op("elementwise-multiply", [_operand(other), self])

    def __matmul__(self, other):
        return forward_op("matmul", [self, _operand(other)])


def _operand(x):
    """`x` as an op input: Tensors and float64 arrays as they are, anything
    else as a float64 array."""
    if isinstance(x, Tensor) or (type(x) is np.ndarray and x.dtype == _F64):
        return x
    return np.asarray(x, dtype=_F64)


def raw(x):
    """The array of a Tensor, or `x` itself when it is already plain."""
    return x.data if isinstance(x, Tensor) else x


class Tape:
    """Ordered record of operations for one execution stream.

    Each node is ``(kind, input_ids, output_id, saved)``; inputs always appear
    earlier in the record than the nodes that consume them, so a single
    reverse sweep visits every node exactly once.
    """

    __slots__ = ("nodes", "_next_id")

    def __init__(self):
        self.nodes = []
        self._next_id = 0

    def _new_id(self) -> int:
        i = self._next_id
        self._next_id = i + 1
        return i

    def leaf(self, data) -> Tensor:
        """Attach a value to this tape as a differentiable leaf."""
        return Tensor(data, tape=self, tid=self._new_id())


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Forward/backward implementations. Forward functions return
# (output array, saved values); backward functions map (saved, output grad)
# to one gradient per input (None where no gradient flows).
# ---------------------------------------------------------------------------


def _shape_error(kind, a, b):
    return OpError(f"{kind}: incompatible shapes {a.shape} and {b.shape}")


def _fw_matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a, b)
    return a @ b, (a, b)


def _bw_matmul(saved, g):
    a, b = saved
    return g @ b.T, a.T @ g


# On float64 arrays numpy raises ValueError only for shapes that do not broadcast.
def _fw_add(a, b):
    try:
        return a + b, (a.shape, b.shape)
    except ValueError:
        raise _shape_error("add", a, b) from None


def _bw_add(saved, g):
    sa, sb = saved
    return _unbroadcast(g, sa), _unbroadcast(g, sb)


def _fw_subtract(a, b):
    try:
        return a - b, (a.shape, b.shape)
    except ValueError:
        raise _shape_error("subtract", a, b) from None


def _bw_subtract(saved, g):
    sa, sb = saved
    return _unbroadcast(g, sa), -_unbroadcast(g, sb)


def _fw_multiply(a, b):
    try:
        return a * b, (a, b)
    except ValueError:
        raise _shape_error("elementwise-multiply", a, b) from None


def _bw_multiply(saved, g):
    a, b = saved
    return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


def _fw_scalar_multiply(a, *, scalar):
    return a * scalar, scalar


def _bw_scalar_multiply(saved, g):
    return (g * saved,)


def _fw_concat_last(*arrays):
    widths = [a.shape[-1] for a in arrays]
    return np.concatenate(arrays, axis=-1), (widths,)


def _bw_concat_last(saved, g):
    (widths,) = saved
    return tuple(np.split(g, np.cumsum(widths)[:-1], axis=-1))


def _fw_concat_first(*arrays):
    lengths = [a.shape[0] for a in arrays]
    return np.concatenate(arrays, axis=0), (lengths,)


def _bw_concat_first(saved, g):
    (lengths,) = saved
    return tuple(np.split(g, np.cumsum(lengths)[:-1], axis=0))


def _fw_sum_all(a):
    return np.asarray(np.sum(a)), a.shape


def _bw_sum_all(saved, g):
    return (np.broadcast_to(g, saved),)


def _fw_sum_axis(a, *, axis):
    return a.sum(axis=axis), (a.shape, axis)


def _bw_sum_axis(saved, g):
    shape, axis = saved
    return (np.broadcast_to(np.expand_dims(g, axis), shape),)


def _fw_mean_axis(a, *, axis):
    return a.mean(axis=axis), (a.shape, axis)


def _bw_mean_axis(saved, g):
    shape, axis = saved
    n = shape[axis]
    return (np.broadcast_to(np.expand_dims(g / n, axis), shape),)


def _fw_transpose(a):
    if a.ndim != 2:
        raise OpError(f"transpose-2d: expected 2-d input, got shape {a.shape}")
    return a.T, None


def _bw_transpose(saved, g):
    return (g.T,)


def _fw_select_rows(a, *, indices):
    idx = np.asarray(indices, dtype=np.intp)
    return a[idx], (idx, a.shape)


def _bw_select_rows(saved, g):
    idx, shape = saved
    out = np.zeros(shape)
    np.add.at(out, idx, g)
    return (out,)


def _fw_tanh(a):
    out = np.tanh(a)
    return out, out


def _bw_tanh(saved, g):
    return (g * (1.0 - saved * saved),)


def _fw_sigmoid(a):
    # 1 / (1 + e^-a) for a >= 0 and e^a / (1 + e^a) below, so no exp
    # overflows; both halves in one expression.
    out = np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a)))
    return out, out


def _bw_sigmoid(saved, g):
    return (g * saved * (1.0 - saved),)


def _fw_relu(a):
    return np.maximum(a, 0.0), a


def _bw_relu(saved, g):
    return (g * (saved > 0),)


_LEAKY_SLOPE = 0.01


def _fw_leaky_relu(a):
    # 0.01 * a lies between 0 and a, so the max is a above zero and 0.01 * a
    # at or below it, signed zeros included.
    return np.maximum(a, _LEAKY_SLOPE * a), a


def _bw_leaky_relu(saved, g):
    return (g * np.where(saved > 0, 1.0, _LEAKY_SLOPE),)


def _fw_exp(a):
    out = np.exp(a)
    return out, out


def _bw_exp(saved, g):
    return (g * saved,)


def _fw_log(a):
    if np.any(a <= 0):
        raise OpError("log: non-positive input")
    return np.log(a), a


def _bw_log(saved, g):
    return (g / saved,)


def _fw_softmax(a):
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out


def _bw_softmax(saved, g):
    p = saved
    return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)


def _fw_max_last(a):
    # Gradient is routed to the first argmax along the last axis.
    idx = np.argmax(a, axis=-1)
    return a.max(axis=-1), (idx, a.shape)


def _bw_max_last(saved, g):
    idx, shape = saved
    out = np.zeros(shape)
    np.put_along_axis(out, np.expand_dims(idx, -1), np.expand_dims(g, -1), axis=-1)
    return (out,)


def _fw_reshape(a, *, shape):
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.intp)) != a.size:
        raise OpError(f"reshape: cannot reshape {a.shape} into {shape}")
    return a.reshape(shape), a.shape


def _bw_reshape(saved, g):
    return (g.reshape(saved),)


def _fw_slice_cols(a, *, start, stop):
    if not 0 <= start <= stop <= a.shape[-1]:
        raise OpError(f"slice-cols: range [{start}:{stop}] out of bounds for shape {a.shape}")
    return a[..., start:stop], (a.shape, start, stop)


def _bw_slice_cols(saved, g):
    shape, start, stop = saved
    out = np.zeros(shape)
    out[..., start:stop] = g
    return (out,)


def _fw_segment_sum(a, *, segments):
    """Sum contiguous row segments; ``segments`` is a list of (start, stop).

    Each segment adds its rows strictly in row order (row k joins at pass k),
    which keeps the sums reproducible for any row ordering chosen upstream.
    """
    lo, hi = np.array(segments, dtype=np.intp).reshape(-1, 2).T
    if lo.size == 0 or (hi <= lo).any():
        raise OpError("segment-sum: empty segment")
    out = a[lo]
    for k in range(1, int((hi - lo).max())):
        live = lo + k < hi
        out[live] += a[lo[live] + k]
    return out, (lo, hi, a.shape)


def _bw_segment_sum(saved, g):
    lo, hi, shape = saved
    lengths = hi - lo
    rows = np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    out = np.zeros(shape)
    out[rows] = np.repeat(g, lengths, axis=0)
    return (out,)


# Every operation kind with its (forward, backward) kernels; `OP_KINDS` lists
# the kinds in this order.
_OPS = {
    "matmul": (_fw_matmul, _bw_matmul),
    "add": (_fw_add, _bw_add),
    "subtract": (_fw_subtract, _bw_subtract),
    "elementwise-multiply": (_fw_multiply, _bw_multiply),
    "scalar-multiply": (_fw_scalar_multiply, _bw_scalar_multiply),
    "concat-last-axis": (_fw_concat_last, _bw_concat_last),
    "concat-first-axis": (_fw_concat_first, _bw_concat_first),
    "sum-all": (_fw_sum_all, _bw_sum_all),
    "sum-axis": (_fw_sum_axis, _bw_sum_axis),
    "mean-axis": (_fw_mean_axis, _bw_mean_axis),
    "transpose-2d": (_fw_transpose, _bw_transpose),
    "select-rows": (_fw_select_rows, _bw_select_rows),
    "tanh": (_fw_tanh, _bw_tanh),
    "sigmoid": (_fw_sigmoid, _bw_sigmoid),
    "relu": (_fw_relu, _bw_relu),
    "leaky-relu": (_fw_leaky_relu, _bw_leaky_relu),
    "exp": (_fw_exp, _bw_exp),
    "log": (_fw_log, _bw_log),
    "softmax-last-axis": (_fw_softmax, _bw_softmax),
    "max-last-axis": (_fw_max_last, _bw_max_last),
    "reshape": (_fw_reshape, _bw_reshape),
    "slice-cols": (_fw_slice_cols, _bw_slice_cols),
    "segment-sum": (_fw_segment_sum, _bw_segment_sum),
}

OP_KINDS = tuple(_OPS)


def forward_op(kind: str, inputs, **kwargs):
    """Apply an operation; record it when any input is tape-attached.

    With no Tensor among `inputs` the result is the kernel's plain array;
    otherwise it is a Tensor, attached to the inputs' tape if they have one.
    Identical inputs always produce bit-identical outputs, on the tape or
    off it. Shape errors name the kind and the offending shapes.
    """
    ops = _OPS.get(kind)
    if ops is None:
        raise OpError(f"unknown operation kind: {kind!r}")
    arrays = []
    wrapped = False
    tape = None
    for t in inputs:
        if isinstance(t, Tensor):
            wrapped = True
            if t.tape is not None:
                if tape is not None and tape is not t.tape:
                    raise OpError(f"{kind}: inputs belong to different tapes")
                tape = t.tape
            t = t.data
        arrays.append(t)
    out_data, saved = ops[0](*arrays, **kwargs)
    if not wrapped:
        return out_data
    if tape is None:
        return Tensor(out_data)
    out = Tensor(out_data, tape=tape, tid=tape._new_id())
    tids = tuple(t.tid if isinstance(t, Tensor) else None for t in inputs)
    tape.nodes.append((kind, tids, out.tid, saved))
    return out


def backward(loss: Tensor):
    """Gradients of a scalar tape-attached loss for every attached tensor.

    Returns a map from tensor id to a plain gradient array of that tensor's
    shape. The arrays may be shared with each other or be read-only
    broadcasts: read them, do not write into them.
    """
    if loss.tape is None:
        raise OpError("backward: loss is not attached to a tape")
    if loss.data.shape != ():
        raise OpError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    grads = {loss.tid: np.ones(())}
    for kind, input_ids, output_id, saved in reversed(loss.tape.nodes):
        g = grads.get(output_id)
        if g is None:
            continue
        for tid, gi in zip(input_ids, _OPS[kind][1](saved, g)):
            if tid is None or gi is None:
                continue
            acc = grads.get(tid)
            grads[tid] = gi if acc is None else acc + gi
    return grads


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    ``f`` maps a Tensor to a scalar (a Tensor, or a plain array when it
    does not depend on its input) and must be evaluable in an
    eps-neighborhood of ``x``. Per coordinate the error is
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    """
    tape = Tape()
    leaf = tape.leaf(x.data)
    out = f(leaf)
    if isinstance(out, Tensor) and out.tape is not None:
        analytic = backward(out).get(leaf.tid)
        analytic = np.zeros(x.data.shape) if analytic is None else analytic
    else:
        analytic = np.zeros(x.data.shape)

    numeric = np.zeros(x.data.size)
    base = x.data.ravel()
    for i in range(base.size):
        for sign in (1.0, -1.0):
            shifted = base.copy()
            shifted[i] += sign * eps
            val = raw(f(Tensor(shifted.reshape(x.data.shape))))
            numeric[i] += sign * float(val)
    numeric = (numeric / (2.0 * eps)).reshape(x.data.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


# Convenience wrappers used across the package.


def matmul(a, b):
    return forward_op("matmul", [a, b])


def concat_last(tensors):
    return forward_op("concat-last-axis", list(tensors))


def concat_first(tensors):
    return forward_op("concat-first-axis", list(tensors))


def sum_all(a):
    return forward_op("sum-all", [a])


def sum_axis(a, axis):
    return forward_op("sum-axis", [a], axis=axis)


def transpose(a):
    return forward_op("transpose-2d", [a])


def select_rows(a, indices):
    return forward_op("select-rows", [a], indices=indices)


def scalar_mul(a, s):
    return forward_op("scalar-multiply", [a], scalar=float(s))


def tanh(a):
    return forward_op("tanh", [a])


def sigmoid(a):
    return forward_op("sigmoid", [a])


def relu(a):
    return forward_op("relu", [a])


def leaky_relu(a):
    return forward_op("leaky-relu", [a])


def log(a):
    return forward_op("log", [a])


def softmax(a):
    return forward_op("softmax-last-axis", [a])


def reshape(a, shape):
    return forward_op("reshape", [a], shape=tuple(shape))


def slice_cols(a, start, stop):
    return forward_op("slice-cols", [a], start=start, stop=stop)


def segment_sum(a, segments):
    return forward_op("segment-sum", [a], segments=list(segments))
