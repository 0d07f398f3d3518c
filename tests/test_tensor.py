import json
from pathlib import Path

import numpy as np
import pytest

from openteam import tensor as T
from openteam.tensor import OpError, Tape, Tensor, backward, forward_op, grad_check


def leaf(tape, arr):
    return tape.leaf(np.asarray(arr, dtype=float))


class TestForwardOp:
    def test_matmul_identity(self):
        out = forward_op("matmul", [Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]])])
        assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_matmul_hand_arithmetic(self):
        # [[1,2],[3,4]] @ [[5],[6]] = [[1*5+2*6],[3*5+4*6]]
        out = forward_op("matmul", [Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]])])
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=50.0, size=(3, 5))
            p = T.softmax(Tensor(x)).data
            assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-9)
            shifted = T.softmax(Tensor(x + 123.456)).data
            assert np.all(np.abs(p - shifted) <= 1e-9)

    def test_shape_error_names_kind_and_shapes(self):
        with pytest.raises(OpError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            forward_op("matmul", [Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))])
        with pytest.raises(OpError, match="add"):
            forward_op("add", [Tensor(np.ones((2, 3))), Tensor(np.ones(4))])

    @pytest.mark.parametrize("kind", ["add", "subtract", "elementwise-multiply"])
    def test_broadcast_error_names_kind_and_shapes(self, kind):
        with pytest.raises(OpError, match=rf"{kind}: .*\(2, 3\) and \(4,\)"):
            forward_op(kind, [Tensor(np.ones((2, 3))), Tensor(np.ones(4))])

    def test_log_rejects_non_positive(self):
        with pytest.raises(OpError, match="log"):
            T.log(Tensor([1.0, 0.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(OpError, match="unknown"):
            forward_op("convolve", [Tensor([1.0])])

    def test_op_kinds_are_the_benchmark_metrics(self):
        # The benchmark reports one tape-node count per kind, in this order.
        spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
        prefix = "tensor.tape_nodes."
        names = [m["name"] for m in spec["per_layer"]]
        declared = [name[len(prefix) :] for name in names if name.startswith(prefix)]
        assert T.OP_KINDS == tuple(declared)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        one = forward_op("matmul", [Tensor(a), Tensor(b)]).data
        two = forward_op("matmul", [Tensor(a), Tensor(b)]).data
        assert one.tobytes() == two.tobytes()

    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(scale=30.0, size=(4, 6)))
        for kind in ("tanh", "sigmoid", "relu", "leaky-relu", "softmax-last-axis"):
            assert np.all(np.isfinite(forward_op(kind, [x]).data))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = leaf(tape, [1.0, 2.0, 3.0])
        grads = backward(T.sum_all(x))
        assert np.array_equal(grads[x.tid], [1.0, 1.0, 1.0])

    def test_matmul_gradient_analytic(self):
        tape = Tape()
        a = leaf(tape, np.ones((2, 2)))
        b = leaf(tape, np.ones((2, 2)))
        grads = backward(T.sum_all(a @ b))
        assert np.array_equal(grads[a.tid], [[2.0, 2.0], [2.0, 2.0]])
        assert np.array_equal(grads[b.tid], [[2.0, 2.0], [2.0, 2.0]])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = leaf(tape, [1.0, 2.0])
        with pytest.raises(OpError, match="scalar"):
            backward(x)

    def test_detached_loss_rejected(self):
        with pytest.raises(OpError, match="tape"):
            backward(T.sum_all(Tensor([1.0])))

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w0, b0 = rng.normal(size=(3, 4)), rng.normal(size=4)
        w1, b1 = rng.normal(size=(4, 1)), rng.normal(size=1)

        def f(x):
            h = T.tanh(x @ Tensor(w0) + Tensor(b0))
            return T.sum_all(T.tanh(h @ Tensor(w1) + Tensor(b1)))

        assert grad_check(f, Tensor(rng.normal(size=(2, 3)))) <= 1e-4


class TestGradCheck:
    def test_sum_of_squares(self):
        err = grad_check(lambda x: T.sum_all(x * x), Tensor([1.0, 2.0, 3.0]))
        assert err <= 1e-7

    def test_constant_function(self):
        err = grad_check(lambda x: Tensor(5.0), Tensor([1.0, 2.0]))
        assert err <= 1e-9
        err = grad_check(lambda x: T.sum_all(np.ones(2)), Tensor([1.0, 2.0]))
        assert err <= 1e-9


def _rand(rng, *shape):
    return rng.normal(size=shape)


def _away_from_kinks(rng, *shape):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 0.2, np.sign(x) * 0.2 + x, x)


def _kind_instance(kind, rng):
    """(inputs, kwargs) whose composed sum is differentiable at the sample."""
    if kind == "matmul":
        return [_rand(rng, 3, 4), _rand(rng, 4, 2)], {}
    if kind in ("add", "subtract", "elementwise-multiply"):
        if rng.random() < 0.5:
            return [_rand(rng, 3, 4), _rand(rng, 3, 4)], {}
        return [_rand(rng, 3, 4), _rand(rng, 4)], {}  # broadcast bias form
    if kind == "scalar-multiply":
        return [_rand(rng, 3, 3)], {"scalar": float(rng.normal())}
    if kind == "concat-last-axis":
        return [_rand(rng, 3, 2), _rand(rng, 3, 3)], {}
    if kind == "concat-first-axis":
        return [_rand(rng, 2, 3), _rand(rng, 4, 3)], {}
    if kind == "sum-all":
        return [_rand(rng, 3, 4)], {}
    if kind in ("sum-axis", "mean-axis"):
        return [_rand(rng, 3, 4)], {"axis": int(rng.integers(0, 2))}
    if kind == "transpose-2d":
        return [_rand(rng, 3, 4)], {}
    if kind == "select-rows":
        return [_rand(rng, 5, 3)], {"indices": [0, 2, 2, 4]}
    if kind in ("tanh", "sigmoid", "exp"):
        return [_rand(rng, 3, 4)], {}
    if kind in ("relu", "leaky-relu"):
        return [_away_from_kinks(rng, 3, 4)], {}
    if kind == "log":
        return [np.abs(_rand(rng, 3, 4)) + 0.5], {}
    if kind == "softmax-last-axis":
        return [_rand(rng, 3, 4)], {}
    if kind == "max-last-axis":
        x = _rand(rng, 3, 5)
        x[:, 0] += 3.0  # keep the argmax unique and away from ties
        return [x], {}
    if kind == "reshape":
        return [_rand(rng, 3, 4)], {"shape": (2, 6)}
    if kind == "slice-cols":
        return [_rand(rng, 3, 6)], {"start": 1, "stop": 4}
    if kind == "segment-sum":
        return [_rand(rng, 6, 3)], {"segments": [(0, 2), (2, 5), (5, 6)]}
    raise AssertionError(f"no generator for kind {kind}")


@pytest.mark.parametrize("kind", T.OP_KINDS)
def test_every_kind_matches_finite_differences(kind):
    """Backward of each op agrees with central differences (eps 1e-5)."""
    rng = np.random.default_rng(np.frombuffer(kind.encode().ljust(8, b"_")[:8], dtype=np.uint64))
    eps = 1e-5
    for _ in range(100):
        arrays, kwargs = _kind_instance(kind, rng)

        for target in range(len(arrays)):

            def f(x):
                # The other inputs and the mixer are plain-array constants.
                inputs = [x if i == target else arrays[i] for i in range(len(arrays))]
                out = forward_op(kind, inputs, **kwargs)
                mixer = np.arange(1, out.data.size + 1, dtype=float).reshape(out.data.shape) / out.data.size
                return T.sum_all(out * mixer)

            err = grad_check(f, Tensor(arrays[target]), eps=eps)
            assert err <= 1e-4, f"{kind} input {target}: error {err}"


def test_tape_topological_order_and_single_visit():
    tape = Tape()
    x = leaf(tape, [1.0, 2.0])
    y = x * x
    z = T.sum_all(y + x)
    seen = set()
    for kind, input_ids, output_id, _ in tape.nodes:
        for tid in input_ids:
            assert tid is None or tid < output_id
        assert output_id not in seen
        seen.add(output_id)
    grads = backward(z)
    assert np.allclose(grads[x.tid], 2 * x.data + 1)


def test_tensors_are_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_tapes_do_not_mix():
    a = Tape().leaf([1.0])
    b = Tape().leaf([2.0])
    with pytest.raises(OpError, match="tapes"):
        forward_op("add", [a, b])


@pytest.mark.parametrize("kind", T.OP_KINDS)
def test_tape_free_output_matches_taped_bit_for_bit(kind):
    rng = np.random.default_rng(5)
    for _ in range(10):
        arrays, kwargs = _kind_instance(kind, rng)
        free = forward_op(kind, [Tensor(a) for a in arrays], **kwargs)
        tape = Tape()
        taped = forward_op(kind, [tape.leaf(a) for a in arrays], **kwargs)
        assert free.tape is None and free.tid is None and taped.tape is tape
        assert free.data.dtype == np.float64 and free.data.shape == taped.data.shape
        assert free.data.tobytes() == taped.data.tobytes()
        assert not free.data.flags.writeable and not taped.data.flags.writeable
        # Plain arrays in give the kernel's plain array out, same bytes.
        plain = forward_op(kind, arrays, **kwargs)
        assert type(plain) is np.ndarray and plain.dtype == np.float64
        assert plain.shape == taped.data.shape
        assert plain.tobytes() == taped.data.tobytes()


MULTI_INPUT_KINDS = [
    kind for kind in T.OP_KINDS if len(_kind_instance(kind, np.random.default_rng(0))[0]) > 1
]


@pytest.mark.parametrize("kind", MULTI_INPUT_KINDS)
def test_plain_constant_on_tape_matches_tensor_constant(kind):
    rng = np.random.default_rng(6)
    for _ in range(10):
        arrays, kwargs = _kind_instance(kind, rng)
        mixer = rng.normal(size=forward_op(kind, arrays, **kwargs).shape)
        runs = []
        for wrap in (Tensor, lambda a: a):
            tape = Tape()
            x = tape.leaf(arrays[0])
            out = forward_op(kind, [x] + [wrap(a) for a in arrays[1:]], **kwargs)
            (node,) = tape.nodes
            assert node[0] == kind and node[1] == (x.tid,) + (None,) * (len(arrays) - 1)
            grad = backward(T.sum_all(out * mixer))[x.tid]
            runs.append((out.data.tobytes(), grad.tobytes()))
        assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "op, kind",
    [
        (lambda a, x: a + x, "add"),
        (lambda a, x: a - x, "subtract"),
        (lambda a, x: a * x, "elementwise-multiply"),
    ],
)
def test_array_on_the_left_of_a_tensor_records_a_node(op, kind):
    tape = Tape()
    x = tape.leaf(np.arange(1.0, 4.0))
    a = np.ones(3)
    out = op(a, x)
    assert isinstance(out, Tensor) and out.tape is tape
    assert tape.nodes[-1][:3] == (kind, (None, x.tid), out.tid)
    assert out.data.tobytes() == op(a, x.data).tobytes()


# The kernels below are bit-exact rewrites; these are the forms they replaced.


def _branchy_sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _where_leaky_relu(a):
    return np.where(a > 0, a, 0.01 * a)


def _sequential_segment_sum(a, segments):
    parts = []
    for lo, hi in segments:
        acc = a[lo]
        for i in range(lo + 1, hi):
            acc = acc + a[i]
        parts.append(acc)
    return np.stack(parts, axis=0)


def _segment_sum_grad(g, segments, shape):
    out = np.zeros(shape)
    for row, (lo, hi) in enumerate(segments):
        out[lo:hi] = g[row]
    return out


@pytest.mark.parametrize(
    "op, reference", [(T.sigmoid, _branchy_sigmoid), (T.leaky_relu, _where_leaky_relu)]
)
def test_activation_matches_replaced_form_bit_for_bit(op, reference):
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308]
    special += [1e308, -1e308, 709.8, -745.2, 36.8, -36.8, 1.0, -1.0]
    for trial in range(200):
        a = rng.normal(size=(int(rng.integers(1, 20)), 12)) * 10.0 ** rng.uniform(-310, 307)
        mask = rng.random(a.shape) < 0.2
        a[mask] = rng.choice(special, size=int(mask.sum()))
        for x in (a, np.asfortranarray(a), a[:, 1::3], a[::-1, 2:7]):
            with np.errstate(over="ignore"):
                want = np.ascontiguousarray(reference(x)).tobytes()
            assert op(Tensor(x)).data.tobytes() == want


def test_segment_sum_matches_sequential_rows_bit_for_bit():
    rng = np.random.default_rng(1)
    for trial in range(300):
        segments, row = [], int(rng.integers(0, 3))
        for _ in range(int(rng.integers(1, 12))):
            length = int(rng.integers(1, 7))  # 1-row segments included
            segments.append((row, row + length))
            row += length + int(rng.integers(0, 2))  # rows outside every segment
        a = rng.normal(size=(row + 1, 5)) * 10.0 ** rng.uniform(-8, 8, size=(row + 1, 1))
        tape = Tape()
        x = tape.leaf(a)
        out = T.segment_sum(x, segments)
        assert out.data.tobytes() == _sequential_segment_sum(a, segments).tobytes()
        g = rng.normal(size=out.data.shape)
        grad = backward(T.sum_all(out * Tensor(g)))[x.tid]
        assert grad.tobytes() == _segment_sum_grad(g, segments, a.shape).tobytes()


@pytest.mark.parametrize("segments", [[], [(0, 2), (2, 2)], [(3, 1)]])
def test_segment_sum_rejects_empty_segments(segments):
    with pytest.raises(OpError, match="segment-sum: empty segment"):
        T.segment_sum(Tensor(np.ones((4, 2))), segments)
