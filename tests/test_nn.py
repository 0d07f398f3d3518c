import tracemalloc

import numpy as np
import pytest

from openteam import nn
from openteam import tensor as T
from openteam.tensor import OpError, Tensor, grad_check


class TestInit:
    def test_deterministic_given_seed(self):
        a = nn.draw(nn.mlp_layout([2, 3]), np.random.default_rng(7))
        b = nn.draw(nn.mlp_layout([2, 3]), np.random.default_rng(7))
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_biases_zero(self):
        store = nn.draw(nn.mlp_layout([4, 8, 3]), np.random.default_rng(0))
        assert np.all(store["b0"].data == 0) and np.all(store["b1"].data == 0)

    def test_weight_bound_follows_fan_in(self):
        store = nn.draw(nn.mlp_layout([100, 70]), np.random.default_rng(1))
        w = store["w0"].data
        assert w.shape == (100, 70)
        assert np.all(np.abs(w) < 0.1)  # 1/sqrt(100)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            nn.draw(nn.mlp_layout([5]), np.random.default_rng(0))

    def test_lstm_param_shapes(self):
        store = nn.draw(nn.lstm_layout(6, 10), np.random.default_rng(0))
        assert store["w"].data.shape == (16, 40)
        assert store["b"].data.shape == (40,)

    def test_draw_follows_layout_order(self):
        # Each weight is drawn in layout order, as separate per-block draws
        # would; biases draw nothing.
        layout = {**nn.mlp_layout([3, 4, 2], prefix="a."), **nn.lstm_layout(2, 3, prefix="b.")}
        store = nn.draw(layout, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        parts = []
        for name, (shape, fan_in) in layout.items():
            bound = 1.0 / np.sqrt(fan_in) if fan_in else 0.0
            parts.append(rng.uniform(-bound, bound, size=shape) if fan_in else np.zeros(shape))
        assert store.shapes() == nn.layout_shapes(layout)
        assert store.vector.tobytes() == np.concatenate([p.ravel() for p in parts]).tobytes()


class TestMlpForward:
    def test_zero_params_zero_output(self):
        store = nn.ParamStore({"w0": np.zeros((3, 4)), "b0": np.zeros(4)})
        out = nn.mlp_forward(store, Tensor(np.random.default_rng(0).normal(size=(2, 3))))
        assert np.all(out.data == 0)

    def test_single_layer_is_affine(self):
        rng = np.random.default_rng(5)
        store = nn.draw(nn.mlp_layout([3, 2]), rng)
        x = Tensor(rng.normal(size=(4, 3)))
        out = nn.mlp_forward(store, x)
        direct = T.matmul(x, store["w0"]) + store["b0"]
        assert np.array_equal(out.data, direct.data)

    def test_gradcheck_two_layer(self):
        rng = np.random.default_rng(9)
        store = nn.draw(nn.mlp_layout([3, 5, 1]), rng)
        x = Tensor(rng.normal(size=(2, 3)))
        for name in store.names():
            def f(p, name=name):
                out = nn.mlp_forward({**store.arrays, name: p}, x)
                return T.sum_all(out)
            assert grad_check(f, store[name]) <= 1e-4

    def test_shape_mismatch_rejected(self):
        store = nn.draw(nn.mlp_layout([3, 2]), np.random.default_rng(0))
        with pytest.raises(OpError):
            nn.mlp_forward(store, Tensor(np.ones((2, 5))))

    def test_depths_alternating_under_one_prefix(self):
        # The layer names are reused per prefix only while the depth matches.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3))
        for sizes in ([3, 4, 2], [3, 4, 5, 2], [3, 2], [3, 4, 2]):
            store = nn.draw(nn.mlp_layout(sizes, prefix="p."), rng)
            out = x
            for layer in range(len(sizes) - 1):
                out = out @ store[f"p.w{layer}"].data + store[f"p.b{layer}"].data
                if layer < len(sizes) - 2:
                    out = np.maximum(out, 0.01 * out)
            got = nn.mlp_forward(store.arrays, x, prefix="p.")
            assert type(got) is np.ndarray and got.tobytes() == out.tobytes()
        with pytest.raises(OpError, match="no layers"):
            nn.mlp_forward(store.arrays, x, prefix="q.")


class TestLstmStep:
    def test_zero_params_zero_cell(self):
        store = nn.ParamStore({"w": np.zeros((7, 12)), "b": np.zeros(12)})
        h, c = nn.lstm_step(store, Tensor(np.ones((2, 4))), (Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))))
        assert np.all(h.data == 0) and np.all(c.data == 0)

    def test_zero_params_halve_cell(self):
        store = nn.ParamStore({"w": np.zeros((7, 12)), "b": np.zeros(12)})
        c0 = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
        h, c = nn.lstm_step(store, Tensor(np.ones((2, 4))), (Tensor(np.zeros((2, 3))), Tensor(c0)))
        assert np.allclose(c.data, 0.5 * c0, atol=1e-15)

    def test_gradcheck_through_three_steps(self):
        rng = np.random.default_rng(13)
        store = nn.draw(nn.lstm_layout(3, 4), rng)
        xs = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
        for name in store.names():
            def f(p, name=name):
                patched = {**store.arrays, name: p}
                h = Tensor(np.zeros((2, 4)))
                c = Tensor(np.zeros((2, 4)))
                for x in xs:
                    h, c = nn.lstm_step(patched, x, (h, c))
                return T.sum_all(h * h)
            assert grad_check(f, store[name]) <= 1e-4

    @staticmethod
    def per_gate_step(params, x, state):
        # Reference form: one sigmoid per gate slice.
        h, c = state
        hidden = h.data.shape[-1]
        z = T.matmul(T.concat_last([x, h]), params["w"]) + params["b"]
        i = T.sigmoid(T.slice_cols(z, 0, hidden))
        f = T.sigmoid(T.slice_cols(z, hidden, 2 * hidden))
        g = T.tanh(T.slice_cols(z, 2 * hidden, 3 * hidden))
        o = T.sigmoid(T.slice_cols(z, 3 * hidden, 4 * hidden))
        c_new = f * c + i * g
        return o * T.tanh(c_new), c_new

    @pytest.mark.parametrize("rows,hidden", [(1, 4), (3, 8), (5, 16)])
    def test_gate_slab_matches_per_gate_bytes(self, rows, hidden):
        rng = np.random.default_rng(rows * 100 + hidden)
        store = nn.draw(nn.lstm_layout(3, hidden), rng)
        xs = [rng.normal(size=(rows, 3)) * 4 for _ in range(3)]
        h0, c0 = rng.normal(size=(2, rows, hidden))
        wh, wc = rng.normal(size=(2, rows, hidden))

        def run(step):
            tape = T.Tape()
            params = store.bind(tape)
            leaves = [tape.leaf(a) for a in (*xs, h0, c0)]
            h, c = leaves[-2:]
            outs = []
            for x in leaves[:3]:
                h, c = step(params, x, (h, c))
                outs += [h.data.tobytes(), c.data.tobytes()]
            grads = T.backward(T.sum_all(h * Tensor(wh)) + T.sum_all(c * Tensor(wc)))
            tids = [t.tid for t in (*params.values(), *leaves)]
            return outs, [grads[tid].tobytes() for tid in tids]

        assert run(nn.lstm_step) == run(self.per_gate_step)

    def test_one_step_is_fourteen_ops(self, monkeypatch):
        calls = []
        forward_op = T.forward_op
        monkeypatch.setattr(T, "forward_op", lambda kind, *a, **k: calls.append(kind) or forward_op(kind, *a, **k))
        store = nn.draw(nn.lstm_layout(3, 4), np.random.default_rng(0))
        nn.lstm_step(store, Tensor(np.ones((2, 3))), (Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))))
        assert len(calls) == 14 and calls.count("sigmoid") == 1

    def test_sigmoid_of_slab_matches_sigmoid_of_slices(self):
        rng = np.random.default_rng(21)
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 710.0, -745.0]
        )
        for _ in range(300):
            rows, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            z = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(rows, 4 * hidden))
            mask = rng.random(z.shape) < 0.3
            z[mask] = rng.choice(special, size=int(mask.sum()))
            slab = T.sigmoid(Tensor(z)).data
            for start in range(0, 4 * hidden, hidden):
                piece = T.sigmoid(T.slice_cols(Tensor(z), start, start + hidden)).data
                assert slab[:, start : start + hidden].tobytes() == piece.tobytes()


class TestGraphBlock:
    def test_single_node_uses_zero_aggregate(self):
        rng = np.random.default_rng(21)
        store = nn.draw(nn.graph_block_layout(3, [4, 5], [4, 6]), rng)
        node = Tensor(rng.normal(size=(1, 3)))
        out = nn.graph_block_grouped(store, node, [(0, 1)])
        direct = nn.mlp_forward(
            store, T.concat_last([node, Tensor(np.zeros((1, 5)))]), prefix="node."
        )
        assert np.array_equal(out.data, direct.data)

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(22)
        store = nn.draw(nn.graph_block_layout(4, [5, 6], [5, 7]), rng)
        nodes = rng.normal(size=(5, 4))
        base = nn.graph_block_grouped(store, Tensor(nodes), [(0, 5)]).data
        for _ in range(10):
            perm = rng.permutation(5)
            permuted = nn.graph_block_grouped(store, Tensor(nodes[perm]), [(0, 5)]).data
            assert np.array_equal(permuted, base[perm])

    def test_three_nodes_match_edge_by_edge_oracle(self):
        rng = np.random.default_rng(23)
        store = nn.draw(nn.graph_block_layout(3, [4, 5], [4, 6]), rng)
        nodes = rng.normal(size=(3, 3))
        out = nn.graph_block_grouped(store, Tensor(nodes), [(0, 3)]).data

        def mlp(prefix, row):
            return nn.mlp_forward(store, Tensor(row.reshape(1, -1)), prefix=prefix).data[0]

        for k in range(3):
            agg = np.zeros(5)
            for j in range(3):
                if j != k:
                    agg = agg + mlp("edge.", np.concatenate([nodes[j], nodes[k]]))
            expect = mlp("node.", np.concatenate([nodes[k], agg]))
            assert np.allclose(out[k], expect, atol=1e-12)

    def test_edges_match_per_group_lexsort(self):
        # The canonical order is a list sort; this is the lexsort it replaced.
        def reference(nodes, groups):
            src, dst, segments = [], [], []
            agg_map = np.full(nodes.shape[0], -1, dtype=np.intp)
            for start, count in groups:
                if count == 1:
                    continue
                local = nodes[start : start + count]
                order = [start + int(j) for j in np.lexsort(local.T[::-1])]
                for k in range(start, start + count):
                    lo = len(src)
                    for j in order:
                        if j != k:
                            src.append(j)
                            dst.append(k)
                    agg_map[k] = len(segments)
                    segments.append((lo, len(src)))
            return src, dst, segments, agg_map

        rng = np.random.default_rng(25)
        for trial in range(300):
            counts = rng.integers(1, 7, size=int(rng.integers(1, 5)))
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            groups = [(int(s), int(c)) for s, c in zip(starts, counts)]
            shape = (int(counts.sum()), int(rng.integers(1, 5)))
            # Integer values tie often; signed zeros must tie too.
            nodes = rng.integers(-1, 2, size=shape) * rng.choice([1.0, 0.5], size=shape)
            if trial % 2:
                nodes = np.where(rng.random(shape) < 0.5, -0.0, nodes)
            got = nn.graph_edges(nodes, groups)
            want = reference(nodes, groups)
            assert got[:3] == want[:3]
            assert np.array_equal(got[3], want[3])

    def test_zero_agents_rejected(self):
        store = nn.draw(nn.graph_block_layout(3, [4, 5], [4, 6]), np.random.default_rng(0))
        with pytest.raises(OpError):
            nn.graph_block_grouped(store, Tensor(np.zeros((0, 3))), [(0, 0)])

    def test_gradcheck(self):
        rng = np.random.default_rng(24)
        store = nn.draw(nn.graph_block_layout(3, [4, 4], [4, 4]), rng)
        nodes = Tensor(rng.normal(size=(3, 3)))
        for name in store.names():
            def f(p, name=name):
                return T.sum_all(nn.graph_block_grouped({**store.arrays, name: p}, nodes, [(0, 3)]))
            assert grad_check(f, store[name]) <= 1e-4


def flat(store, grads):
    """`grads` (name -> array, zeros where absent) as one vector in the
    order the store lists its names."""
    return np.concatenate(
        [np.ravel(grads.get(name, np.zeros(shape))) for name, shape in store.shapes().items()]
    )


class TestParamStore:
    def test_parameters_are_views_of_one_read_only_vector(self):
        rng = np.random.default_rng(30)
        values = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2), "s": rng.normal(size=())}
        store = nn.ParamStore(values)
        assert store.vector.tobytes() == flat(store, values).tobytes()
        assert not store.vector.flags.writeable
        for name, value in values.items():
            for view in (store.arrays[name], store[name].data):
                assert np.shares_memory(view, store.vector) and view.tobytes() == value.tobytes()
        assert [name for name, _ in store.items()] == ["w", "b", "s"]
        assert [store.name_at(i) for i in (0, 5, 6, 7, 8)] == ["w", "w", "b", "b", "s"]
        with pytest.raises(IndexError):
            store.name_at(9)

    def test_vector_must_fit_the_layout(self):
        store = nn.ParamStore({"w": np.zeros((2, 2))})
        with pytest.raises(OpError):
            store.with_vector(np.zeros(5))
        with pytest.raises(OpError):
            nn.ParamStore.from_vector({"w": (2, 2)}, np.zeros(3))

    def test_accumulate_adds_gradients_in_layout_order(self):
        rng = np.random.default_rng(35)
        store = nn.draw(nn.mlp_layout([3, 4, 2]), rng)
        tape = T.Tape()
        leaves = store.bind(tape)
        out = nn.mlp_forward({**leaves, "b1": store.arrays["b1"]}, rng.normal(size=(2, 3)))
        grads = T.backward(T.sum_all(out * out))
        named = {name: grads[leaf.tid] for name, leaf in leaves.items() if leaf.tid in grads}
        assert set(named) == {"w0", "b0", "w1"}
        acc = np.full(store.vector.size, np.nan)  # a fresh sum drops what was there
        assert store.accumulate(acc, leaves, grads, fresh=True) is acc
        assert acc.tobytes() == flat(store, named).tobytes()
        assert store.accumulate(acc, leaves, grads) is acc
        assert acc.tobytes() == flat(store, {n: g + g for n, g in named.items()}).tobytes()


def adam(params, grads, state):
    """`params` (a vector, updated in place and returned) after one Adam step
    per gradient of `grads`, with fresh gradient-sum and scratch buffers."""
    for grad in grads:
        nn.adam_step(params, grad.copy(), state, np.empty(params.size))
    return params


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        rng = np.random.default_rng(31)
        store = nn.draw(nn.mlp_layout([3, 2]), rng)
        state = nn.AdamState(store.vector.size, lr=0.01)
        updated = adam(store.vector.copy(), [flat(store, {})], state)
        assert updated.tobytes() == store.vector.tobytes()
        assert state.step == 1

    def test_first_step_magnitude_near_lr(self):
        # With constant gradient g: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps), a bias-corrected sign step.
        store = nn.ParamStore({"w": np.array([1.0, -1.0, 2.0])})
        grad = np.array([0.3, -0.7, 2.0])
        updated = adam(store.vector.copy(), [grad], nn.AdamState(3, lr=0.01))
        delta = updated - store["w"].data
        assert np.allclose(np.abs(delta), 0.01, atol=1e-6)
        assert np.all(np.sign(delta) == -np.sign(grad))

    def test_two_steps_match_reference_replay(self):
        # The per-name form the flat update replaced, as a bit-exact reference.
        rng = np.random.default_rng(32)
        store = nn.ParamStore({"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3)})
        shapes = store.shapes()
        steps = [{name: rng.normal(size=shape) for name, shape in shapes.items()} for _ in range(2)]
        state = nn.AdamState(store.vector.size, lr=0.05)
        updated = store.with_vector(adam(store.vector.copy(), [flat(store, g) for g in steps], state))
        assert state.step == 2

        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        for name in store.names():
            w, m, v = store[name].data, None, None
            for t, grads in enumerate(steps, start=1):
                g = grads[name]
                m = (1 - b1) * g if m is None else b1 * m + (1 - b1) * g
                v = (1 - b2) * g * g if v is None else b2 * v + (1 - b2) * g * g
                w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert updated[name].data.tobytes() == w.tobytes()

    @pytest.mark.parametrize("lr", [2.5e-4, np.float64(2e-3) * 0.37])
    def test_in_place_steps_match_the_reference_form(self, lr, reference_forms):
        # Parameters and both moments, byte for byte, after each of four
        # steps (the first included) on a store of several parameters; one
        # gradient is zero in places, as where no loss reached.
        rng = np.random.default_rng(36)
        store = nn.draw(nn.graph_block_layout(3, [4, 5], [4, 6]), rng)
        grads = [rng.normal(size=store.vector.size) * scale for scale in (1.0, 1e-3, 50.0, 1.0)]
        grads[1][:20] = 0.0
        params = store.vector.copy()
        grad_sum, scratch = np.empty(params.size), np.empty(params.size)
        state = nn.AdamState(store.vector.size, lr=lr)
        want, m, v = store.vector, None, None
        for t, grad in enumerate(grads, start=1):
            grad_sum[...] = grad
            nn.adam_step(params, grad_sum, state, scratch)
            want, m, v = reference_forms.adam_step(want, grad, m, v, t, lr)
            assert state.step == t
            assert params.tobytes() == want.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_untouched_params_unchanged(self):
        rng = np.random.default_rng(33)
        store = nn.draw(nn.mlp_layout([2, 2, 2]), rng)
        grad = flat(store, {"w0": np.ones((2, 2))})
        updated = store.with_vector(adam(store.vector.copy(), [grad], nn.AdamState(grad.size)))
        assert np.array_equal(updated["w1"].data, store["w1"].data)

    def test_no_nan_from_finite_grads(self):
        rng = np.random.default_rng(34)
        params = rng.normal(size=5)
        state = nn.AdamState(5, lr=0.1)
        for scale in (1e-30, 1.0, 1e20):
            adam(params, [rng.normal(size=5) * scale], state)
            assert np.all(np.isfinite(params))

    def test_shape_mismatch_rejected(self):
        params = np.zeros(3)
        for grad in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(OpError, match="gradient shape"):
                nn.adam_step(params, grad, nn.AdamState(3), np.zeros(3))

    def test_step_allocates_no_vector(self):
        size = 100_000
        rng = np.random.default_rng(38)
        params, state = rng.normal(size=size), nn.AdamState(size)
        grad_sum, scratch = rng.normal(size=size), np.empty(size)
        adam(params, [rng.normal(size=size)], state)  # the first step has its own branch
        tracemalloc.start()
        try:
            nn.adam_step(params, grad_sum, state, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.step == 2 and peak < size

    def test_read_only_vector_rejected(self):
        store = nn.ParamStore({"w": np.zeros(3)})
        with pytest.raises(ValueError, match="read-only"):
            nn.adam_step(store.vector, np.ones(3), nn.AdamState(3), np.zeros(3))


def polyak(target, online, alpha):
    """`target` (a vector, updated in place and returned) after one Polyak
    step towards `online`."""
    nn.polyak_update(target, online, alpha, np.empty(target.size))
    return target


class TestPolyak:
    def test_alpha_one_copies_online(self):
        online = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(polyak(np.zeros(3), online, 1.0), online)

    def test_alpha_zero_keeps_target(self):
        assert np.array_equal(polyak(np.array([5.0, 6.0]), np.zeros(2), 0.0), [5.0, 6.0])

    def test_small_alpha_moves_proportionally(self):
        out = polyak(np.zeros(4), np.ones(4), 1e-3)
        assert np.allclose(out, 0.001, atol=1e-18)

    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 1.0])
    def test_in_place_step_matches_the_reference_form(self, alpha, reference_forms):
        rng = np.random.default_rng(37)
        target, online = rng.normal(size=50), rng.normal(size=50)
        want = target
        updated = target.copy()
        for _ in range(3):
            polyak(updated, online, alpha)
            want = reference_forms.polyak_update(want, online, alpha)
            assert updated.tobytes() == want.tobytes()

    def test_step_allocates_no_vector(self):
        size = 100_000
        target, online, scratch = np.zeros(size), np.ones(size), np.empty(size)
        tracemalloc.start()
        try:
            nn.polyak_update(target, online, 1e-3, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size and target[0] == 1e-3

    def test_mismatched_stores_rejected(self):
        # Vectors of another length or shape than the target's.
        for online in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(OpError, match="shapes differ"):
                nn.polyak_update(np.zeros(3), online, 0.5, np.zeros(3))
