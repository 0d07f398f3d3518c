from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from openteam import nn
from openteam import tensor as T
from openteam.config import NetConfig, default_config
from openteam.envs.base import EnvConfig, Observation
from openteam.envs.session import make_session
from openteam.learner.model import (
    EmbeddingStore,
    Teams,
    embed_rows,
    env_dims,
    init_model_net,
    preprocess,
    value_net_layout,
    stacked,
)
from openteam.learner.values import (
    AgentModelOutput,
    UtilityTables,
    act,
    agent_model_loss,
    greedy,
    joint_q,
    marginal_q,
    marginal_values,
    model_rows,
    spi_policy,
    td_target,
    utility_rows,
    value_loss,
)
from openteam.tensor import Tape, Tensor, backward, grad_check

NET = NetConfig(
    embedding_dim=6,
    utility_hidden=(8, 7),
    edge_hidden=(5, 6),
    node_hidden=(5, 6),
    decoder_hidden=(6,),
    rank=3,
)


def obs_for(order, x_len=2, u_len=4, seed=0):
    rng = np.random.default_rng(seed)
    return Observation(
        u=rng.normal(size=u_len),
        x={j: rng.normal(size=x_len) for j in order},
        order=list(order),
        learner_id=order[0],
    )


def random_tables(rng, ids, actions=4, rank=3):
    return UtilityTables(
        ids[0],
        list(ids),
        actions,
        rank,
        Tensor(rng.normal(size=(len(ids), actions))),
        Tensor(rng.normal(size=(len(ids), rank * actions))),
    )


def team_tables(params, h, learner_row=0):
    """Utility tables of one team whose embeddings are the rows of `h`."""
    n = h.data.shape[0]
    sing, fac = utility_rows(params, h, [learner_row] * n)
    return UtilityTables(learner_row, list(range(n)), sing.data.shape[-1], NET.rank, sing, fac)


def random_probs(rng, teammate_ids, actions=4):
    return AgentModelOutput(
        list(teammate_ids), Tensor(rng.dirichlet(np.ones(actions), size=len(teammate_ids)))
    )


class TestEnvDims:
    @pytest.mark.parametrize(
        "env, key, count, widths",
        [("lbf", "n_objects", 5, (3, 15)), ("wolfpack", "prey_count", 4, (2, 8))],
        ids=["lbf", "wolfpack"],
    )
    def test_widths_come_from_the_observation(self, env, key, count, widths):
        cfg = default_config(env)
        cfg = replace(cfg, env=replace(cfg.env, **{key: count}))
        x_len, u_len, action_count = env_dims(cfg)
        assert (x_len, u_len) == widths
        session = make_session(cfg.env, cfg.openness_train, np.random.default_rng(3))
        obs = session.reset()
        assert action_count == session.action_count
        for _ in range(20):
            assert all(len(obs.x[j]) == x_len for j in obs.order) and len(obs.u) == u_len
            obs = session.step(0).obs


class TestPreprocess:
    def test_departure_and_arrivals(self):
        store = EmbeddingStore(3)
        obs1 = obs_for([0, 1, 2, 3])
        preprocess(obs1, store, [], [0, 1, 2, 3])
        rng = np.random.default_rng(0)
        store.write("value", rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        kept = (store.h["value"][:3].tobytes(), store.c["value"][:3].tobytes())

        obs2 = obs_for([0, 1, 2, 4, 5])
        preprocess(obs2, store, [3], [4, 5])
        assert store.ids == [0, 1, 2, 4, 5]
        h, c = store.h["value"], store.c["value"]
        assert (h[:3].tobytes(), c[:3].tobytes()) == kept  # surviving rows untouched
        assert np.all(h[3:] == 0) and np.all(c[3:] == 0)

    def test_no_change_is_identity(self):
        store = EmbeddingStore(3)
        obs = obs_for([0, 7])
        preprocess(obs, store, [], [0, 7])
        before = {which: (store.h[which], store.c[which]) for which in store.roster_maps}
        preprocess(obs, store, [], [])
        for which, (h, c) in before.items():
            assert store.h[which] is h and store.c[which] is c  # no gather, no copy
            assert store.ids == [0, 7]

    def test_episode_end_resets_everything(self):
        store = EmbeddingStore(3)
        obs = obs_for([0, 1])
        preprocess(obs, store, [], [0, 1])
        store.write("value", np.ones((2, 3)), np.ones((2, 3)))
        store.write("model", np.ones((2, 3)), np.ones((2, 3)))
        new_obs = obs_for([0, 9])
        preprocess(new_obs, store, [0, 1], [0, 9])
        for which in ("value", "model", "target"):
            assert store.ids == [0, 9]
            assert store.h[which].shape == store.c[which].shape == (2, 3)
            assert np.all(store.h[which] == 0) and np.all(store.c[which] == 0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_agent_reference(self, data, reference_forms):
        # Random roster changes: departures (of stored agents or not),
        # arrivals (new, returning or clashing), reorders, everyone
        # departing, and rosters that do not match the change.
        draw = data.draw
        dim = 3
        old = draw(st.lists(st.integers(0, 9), unique=True, max_size=5), label="old")
        departures = draw(st.lists(st.sampled_from(old + [10, 11]), max_size=6), label="departures")
        if old and draw(st.booleans(), label="everyone departs"):
            departures = list(old)
        arrivals = draw(st.lists(st.integers(0, 14), max_size=4), label="arrivals")
        kept = [j for j in old if j not in departures]
        roster = list(dict.fromkeys(kept + arrivals))
        order = draw(st.permutations(roster), label="order")
        if draw(st.integers(0, 7), label="mismatch") == 0:
            extra = draw(st.integers(0, 14), label="extra")
            order = [j for j in order if j != extra] if extra in order else order + [extra]

        rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
        store = EmbeddingStore(dim)
        preprocess(SimpleNamespace(order=old), store, [], old)
        reference = {}
        for which in store.roster_maps:
            h, c = rng.normal(size=(len(old), dim)), rng.normal(size=(len(old), dim))
            store.write(which, h, c)
            reference[which] = {j: (h[r], c[r]) for r, j in enumerate(old)}

        try:
            for rows in reference.values():
                reference_forms.preprocess(order, rows, departures, arrivals, np.zeros(dim))
        except ValueError:
            with pytest.raises(ValueError):
                preprocess(SimpleNamespace(order=order), store, departures, arrivals)
            return
        preprocess(SimpleNamespace(order=order), store, departures, arrivals)
        fresh = [r for r, j in enumerate(order) if j in arrivals]
        for which, rows in reference.items():
            assert store.ids == list(rows) == order
            for got, k in ((store.h[which], 0), (store.c[which], 1)):
                want = np.array([pair[k] for pair in rows.values()]).reshape(-1, dim)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert np.all(got[fresh] == 0)

    def test_duplicate_arrival_rejected(self):
        store = EmbeddingStore(3)
        obs = obs_for([0, 1])
        preprocess(obs, store, [], [0, 1])
        with pytest.raises(ValueError):
            preprocess(obs, store, [], [1])

    def test_batch_rows_follow_store_order(self):
        store = EmbeddingStore(3)
        obs = obs_for([0, 4, 2])
        preprocess(obs, store, [], [0, 4, 2])
        batch = Teams([obs]).rows
        assert store.ids == [0, 4, 2]
        expect = np.stack([np.concatenate([obs.x[j], obs.u]) for j in (0, 4, 2)])
        assert np.array_equal(batch, expect)


class TestEmbedTypes:
    def test_zero_params_zero_embeddings(self):
        params = nn.ParamStore(
            {
                "embed.fc.w0": np.zeros((6, 4)),
                "embed.fc.b0": np.zeros(4),
                "embed.fc.w1": np.zeros((4, 4)),
                "embed.fc.b1": np.zeros(4),
                "embed.lstm.w": np.zeros((8, 16)),
                "embed.lstm.b": np.zeros(16),
            }
        )
        store = EmbeddingStore(4)
        obs = obs_for([0, 1])
        preprocess(obs, store, [], [0, 1])
        batch = Teams([obs]).rows
        h, c = embed_rows(params, batch, *stacked([store], "value"))
        assert np.all(h.data == 0) and np.all(c.data == 0)

    def test_identical_inputs_identical_embeddings(self):
        rng = np.random.default_rng(1)
        params = nn.draw(value_net_layout(6, 4, NET), rng)
        batch = np.tile(rng.normal(size=(1, 6)), (2, 1))
        h, c = embed_rows(params, batch, np.zeros((2, NET.embedding_dim)), np.zeros((2, NET.embedding_dim)))
        assert np.array_equal(h.data[0], h.data[1])

    def test_matches_per_agent_loop_oracle(self):
        rng = np.random.default_rng(2)
        params = nn.draw(value_net_layout(6, 4, NET), rng)
        batch = rng.normal(size=(3, 6))
        h0 = rng.normal(size=(3, NET.embedding_dim))
        c0 = rng.normal(size=(3, NET.embedding_dim))
        h, c = embed_rows(params, batch, h0, c0)
        for row in range(3):
            hr, cr = embed_rows(params, batch[row : row + 1], h0[row : row + 1], c0[row : row + 1])
            assert np.allclose(h.data[row], hr.data[0], atol=1e-12)
            assert np.allclose(c.data[row], cr.data[0], atol=1e-12)


class TestComputeUtilities:
    def test_zero_factor_head_means_zero_pairwise(self):
        rng = np.random.default_rng(4)
        params = nn.draw(value_net_layout(6, 4, NET), rng)
        zeroed = {
            **params.arrays,
            "fac.w2": np.zeros(params["fac.w2"].data.shape),
            "fac.b2": np.zeros(params["fac.b2"].data.shape),
        }
        h = Tensor(rng.normal(size=(3, NET.embedding_dim)))
        tables = team_tables(zeroed, h)
        assert np.all(tables.pairwise(0, 1).data == 0)

    def test_rank_one_is_outer_product(self):
        rng = np.random.default_rng(5)
        ids = [0, 1]
        u, v = rng.normal(size=4), rng.normal(size=4)
        tables = UtilityTables(0, ids, 4, 1, Tensor(rng.normal(size=(2, 4))), Tensor(np.stack([u, v])))
        assert np.allclose(tables.pairwise(0, 1).data, np.outer(u, v), atol=1e-15)

    def test_rank5_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        rank, actions = 5, 4
        fac = rng.normal(size=(2, rank * actions))
        tables = UtilityTables(0, [0, 1], actions, rank, Tensor(rng.normal(size=(2, actions))), Tensor(fac))
        f0 = fac[0].reshape(rank, actions)
        f1 = fac[1].reshape(rank, actions)
        table = tables.pairwise(0, 1).data
        for a in range(actions):
            for b in range(actions):
                expect = sum(f0[m, a] * f1[m, b] for m in range(rank))
                assert abs(table[a, b] - expect) <= 1e-12

    def test_learner_embedding_is_paired(self):
        # the learner's own row pairs its embedding with itself
        rng = np.random.default_rng(7)
        params = nn.draw(value_net_layout(6, 4, NET), rng)
        h = Tensor(rng.normal(size=(2, NET.embedding_dim)))
        tables = team_tables(params, h)
        pair = T.concat_last([h, T.select_rows(h, [0, 0])])
        direct = nn.mlp_forward(params, pair, prefix="sing.")
        assert np.allclose(tables.singular_rows.data, direct.data, atol=1e-15)


class TestJointQ:
    def test_all_zero_tables(self):
        tables = UtilityTables(0, [0, 1], 3, 2, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 6))))
        assert joint_q(tables, {0: 1, 1: 2}).data == 0.0

    def test_single_agent_reduces_to_singular(self):
        rng = np.random.default_rng(8)
        tables = random_tables(rng, [0])
        for a in range(4):
            assert np.isclose(joint_q(tables, {0: a}).data, tables.singular(0).data[a], atol=1e-12)

    def test_matches_term_by_term_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ids = [0, 1, 2]
            tables = random_tables(rng, ids)
            a = {j: int(rng.integers(0, 4)) for j in ids}
            total = sum(tables.singular(j).data[a[j]] for j in ids)
            for j in ids:
                for k in ids:
                    if j != k:
                        total += tables.pairwise(j, k).data[a[j], a[k]]
            assert abs(joint_q(tables, a).data - total) <= 1e-12

    def test_missing_action_rejected(self):
        tables = random_tables(np.random.default_rng(0), [0, 1])
        with pytest.raises(ValueError):
            joint_q(tables, {0: 1})


class TestTeammateProbs:
    def test_zero_decoder_uniform(self):
        rng = np.random.default_rng(10)
        params = init_model_net(6, 4, NET, rng)
        zeroed = {
            **params.arrays,
            "dec.w1": np.zeros(params["dec.w1"].data.shape),
            "dec.b1": np.zeros(params["dec.b1"].data.shape),
        }
        h = Tensor(rng.normal(size=(3, NET.embedding_dim)))
        probs = model_rows(zeroed, h, [(0, 3)])
        assert np.allclose(probs.data[1:], 0.25, atol=1e-12)

    def test_no_teammates_empty_output(self, reference_forms):
        rng = np.random.default_rng(11)
        params = init_model_net(6, 4, NET, rng)
        store = EmbeddingStore(NET.embedding_dim)
        probs, mates = reference_forms.agent_model_step(params, obs_for([0]), store, [], [0])
        assert mates == [] and probs is None

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            params = init_model_net(6, 4, NET, rng)
            h = Tensor(rng.normal(size=(4, NET.embedding_dim)) * 10)
            p = model_rows(params, h, [(0, 4)]).data[1:]
            assert np.all(p >= 0)
            assert np.all(np.abs(p.sum(axis=-1) - 1) <= 1e-9)

    def test_product_form_equals_joint_likelihood(self):
        rng = np.random.default_rng(13)
        params = init_model_net(6, 4, NET, rng)
        h = Tensor(rng.normal(size=(3, NET.embedding_dim)))
        probs = model_rows(params, h, [(0, 3)])
        product = probs.data[1, 2] * probs.data[2, 0]
        loss = agent_model_loss(probs, [1, 2], [2, 0])
        assert np.isclose(np.exp(-loss.data), product, atol=1e-12)


class TestMarginalQ:
    def test_no_teammates_is_singular(self):
        rng = np.random.default_rng(14)
        tables = random_tables(rng, [0])
        out = AgentModelOutput([], Tensor(np.zeros((0, 4))))
        assert np.allclose(marginal_q(tables, out, 0).data, tables.singular(0).data, atol=1e-15)

    def test_point_mass_collapses_expectation(self):
        # With one teammate fixed on action b the expectation keeps the
        # learner's singular row, the teammate's singular value, and both
        # ordered pairwise terms (equal by symmetry of the factorization).
        rng = np.random.default_rng(15)
        tables = random_tables(rng, [0, 1])
        b = 2
        probs = np.zeros((1, 4))
        probs[0, b] = 1.0
        out = AgentModelOutput([1], Tensor(probs))
        got = marginal_q(tables, out, 0).data
        for ai in range(4):
            expect = (
                tables.singular(0).data[ai]
                + tables.singular(1).data[b]
                + tables.pairwise(0, 1).data[ai, b]
                + tables.pairwise(1, 0).data[b, ai]
            )
            assert abs(got[ai] - expect) <= 1e-12

    def test_matches_brute_force_expectation(self):
        import itertools

        rng = np.random.default_rng(16)
        for _ in range(30):
            n_team = int(rng.integers(1, 4))
            ids = [0] + list(range(1, n_team + 1))
            tables = random_tables(rng, ids)
            out = random_probs(rng, ids[1:])
            got = marginal_q(tables, out, 0).data
            brute = np.zeros(4)
            for ai in range(4):
                total = 0.0
                for combo in itertools.product(range(4), repeat=n_team):
                    joint = {0: ai, **{ids[1 + i]: combo[i] for i in range(n_team)}}
                    w = np.prod([out.probs.data[i, combo[i]] for i in range(n_team)])
                    total += float(joint_q(tables, joint).data) * w
                brute[ai] = total
            rel = np.abs(got - brute) / np.maximum(1e-9, np.abs(brute))
            assert np.max(rel) <= 1e-6

    def test_fast_path_matches_tensor_path(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            ids = list(range(n))
            tables = random_tables(rng, ids)
            out = random_probs(rng, ids[1:])
            ref = marginal_q(tables, out, 0).data
            fast = marginal_values(
                tables.singular_rows.data, tables.factor_rows.data, out.probs.data, 0, tables.rank
            )
            assert np.allclose(ref, fast, atol=1e-10)

    def test_missing_distribution_rejected(self):
        tables = random_tables(np.random.default_rng(0), [0, 1, 2])
        out = random_probs(np.random.default_rng(1), [1])
        with pytest.raises(ValueError):
            marginal_q(tables, out, 0)

    def test_pairwise_symmetry(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            tables = random_tables(rng, [0, 1, 2])
            for j in (0, 1, 2):
                for k in (0, 1, 2):
                    if j != k:
                        diff = tables.pairwise(k, j).data - tables.pairwise(j, k).data.T
                        assert np.max(np.abs(diff)) <= 1e-12

    def test_shift_covariance(self):
        rng = np.random.default_rng(19)
        tables = random_tables(rng, [0, 1, 2])
        out = random_probs(rng, [1, 2])
        base = marginal_q(tables, out, 0).data
        shift = 1.375
        sing = tables.singular_rows.data.copy()
        sing[0] += shift
        shifted = UtilityTables(0, tables.agent_ids, 4, 3, Tensor(sing), tables.factor_rows)
        moved = marginal_q(shifted, out, 0).data
        assert np.array_equal(moved, base + shift)
        assert np.argmax(moved) == np.argmax(base)

    def test_openness_consistency_after_noop_preprocess(self):
        rng = np.random.default_rng(20)
        params_v = nn.draw(value_net_layout(6, 4, NET), rng)
        params_m = init_model_net(6, 4, NET, rng)
        store = EmbeddingStore(NET.embedding_dim)
        obs = obs_for([0, 1, 2])
        preprocess(obs, store, [], [0, 1, 2])
        batch = Teams([obs]).rows
        for which in ("value", "model"):
            shape = (3, NET.embedding_dim)
            store.write(which, rng.normal(size=shape), rng.normal(size=shape))

        def qbar():
            h, _ = embed_rows(params_v, batch, *stacked([store], "value"))
            hm, _ = embed_rows(params_m, batch, *stacked([store], "model"))
            tables = team_tables(params_v, h)
            probs = AgentModelOutput([1, 2], T.select_rows(model_rows(params_m, hm, [(0, 3)]), [1, 2]))
            return marginal_q(tables, probs, 0).data

        before = qbar()
        preprocess(obs, store, [], [])  # no-op
        after = qbar()
        assert np.array_equal(before, after)


class TestPoliciesAndTargets:
    def test_spi_equal_values_uniform(self):
        p = spi_policy(Tensor(np.full(5, 2.5)), 0.7).data
        assert np.allclose(p, 0.2, atol=1e-9)

    def test_spi_high_temperature_limit(self):
        rng = np.random.default_rng(21)
        p = spi_policy(Tensor(rng.normal(size=6)), 1e6).data
        assert np.allclose(p, 1 / 6, atol=1e-4)

    def test_spi_closed_form(self):
        p = spi_policy(Tensor([1.0, 0.0]), 1.0).data
        e = np.e
        assert np.allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_spi_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            spi_policy(Tensor([1.0]), 0.0)

    def test_td_gamma_zero(self):
        assert td_target(3.25, np.array([5.0, 9.0]), "QL", 0.0) == 3.25

    def test_td_ql_arithmetic(self):
        assert np.isclose(td_target(1.0, np.array([2.0, 1.0]), "QL", 0.9), 2.8)

    def test_spi_target_approaches_ql_at_low_temperature(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            q = rng.normal(size=5) * rng.uniform(0.1, 10)
            y_ql = td_target(0.5, q, "QL", 0.97)
            y_spi = td_target(0.5, q, "SPI", 0.97, tau=1e-6)
            assert abs(y_spi - y_ql) <= 1e-3 * (1 + abs(y_ql))

    def test_value_loss_cases(self):
        assert value_loss(Tensor(2.0), 2.0).data == 0.0
        assert value_loss(Tensor(3.0), 1.0).data == 2.0

    def test_value_loss_gradient(self):
        err = grad_check(lambda j: value_loss(T.sum_all(j), 1.5), Tensor(np.array(3.0)))
        assert err <= 1e-7

    def test_agent_model_loss_cases(self):
        probs = np.zeros((2, 5))
        probs[0, 1] = 1.0
        probs[1, 3] = 1.0
        assert agent_model_loss(Tensor(probs), [0, 1], [1, 3]).data == 0.0
        uniform = Tensor(np.full((2, 5), 0.2))
        assert np.isclose(agent_model_loss(uniform, [0, 1], [0, 4]).data, 2 * np.log(5), atol=1e-12)

    def test_agent_model_loss_floors_zero_probability(self):
        probs = np.zeros((1, 4))
        probs[0, 0] = 1.0
        loss = agent_model_loss(Tensor(probs), [0], [3]).data  # observed an impossible action
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))

    def test_act_epsilon_one_uniform(self):
        rng = np.random.default_rng(23)
        counts = np.zeros(5)
        q = np.array([9.0, 1.0, 1.0, 1.0, 1.0])
        for _ in range(10_000):
            counts[act(q, "QL", 1.0, rng)] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_act_epsilon_zero_greedy(self):
        rng = np.random.default_rng(24)
        q = np.array([0.0, 3.0, 1.0])
        assert all(act(q, "QL", 0.0, rng) == 1 for _ in range(100))

    def test_act_mixture_frequency(self):
        rng = np.random.default_rng(25)
        q = np.array([5.0, 1.0, 1.0, 1.0, 1.0])
        hits = sum(act(q, "QL", 0.5, rng) == 0 for _ in range(10_000))
        assert abs(hits / 10_000 - 0.6) <= 0.02

    def test_act_breaks_ties_uniformly(self):
        rng = np.random.default_rng(26)
        q = np.array([1.0, 1.0, 0.0])
        counts = np.zeros(3)
        for _ in range(4000):
            counts[act(q, "QL", 0.0, rng)] += 1
        assert counts[2] == 0
        assert stats.chisquare(counts[:2]).pvalue > 0.01

    def test_nan_action_values_are_named(self):
        rng = np.random.default_rng(27)
        qbar = np.array([1.0, np.nan, 0.5])
        with pytest.raises(ValueError, match="action values are not finite"):
            act(qbar, "QL", 0.0, rng)
        with pytest.raises(ValueError, match="action values are not finite"):
            greedy(qbar, rng)


class TestGradientIsolation:
    def test_value_and_model_gradients_do_not_mix(self):
        rng = np.random.default_rng(27)
        params_v = nn.draw(value_net_layout(5, 4, NET), rng)
        params_m = init_model_net(5, 4, NET, rng)
        batch = rng.normal(size=(3, 5))
        h0 = np.zeros((3, NET.embedding_dim))
        c0 = np.zeros((3, NET.embedding_dim))

        tape = Tape()
        bound_v = params_v.bind(tape)
        bound_m = params_m.bind(tape)
        hq, _ = embed_rows(bound_v, batch, h0, c0)
        hm, _ = embed_rows(bound_m, batch, h0, c0)
        sing, fac = utility_rows(bound_v, hq, [0, 0, 0])
        tables = UtilityTables(0, [0, 1, 2], 4, NET.rank, sing, fac)
        probs_rows = model_rows(bound_m, hm, [(0, 3)])

        v_loss = value_loss(joint_q(tables, {0: 1, 1: 0, 2: 3}), 0.7)
        m_loss = agent_model_loss(probs_rows, [1, 2], [0, 3])
        v_grads = backward(v_loss)
        m_grads = backward(m_loss)
        for name, leaf in bound_m.items():
            assert leaf.tid not in v_grads, f"value loss leaked into {name}"
        for name, leaf in bound_v.items():
            assert leaf.tid not in m_grads, f"model loss leaked into {name}"
