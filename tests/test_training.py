import copy

import numpy as np
import pytest
from dataclasses import replace
from scipy import stats

from openteam import nn
from openteam import tensor as T
from openteam.config import EpsilonSchedule, NetConfig, default_config
from openteam.envs.base import Observation
from openteam.learner import model as model_module
from openteam.learner import trainer as trainer_module
from openteam.learner.baseline import (
    SlotMap,
    baseline_net_layout,
    pad_observation,
    ql_baseline_forward,
)
from openteam.envs.session import make_session
from openteam.learner.model import (
    EmbeddingStore,
    agent_model_forward,
    env_dims,
    init_model_net,
    preprocess,
)
from openteam.learner.values import agent_model_loss
from openteam.learner.trainer import (
    GplPolicy,
    Trainer,
    collect_transitions,
    heldout_nll,
    mean_ci,
    param_layouts,
    train,
    train_agent_model_supervised,
    window_loss,
)
from openteam.openness import OpennessConfig
from openteam.tensor import Tape, Tensor, backward, grad_check

SMALL_NET = NetConfig(
    embedding_dim=8,
    utility_hidden=(8, 6),
    edge_hidden=(5, 6),
    node_hidden=(5, 6),
    decoder_hidden=(5,),
    rank=2,
)


def tiny_cfg(algorithm="GPL-Q", env="wolfpack", **kw):
    cfg = default_config(env, algorithm)
    cfg = replace(
        cfg,
        env=replace(cfg.env, horizon=25),
        parallel_envs=2,
        total_steps=24,
        checkpoint_interval=12,
        net=SMALL_NET,
        openness_train=OpennessConfig(
            (5, 8), (2, 4), 3, ("wolf.H1", "wolf.H2") if env == "wolfpack" else ("lbf.H3", "lbf.H6")
        ),
        openness_eval=OpennessConfig(
            (5, 8), (2, 4), 5, ("wolf.H1", "wolf.H2") if env == "wolfpack" else ("lbf.H3", "lbf.H6")
        ),
    )
    return replace(cfg, **kw).validate()


class TestTrainLoop:
    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    @pytest.mark.parametrize("env", ["wolfpack", "lbf"])
    def test_every_algorithm_runs(self, algorithm, env):
        res = train(tiny_cfg(algorithm, env))
        assert [r["global_step"] for r in res.records] == [0, 12, 24]
        assert "value" in res.stores

    def test_zero_learning_rate_freezes_parameters(self):
        cfg = tiny_cfg(lr=1e-30)  # effectively zero; config requires positive
        trainer = Trainer(cfg)
        before = {n: trainer.value_params[n].data.copy() for n in trainer.value_params.names()}
        for _ in range(8):
            trainer.run_iteration()
        for name, old in before.items():
            assert np.allclose(trainer.value_params[name].data, old, atol=1e-20)

    @pytest.mark.parametrize(
        "store,name", [("value", "sing.b1"), ("agent_model", "graph.edge.w0")]
    )
    def test_non_finite_gradient_stops_before_adam(self, store, name, monkeypatch):
        trainer = Trainer(tiny_cfg())
        bound = {}
        bind, real_backward = nn.ParamStore.bind, trainer_module.backward

        def recording_bind(params, tape):
            leaves = bind(params, tape)
            bound["value" if params is trainer.value_params else "agent_model"] = leaves
            return leaves

        def poisoned_backward(loss):
            grads = real_backward(loss)
            tid = bound[store][name].tid
            if trainer.iteration == 1 and tid in grads:
                grads[tid] = np.full(grads[tid].shape, np.nan)
            return grads

        def state():
            # Stores update in place: compare the bytes of every parameter
            # vector and Adam moment.
            fits = (trainer.value_fit, trainer.model_fit)
            vectors = [trainer.value_params, trainer.model_params, trainer.target_params]
            return [store.vector.tobytes() for store in vectors] + [
                a.tobytes() for fit in fits for a in (fit.opt.m, fit.opt.v)
            ]

        monkeypatch.setattr(nn.ParamStore, "bind", recording_bind)
        monkeypatch.setattr(trainer_module, "backward", poisoned_backward)
        trainer.run_iteration()
        trainer.run_iteration()
        trainer.run_iteration()
        before = state()
        message = f"global step 8: store {store!r}, parameter {name!r}"
        with pytest.raises(ValueError, match=message):
            trainer.run_iteration()
        assert state() == before
        assert trainer.value_fit.opt.step == trainer.model_fit.opt.step == 0

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "QL", "QL-AM"])
    def test_updates_stay_in_the_same_buffers(self, algorithm):
        # Adam, Polyak and the gradient sums write the trainer's buffers in
        # place: after eight Adam steps (QL-AM's agent model first steps at
        # iteration 28 with this seed) they are the same arrays, the stores
        # are the same read-only views of them, and the stores handed out
        # share no memory with any of them.
        trainer = Trainer(tiny_cfg(algorithm))
        fits = [fit for fit in (trainer.value_fit, trainer.model_fit) if fit is not None]

        def buffers():
            arrays = [trainer.target, trainer.scratch]
            return arrays + [a for f in fits for a in (f.vector, f.opt.m, f.opt.v, f.grad_sum)]

        before = buffers()
        stores = [trainer.value_params, trainer.model_params, trainer.target_params]
        start = [a.tobytes() for a in before]
        for _ in range(32):
            trainer.run_iteration()
        assert all(a is b for a, b in zip(buffers(), before))
        assert all(a.tobytes() != b for a, b in zip(buffers(), start))
        assert [trainer.value_params, trainer.model_params, trainer.target_params] == stores
        assert trainer.value_fit.opt.step == 8
        own = [(trainer.target_params, trainer.target)]
        own += [(f.params, f.vector) for f in fits]
        for store, vector in own:
            assert np.shares_memory(store.vector, vector) and not store.vector.flags.writeable
        handed_out = trainer.stores()
        assert len(handed_out) == len(fits) + 1
        for store in handed_out.values():
            assert not store.vector.flags.writeable
            assert not any(np.shares_memory(store.vector, a) for a in buffers())

    def test_total_zero_steps_only_initial_record(self):
        res = train(tiny_cfg(total_steps=0))
        assert [r["global_step"] for r in res.records] == [0]

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_fixed_seed_run_is_bit_reproducible(self, algorithm):
        cfg = tiny_cfg(algorithm, total_steps=100, checkpoint_interval=50, parallel_envs=2)
        a = train(cfg)
        b = train(cfg)
        assert a.records == b.records
        for store_name, store in a.stores.items():
            other = b.stores[store_name]
            for pname in store.names():
                assert store[pname].data.tobytes() == other[pname].data.tobytes()

    def test_target_store_tracks_value_store(self):
        cfg = tiny_cfg(total_steps=40, checkpoint_interval=40)
        trainer = Trainer(cfg)
        for _ in range(10):
            trainer.run_iteration()
        # Polyak mixing keeps the target close to (but behind) the online net.
        for name in trainer.value_params.names():
            online = trainer.value_params[name].data
            target = trainer.target_params[name].data
            assert not np.array_equal(online, target) or np.all(online == target)
            assert np.max(np.abs(online - target)) < 1.0

    def test_window_stats_reset_after_read(self):
        cfg = tiny_cfg(total_steps=80)
        trainer = Trainer(cfg)
        for _ in range(30):  # horizon 25, so every env finishes an episode
            trainer.run_iteration()
        first = trainer.window_stats()
        assert first["episodes"] > 0
        second = trainer.window_stats()
        assert second["episodes"] == 0 and second["mean_return"] is None

    @staticmethod
    def count_probes(monkeypatch):
        probes = []
        make = model_module.make_session
        monkeypatch.setattr(model_module, "make_session", lambda *a: probes.append(a) or make(*a))
        return probes

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_one_probe_session_per_trainer_and_none_per_policy(self, algorithm, monkeypatch):
        # The env widths are read once per build, off one probe session; a
        # policy reads nothing off the env, and a baseline's step takes the
        # action count from its world's ACTIONS.
        probes = self.count_probes(monkeypatch)
        cfg = tiny_cfg(algorithm)
        trainer = Trainer(cfg)
        assert len(probes) == 1
        policy = GplPolicy(cfg, trainer.value_params, trainer.model_params, np.random.default_rng(0))
        assert len(probes) == 1
        if algorithm in ("QL", "QL-AM"):
            assert policy.step.action_count == trainer.step.action_count == env_dims(cfg)[2]

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_init_params_builds_the_trainer_stores(self, algorithm):
        # The trainer draws the layouts, value first, from child 0 of its seed.
        cfg = tiny_cfg(algorithm, seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        value, model = (
            None if lay is None else nn.draw(lay, rng) for lay in param_layouts(cfg, env_dims(cfg))
        )
        stores = Trainer(cfg).stores()
        # The store order is the checkpoint byte layout.
        order = {
            "GPL-Q": ["value", "agent_model", "target_value"],
            "GPL-SPI": ["value", "agent_model", "target_value"],
            "QL": ["value", "target_value"],
            "QL-AM": ["value", "target_value", "agent_model"],
        }
        assert list(stores) == order[algorithm]
        assert value.shapes() == stores["value"].shapes()
        assert value.vector.tobytes() == stores["value"].vector.tobytes()
        assert (model is None) == (algorithm == "QL") == ("agent_model" not in stores)
        if model is not None:
            assert model.shapes() == stores["agent_model"].shapes()
            assert model.vector.tobytes() == stores["agent_model"].vector.tobytes()

    def test_mean_ci(self):
        assert mean_ci([]) == (None, None)
        assert mean_ci([2.5]) == (2.5, 0.0)
        returns = [1.0, -2.0, 4.0, 0.5]
        half_width = 1.96 * np.std(returns, ddof=1) / 2.0
        assert mean_ci(returns) == (0.875, pytest.approx(half_width, rel=1e-15))

    @pytest.mark.parametrize(
        "algorithm, k", [("GPL-Q", 3), ("GPL-SPI", 3), ("QL", 4), ("QL-AM", 4)]
    )
    def test_stream_layout(self, algorithm, k):
        # Environment e steps with child k + e of the seed's spawn and the
        # learner acts with child 1; building the trainer draws nothing else
        # from them.
        cfg = tiny_cfg(algorithm, parallel_envs=3, seed=7)
        trainer = Trainer(cfg)
        seeds = np.random.SeedSequence(7).spawn(k + 3)
        for e, slot in enumerate(trainer.slots):
            rng = np.random.default_rng(seeds[k + e])
            first = make_session(cfg.env, cfg.openness_train, rng).reset()
            assert slot.obs.order == first.order
            assert np.array_equal(slot.obs.u, first.u)
            for j in first.order:
                assert np.array_equal(slot.obs.x[j], first.x[j])
        assert trainer.learner_rng.random() == np.random.default_rng(seeds[1]).random()


class TestSharedForward:
    @pytest.mark.parametrize("algorithm", ["GPL-Q", "QL-AM"])
    def test_trainer_and_policy_give_the_same_action_values(self, algorithm):
        # The trainer's stacked pass over all environments and GplPolicy.act
        # on one environment are the same code; only the batch differs,
        # which may move BLAS results in the last bits.
        cfg = tiny_cfg(algorithm, parallel_envs=3)
        trainer = Trainer(cfg)
        for _ in range(27):  # two steps into the second episodes (horizon 25)
            trainer.run_iteration()
        policies = []
        # Copies: the trainer's next iteration updates its own stores.
        stores = trainer.stores()
        for slot in trainer.slots:
            rng = np.random.default_rng(0)
            policy = GplPolicy(cfg, stores["value"], stores["agent_model"], rng)
            policy.slot = copy.deepcopy(replace(slot, session=None))
            policies.append(policy)
        assert any(len(policy.slot.obs.order) > 1 for policy in policies)
        stacked = []
        trainer.record_qbar = stacked.append
        trainer.run_iteration()
        assert len(stacked) == len(policies)
        for policy, qbar in zip(policies, stacked):
            policy.act(policy.slot.obs)
            assert np.max(np.abs(policy.last_qbar - qbar)) <= 1e-10

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_acting_and_targets_build_no_tensor(self, algorithm, monkeypatch):
        # Off the tape, values stay plain arrays: acting and the target
        # pathway construct no Tensor at all.
        cfg = tiny_cfg(algorithm)
        trainer = Trainer(cfg)
        counts = {"inside": 0, "built": 0, "calls": 0}
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            counts["built"] += counts["inside"]
            init(self, *args, **kwargs)

        def counted(fn):
            def wrapper(*args, **kwargs):
                counts["inside"], counts["calls"] = 1, counts["calls"] + 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts["inside"] = 0

            return wrapper

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        monkeypatch.setattr(trainer, "_targets", counted(trainer._targets))
        for _ in range(6):
            trainer.run_iteration()
        policy = GplPolicy(cfg, trainer.value_params, trainer.model_params, np.random.default_rng(0))
        monkeypatch.setattr(policy, "act", counted(policy.act))
        session = make_session(cfg.env, cfg.openness_eval, np.random.default_rng(1))
        obs = session.reset()
        policy.reset(obs)
        sizes = set()
        for _ in range(20):
            sizes.add(len(obs.order))
            res = session.step(policy.act(obs))
            if res.done:
                break
            policy.observe(res)
            obs = res.obs
        assert counts["calls"] > 6 and max(sizes) > 1
        assert counts["built"] == 0

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_plain_arrays_give_the_bytes_of_bound_leaves(self, algorithm):
        cfg = tiny_cfg(algorithm, parallel_envs=3)
        trainer = Trainer(cfg)
        for _ in range(40):
            trainer.run_iteration()
            if any(len(slot.obs.order) > 1 for slot in trainer.slots):
                break
        assert any(len(slot.obs.order) > 1 for slot in trainer.slots)
        tape = Tape()
        runs = []
        for value, model in (
            (trainer.value_params.bind(tape), trainer.model_params and trainer.model_params.bind(tape)),
            (trainer.value_params.arrays, trainer.model_params and trainer.model_params.arrays),
        ):
            slots = copy.deepcopy(trainer.slots)
            teams, probs = trainer_module.model_pass(model, slots, write=True)
            qbars, _ = trainer.step.values(value, slots, teams, probs, "value")
            states = [
                (store.ids, store.h[which].tobytes(), store.c[which].tobytes())
                for store in (slot.store for slot in slots)
                for which in ("value", "model")
            ]
            probs = None if probs is None else T.raw(probs).tobytes()
            runs.append((probs, [q.tobytes() for q in qbars], states))
        assert runs[0] == runs[1]
        assert len(tape.nodes) > 0


class TestBatchedAgentModel:
    def test_stacked_forward_matches_per_env_oracle(self, monkeypatch, reference_forms):
        # QL-AM runs its agent model once over all environments on each
        # pathway; env by env, the reference `agent_model_step` on copies of
        # the stores is the oracle for both.
        agent_model_step = reference_forms.agent_model_step
        pool = ("wolf.H1", "wolf.H2")
        cfg = tiny_cfg(
            "QL-AM",
            parallel_envs=4,
            seed=1,
            openness_train=OpennessConfig((2, 5), (2, 4), 3, pool),
        )
        trainer = Trainer(cfg)
        last = []
        transition = trainer.transition

        def recording_transition(value, model):
            out = transition(value, model)
            last[:] = out[0]
            return out

        monkeypatch.setattr(trainer, "transition", recording_transition)

        def covered():
            # Team sizes 1, 2 and 3, and a departure plus an arrival just
            # applied to a store.
            sizes = {len(slot.obs.order) for slot in trainer.slots}
            turnover = any(res.departures and res.arrivals for res in last)
            return {1, 2, 3} <= sizes and turnover

        for _ in range(40):
            if covered():
                break
            trainer.run_iteration()
        assert covered()

        params = trainer.model_params
        oracle = []
        for slot in trainer.slots:
            store = copy.deepcopy(slot.store)
            probs, mates = agent_model_step(params, slot.obs, store, [], [])
            oracle.append((store, probs, mates))

        calls = []

        def recording(model, teams, state):
            calls.append((model, teams, copy.deepcopy([s.store for s in trainer.slots])))
            out = agent_model_forward(model, teams, state)
            calls[-1] += (out[2],)
            return out

        monkeypatch.setattr(trainer_module, "agent_model_forward", recording)
        tape = Tape()
        results, _, _, nll = trainer.transition(trainer.value_params.bind(tape), params.bind(tape))
        assert len(calls) == 2
        (_, teams, _, probs), (target_model, ahead, before, ahead_probs) = calls

        # Online pathway: distributions, written states (realigned to the s'
        # roster where the episode goes on) and summed NLL.
        expected_nll = 0.0
        for obs, res, (lo, hi), slot, (store, want, mates) in zip(
            teams.obs, results, teams.slices, trainer.slots, oracle
        ):
            written = copy.deepcopy(store)
            if not res.done:
                preprocess(res.obs, written, res.departures, res.arrivals)
            assert slot.store.ids == written.ids
            for got, want_rows in ((slot.store.h, written.h), (slot.store.c, written.c)):
                assert got["model"].shape == want_rows["model"].shape
                assert np.max(np.abs(got["model"] - want_rows["model"])) <= 1e-12
            if not mates:
                continue
            assert np.max(np.abs(probs.data[lo:hi] - want.data)) <= 1e-12
            acted = [res.joint_action[obs.order[r]] for r in mates]
            expected_nll += float(agent_model_loss(want, mates, acted).data)
        assert abs(float(nll.data) - expected_nll) <= 1e-12

        # Target pathway: online parameters, no store touched, and the same
        # distributions as advancing a copy of each store one step ahead.
        assert target_model is trainer.model_params.arrays
        for slot, store in zip(trainer.slots, before):
            assert slot.store.ids == store.ids
            assert np.array_equal(slot.store.h["model"], store.h["model"])
            assert np.array_equal(slot.store.c["model"], store.c["model"])
        live = [e for e, res in enumerate(results) if not res.done]
        assert len(ahead.slices) == len(live)
        for (lo, hi), e in zip(ahead.slices, live):
            res, store = results[e], copy.deepcopy(oracle[e][0])
            want, mates = agent_model_step(params, res.obs, store, res.departures, res.arrivals)
            if mates:
                assert np.max(np.abs(T.raw(ahead_probs)[lo:hi] - want.data)) <= 1e-12


class TestStoresFollowTheRoster:
    # Every roster change is applied when it is observed, so between
    # iterations and between policy steps each recurrent store lists exactly
    # the agents of its environment's current observation.
    POOL = ("wolf.H1", "wolf.H2")

    def cfg(self, algorithm):
        openness = OpennessConfig((2, 5), (2, 4), 3, self.POOL)
        return tiny_cfg(algorithm, parallel_envs=3, seed=1, openness_train=openness)

    # The maps of each algorithm's store that follow the roster.
    ROSTER_MAPS = {
        "GPL-Q": ("value", "model", "target"),
        "GPL-SPI": ("value", "model", "target"),
        "QL-AM": ("model",),
        "QL": (),
    }

    def assert_store_follows(self, algorithm, slot):
        # The store lists the roster in order, and its roster maps have one
        # row per agent of it; the baselines' value and target maps hold the
        # learner's row alone, and QL, which has no agent model, leaves its
        # model map empty.
        store, obs = slot.store, slot.obs
        assert isinstance(store, EmbeddingStore)
        assert store.roster_maps == self.ROSTER_MAPS[algorithm]
        assert store.ids == obs.order
        for which in ("value", "model", "target"):
            if which in store.roster_maps:
                rows = len(obs.order)
            elif which == "model":
                rows = 0
            else:
                rows = 1
            assert store.h[which].shape == store.c[which].shape == (rows, store.dim)

    @staticmethod
    def learner_row(store, which, learner_id):
        # The learner's (h, c) row of map `which`, None when it has none.
        if which in store.roster_maps:
            row = store.ids.index(learner_id)
        elif len(store.h[which]):
            row = 0
        else:
            return None
        return store.h[which][row], store.c[which][row]

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL-AM", "QL"])
    def test_trainer_stores(self, algorithm):
        trainer = Trainer(self.cfg(algorithm))
        rosters = [list(slot.obs.order) for slot in trainer.slots]
        changes = 0
        advanced = set()  # maps whose learner row has left its zero start
        for _ in range(40):
            trainer.run_iteration()
            for e, slot in enumerate(trainer.slots):
                changes += slot.obs.order != rosters[e]
                rosters[e] = list(slot.obs.order)
                self.assert_store_follows(algorithm, slot)
                store = slot.store
                for which in ("value", "model", "target"):
                    row = self.learner_row(store, which, slot.obs.learner_id)
                    if row is not None and np.any(row[0] != 0) and np.any(row[1] != 0):
                        advanced.add(which)
        assert changes >= 10
        used = {"value", "target"} if algorithm == "QL" else {"value", "model", "target"}
        assert advanced == used

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL-AM", "QL"])
    def test_policy_stores(self, algorithm):
        cfg = self.cfg(algorithm)
        trainer = Trainer(cfg)
        policy = GplPolicy(cfg, trainer.value_params, trainer.model_params, np.random.default_rng(0))
        session = make_session(cfg.env, cfg.openness_train, np.random.default_rng(5))
        changes = 0
        for _ in range(2):
            obs, done = session.reset(), False
            policy.reset(obs)
            while not done:
                self.assert_store_follows(algorithm, policy.slot)
                res = session.step(policy.act(obs))
                policy.observe(res)
                changes += bool(res.departures or res.arrivals)
                obs, done = res.obs, res.done
            self.assert_store_follows(algorithm, policy.slot)
        assert changes >= 5

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_policy_rejects_a_foreign_observation(self, algorithm):
        cfg = self.cfg(algorithm)
        trainer = Trainer(cfg)
        policy = GplPolicy(cfg, trainer.value_params, trainer.model_params, np.random.default_rng(0))
        session = make_session(cfg.env, cfg.openness_train, np.random.default_rng(5))
        other = make_session(cfg.env, cfg.openness_train, np.random.default_rng(6))
        obs, foreign = session.reset(), other.reset()
        assert foreign.order != obs.order
        policy.reset(obs)
        with pytest.raises(ValueError):
            policy.act(foreign)
        res = session.step(policy.act(obs))
        policy.observe(res)
        with pytest.raises(ValueError):
            policy.act(obs)  # the observation before the step it observed
        policy.act(res.obs)


class TestCollectTransitions:
    def test_episode_structure(self):
        cfg = tiny_cfg()
        episodes = collect_transitions(cfg, steps=60, seed=3)
        assert sum(len(e) for e in episodes) == 60
        for episode in episodes:
            for (obs, res), (next_obs, _) in zip(episode, episode[1:]):
                assert not res.done and next_obs is res.obs
            for obs, res in episode:
                assert set(res.joint_action) == set(obs.order)


class TestHeldoutNll:
    @staticmethod
    def reference_nll(params, cfg, episodes, agent_model_step):
        # Episode by episode, the single-environment step on a fresh store,
        # applying each record's roster change before the next record.
        total, count = 0.0, 0
        for episode in episodes:
            store = EmbeddingStore(cfg.net.embedding_dim, ("model",))
            pending = ([], list(episode[0][0].order))
            for obs, res in episode:
                probs, mates = agent_model_step(params, obs, store, *pending)
                if mates:
                    actions = [res.joint_action[obs.order[r]] for r in mates]
                    total += float(agent_model_loss(probs, mates, actions).data)
                    count += len(mates)
                pending = (res.departures, res.arrivals)
                if res.done:
                    break
        return total / max(count, 1)

    @pytest.mark.parametrize("env", ["wolfpack", "lbf"])
    def test_matches_the_per_episode_reference(self, env, reference_forms):
        cfg = default_config(env, "GPL-Q")
        episodes = collect_transitions(cfg, steps=3000, seed=11)
        assert len(episodes) > 3 and any(res.arrivals for ep in episodes for _, res in ep)
        params = train_agent_model_supervised(cfg, episodes[:-3], seed=11, epochs=1, window=4)
        got = heldout_nll(params, cfg, episodes)
        want = self.reference_nll(params, cfg, episodes, reference_forms.agent_model_step)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_raises_when_no_teammate_action_is_scored(self):
        cfg = tiny_cfg()
        solo = replace(cfg, openness_train=replace(cfg.openness_train, team_limit=1)).validate()
        x_len, u_len, action_count = env_dims(solo)
        params = init_model_net(x_len + u_len, action_count, solo.net, np.random.default_rng(0))
        alone = collect_transitions(solo, steps=100, seed=0)
        assert all(obs.order == [obs.learner_id] for episode in alone for obs, _ in episode)
        for episodes in (alone, []):
            with pytest.raises(ValueError, match="no teammate action was scored"):
                heldout_nll(params, solo, episodes)


class TestSupervisedWindows:
    WINDOW = 4

    def setup_method(self):
        self.cfg = tiny_cfg()
        self.episodes = collect_transitions(self.cfg, steps=60, seed=3)
        # A target whose acting teammate is on the roster for the whole window.
        self.target = next(
            (e, t)
            for e, episode in enumerate(self.episodes)
            for t in range(self.WINDOW, len(episode))
            if any(
                all(j in episode[s][0].order for s in range(t - self.WINDOW, t))
                for j in episode[t][0].order
                if j != episode[t][0].learner_id
            )
        )

    def loss_bytes(self, back=None):
        """Bytes of the target's window loss, with the observation `back`
        steps before the target shifted (when given)."""
        params = init_model_net(6, 5, self.cfg.net, np.random.default_rng(0)).bind(Tape())
        episodes = [list(episode) for episode in self.episodes]
        if back is not None:
            e, t = self.target
            obs, res = episodes[e][t - back]
            episodes[e][t - back] = (replace(obs, u=obs.u + 1.0), res)
        loss = window_loss(params, episodes, [self.target], self.WINDOW, self.cfg.net.embedding_dim)
        return T.raw(loss).tobytes()

    def test_loss_reaches_first_step_of_window(self):
        assert self.loss_bytes(self.WINDOW - 1) != self.loss_bytes()

    def test_window_starts_from_zero_state(self):
        assert self.loss_bytes(self.WINDOW) == self.loss_bytes()

    def test_windows_that_all_start_later(self):
        # Targets at an episode's first steps: no window is live at the
        # window's earlier steps, and a window that reaches back before the
        # episode gives the loss of one that starts at it.
        net = init_model_net(6, 5, self.cfg.net, np.random.default_rng(0))
        dim = self.cfg.net.embedding_dim
        starts = [(e, t) for e in range(len(self.episodes)) for t in (0, 1)]
        starts = [(e, t) for e, t in starts if len(self.episodes[e][t][0].order) > 1]
        assert starts
        for target in starts:
            losses = [
                T.raw(window_loss(net.bind(Tape()), self.episodes, [target], w, dim)).tobytes()
                for w in (target[1] + 1, self.WINDOW)
            ]
            assert losses[0] == losses[1]

    @pytest.mark.parametrize("env", ["wolfpack", "lbf"])
    def test_matches_the_hand_built_reference(self, env, reference_forms):
        # Loss and gradient bytes against the reference's hand-built rows,
        # over shuffled target batches whose windows hold arrivals,
        # departures and episode starts.
        cfg, window = tiny_cfg(env=env), self.WINDOW
        episodes = collect_transitions(cfg, steps=200, seed=5)
        steps = reference_forms.supervised_steps(episodes)
        targets = [
            (e, t)
            for e, episode in enumerate(episodes)
            for t, (obs, _) in enumerate(episode)
            if len(obs.order) > 1
        ]
        x_len, u_len, action_count = env_dims(cfg)
        params = init_model_net(x_len + u_len, action_count, cfg.net, np.random.default_rng(1))
        order = np.random.default_rng(0).permutation(len(targets))
        covered = set()
        for lo in range(0, len(order), 16):
            batch = [targets[i] for i in order[lo : lo + 16]]
            for e, t in batch:
                for _, res in episodes[e][max(0, t - window + 1) : t]:
                    covered |= {kind for kind in ("arrivals", "departures") if getattr(res, kind)}
                if t < window - 1:
                    covered.add("episode start")
            runs = []
            for loss_fn, data in ((window_loss, episodes), (reference_forms.window_loss, steps)):
                bound = params.bind(Tape())
                loss = loss_fn(bound, data, batch, window, cfg.net.embedding_dim)
                grads = np.empty(params.vector.size)
                params.accumulate(grads, bound, backward(loss), fresh=True)
                runs.append((T.raw(loss).tobytes(), grads.tobytes()))
            assert runs[0] == runs[1]
        assert covered == {"arrivals", "departures", "episode start"}

    @pytest.mark.parametrize("env", ["wolfpack", "lbf"])
    def test_action_count_comes_from_environment(self, env):
        cfg = tiny_cfg(env=env)
        episodes = collect_transitions(cfg, steps=40, seed=1)
        params = train_agent_model_supervised(cfg, episodes, seed=0, epochs=1, window=3)
        session = make_session(cfg.env, cfg.openness_train, np.random.default_rng(0))
        assert params["dec.w1"].data.shape[-1] == session.action_count


class TestPadObservation:
    def obs(self, order, x_len=2, u_len=4):
        rng = np.random.default_rng(0)
        return Observation(
            u=rng.normal(size=u_len),
            x={j: np.full(x_len, float(j + 1)) for j in order},
            order=list(order),
            learner_id=0,
        )

    def test_no_teammates_all_sentinel_blocks(self):
        slot_map = SlotMap(4)
        vec = pad_observation(self.obs([0]), 5, slot_map)
        assert len(vec) == 2 + 4 * 2 + 4
        assert np.all(vec[2 : 2 + 8] == -1.0)

    def test_blocks_carry_teammate_features(self):
        slot_map = SlotMap(4)
        rng = np.random.default_rng(1)
        slot_map.apply([], [7], rng)
        obs = self.obs([0, 7])
        vec = pad_observation(obs, 5, slot_map)
        s = slot_map.assigned[7]
        assert np.array_equal(vec[2 + 2 * s : 2 + 2 * s + 2], obs.x[7])

    def test_departed_slot_reverts_to_sentinel(self):
        slot_map = SlotMap(4)
        rng = np.random.default_rng(2)
        slot_map.apply([], [7], rng)
        s = slot_map.assigned[7]
        slot_map.apply([7], [], rng)
        vec = pad_observation(self.obs([0]), 5, slot_map)
        assert np.all(vec[2 + 2 * s : 2 + 2 * s + 2] == -1.0)

    def test_slot_assignment_uniform_over_free(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(4)
        for _ in range(10_000):
            m = SlotMap(4)
            m.apply([], [9], rng)
            counts[m.assigned[9]] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_slot_exhaustion_rejected(self):
        slot_map = SlotMap(1)
        rng = np.random.default_rng(4)
        slot_map.apply([], [1], rng)
        with pytest.raises(ValueError):
            slot_map.apply([], [2], rng)

    def test_probs_widen_blocks(self):
        slot_map = SlotMap(2)
        rng = np.random.default_rng(5)
        slot_map.apply([], [3], rng)
        obs = self.obs([0, 3])
        probs = {3: np.array([0.25, 0.25, 0.25, 0.25, 0.0])}
        vec = pad_observation(obs, 3, slot_map, probs=probs, width=5)
        assert len(vec) == 2 + 2 * (2 + 5) + 4
        s = slot_map.assigned[3]
        block = vec[2 + 7 * s : 2 + 7 * s + 7]
        assert np.array_equal(block[:2], obs.x[3])
        assert np.array_equal(block[2:], probs[3])


class TestBaselineForward:
    def test_zero_params_zero_values(self):
        params = nn.draw(baseline_net_layout(10, 5, SMALL_NET), np.random.default_rng(0))
        zeroed = nn.ParamStore({n: np.zeros(shape) for n, shape in params.shapes().items()})
        q, _ = ql_baseline_forward(
            zeroed, np.ones(10), (Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))))
        )
        assert np.all(q.data == 0)

    def test_deterministic(self):
        params = nn.draw(baseline_net_layout(10, 5, SMALL_NET), np.random.default_rng(1))
        state = (Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))))
        x = np.linspace(-1, 1, 10)
        a, _ = ql_baseline_forward(params, x, state)
        b, _ = ql_baseline_forward(params, x, state)
        assert a.data.tobytes() == b.data.tobytes()

    def test_wrong_length_rejected(self):
        params = nn.draw(baseline_net_layout(10, 5, SMALL_NET), np.random.default_rng(2))
        state = (Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))))
        with pytest.raises(ValueError):
            ql_baseline_forward(params, np.ones(11), state)

    def test_gradcheck_through_two_steps(self):
        rng = np.random.default_rng(3)
        params = nn.draw(baseline_net_layout(6, 4, SMALL_NET), rng)
        x1, x2 = rng.normal(size=6), rng.normal(size=6)
        for name in ("embed.lstm.w", "head.w0", "embed.fc.w0"):
            def f(p, name=name):
                patched = {**params.arrays, name: p}
                state = (Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))))
                _, state = ql_baseline_forward(patched, x1, state)
                q, _ = ql_baseline_forward(patched, x2, state)
                return T.sum_all(q * q)
            assert grad_check(f, params[name]) <= 1e-4
