"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. The end-to-end smoke criterion trains three learners and
dominates the runtime; deselect it with `-m "not slow"` while iterating.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from openteam import nn
from openteam.config import EpsilonSchedule, NetConfig, default_config
from openteam.envs.base import EnvConfig
from openteam.envs.foraging import FoodItem, LbfState, lbf_step
from openteam.envs.session import make_session
from openteam.envs.wolfpack import WolfState, wolf_step
from openteam.harness.analyze import action_mean, deviation
from openteam.harness.cli import blas_threads, pin_blas_threads
from openteam.harness.run import evaluate, random_policy_record, run_training
from openteam.harness.suites import (
    enumerate_marginal,
    gradient_suite,
    marginalization_suite,
    random_instance,
)
from openteam.learner.model import EmbeddingStore, init_model_net, preprocess
from openteam.learner.trainer import (
    GplPolicy,
    collect_transitions,
    heldout_nll,
    train,
    train_agent_model_supervised,
)
from openteam.learner.values import joint_q, marginal_q, spi_policy, td_target
from openteam.openness import LEARNER_ID, OpennessConfig
from openteam.tensor import Tensor

SMALL_NET = NetConfig(
    embedding_dim=8,
    utility_hidden=(8, 6),
    edge_hidden=(5, 6),
    node_hidden=(5, 6),
    decoder_hidden=(5,),
    rank=2,
)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def test_01_marginalization_oracle():
    start = time.time()
    worst = marginalization_suite(instances=1000, seed=0)
    elapsed = time.time() - start
    report(
        "1 marginalization-oracle",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.2e} over 1000 instances in {elapsed:.1f}s",
    )


def test_02_gradient_suite():
    start = time.time()
    label, err = gradient_suite(instances=20, seed=0)
    elapsed = time.time() - start
    report(
        "2 gradient-suite",
        err <= 1e-4 and elapsed < 60.0,
        f"max error {err:.2e} at {label} in {elapsed:.1f}s",
    )


def test_03_pairwise_symmetry_and_additivity():
    rng = np.random.default_rng(3)
    worst_sym = 0.0
    worst_add = 0.0
    for _ in range(500):
        tables, _ = random_instance(rng, max_teammates=3, max_actions=5)
        ids = tables.agent_ids
        joint = {j: int(rng.integers(0, tables.action_count)) for j in ids}
        total = sum(tables.singular(j).data[joint[j]] for j in ids)
        for j in ids:
            for k in ids:
                if j != k:
                    table_jk = tables.pairwise(j, k).data
                    worst_sym = max(
                        worst_sym,
                        float(np.max(np.abs(tables.pairwise(k, j).data - table_jk.T))),
                    )
                    total += table_jk[joint[j], joint[k]]
        worst_add = max(worst_add, abs(float(joint_q(tables, joint).data) - total))
    report(
        "3 pairwise-symmetry-additivity",
        worst_sym <= 1e-12 and worst_add <= 1e-12,
        f"symmetry {worst_sym:.2e}, additivity {worst_add:.2e} over 500 instances",
    )


def _rollout_openness(env_name, steps, seed):
    cfg = default_config(env_name)
    session = make_session(cfg.env, cfg.openness_train, seed)
    session.reset()
    rng = np.random.default_rng(seed + 1)
    sizes = []
    active, waiting, types = [], [], []

    def snapshot_new(arrivals):
        for agent_id in arrivals:
            entry = session.roster.agents[agent_id]
            active.append(entry.active_duration)
            types.append(entry.type_id)

    snapshot_new(session.roster.teammate_ids)
    seen_waiting = 0
    for _ in range(steps):
        res = session.step(int(rng.integers(0, session.action_count)))
        snapshot_new(res.arrivals)
        queue = session.roster.waiting
        for entry in queue[seen_waiting:]:
            waiting.append(entry.waiting_duration)
        seen_waiting = len(queue)
        sizes.append(len(session.roster))
        if res.done:
            session.reset()
            snapshot_new(session.roster.teammate_ids)
            seen_waiting = 0
    return cfg, sizes, active, waiting, types


def test_04_openness_invariants():
    results = []
    for env_name, a_range, w_range in (
        ("wolfpack", (25, 35), (15, 25)),
        ("lbf", (15, 25), (10, 20)),
    ):
        cfg, sizes, active, waiting, types = _rollout_openness(env_name, 10_000, seed=4)
        ok_limit = max(sizes) <= cfg.openness_train.team_limit
        ok_active = all(a_range[0] <= d <= a_range[1] for d in active)
        ok_waiting = all(w_range[0] <= d <= w_range[1] for d in waiting)
        a_counts = [active.count(d) for d in range(a_range[0], a_range[1] + 1)]
        p_active = stats.chisquare(a_counts).pvalue
        pool = cfg.openness_train.type_pool
        t_counts = [types.count(t) for t in pool]
        p_types = stats.chisquare(t_counts).pvalue
        results.append(
            (
                env_name,
                ok_limit and ok_active and ok_waiting and p_active > 0.01 and p_types > 0.01,
                f"{env_name}: max team {max(sizes)}, {len(active)} arrivals, "
                f"duration chi2 p={p_active:.3f}, type chi2 p={p_types:.3f}",
            )
        )
    passed = all(r[1] for r in results)
    report("4 openness-invariants", passed, "; ".join(r[2] for r in results))


def test_05_environment_rules():
    rng = np.random.default_rng(0)
    checks = []

    state = LbfState(8, 8, {0: (3, 3)}, {0: 2}, [FoodItem((3, 4), 2)], 0, 50)
    new, reward, _ = lbf_step(state, {0: 5}, rng)
    checks.append(new.objects[0].collected and reward == 2.0)

    state = LbfState(8, 8, {0: (3, 3)}, {0: 1}, [FoodItem((3, 4), 3)], 0, 50)
    new, reward, _ = lbf_step(state, {0: 5}, rng)
    checks.append(not new.objects[0].collected and reward == 0.0)

    state = LbfState(8, 8, {0: (3, 3), 1: (3, 5)}, {0: 1, 1: 2}, [FoodItem((3, 4), 3)], 0, 50)
    new, reward, _ = lbf_step(state, {0: 5, 1: 5}, rng)
    checks.append(new.objects[0].collected and reward == 3.0)

    # corner-trapped prey: the pack is adjacent after any prey move
    state = WolfState(10, 10, {0: (0, 1), 1: (1, 0)}, [(0, 0), (9, 9)], 0, 200)
    _, reward, _ = wolf_step(state, {0: 4, 1: 4}, rng)
    checks.append(reward == 4.0)

    # edge-trapped prey with three adjacent hunters
    state = WolfState(10, 10, {0: (0, 0), 1: (0, 2), 2: (1, 1)}, [(0, 1), (9, 9)], 0, 200)
    _, reward, _ = wolf_step(state, {0: 4, 1: 4, 2: 4}, rng)
    checks.append(reward == 6.0)

    state = WolfState(2, 1, {0: (1, 0)}, [(0, 0)], 0, 200)
    _, reward, _ = wolf_step(state, {0: 4}, rng)
    checks.append(reward == -0.5)

    report(
        "5 environment-rules",
        all(checks),
        f"{sum(checks)}/6 exact rule checks (collection threshold, reward=level, "
        "pack reward 2x size, lone-adjacency -0.5)",
    )


def test_06_hidden_state_bookkeeping():
    rng = np.random.default_rng(6)
    ok = True
    detail = "500 random roster transitions + episode resets"
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        store = EmbeddingStore(dim)
        n0 = int(rng.integers(1, 5))
        order = [0] + [10 + i for i in range(n0 - 1)]

        class Obs:
            pass

        def make_obs(ids):
            o = Obs()
            o.order = list(ids)
            o.learner_id = 0
            o.u = rng.normal(size=2)
            o.x = {j: rng.normal(size=2) for j in ids}
            o.batch_rows = lambda: np.stack([np.concatenate([o.x[j], o.u]) for j in o.order])
            return o

        preprocess(make_obs(order), store, [], order)
        store.write("value", rng.normal(size=(n0, dim)), rng.normal(size=(n0, dim)))

        survivors = [j for j in order if j == 0 or rng.random() < 0.6]
        departed = [j for j in order if j not in survivors]
        arrivals = [100 + i for i in range(int(rng.integers(0, 3)))]
        new_order = survivors + arrivals
        rows = [order.index(j) for j in survivors]
        kept = (store.h["value"][rows].tobytes(), store.c["value"][rows].tobytes())
        preprocess(make_obs(new_order), store, departed, arrivals)

        h, c = store.h["value"], store.c["value"]
        if store.ids["value"] != new_order or not h.shape == c.shape == (len(new_order), dim):
            ok = False
        n = len(survivors)
        if (h[:n].tobytes(), c[:n].tobytes()) != kept:
            ok = False
        if not (np.all(h[n:] == 0) and np.all(c[n:] == 0)):
            ok = False
        for j in departed:
            if j in store.ids["value"]:
                ok = False

        # episode end: everyone departs, the next roster arrives fresh
        next_order = [0, 500]
        preprocess(make_obs(next_order), store, new_order, next_order)
        for which in ("value", "model", "target"):
            if store.ids[which] != next_order or store.h[which].shape != (2, dim):
                ok = False
            if np.any(store.h[which] != 0) or np.any(store.c[which] != 0):
                ok = False
        if not ok:
            break
    report("6 hidden-state-bookkeeping", ok, detail)


def test_07_agent_model_learning():
    start = time.time()
    cfg = default_config("wolfpack", "GPL-Q")
    episodes = collect_transitions(cfg, steps=50_000, seed=11)
    split = max(1, int(len(episodes) * 0.85))
    train_eps, held = episodes[:split], episodes[split:]

    probe = episodes[0][0][0]
    in_dim = len(probe.x[probe.learner_id]) + len(probe.u)
    untrained = init_model_net(in_dim, 5, cfg.net, np.random.default_rng(np.random.SeedSequence(11)))
    base = heldout_nll(untrained, cfg, held)
    params = train_agent_model_supervised(cfg, train_eps, seed=11, epochs=1, window=10)
    after = heldout_nll(params, cfg, held)
    elapsed = time.time() - start
    reduction = 1.0 - after / base
    report(
        "7 agent-model-learning",
        reduction >= 0.20 and elapsed < 600.0,
        f"heldout NLL {base:.3f} -> {after:.3f} ({reduction*100:.0f}% reduction) in {elapsed/60:.1f} min",
    )


def smoke_config(seed):
    cfg = default_config("wolfpack", "GPL-Q")
    return replace(
        cfg,
        env=replace(cfg.env, width=5, height=5, horizon=100),
        openness_train=OpennessConfig((25, 35), (15, 25), 2, ("wolf.H2",)),
        openness_eval=OpennessConfig((25, 35), (15, 25), 2, ("wolf.H2",)),
        lr=1e-3,
        epsilon=EpsilonSchedule(1.0, 0.05, 0.5),
        total_steps=200_000,
        checkpoint_interval=100_000,
        seed=seed,
    ).validate()


def greedy_eval_returns(cfg, stores, episodes=100, seed=1234):
    seeds = np.random.SeedSequence(seed).spawn(2)
    session = make_session(cfg.env, cfg.openness_eval, np.random.default_rng(seeds[0]))
    policy = GplPolicy(cfg, stores["value"], stores["agent_model"], np.random.default_rng(seeds[1]))
    returns = []
    for _ in range(episodes):
        obs = session.reset()
        policy.reset(obs)
        total, done = 0.0, False
        while not done:
            action = policy.act(obs)
            res = session.step(action)
            policy.observe(res)
            total += res.reward
            obs = res.obs
            done = res.done
        returns.append(total)
    mean = float(np.mean(returns))
    ci = float(1.96 * np.std(returns, ddof=1) / np.sqrt(len(returns)))
    return mean, ci


def smoke_run(seed):
    """Train and greedily evaluate one smoke seed in a worker process, on one
    BLAS thread as in the parent; returns (BLAS threads, mean, ci, minutes)."""
    pin_blas_threads()
    start = time.time()
    cfg = smoke_config(seed)
    mean, ci = greedy_eval_returns(cfg, train(cfg).stores)
    return blas_threads()["threads"], mean, ci, (time.time() - start) / 60


@pytest.mark.slow
def test_08_end_to_end_smoke():
    random_record = random_policy_record(smoke_config(0), episodes=100, seed=555)
    random_hi = random_record.mean_return + random_record.ci95
    lines = []
    passed = True
    # The three trainings are independent: two worker processes run them.
    with ProcessPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(smoke_run, (1, 2, 3)))
    for seed, (threads, mean, ci, minutes) in zip((1, 2, 3), runs):
        assert threads in (1, None), f"seed {seed} trained on {threads} BLAS threads"
        separated = mean - ci > random_hi
        passed = passed and separated and minutes < 30.0
        lines.append(
            f"seed {seed}: greedy {mean:.2f}+/-{ci:.2f} vs random "
            f"{random_record.mean_return:.2f}+/-{random_record.ci95:.2f} "
            f"separated={separated} in {minutes:.1f} min"
        )
    report("8 end-to-end-smoke", passed, "; ".join(lines))


def test_09_spi_ql_consistency():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        q = rng.normal(size=int(rng.integers(2, 7))) * rng.uniform(0.1, 10)
        r = float(rng.normal())
        y_ql = td_target(r, q, "QL", 0.97)
        y_spi = td_target(r, q, "SPI", 0.97, tau=1e-6)
        worst = max(worst, abs(y_spi - y_ql) / (1 + abs(y_ql)))
    uniform_gap = float(np.max(np.abs(spi_policy(Tensor(np.full(6, 3.3)), 0.5).data - 1 / 6)))
    report(
        "9 spi-ql-consistency",
        worst <= 1e-3 and uniform_gap <= 1e-9,
        f"max |y_SPI - y_QL| ratio {worst:.2e}; uniform gap {uniform_gap:.2e}",
    )


def _small_run_cfg(seed=0, **kw):
    cfg = default_config("wolfpack", "GPL-Q")
    cfg = replace(
        cfg,
        env=replace(cfg.env, horizon=20),
        parallel_envs=2,
        total_steps=40,
        checkpoint_interval=20,
        net=SMALL_NET,
        openness_train=OpennessConfig((5, 8), (2, 4), 3, ("wolf.H1", "wolf.H2")),
        openness_eval=OpennessConfig((5, 8), (2, 4), 5, ("wolf.H1", "wolf.H2")),
        seed=seed,
    )
    return replace(cfg, **kw).validate()


def test_10_generalization_path(tmp_path):
    cfg = _small_run_cfg()
    out = run_training(cfg, tmp_path / "run")
    ckpt = os.path.join(out, "ckpt_000000040.otck")
    record = evaluate(ckpt, cfg, episodes=5, seed=7, team_limit=5)
    ok = (
        record.episodes == 5
        and record.mean_return is not None
        and record.ci95 is not None
        and np.isfinite(record.mean_return)
    )
    report(
        "10 generalization-path",
        ok,
        f"limit-3 checkpoint under limit 5: mean {record.mean_return:.2f}+/-{record.ci95:.2f}",
    )


def test_11_determinism(tmp_path):
    cfg = _small_run_cfg(total_steps=120, checkpoint_interval=60)
    out1 = run_training(cfg, tmp_path / "a")
    out2 = run_training(cfg, tmp_path / "b")
    same = True
    m1 = open(os.path.join(out1, "metrics.jsonl"), "rb").read()
    m2 = open(os.path.join(out2, "metrics.jsonl"), "rb").read()
    same = same and m1 == m2
    for name in sorted(os.listdir(out1)):
        if name.endswith(".otck"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            same = same and a == b
    report("11 determinism", same, "metric stream and all checkpoints byte-identical")


def test_12_analysis_metrics():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(500):
        actions = int(rng.integers(2, 7))
        table = rng.normal(size=(actions, actions))
        aj = int(rng.integers(0, actions))
        ak = int(rng.integers(0, actions))
        mean_oracle = sum(table[aj, b] for b in range(actions)) / actions
        worst = max(worst, abs(action_mean(table, aj) - mean_oracle))
        rest = sum(
            table[x, y]
            for x in range(actions)
            for y in range(actions)
            if (x, y) != (aj, ak)
        )
        dev_oracle = table[aj, ak] - rest / (actions * actions - 1)
        worst = max(worst, abs(deviation(table, aj, ak) - dev_oracle))
        literal_rest = sum(
            table[x, y]
            for x in range(actions)
            for y in range(actions)
            if x != aj and y != ak
        )
        literal_oracle = table[aj, ak] - literal_rest / (actions * actions - 1)
        worst = max(worst, abs(deviation(table, aj, ak, literal=True) - literal_oracle))
    report(
        "12 analysis-metrics",
        worst <= 1e-12,
        f"max deviation from two-loop oracles {worst:.2e} over 500 tables",
    )
