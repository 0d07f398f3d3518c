import hashlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from openteam.config import default_config
from openteam.envs.base import DOWN, LEFT, LOAD, RIGHT, STAY, UP, EnvConfig, resolve_moves
from openteam.envs import WORLDS, foraging, wolfpack
from openteam.envs.foraging import FoodItem, LbfState, lbf_step
from openteam.envs.wolfpack import WolfState, prey_act, wolf_step
from openteam.envs.session import make_session
from openteam.openness import LEARNER_ID, OpennessConfig, reset_roster
from openteam.teammates import _team_plans


def lbf_state(positions, levels, objects, width=8, height=8, step=0):
    return LbfState(width, height, dict(positions), dict(levels), list(objects), step, 50)


def wolf_state(positions, prey, width=10, height=10, step=0, horizon=200):
    return WolfState(width, height, dict(positions), list(prey), step, horizon)


class TestLbfStep:
    def test_learner_collects_matching_level(self):
        state = lbf_state({0: (3, 3)}, {0: 2}, [FoodItem((3, 4), 2)])
        new, reward, done = lbf_step(state, {0: LOAD}, np.random.default_rng(0))
        assert new.objects[0].collected
        assert reward == 2.0

    def test_low_level_cannot_collect(self):
        state = lbf_state({0: (3, 3)}, {0: 1}, [FoodItem((3, 4), 3)])
        new, reward, _ = lbf_step(state, {0: LOAD}, np.random.default_rng(0))
        assert not new.objects[0].collected
        assert reward == 0.0

    def test_joint_collection_sums_levels(self):
        state = lbf_state(
            {0: (3, 3), 1: (3, 5)}, {0: 1, 1: 2}, [FoodItem((3, 4), 3)]
        )
        new, reward, _ = lbf_step(state, {0: LOAD, 1: LOAD}, np.random.default_rng(0))
        assert new.objects[0].collected
        assert reward == 3.0

    def test_moves_into_objects_blocked(self):
        state = lbf_state({0: (3, 3)}, {0: 2}, [FoodItem((3, 4), 1)])
        new, _, _ = lbf_step(state, {0: RIGHT}, np.random.default_rng(0))
        assert new.positions[0] == (3, 3)

    def test_same_target_conflict_everyone_stays(self):
        state = lbf_state({0: (3, 3), 1: (3, 5)}, {0: 1, 1: 1}, [FoodItem((7, 7), 1)])
        new, _, _ = lbf_step(state, {0: RIGHT, 1: LEFT}, np.random.default_rng(0))
        assert new.positions[0] == (3, 3) and new.positions[1] == (3, 5)

    def test_moving_off_grid_stays(self):
        state = lbf_state({0: (0, 0)}, {0: 1}, [FoodItem((7, 7), 1)])
        new, _, _ = lbf_step(state, {0: UP}, np.random.default_rng(0))
        assert new.positions[0] == (0, 0)

    def test_moving_into_current_cell_blocked(self):
        state = lbf_state({0: (3, 3), 1: (3, 4)}, {0: 1, 1: 1}, [FoodItem((7, 7), 1)])
        new, _, _ = lbf_step(state, {0: RIGHT, 1: RIGHT}, np.random.default_rng(0))
        assert new.positions[0] == (3, 3) and new.positions[1] == (3, 5)

    def test_done_when_all_collected_or_horizon(self):
        state = lbf_state({0: (3, 3)}, {0: 3}, [FoodItem((3, 4), 1)])
        _, _, done = lbf_step(state, {0: LOAD}, np.random.default_rng(0))
        assert done
        state = lbf_state({0: (3, 3)}, {0: 1}, [FoodItem((7, 7), 3)], step=49)
        _, _, done = lbf_step(state, {0: STAY}, np.random.default_rng(0))
        assert done

    def test_action_for_unknown_agent_rejected(self):
        state = lbf_state({0: (3, 3)}, {0: 1}, [FoodItem((7, 7), 1)])
        with pytest.raises(ValueError):
            lbf_step(state, {0: STAY, 9: STAY}, np.random.default_rng(0))

    def test_object_conservation(self):
        cfg = EnvConfig.defaults("lbf")
        rng = np.random.default_rng(4)
        state = foraging.reset(rng, [0, 1], cfg)
        for _ in range(50):
            actions = {a: int(rng.integers(0, 6)) for a in state.positions}
            state, _, done = lbf_step(state, actions, rng)
            assert len(state.objects) == 3
            if done:
                break


class TestWolfStep:
    def test_pair_capture_rewards_learner(self):
        # prey trapped in the corner; both hunters adjacent
        state = wolf_state({0: (0, 1), 1: (1, 0)}, [(0, 0), (5, 5)])
        new, reward, _ = wolf_step(state, {0: STAY, 1: STAY}, np.random.default_rng(0))
        assert reward == 4.0

    def test_lone_adjacency_penalty(self):
        # 1x2 grid: the prey cannot leave its cell, so the learner is
        # deterministically lone-adjacent after the move.
        state = wolf_state({0: (1, 0)}, [(0, 0)], width=1, height=2)
        _, reward, _ = wolf_step(state, {0: STAY}, np.random.default_rng(1))
        assert reward == -0.5

    def test_penalty_matches_adjacency_in_random_rollouts(self):
        # Whenever a step pays exactly -0.5, the learner must end the step
        # lone-adjacent to some surviving prey.
        rng = np.random.default_rng(17)
        state = wolf_state({0: (5, 5), 1: (0, 0)}, [(2, 2), (7, 7)])
        seen = 0
        for _ in range(400):
            actions = {a: int(rng.integers(0, 5)) for a in state.positions}
            state, reward, done = wolf_step(state, actions, rng)
            if reward == -0.5:
                seen += 1
                learner = state.positions[0]
                lone = False
                for prey_pos in state.prey:
                    dists = {
                        a: abs(p[0] - prey_pos[0]) + abs(p[1] - prey_pos[1])
                        for a, p in state.positions.items()
                    }
                    if dists[0] == 1 and all(d > 1 for a, d in dists.items() if a != 0):
                        lone = True
                assert lone
            if done:
                state = wolf_state({0: (5, 5), 1: (0, 0)}, [(2, 2), (7, 7)])
        assert seen > 0

    def test_three_pack_reward(self):
        # prey trapped on the top edge with three adjacent hunters
        state = wolf_state({0: (0, 0), 1: (0, 2), 2: (1, 1)}, [(0, 1), (5, 5)])
        _, reward, _ = wolf_step(state, {0: STAY, 1: STAY, 2: STAY}, np.random.default_rng(0))
        assert reward == 6.0

    def test_capture_without_learner_pays_nothing(self):
        state = wolf_state({0: (5, 5), 1: (9, 8), 2: (8, 9)}, [(9, 9), (0, 0)])
        _, reward, _ = wolf_step(state, {0: STAY, 1: STAY, 2: STAY}, np.random.default_rng(0))
        assert reward == 0.0

    def test_prey_count_constant_after_capture(self):
        rng = np.random.default_rng(2)
        state = wolf_state({0: (0, 1), 1: (1, 0)}, [(0, 0), (5, 5)])
        captured = 0
        for _ in range(30):
            state, reward, _ = wolf_step(state, {0: STAY, 1: STAY}, rng)
            captured += reward > 0
            assert len(state.prey) == 2
        assert captured >= 1

    def test_no_two_entities_share_cell(self):
        cfg = EnvConfig.defaults("wolfpack")
        rng = np.random.default_rng(3)
        state = wolfpack.reset(rng, [0, 1, 2], cfg)
        for _ in range(200):
            actions = {a: int(rng.integers(0, 5)) for a in state.positions}
            state, _, done = wolf_step(state, actions, rng)
            cells = list(state.positions.values()) + list(state.prey)
            assert len(cells) == len(set(cells))
            assert all(0 <= r < 10 and 0 <= c < 10 for r, c in cells)
            if done:
                break

    def test_done_at_horizon(self):
        state = wolf_state({0: (0, 0)}, [(9, 9), (8, 8)], step=199)
        _, _, done = wolf_step(state, {0: STAY}, np.random.default_rng(0))
        assert done

    def test_deterministic_given_rng_state(self):
        state = wolf_state({0: (5, 4), 1: (2, 2)}, [(5, 5), (0, 0)])
        a = wolf_step(state, {0: UP, 1: DOWN}, np.random.default_rng(9))
        b = wolf_step(state, {0: UP, 1: DOWN}, np.random.default_rng(9))
        assert a[0].positions == b[0].positions and a[0].prey == b[0].prey


class TestPreyAct:
    def test_never_moves_toward_sole_adjacent_hunter(self):
        state = wolf_state({0: (5, 4)}, [(5, 5)])
        rng = np.random.default_rng(0)
        actions = {prey_act(state, 0, rng) for _ in range(500)}
        assert LEFT not in actions

    def test_no_hunters_uniform_over_actions(self):
        state = WolfState(10, 10, {}, [(5, 5)], 0, 200)
        rng = np.random.default_rng(1)
        counts = np.zeros(5)
        for _ in range(10_000):
            counts[prey_act(state, 0, rng)] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_mirrored_hunters_mirror_the_distribution(self):
        left = wolf_state({0: (5, 2)}, [(5, 5)])
        right = wolf_state({0: (5, 8)}, [(5, 5)])
        n = 20_000
        counts_left = np.zeros(5)
        counts_right = np.zeros(5)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(n):
            counts_left[prey_act(left, 0, rng_a)] += 1
            counts_right[prey_act(right, 0, rng_b)] += 1
        # left/right swap, up/down/stay invariant
        mirrored = counts_right[[UP, DOWN, RIGHT, LEFT, STAY]]
        assert np.array_equal(counts_left, mirrored)


class TestEncodeObs:
    def test_all_collected_slots_are_sentinels(self):
        roster = reset_roster(np.random.default_rng(0), OpennessConfig((5, 6), (1, 2), 1, ()))
        state = lbf_state(
            {0: (1, 1)},
            {0: 2},
            [FoodItem((2, 2), 1, True), FoodItem((3, 3), 2, True), FoodItem((4, 4), 3, True)],
        )
        obs = foraging.observe(state, roster)
        assert np.array_equal(obs.u, [-1.0] * 9)

    def test_wolf_u_is_prey_coordinates(self):
        roster = reset_roster(np.random.default_rng(0), OpennessConfig((5, 6), (1, 2), 1, ()))
        state = wolf_state({0: (1, 1)}, [(0, 0), (9, 9)])
        obs = wolfpack.observe(state, roster)
        assert np.array_equal(obs.u, [0.0, 0.0, 9.0, 9.0])

    def test_lbf_x_is_position_and_level(self):
        roster = reset_roster(np.random.default_rng(0), OpennessConfig((5, 6), (1, 2), 1, ()))
        state = lbf_state({0: (3, 4)}, {0: 2}, [FoodItem((2, 2), 1)])
        obs = foraging.observe(state, roster)
        assert np.array_equal(obs.x[0], [3.0, 4.0, 2.0])

    def test_learner_slot_first_in_batch(self):
        cfg = OpennessConfig((5, 6), (1, 2), 3, ("wolf.H1",))
        session = make_session(EnvConfig.defaults("wolfpack"), cfg, 12)
        obs = session.reset()
        assert obs.order[0] == LEARNER_ID
        rows = obs.batch_rows()
        assert rows.shape == (len(obs.order), 2 + 4)
        assert np.array_equal(rows[0][:2], obs.x[LEARNER_ID])

    @pytest.mark.parametrize("env_name", ["wolfpack", "lbf"])
    def test_batch_rows_match_concatenate_and_stack(self, env_name):
        openness = default_config(env_name, "GPL-Q").openness_eval
        session = make_session(EnvConfig.defaults(env_name), openness, 3)
        obs = session.reset()
        for _ in range(200):
            rows = obs.batch_rows()
            reference = np.stack([np.concatenate([obs.x[j], obs.u]) for j in obs.order])
            assert rows.dtype == reference.dtype and rows.shape == reference.shape
            assert rows.tobytes() == reference.tobytes()
            res = session.step(0)
            obs = session.reset() if res.done else res.obs


class TestSession:
    def test_rollout_respects_team_limit_and_grid(self):
        cfg = OpennessConfig((5, 8), (2, 4), 3, ("wolf.H1", "wolf.H2"))
        session = make_session(EnvConfig.defaults("wolfpack"), cfg, 3)
        session.reset()
        rng = np.random.default_rng(0)
        for _ in range(400):
            res = session.step(int(rng.integers(0, 5)))
            assert len(res.obs.order) <= 3
            if res.done:
                session.reset()

    def test_joint_action_covers_roster_exactly(self):
        cfg = OpennessConfig((5, 8), (2, 4), 3, ("lbf.H3", "lbf.H6"))
        session = make_session(EnvConfig.defaults("lbf"), cfg, 5)
        obs = session.reset()
        rng = np.random.default_rng(1)
        for _ in range(120):
            roster_before = list(obs.order)
            res = session.step(int(rng.integers(0, 6)))
            assert sorted(res.joint_action) == sorted(roster_before)
            obs = res.obs
            if res.done:
                obs = session.reset()

    def test_same_seed_reproduces_trajectory(self):
        cfg = OpennessConfig((5, 8), (2, 4), 3, ("wolf.H2",))
        env_cfg = EnvConfig.defaults("wolfpack")

        def run(seed):
            session = make_session(env_cfg, cfg, seed)
            session.reset()
            trace = []
            rng = np.random.default_rng(99)
            for _ in range(150):
                res = session.step(int(rng.integers(0, 5)))
                trace.append((res.reward, tuple(res.obs.order), res.done))
                if res.done:
                    session.reset()
            return trace

        assert run(42) == run(42)


class TestWorldInterface:
    """Both worlds behind one interface: session replays pinned to fixed
    digests, so that a random draw moved between the session and a world
    shows (replaying both sides through one session cannot see it), and the
    step's joint-action check."""

    REPLAYS = {
        ("wolfpack", 3): "53128359c0c27381c0e8e7049d844c1d31db66f543e0ee9b70efde39528e3500",
        ("wolfpack", 5): "8ebe62dc0aa0393c165a5d0981354d49abdbadcb41f4e73f75bf7ac0ddc82f75",
        ("lbf", 3): "bbf50e8bc5cc85d8bbe50969202b1cf87e111771a0a09a4408eb77d1739db484",
        ("lbf", 5): "54f7a3577ff5ed20c8daf67f9d7456aec3b404cd713e7d112e0fe38754a4b994",
    }

    @pytest.mark.parametrize("env_name, limit", sorted(REPLAYS))
    def test_replay_digest_is_pinned(self, env_name, limit):
        # 3,000 steps of a uniform-random learner (session seed 5, learner
        # seed 6) at the default eval openness: every reward, done flag,
        # departure, arrival, joint action, roster order and observation byte.
        openness = replace(default_config(env_name, "GPL-Q").openness_eval, team_limit=limit)
        session = make_session(EnvConfig.defaults(env_name), openness, 5)
        learner = np.random.default_rng(6)
        obs = session.reset()
        digest = hashlib.sha256(repr(obs.order).encode() + obs.batch_rows().tobytes())
        for _ in range(3000):
            res = session.step(int(learner.integers(0, session.action_count)))
            joint = list(res.joint_action.items())
            fields = (res.reward, res.done, res.departures, res.arrivals, joint, res.obs.order)
            digest.update(repr(fields).encode() + res.obs.batch_rows().tobytes())
            if res.done:
                obs = session.reset()
                digest.update(repr(obs.order).encode() + obs.batch_rows().tobytes())
        assert digest.hexdigest() == self.REPLAYS[env_name, limit]

    @pytest.mark.parametrize("env_name", list(WORLDS))
    def test_step_rejects_a_joint_action_off_the_roster_or_the_actions(self, env_name):
        world = WORLDS[env_name]
        rng = np.random.default_rng(0)
        state = world.reset(rng, [0, 1], EnvConfig.defaults(env_name))
        for joint in ({0: STAY}, {0: STAY, 1: STAY, 2: STAY}):
            with pytest.raises(ValueError, match="joint action covers"):
                world.step(state, joint, rng)
        for bad in (max(world.ACTIONS) + 1, -1):
            with pytest.raises(ValueError, match=f"invalid action {bad} for agent 1"):
                world.step(state, {0: STAY, 1: bad}, rng)
        world.step(state, {0: STAY, 1: max(world.ACTIONS)}, rng)


class TestReferenceForms:
    """The cheap env and teammate paths replay the reference forms bit for bit."""

    @staticmethod
    def rollout(env_name, openness, steps):
        session = make_session(EnvConfig.defaults(env_name), openness, 0)
        obs = session.reset()
        learner = np.random.default_rng(1)
        trace = []
        for _ in range(steps):
            res = session.step(int(learner.integers(0, session.action_count)))
            obs = session.reset() if res.done else res.obs
            trace.append(
                repr((sorted(res.joint_action.items()), res.reward, res.done, obs.order)).encode()
                + obs.batch_rows().tobytes()
            )
        return trace

    @pytest.mark.parametrize("env_name", ["wolfpack", "lbf"])
    @pytest.mark.parametrize("limit", [3, 5])
    def test_long_trajectories_match(self, env_name, limit, reference_forms):
        openness = default_config(env_name, "GPL-Q").openness_eval
        openness = replace(openness, team_limit=limit)
        _team_plans.cache_clear()
        fast = self.rollout(env_name, openness, 20_000)
        with pytest.MonkeyPatch.context() as mp:
            reference_forms.patch(mp)
            reference = self.rollout(env_name, openness, 20_000)
        first_diff = next((k for k, (a, b) in enumerate(zip(fast, reference)) if a != b), None)
        assert first_diff is None
        if env_name == "wolfpack":  # team-aware teammates shared cached plans
            assert _team_plans.cache_info().hits > 0

    def test_resolve_moves_matches_any_scan(self, reference_forms):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            width, height = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            cells = [(r, c) for r in range(height) for c in range(width)]
            picks = rng.permutation(len(cells))[: int(rng.integers(1, len(cells) + 1))]
            current = {k: cells[i] for k, i in enumerate(picks)}
            proposals = {
                k: (int(rng.integers(-1, height + 1)), int(rng.integers(-1, width + 1)))
                for k in current
                if rng.random() < 0.7
            }
            blocked = {cells[int(i)] for i in rng.integers(0, len(cells), 2)}
            args = (current, proposals, blocked, width, height)
            assert resolve_moves(*args) == reference_forms.resolve_moves(*args)
