import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from openteam.envs.base import DOWN, LEFT, LOAD, RIGHT, STAY, UP, neighbors4
from openteam.envs.foraging import FoodItem, LbfState
from openteam.envs.wolfpack import WolfState, add_agent, prey_act, remove_agent, wolf_step
from openteam.teammates import (
    LBF_TYPES,
    WOLF_TYPES,
    TeammateMemory,
    _team_plans,
    _wolf_team_aware,
    sample_memory,
    teammate_act,
    wolf_act,
    lbf_act,
)


def wolf_state(positions, prey, width=10, height=10):
    return WolfState(width, height, dict(positions), list(prey), 0, 200)


def lbf_state(positions, levels, objects, width=8, height=8):
    return LbfState(width, height, dict(positions), dict(levels), list(objects), 0, 50)


NO_MEM = TeammateMemory()
WIDE = TeammateMemory(window=7)


def action_histogram(fn, n=10_000, actions=5, seed=0):
    rng = np.random.default_rng(seed)
    counts = np.zeros(actions)
    for _ in range(n):
        counts[fn(rng)] += 1
    return counts


class TestWolfHeuristics:
    def test_random_type_uniform(self):
        state = wolf_state({1: (5, 5)}, [(2, 2), (8, 8)])
        counts = action_histogram(
            lambda rng: wolf_act("wolf.H1", state, 1, NO_MEM, rng)
        )
        assert stats.chisquare(counts).pvalue > 0.01

    def test_greedy_moves_along_larger_axis(self):
        state = wolf_state({1: (5, 5)}, [(5, 9)])
        assert wolf_act("wolf.H2", state, 1, NO_MEM, np.random.default_rng(0)) == RIGHT

    def test_greedy_parks_on_reached_destination(self):
        state = wolf_state({1: (5, 8)}, [(5, 9)])
        assert wolf_act("wolf.H2", state, 1, NO_MEM, np.random.default_rng(0)) == STAY

    def test_greedy_prefers_row_axis_when_larger(self):
        state = wolf_state({1: (1, 5)}, [(7, 6)])
        assert wolf_act("wolf.H2", state, 1, NO_MEM, np.random.default_rng(0)) == DOWN

    def test_probabilistic_axis_mixes_both_axes(self):
        state = wolf_state({1: (2, 2)}, [(6, 5)])
        seen = set()
        rng = np.random.default_rng(3)
        for _ in range(300):
            seen.add(wolf_act("wolf.H3", state, 1, NO_MEM, rng))
        assert DOWN in seen and RIGHT in seen

    def test_team_aware_avoids_claimed_cells(self):
        # Both hunters want cells near the same prey; plans must differ.
        state = wolf_state({1: (5, 3), 2: (5, 2)}, [(5, 5)])
        a1 = wolf_act("wolf.H4", state, 1, NO_MEM, np.random.default_rng(0))
        a2 = wolf_act("wolf.H4", state, 2, NO_MEM, np.random.default_rng(0))
        deltas = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1), STAY: (0, 0)}
        n1 = (5 + deltas[a1][0], 3 + deltas[a1][1])
        n2 = (5 + deltas[a2][0], 2 + deltas[a2][1])
        assert n1 != n2

    def test_waiting_inside_radius_is_uniform(self):
        mem = TeammateMemory(waiting_radius=4)
        state = wolf_state({1: (5, 5), 2: (0, 0)}, [(5, 7)])  # distance 2 <= 4
        counts = action_histogram(lambda rng: wolf_act("wolf.H7", state, 1, mem, rng))
        assert stats.chisquare(counts).pvalue > 0.01

    def test_waiting_released_when_teammate_near_prey(self):
        mem = TeammateMemory(waiting_radius=4)
        state = wolf_state({1: (5, 5), 2: (5, 8)}, [(5, 7)])  # teammate inside radius
        assert wolf_act("wolf.H7", state, 1, mem, np.random.default_rng(0)) == RIGHT

    def test_waiting_released_outside_radius(self):
        mem = TeammateMemory(waiting_radius=3)
        state = wolf_state({1: (0, 0)}, [(9, 9)])
        action = wolf_act("wolf.H7", state, 1, mem, np.random.default_rng(0))
        assert action in (DOWN, RIGHT)

    def test_unknown_type_rejected(self):
        state = wolf_state({1: (0, 0)}, [(9, 9)])
        with pytest.raises(ValueError):
            wolf_act("wolf.H5", state, 1, NO_MEM, np.random.default_rng(0))


class TestLbfHeuristics:
    def test_closest_object_rule_moves_right(self):
        state = lbf_state({1: (0, 0)}, {1: 2}, [FoodItem((0, 3), 1)])
        assert lbf_act("lbf.H6", state, 1, WIDE, np.random.default_rng(0)) == RIGHT

    def test_loads_when_adjacent(self):
        state = lbf_state({1: (0, 2)}, {1: 2}, [FoodItem((0, 3), 1)])
        assert lbf_act("lbf.H6", state, 1, WIDE, np.random.default_rng(0)) == LOAD

    def test_empty_window_uniform_for_every_type(self):
        narrow = TeammateMemory(window=3)
        state = lbf_state({1: (0, 0)}, {1: 2}, [FoodItem((7, 7), 1)])
        for type_id in LBF_TYPES:
            counts = action_histogram(
                lambda rng, t=type_id: lbf_act(t, state, 1, narrow, rng),
                n=6000,
                actions=6,
                seed=1,
            )
            assert stats.chisquare(counts).pvalue > 0.01, type_id

    def test_level_cap_rule_falls_back_to_uniform(self):
        state = lbf_state(
            {1: (4, 4)}, {1: 1}, [FoodItem((4, 5), 2), FoodItem((4, 3), 3)]
        )
        counts = action_histogram(
            lambda rng: lbf_act("lbf.H8", state, 1, WIDE, rng), n=6000, actions=6
        )
        assert stats.chisquare(counts).pvalue > 0.01

    def test_level_cap_rule_targets_closest_liftable(self):
        state = lbf_state(
            {1: (4, 4)}, {1: 2}, [FoodItem((4, 6), 2), FoodItem((4, 0), 1)]
        )
        assert lbf_act("lbf.H8", state, 1, WIDE, np.random.default_rng(0)) == RIGHT

    def test_below_own_level_preference(self):
        # picks the highest level strictly below its own, not the overall max
        state = lbf_state(
            {1: (4, 4)}, {1: 3}, [FoodItem((4, 6), 3), FoodItem((4, 1), 2)]
        )
        assert lbf_act("lbf.H3", state, 1, WIDE, np.random.default_rng(0)) == LEFT

    def test_farthest_object_rule(self):
        # both objects inside the 7x7 window; the farther one wins
        state = lbf_state(
            {1: (4, 4)}, {1: 1}, [FoodItem((4, 5), 1), FoodItem((4, 1), 1)]
        )
        assert lbf_act("lbf.H4", state, 1, WIDE, np.random.default_rng(0)) == LEFT

    def test_centroid_rule(self):
        state = lbf_state(
            {1: (4, 4), 2: (4, 1)},
            {1: 1, 2: 1},
            [FoodItem((4, 1), 1), FoodItem((4, 6), 1)],
        )
        # players centroid is (4, 2.5); the left object is closer to it
        assert lbf_act("lbf.H7", state, 1, WIDE, np.random.default_rng(0)) == LEFT

    def test_team_capacity_rule(self):
        state = lbf_state(
            {1: (4, 4), 2: (4, 2)},
            {1: 1, 2: 1},
            [FoodItem((4, 3), 3), FoodItem((0, 0), 2)],
        )
        # visible team level = 2: level-3 object ineligible, corner out of window
        mem = TeammateMemory(window=5)
        counts = action_histogram(
            lambda rng: lbf_act("lbf.H9", state, 1, mem, rng), n=6000, actions=6
        )
        assert stats.chisquare(counts).pvalue > 0.01

    def test_leader_following_without_teammates_uniform(self):
        state = lbf_state({1: (4, 4)}, {1: 1}, [FoodItem((4, 5), 1)])
        for type_id in ("lbf.H1", "lbf.H2"):
            counts = action_histogram(
                lambda rng, t=type_id: lbf_act(t, state, 1, WIDE, rng),
                n=6000,
                actions=6,
                seed=2,
            )
            assert stats.chisquare(counts).pvalue > 0.01, type_id

    def test_leader_following_tracks_inferred_target(self):
        # leader (level 3) infers target level 2 object; follower moves there
        state = lbf_state(
            {1: (4, 4), 2: (4, 6)},
            {1: 1, 2: 3},
            [FoodItem((2, 6), 2), FoodItem((6, 4), 3)],
        )
        action = lbf_act("lbf.H1", state, 1, WIDE, np.random.default_rng(0))
        assert action == UP  # toward (2, 6): rows first


class TestSharedProperties:
    def test_policies_pure_given_rng_state(self):
        wstate = wolf_state({1: (5, 5), 2: (1, 1)}, [(2, 2), (8, 8)])
        lstate = lbf_state(
            {1: (4, 4), 2: (2, 2)}, {1: 2, 2: 3}, [FoodItem((1, 5), 2), FoodItem((6, 1), 1)]
        )
        for type_id in WOLF_TYPES:
            mem = sample_memory(type_id, np.random.default_rng(0))
            a = teammate_act(type_id, wstate, 1, mem, np.random.default_rng(5))
            b = teammate_act(type_id, wstate, 1, mem, np.random.default_rng(5))
            assert a == b
        for type_id in LBF_TYPES:
            mem = sample_memory(type_id, np.random.default_rng(0))
            a = teammate_act(type_id, lstate, 1, mem, np.random.default_rng(5))
            b = teammate_act(type_id, lstate, 1, mem, np.random.default_rng(5))
            assert a == b

    def test_every_policy_emits_legal_actions(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            cells = [(int(rng.integers(0, 10)), int(rng.integers(0, 10))) for _ in range(20)]
            cells = list(dict.fromkeys(cells))
            wstate = wolf_state({1: cells[0], 2: cells[1]}, cells[2:4])
            for type_id in WOLF_TYPES:
                mem = sample_memory(type_id, rng)
                assert teammate_act(type_id, wstate, 1, mem, rng) in range(5)
            cells8 = [(r % 8, c % 8) for r, c in cells]
            cells8 = list(dict.fromkeys(cells8))
            lstate = lbf_state(
                {1: cells8[0], 2: cells8[1]},
                {1: int(rng.integers(1, 4)), 2: int(rng.integers(1, 4))},
                [FoodItem(cells8[4], int(rng.integers(1, 4)))],
            )
            for type_id in LBF_TYPES:
                mem = sample_memory(type_id, rng)
                assert teammate_act(type_id, lstate, 1, mem, rng) in range(6)

    def test_memory_sampled_within_documented_ranges(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mem = sample_memory("wolf.H7", rng)
            assert mem.waiting_radius in (3, 4, 5)
            mem = sample_memory("lbf.H3", rng)
            assert mem.window in (3, 5, 7)
        assert sample_memory("wolf.H2", rng).waiting_radius is None

    def test_entropy_fingerprint_separates_random_from_greedy(self):
        # 1k draws in one fixed scenario: the random type spreads over all
        # actions while the greedy type collapses to its preferred move.
        rng = np.random.default_rng(9)
        state = wolf_state({1: (5, 5), 2: (1, 1)}, [(2, 2), (8, 8)])
        counts = {"wolf.H1": np.zeros(5), "wolf.H2": np.zeros(5)}
        for _ in range(1000):
            for type_id in counts:
                counts[type_id][teammate_act(type_id, state, 1, NO_MEM, rng)] += 1

        def entropy(c):
            p = c / c.sum()
            p = p[p > 0]
            return float(-(p * np.log(p)).sum())

        assert entropy(counts["wolf.H1"]) - entropy(counts["wolf.H2"]) >= 0.5


@st.composite
def crowded_wolf_states(draw):
    """Small grids, so edge cells, blocked paths and unreachable goals are common."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(2 if width == 1 else 1, 6))
    cells = draw(st.permutations([(r, c) for r in range(height) for c in range(width)]))
    hunters = draw(st.integers(1, min(5, len(cells) - 1)))
    prey = draw(st.integers(1, min(3, len(cells) - hunters)))
    ids = draw(st.permutations(range(hunters)))
    return wolf_state(dict(zip(ids, cells)), cells[hunters : hunters + prey], width, height)


class TestReferenceForms:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(state=crowded_wolf_states(), seed=st.integers(0, 2**16))
    def test_wolf_policies_and_prey_match_reference(self, state, seed, reference_forms):
        for agent in state.positions:
            assert _wolf_team_aware(state, agent) == reference_forms.wolf_team_aware(state, agent)
        for cell in state.prey:
            assert neighbors4(cell, state.width, state.height) == tuple(
                reference_forms.neighbors4(cell, state.width, state.height)
            )
        for index in range(len(state.prey)):
            a = prey_act(state, index, np.random.default_rng(seed))
            b = reference_forms.prey_act(state, index, np.random.default_rng(seed))
            assert a == b
        for type_id in WOLF_TYPES:
            mem = TeammateMemory(waiting_radius=4)
            fast = [wolf_act(type_id, state, a, mem, np.random.default_rng(seed)) for a in state.positions]
            with pytest.MonkeyPatch.context() as mp:
                reference_forms.patch(mp)
                ref = [wolf_act(type_id, state, a, mem, np.random.default_rng(seed)) for a in state.positions]
            assert fast == ref

    def test_plan_cache_misses_after_roster_or_prey_change(self, reference_forms):
        # Prey 0 is trapped in the corner by hunters 1 and 2, so staying captures it.
        state = wolf_state({0: (5, 5), 1: (0, 1), 2: (1, 0)}, [(0, 0), (7, 7)])
        rng = np.random.default_rng(0)
        _team_plans.cache_clear()

        def plan_all(state):
            before = _team_plans.cache_info()
            for agent in state.positions:
                assert _wolf_team_aware(state, agent) == reference_forms.wolf_team_aware(state, agent)
            after = _team_plans.cache_info()
            return after.misses - before.misses, after.hits - before.hits

        assert plan_all(state) == (1, 2)
        add_agent(state, 3, rng)
        assert plan_all(state) == (1, 3)
        remove_agent(state, 1)
        assert plan_all(state) == (1, 2)
        state = wolf_state({0: (5, 5), 1: (0, 1), 2: (1, 0)}, [(0, 0), (7, 7)])  # the trap again
        assert plan_all(state) == (1, 2)
        new, _, _ = wolf_step(state, {0: STAY, 1: STAY, 2: STAY}, rng)
        assert new.prey[0] != (0, 0) and new.positions == state.positions  # respawned
        assert plan_all(new) == (1, 2)
