"""Platoon environment: observations, reward shape, termination, replay.

The steady-state reward constant is frozen from hand arithmetic: cruising at
15 m/s costs 291.8298 * 15 / 0.9 / 1000 = 4.86383 kW, and the power term is
the only nonzero one at the set point, so r = -10 * 4.86383 / 135 =
-0.3602837 per step.
"""

import math

import numpy as np
import pytest

from platoonrl.env import (
    ACTION_GAINS,
    N_ACTIONS,
    Perturbation,
    PlatoonEnv,
    RewardWeights,
    ScenarioConfig,
    compute_reward,
    obs_dim_for,
)
from platoonrl.errors import ConfigError
from platoonrl.ovm import headway_velocity, ovm_accel
from platoonrl.vehicle import MIN_SPACING, V_MAX, electric_power, step_kinematics

W = RewardWeights()
IA2C = obs_dim_for("ia2c")

EQ_REWARD = -0.3602837


def quiet_scenario(**overrides):
    """A jitter-free, perturbation-free scenario starting on the set point."""
    base = dict(
        n_vehicles=3,
        episode_steps=50,
        perturbation=None,
        init_spacing_jitter=0.0,
        init_velocity_jitter=0.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.n_vehicles == 4
        assert cfg.d_star == 20.0
        assert cfg.v_star == 15.0
        assert cfg.leader_mode == "virtual-target"

    def test_rejects_single_vehicle(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_vehicles=1)

    def test_rejects_oversized_platoon(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_vehicles=65)

    def test_rejects_bad_v_star(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(v_star=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(v_star=31.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(dt=0.0)

    def test_rejects_unknown_leader_mode(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(leader_mode="convoy")

    def test_rejects_wild_jitter(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(init_spacing_jitter=0.95)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(seed=-1)

    def test_perturbation_validation(self):
        with pytest.raises(ConfigError):
            Perturbation(depth=0.0)
        with pytest.raises(ConfigError):
            Perturbation(depth=1.2)
        assert Perturbation(depth=1.0).depth == 1.0

    def test_every_vehicle_but_a_replayed_leader_is_an_agent(self):
        assert ScenarioConfig(n_vehicles=4).n_agents == 4
        cfg = ScenarioConfig(n_vehicles=4, leader_mode="trace-replay")
        assert cfg.n_agents == 3
        env = PlatoonEnv(cfg, leader_profile=np.full(5, 15.0))
        assert env.n_agents == 3 and env.agents == slice(1, None)

    def test_leader_profile_only_with_trace_replay(self):
        # A virtual-target platoon follows its own leader car, so a trace
        # there would be ignored; a trace-replay platoon needs one.
        with pytest.raises(ConfigError, match="leader profile"):
            PlatoonEnv(ScenarioConfig(), leader_profile=np.full(5, 15.0))
        with pytest.raises(ConfigError, match="leader profile"):
            PlatoonEnv(ScenarioConfig(leader_mode="trace-replay"))

    def test_obs_dims(self):
        assert obs_dim_for("ia2c") == 15
        assert obs_dim_for("fprint") == 23
        with pytest.raises(ConfigError):
            obs_dim_for("full-state")


class TestComputeReward:
    def test_set_point_leaves_only_power_term(self):
        r = compute_reward(W, 20.0, 15.0, 0.0, 4.86383, 20.0, 15.0)
        assert r == pytest.approx(EQ_REWARD, abs=1e-6)

    def test_spacing_term(self):
        assert compute_reward(W, 18.0, 15.0, 0.0, 0.0, 20.0, 15.0) == pytest.approx(-4.0)

    def test_velocity_term(self):
        assert compute_reward(W, 20.0, 13.0, 0.0, 0.0, 20.0, 15.0) == pytest.approx(-4.0)

    def test_accel_term(self):
        assert compute_reward(W, 20.0, 15.0, 1.5, 0.0, 20.0, 15.0) == pytest.approx(-0.225)

    def test_safety_term_inactive_at_ten_meters(self):
        assert compute_reward(W, 10.0, 15.0, 0.0, 0.0, 20.0, 15.0) == pytest.approx(-100.0)

    def test_safety_term_active_below_ten_meters(self):
        # spacing -(8-20)^2 = -144 plus safety -5 * (10-8)^2 = -20
        assert compute_reward(W, 8.0, 15.0, 0.0, 0.0, 20.0, 15.0) == pytest.approx(-164.0)

    def test_regen_power_rewards(self):
        assert compute_reward(W, 20.0, 15.0, 0.0, -13.5, 20.0, 15.0) == pytest.approx(1.0)


class TestReset:
    def test_same_seed_reproduces_observations(self):
        env = PlatoonEnv(ScenarioConfig())
        a = env.reset(seed=9)
        b = env.reset(seed=9)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        env = PlatoonEnv(ScenarioConfig())
        a = env.reset(seed=1)
        b = env.reset(seed=2)
        assert not np.array_equal(a[:, :IA2C], b[:, :IA2C])

    def test_zero_jitter_starts_on_set_point(self):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        for row in env.vehicle_log_rows():
            assert row.spacing_m == 20.0
            assert row.velocity_mps == 15.0

    def test_observation_lengths(self):
        env = PlatoonEnv(ScenarioConfig())
        obs = env.reset()
        assert obs.shape == (4, 23)
        assert obs[:, :IA2C].shape == (4, 15)

    def test_platoon_ends_zero_padded(self):
        env = PlatoonEnv(quiet_scenario())
        obs = env.reset()
        first = obs[0, :IA2C]
        last = obs[-1, :IA2C]
        assert np.array_equal(first[5:10], np.zeros(5)), "no vehicle ahead of 0"
        assert np.array_equal(last[10:15], np.zeros(5))

    def test_fingerprints_start_uniform(self):
        env = PlatoonEnv(quiet_scenario())
        obs = env.reset()
        middle = obs[1]
        assert np.array_equal(middle[15:19], np.full(4, 0.25))
        assert np.array_equal(middle[19:23], np.full(4, 0.25))


class TestStep:
    def test_set_point_is_fixed(self):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        for _ in range(50):
            out = env.step([3, 3, 3])
            spacing, velocity = env.vehicle_values()[:2]
            assert np.all(spacing == 20.0)
            assert np.all(velocity == 15.0)
            for r in out.rewards:
                assert r == pytest.approx(EQ_REWARD, abs=1e-6)
        assert out.done and out.collisions == 0

    def test_all_gain_pairs_hold_the_set_point(self):
        for action in range(N_ACTIONS):
            env = PlatoonEnv(quiet_scenario(episode_steps=5))
            env.reset()
            env.step([action] * 3)
            assert np.all(env.vehicle_values()[0] == 20.0), f"action {action}"

    def test_episode_length_termination(self):
        env = PlatoonEnv(quiet_scenario(episode_steps=5))
        env.reset()
        for k in range(5):
            out = env.step([0, 0, 0])
            assert out.done == (k == 4)
        with pytest.raises(RuntimeError):
            env.step([0, 0, 0])

    def test_perturbation_dip_shape(self):
        # leader target: flat until t=1 s, floor 7.5 m/s at t=2 s, flat
        # again from t=3 s; agents coast (action 0) so their own velocity
        # stays 15 and the observed velocity gap traces the dip
        cfg = quiet_scenario(
            n_vehicles=2,
            episode_steps=40,
            perturbation=Perturbation(start_s=1.0, depth=0.5, duration_s=2.0),
        )
        env = PlatoonEnv(cfg)
        obs = env.reset()
        gaps = {0: obs[0, 1]}
        for k in range(1, 36):
            obs = env.step([0, 0]).observations
            gaps[k] = obs[0, 1]
        assert gaps[0] == 0.0
        assert gaps[10] == pytest.approx(0.0, abs=1e-12), "dip starts at 1 s"
        assert gaps[15] == pytest.approx(-0.75, abs=1e-12), "halfway down"
        assert gaps[20] == pytest.approx(-1.5, abs=1e-12), "floor at 2 s"
        assert gaps[25] == pytest.approx(-0.75, abs=1e-12), "halfway back"
        assert gaps[30] == pytest.approx(0.0, abs=1e-12), "recovered at 3 s"

    def test_trace_replay_follows_profile_exactly(self):
        profile = np.array([15.0, 12.0, 12.0, 9.0, 15.0])
        cfg = quiet_scenario(n_vehicles=2, leader_mode="trace-replay", episode_steps=8)
        env = PlatoonEnv(cfg, leader_profile=profile)
        env.reset()
        assert env.agents == slice(1, None)
        seen_v, seen_u = [], []
        for _ in range(6):
            env.step([0])
            row = env.vehicle_log_rows()[0]
            seen_v.append(row.velocity_mps)
            seen_u.append(row.accel_mps2)
            assert math.isnan(row.spacing_m)
            assert math.isnan(row.reward)
        assert seen_v == [12.0, 12.0, 9.0, 15.0, 15.0, 15.0], "holds last sample"
        assert seen_u[0] == pytest.approx(-30.0), "trace accel is not actuator-limited"
        assert seen_u[4] == 0.0

    def test_trace_requires_profile(self):
        with pytest.raises(ConfigError):
            PlatoonEnv(quiet_scenario(leader_mode="trace-replay"))

    def test_hard_braking_leader_causes_collision(self):
        profile = np.zeros(100)
        profile[0] = 15.0
        cfg = quiet_scenario(n_vehicles=2, leader_mode="trace-replay", episode_steps=99)
        env = PlatoonEnv(cfg, leader_profile=profile)
        env.reset()
        for k in range(99):
            out = env.step([0])
            if out.collisions:
                break
        assert out.collisions == 1 and out.done
        assert out.rewards[0] < -1000.0
        assert env.vehicle_values()[0, env.agents][0] <= 1.0
        with pytest.raises(RuntimeError):
            env.step([0])

    def test_action_validation(self):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        with pytest.raises(ValueError):
            env.step([0, 0])
        with pytest.raises(ValueError):
            env.step([0, 0, 4])
        with pytest.raises(ValueError):
            env.step([0, 0, -1])

    @pytest.mark.parametrize(
        "actions",
        [
            [1.5, 0, 0],
            [True, False, False],
            np.array([2.9, 0.0, 0.0]),
            np.zeros((3, 1), dtype=int),
            [[0, 1], [0, 1], [0, 1]],
        ],
        ids=["float-list", "bools", "float-array", "column", "pairs"],
    )
    def test_actions_must_be_one_integer_vector(self, actions):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        before = env.vehicle_values()
        with pytest.raises(ValueError, match=r"^expected 3 integer actions in \[0, 4\)") as err:
            env.step(actions)
        assert "\n" not in str(err.value)
        assert np.array_equal(env.vehicle_values(), before, equal_nan=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("row", [0, 1, 2], ids=["spacing", "velocity", "accel"])
    def test_non_finite_agent_state_raises_before_any_write(self, row, bad):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        good = env._values[row, 1]
        env._values[row, 1] = bad
        before = env.vehicle_values()
        with pytest.raises(ValueError, match="finite agent state"):
            env.step([0, 0, 0], fingerprints=np.eye(3, N_ACTIONS))
        assert np.array_equal(env.vehicle_values(), before, equal_nan=True)
        assert np.array_equal(env._fingerprint_slot, np.full((3, N_ACTIONS), 1.0 / N_ACTIONS))
        # The step index did not move: restored, the episode runs its length.
        env._values[row, 1] = good
        steps = 1
        while not env.step([0, 0, 0]).done:
            steps += 1
        assert steps == env.cfg.episode_steps

    def test_fingerprints_appear_in_neighbor_observations(self):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        fps = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        obs = env.step([0, 0, 0], fingerprints=fps).observations
        middle = obs[1]
        assert np.array_equal(middle[15:19], fps[0]), "front neighbor's policy"
        assert np.array_equal(middle[19:23], fps[2]), "rear neighbor's policy"
        first = obs[0]
        assert np.array_equal(first[15:19], np.zeros(4)), "no agent ahead"
        assert np.array_equal(first[19:23], fps[1])

    def test_fingerprints_persist_until_replaced_or_reset(self):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        fps = np.array([
            [0.1, 0.2, 0.3, 0.4],
            [0.4, 0.3, 0.2, 0.1],
            [0.7, 0.1, 0.1, 0.1],
        ])
        env.step([0, 0, 0], fingerprints=fps)
        for _ in range(2):
            middle = env.step([0, 0, 0]).observations[1]
            assert np.array_equal(middle[15:19], fps[0])
            assert np.array_equal(middle[19:23], fps[2])
        fps[...] = 0.0  # the environment keeps its own copy
        middle = env.step([0, 0, 0]).observations[1]
        assert np.array_equal(middle[15:19], [0.1, 0.2, 0.3, 0.4])
        middle = env.reset()[1]
        assert np.array_equal(middle[15:23], np.full(8, 0.25))
        middle = env.step([0, 0, 0]).observations[1]
        assert np.array_equal(middle[15:23], np.full(8, 0.25))

    @pytest.mark.parametrize("replay", [False, True], ids=["virtual-target", "trace-replay"])
    def test_returned_arrays_outlive_later_steps(self, replay):
        # step reuses buffers between calls; nothing it handed out may
        # change when later steps, or a new episode, run.
        profile = np.linspace(15.0, 10.0, 40) if replay else None
        cfg = ScenarioConfig(
            n_vehicles=4,
            episode_steps=30,
            leader_mode="trace-replay" if replay else "virtual-target",
        )
        env = PlatoonEnv(cfg, leader_profile=profile)
        rng = np.random.default_rng(0)

        def step():
            fps = rng.dirichlet(np.ones(N_ACTIONS), env.n_agents)
            return env.step(rng.integers(0, N_ACTIONS, env.n_agents), fps)

        handed_out = [env.reset(seed=0), env.vehicle_values()]
        for _ in range(3):
            out = step()
            handed_out += [out.observations, out.rewards, env.vehicle_values()]
        copies = [x.copy() for x in handed_out]
        for _ in range(5):
            step()
        env.reset(seed=1)
        step()
        for x, before in zip(handed_out, copies):
            assert np.array_equal(x, before, equal_nan=True)

    def test_fingerprint_shape_validation(self):
        env = PlatoonEnv(quiet_scenario())
        env.reset()
        with pytest.raises(ValueError):
            env.step([0, 0, 0], fingerprints=np.ones((2, 4)))

    def test_observation_components_stay_bounded(self):
        # a violent leader trace plus random gain switching: the velocity
        # gap, headway gap, and accel components must respect their clips
        rng = np.random.default_rng(0)
        profile = rng.uniform(0.0, 30.0, size=60)
        cfg = ScenarioConfig(
            n_vehicles=3,
            leader_mode="trace-replay",
            episode_steps=59,
            perturbation=None,
        )
        env = PlatoonEnv(cfg, leader_profile=profile)
        obs = env.reset()
        for _ in range(59):
            for vec in obs[:, :IA2C]:
                for block in (vec[0:5], vec[5:10], vec[10:15]):
                    assert -2.0 <= block[1] <= 2.0
                    assert -2.0 <= block[2] <= 2.0
                    assert -1.0 <= block[4] <= 1.0
            out = env.step(list(rng.integers(0, N_ACTIONS, size=2)))
            obs = out.observations
            if out.done:
                break

    def test_action_gain_table(self):
        assert ACTION_GAINS == ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


class TestBeforeReset:
    @pytest.mark.parametrize(
        "method, args",
        [("vehicle_values", ()), ("vehicle_log_rows", ()), ("step", ([0, 0, 0],))],
    )
    def test_platoon_calls_before_the_first_reset_raise(self, method, args):
        env = PlatoonEnv(quiet_scenario())
        with pytest.raises(RuntimeError, match=r"reset\(\) first"):
            getattr(env, method)(*args)
        env.reset()
        getattr(env, method)(*args)

    @pytest.mark.parametrize("replay", [False, True], ids=["virtual-target", "trace-replay"])
    def test_set_state_starts_an_episode_without_reset(self, replay):
        # reset is set_state on its seeded draw: the same rows given to a
        # fresh environment start the same episode, bit for bit.
        cfg, profile = scenario_and_profile(replay)
        seeded, env = (PlatoonEnv(cfg, leader_profile=profile) for _ in range(2))
        obs = seeded.reset(seed=7)
        start = seeded.vehicle_values()
        uniform = np.full((env.n_agents, N_ACTIONS), 1.0 / N_ACTIONS)
        got = env.set_state(start[0], start[1], start[2], start[1], uniform, 0)
        assert got.tobytes() == obs.tobytes()
        assert env.vehicle_values().tobytes() == start.tobytes()
        rng = np.random.default_rng(7)
        for _ in range(cfg.episode_steps):
            actions = rng.integers(0, N_ACTIONS, env.n_agents)
            fps = rng.dirichlet(np.ones(N_ACTIONS), env.n_agents)
            want, out = seeded.step(actions, fps), env.step(actions, fps)
            assert out.observations.tobytes() == want.observations.tobytes()
            assert env.vehicle_values().tobytes() == seeded.vehicle_values().tobytes()
            assert out.done == want.done
            if out.done:
                break


def oracle_headway_entry(env, values):
    """Each agent's observed headway-velocity error from the public law on
    the gaps of values: (v_h(d) - v) / 5, clipped to [-2, 2]."""
    gaps, v = values[0, env.agents], values[1, env.agents]
    return np.clip((headway_velocity(env.ovm, gaps) - v) / 5.0, -2.0, 2.0)


def oracle_step(env, before, actions, k):
    """The checked public laws on the state before step k: the command from
    ovm_accel under each agent's gain pair, the new spacing and velocity
    from step_kinematics, every vehicle's power from electric_power, and
    the agents' rewards from compute_reward less the collision penalty."""
    a, dt = env.agents, env.cfg.dt
    spacing, velocity = before[0, a], before[1, a]
    lead_v, lead_v_next = env.leader_velocities()[k : k + 2]
    lead_u = (lead_v_next - lead_v) / dt
    alpha, beta = np.array(ACTION_GAINS)[actions].T
    ahead = np.concatenate(([lead_v], velocity[:-1]))
    u_cmd = ovm_accel(env.ovm, spacing, velocity, ahead, alpha, beta)
    d, v, u = step_kinematics(spacing, velocity, lead_v, lead_u, u_cmd, dt)
    values = np.full_like(before, math.nan)
    values[:3, a] = d, v, u
    if a.start:
        values[1:3, 0] = lead_v_next, lead_u
    values[3] = electric_power(env.vehicle, values[1], values[2])
    crashed = d <= MIN_SPACING
    values[4, a] = compute_reward(
        env.reward, d, v, u, values[3, a], env.cfg.d_star, env.cfg.v_star
    ) - env.reward.collision_penalty * crashed
    return values, int(np.count_nonzero(crashed))


class TestInPlaceStepOracle:
    """Each in-place step against the checked public laws, bit for bit,
    over whole seeded episodes: the platoon's values, the rewards and the
    observations' headway entries."""

    def run_episode(self, env, seed, fprint):
        rng = np.random.default_rng(seed)
        obs = env.reset(seed=seed)
        assert obs[:, 2].tobytes() == oracle_headway_entry(env, env.vehicle_values()).tobytes()
        state = env._values
        velocities = []
        for k in range(env.cfg.episode_steps):
            actions = rng.integers(0, N_ACTIONS, env.n_agents)
            fps = rng.dirichlet(np.ones(N_ACTIONS), env.n_agents) if fprint else None
            want, collisions = oracle_step(env, env.vehicle_values(), actions, k)
            out = env.step(actions, fps)
            got = env.vehicle_values()
            assert got.tobytes() == want.tobytes(), k
            assert out.rewards.tobytes() == want[4, env.agents].tobytes(), k
            headway = oracle_headway_entry(env, want)
            assert out.observations[:, 2].tobytes() == headway.tobytes(), k
            assert out.collisions == collisions, k
            assert env._values is state
            velocities.append(got[1])
            if out.done:
                break
        env.reset(seed=seed + 1)
        assert env._values is state
        return np.array(velocities), out

    def test_four_vehicles_into_a_collision(self):
        env = PlatoonEnv(ScenarioConfig(n_vehicles=4))
        velocities, out = self.run_episode(env, seed=2, fprint=False)
        assert out.collisions and out.done and len(velocities) < env.cfg.episode_steps

    def test_sixteen_vehicle_trace_replay(self):
        profile = 15.0 + 2.0 * np.sin(np.arange(700) * 0.01)
        cfg = ScenarioConfig(n_vehicles=16, leader_mode="trace-replay")
        env = PlatoonEnv(cfg, leader_profile=profile)
        velocities, _ = self.run_episode(env, seed=3, fprint=True)
        assert len(velocities) > 100

    def test_velocity_clip(self):
        # The replayed leader pulls away at 40 m/s, so the first follower's
        # velocity clip binds at 30 m/s, then stops dead.
        profile = np.concatenate([np.full(30, 15.0), np.full(100, 40.0), np.zeros(600)])
        cfg = ScenarioConfig(n_vehicles=5, leader_mode="trace-replay")
        env = PlatoonEnv(cfg, leader_profile=profile)
        velocities, _ = self.run_episode(env, seed=4, fprint=False)
        assert (velocities[:, 1] == V_MAX).any()


def scenario_and_profile(replay):
    """A 4-vehicle, 30-step scenario; replayed, behind a 12-sample trace
    that holds its last sample for the rest of the episode."""
    profile = np.linspace(15.0, 12.0, 12) if replay else None
    leader_mode = "trace-replay" if replay else "virtual-target"
    return ScenarioConfig(n_vehicles=4, episode_steps=30, leader_mode=leader_mode), profile


def given_state(env, seed=0):
    """A valid set_state argument tuple for env at step 3: random rows
    near the set point and random fingerprints."""
    rng = np.random.default_rng(seed)
    n = env.n_vehicles
    spacing = rng.uniform(15.0, 25.0, n)
    velocity = rng.uniform(10.0, 20.0, n)
    accel = rng.uniform(-1.0, 1.0, n)
    v0 = rng.uniform(10.0, 20.0, n)
    fps = rng.dirichlet(np.ones(N_ACTIONS), env.n_agents)
    return spacing, velocity, accel, v0, fps, 3


def edit(index, change):
    """An edit of set_state's argument list that changes one argument."""
    return lambda args: [change(x) if i == index else x for i, x in enumerate(args)]


def poke(index, column, bad):
    """An edit that puts bad into one column of one row argument."""
    return edit(index, lambda x: np.where(np.arange(x.size) == column, bad, x))


# Each input set_state rejects, as an edit of a valid argument list:
# (spacing, velocity, accel, v0, fingerprints, step).
BAD_STATES = {
    "short-spacing": edit(0, lambda x: x[:-1]),
    "long-rows": lambda args: [np.append(x, 15.0) for x in args[:4]] + args[4:],
    "column-velocity": edit(1, lambda x: x[:, None]),
    "fingerprint-rows": edit(4, lambda x: x[:-1]),
    "fingerprint-columns": edit(4, lambda x: x[:, :-1]),
    "nan-spacing": poke(0, 2, math.nan),
    "inf-velocity": poke(1, 3, math.inf),
    "nan-accel": poke(2, 1, math.nan),
    "nan-v0": poke(3, 2, math.nan),
    "inf-v0": poke(3, 2, math.inf),
    "zero-v0": poke(3, 1, 0.0),
    "negative-v0": poke(3, 3, -15.0),
    "negative-step": edit(5, lambda k: -1),
    "step-at-episode-end": edit(5, lambda k: 30),
    "fractional-step": edit(5, lambda k: 2.5),
}


class TestSetState:
    @pytest.mark.parametrize("replay", [False, True], ids=["virtual-target", "trace-replay"])
    @pytest.mark.parametrize("defect", BAD_STATES)
    def test_rejected_input_raises_before_any_write(self, defect, replay):
        # Two environments in one state; the one whose set_state fails must
        # go on exactly as the other: same values, same next observations.
        cfg, profile = scenario_and_profile(replay)
        env, twin = (PlatoonEnv(cfg, leader_profile=profile) for _ in range(2))
        rng = np.random.default_rng(1)
        actions = rng.integers(0, N_ACTIONS, env.n_agents)
        fps = rng.dirichlet(np.ones(N_ACTIONS), env.n_agents)
        for e in (env, twin):
            e.reset(seed=5)
            e.step(actions, fps)
        args = BAD_STATES[defect](list(given_state(env)))
        with pytest.raises(ValueError):
            env.set_state(*args)
        assert env.vehicle_values().tobytes() == twin.vehicle_values().tobytes()
        for _ in range(3):
            out, want = env.step(actions), twin.step(actions)
            assert out.observations.tobytes() == want.observations.tobytes()
            assert env.vehicle_values().tobytes() == twin.vehicle_values().tobytes()

    def test_replayed_leader_takes_the_trace(self):
        # Whatever is passed in for the leader: a nan gap and the trace's
        # velocity at the step, past the trace's end its last sample.
        cfg, profile = scenario_and_profile(replay=True)
        env = PlatoonEnv(cfg, leader_profile=profile)
        spacing, velocity, accel, v0, fps, _ = given_state(env)
        spacing[0], velocity[0], v0[0] = 3.0, 99.0, -1.0
        for k in (0, 5, 11, 20, 29):
            obs = env.set_state(spacing, velocity, accel, v0, fps, k)
            values = env.vehicle_values()
            assert math.isnan(values[0, 0])
            assert values[1, 0] == profile[min(k, profile.size - 1)]
            assert values[1, 0] == env.leader_velocities()[k]
            # The first agent's velocity error to its predecessor is to the trace.
            assert obs[0, 1] == np.clip((values[1, 0] - velocity[1]) / 5.0, -2.0, 2.0)
        assert np.array_equal(values[1:3, 1:], [velocity[1:], accel[1:]])

    @pytest.mark.parametrize("replay", [False, True], ids=["virtual-target", "trace-replay"])
    def test_power_row_is_electric_power_of_the_given_rows(self, replay):
        cfg, profile = scenario_and_profile(replay)
        env = PlatoonEnv(cfg, leader_profile=profile)
        args = given_state(env, seed=2)
        env.set_state(*args)
        values = env.vehicle_values()
        assert np.array_equal(values[3], electric_power(env.vehicle, values[1], values[2]))
        assert np.isnan(values[4]).all()
        assert np.array_equal(values[2], args[2])

    def test_state_is_copied_and_the_episode_ends_on_schedule(self):
        cfg, _ = scenario_and_profile(replay=False)
        env, twin = PlatoonEnv(cfg), PlatoonEnv(cfg)
        args = given_state(env, seed=3)
        last = cfg.episode_steps - 1
        twin.set_state(*given_state(env, seed=3)[:5], last - 1)
        env.set_state(*args[:5], last - 1)
        for x in args[:5]:
            x[...] = 1.0
        for done in (False, True):
            out, want = env.step([3] * 4), twin.step([3] * 4)
            assert out.observations.tobytes() == want.observations.tobytes()
            assert env.vehicle_values().tobytes() == twin.vehicle_values().tobytes()
            assert out.done == want.done == done
