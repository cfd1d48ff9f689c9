"""The array-shaped PlatoonEnv against the per-vehicle reference step.

From the same state, one step of each must give bit-equal observations,
spacing, velocity, acceleration, power, done flags and collision counts,
and so must every step of whole episodes run side by side, which also
checks what the environment carries from one step to the next.
Rewards may differ in the last bits: the reference squares with ``x ** 2``
(libm ``pow``), the environment by multiplication.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonrl.env import N_ACTIONS, Perturbation, PlatoonEnv, ScenarioConfig
from platoonrl.ovm import OvmParams, headway_velocity, ovm_accel
from platoonrl.vehicle import U_MAX, U_MIN, V_MAX, V_MIN, step_kinematics

import reference_env as ref_mod
from reference_env import ReferenceEnv

EPISODE_STEPS = 600
DIP = Perturbation(start_s=2.0, depth=0.5, duration_s=4.0)


def scenario(n: int, replay: bool, perturbation: Perturbation | None = DIP) -> ScenarioConfig:
    return ScenarioConfig(
        n_vehicles=n,
        episode_steps=EPISODE_STEPS,
        leader_mode="trace-replay" if replay else "virtual-target",
        perturbation=perturbation,
    )


def step_both(
    n, profile, spacing, velocity, accel, v0, fingerprints, k, actions, step_fps,
    perturbation=DIP,
):
    """Put both environments in one state, step each once, compare."""
    cfg = scenario(n, profile is not None, perturbation)
    spacing = np.array(spacing, dtype=float)
    velocity = np.array(velocity, dtype=float)
    if profile is not None:
        # A replayed leader has no gap and drives at the trace sample.
        spacing[0] = math.nan
        velocity[0] = profile[min(k, profile.size - 1)]
    env = PlatoonEnv(cfg, leader_profile=profile)
    obs = env.set_state(spacing, velocity, accel, v0, fingerprints, k)
    ref = ReferenceEnv(cfg, leader_profile=profile)
    ref.set_state(spacing, velocity, accel, v0, fingerprints, k)

    assert np.array_equal(obs, ref.observations())
    out = env.step(actions, step_fps)
    want = ref.step(actions, step_fps)

    assert np.array_equal(out.observations, want.observations)
    got = env.vehicle_values()
    for row, field in enumerate(("spacing_m", "velocity_mps", "accel_mps2")):
        expected = np.array([getattr(s, field) for s in want.states])
        assert np.array_equal(got[row], expected, equal_nan=True), field
    assert np.array_equal(got[3], want.power_kw)
    assert out.done == want.done
    assert out.collisions == want.collisions
    np.testing.assert_allclose(out.rewards, want.rewards, rtol=1e-12, atol=1e-12)
    return out, got


gaps = st.one_of(
    st.floats(1.0, 4.99),  # below d_stop
    st.floats(5.0, 35.0),
    st.floats(35.01, 60.0),  # above d_go
    st.sampled_from([5.0, 35.0]),
)
speeds = st.one_of(
    st.floats(0.0, 30.0),
    st.floats(30.0, 33.0),  # v_star = 30 with 10 % jitter starts above V_MAX
    st.floats(0.0, 0.2),  # a raw braking command reaches the lower clip
    st.floats(29.8, 30.0),  # a fast leader pulls past the upper clip
    st.sampled_from([0.0, 30.0]),
)


@st.composite
def platoon_states(draw):
    n = draw(st.integers(2, 16))
    replay = draw(st.booleans())
    profile = None
    if replay:
        length = draw(st.integers(2, 40))
        profile = np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=length, max_size=length)))
    n_agents = n - 1 if replay else n
    vec = lambda s: draw(st.lists(s, min_size=n, max_size=n))  # noqa: E731
    spacing = vec(gaps)
    velocity = vec(speeds)
    accel = vec(st.floats(-2.5, 2.5))
    v0 = vec(st.floats(1.0, 30.0))
    k = draw(st.integers(0, EPISODE_STEPS - 1))
    actions = draw(st.lists(st.integers(0, N_ACTIONS - 1), min_size=n_agents, max_size=n_agents))

    def policies():
        raw = np.array(draw(st.lists(
            st.floats(0.01, 1.0), min_size=n_agents * N_ACTIONS, max_size=n_agents * N_ACTIONS
        ))).reshape(n_agents, N_ACTIONS)
        return raw / raw.sum(axis=1, keepdims=True)

    fingerprints = policies() if draw(st.booleans()) else np.full((n_agents, N_ACTIONS), 0.25)
    step_fps = policies() if draw(st.booleans()) else None
    return n, profile, spacing, velocity, accel, v0, fingerprints, k, actions, step_fps


@settings(max_examples=400)
@given(state=platoon_states())
def test_step_matches_reference(state):
    step_both(*state)


def uniform(n_agents):
    return np.full((n_agents, N_ACTIONS), 0.25)


def test_upper_velocity_clip_behind_fast_leader():
    # Vehicle 1 speeds into 30 m/s behind a replayed leader at 40 m/s.
    # Gain commands cannot reach the lower clip from a valid state (they
    # never brake harder than v / dt); test_kinematics_matches_reference
    # covers it with raw commands.
    out, got = step_both(
        3, np.array([40.0, 40.0, 40.0]), [0.0, 60.0, 3.0], [40.0, 29.95, 0.0], [0.0] * 3,
        [15.0] * 3, uniform(2), 0, [3, 0], None,
    )
    assert got[1][1] == 30.0 and got[1][2] == 0.0
    assert not out.collisions


def test_zero_command_coasts():
    _, got = step_both(
        2, None, [20.0, 20.0], [14.0, 16.0], [1.0, -1.0], [15.0] * 2,
        uniform(2), 5, [0, 0], None,
    )
    assert np.array_equal(got[2], [0.0, 0.0])


def test_collision_in_replay_mode_with_fingerprints():
    rng = np.random.default_rng(1)
    fps = rng.dirichlet(np.ones(N_ACTIONS), size=3)
    out, got = step_both(
        4, np.array([5.0, 0.0, 0.0]), [0.0, 1.02, 20.0, 20.0], [0.0, 10.0, 15.0, 15.0],
        [0.0] * 4, [15.0] * 4, uniform(3), 1, [0, 1, 2], fps,
    )
    assert out.collisions and out.done
    assert math.isnan(got[0][0]) and math.isnan(got[4][0])


@pytest.mark.parametrize("k", [0, 25, 40, 599])
def test_perturbation_and_episode_end(k):
    out, _ = step_both(
        4, None, [20.0] * 4, [15.0] * 4, [0.0] * 4, [15.0] * 4, uniform(4), k, [3] * 4, None,
    )
    assert out.done == (k == EPISODE_STEPS - 1)


# Virtual-target leaders for the leader-sequence cases: none, the default
# dip, and a dip that is still under way when the episode ends.
LEADERS = {
    "none": None,
    "default": Perturbation(),
    "past-end": Perturbation(start_s=56.5, depth=0.35, duration_s=6.0),
}


def dip_steps(perturbation):
    """The steps (dt = 0.1 s) at the dip's start, midpoint and end, each
    capped at the episode's last step, and the last step itself. With no
    dip, the default dip's steps."""
    pert = perturbation or Perturbation()
    times = (pert.start_s, pert.start_s + pert.duration_s / 2.0, pert.start_s + pert.duration_s)
    last = EPISODE_STEPS - 1
    return sorted({*(min(round(t / 0.1), last) for t in times), last})


@pytest.mark.parametrize("leader", LEADERS)
def test_leader_sequence_matches_reference(leader):
    cfg = scenario(4, False, LEADERS[leader])
    env, ref = PlatoonEnv(cfg), ReferenceEnv(cfg)
    leader = env.leader_velocities()
    assert leader.shape == (EPISODE_STEPS + 1,)
    for k in range(EPISODE_STEPS + 1):
        assert leader[k] == ref._leader_velocity(k), k


@pytest.mark.parametrize(
    "leader, k", [(name, k) for name, pert in LEADERS.items() for k in dip_steps(pert)]
)
def test_virtual_leader_dip_steps(leader, k):
    out, _ = step_both(
        4, None, [20.0] * 4, [15.0] * 4, [0.0] * 4, [15.0] * 4, uniform(4), k, [3] * 4, None,
        perturbation=LEADERS[leader],
    )
    assert out.done == (k == EPISODE_STEPS - 1)


@settings(max_examples=300)
@given(
    rows=st.lists(
        st.tuples(gaps, speeds, st.one_of(st.floats(-10.0, 10.0), st.just(0.0))),
        min_size=1,
        max_size=16,
    ),
    v_prev=speeds,
    u_prev=st.floats(-30.0, 30.0),
)
def test_kinematics_matches_reference(rows, v_prev, u_prev):
    """A platoon step of step_kinematics equals the scalar reference run
    front to back, for raw commands that hit both velocity clips."""
    d, v, u_cmd = (np.array(col) for col in zip(*rows))
    dt = 0.1
    spacing, velocity, accel = step_kinematics(d, v, v_prev, u_prev, u_cmd, dt)
    for i in range(len(rows)):
        want = ref_mod.step_kinematics(
            ref_mod.VehicleState(d[i], v[i], 0.0), v_prev, u_prev, u_cmd[i], dt
        )
        assert spacing[i] == want.spacing_m
        assert velocity[i] == want.velocity_mps
        assert accel[i] == want.accel_mps2
        v_prev, u_prev = v[i], (want.velocity_mps - v[i]) / dt


@settings(max_examples=300)
@given(
    rows=st.lists(st.tuples(gaps, speeds, speeds, st.integers(0, N_ACTIONS - 1)), min_size=1, max_size=16)
)
def test_ovm_law_matches_reference(rows):
    d, v, v_prev, acts = (np.array(col) for col in zip(*rows))
    gains = np.array([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])[acts]
    got_vh = headway_velocity(OvmParams(), d)
    got_u = ovm_accel(OvmParams(), d, v, v_prev, gains[:, 0], gains[:, 1])
    for i in range(len(rows)):
        assert got_vh[i] == ref_mod.headway_velocity(OvmParams(), d[i])
        assert got_u[i] == ref_mod.ovm_accel(OvmParams(), d[i], v[i], v_prev[i], *gains[i])


def side_by_side(cfg, profile, seed, fprint):
    """Run one whole episode of PlatoonEnv and of ReferenceEnv from the same
    reset state on the same random actions, comparing every step as
    step_both does. Returns the velocity rows of the steps and the last
    outcome."""
    env = PlatoonEnv(cfg, leader_profile=profile)
    obs = env.reset(seed=seed)
    start = env.vehicle_values()
    n_agents = env.n_agents
    ref = ReferenceEnv(cfg, leader_profile=profile)
    ref.set_state(start[0], start[1], start[2], start[1], uniform(n_agents), 0)
    assert np.array_equal(obs, ref.observations())
    rng = np.random.default_rng(seed)
    velocities = []
    for k in range(cfg.episode_steps):
        actions = rng.integers(0, N_ACTIONS, n_agents)
        fps = rng.dirichlet(np.ones(N_ACTIONS), n_agents) if fprint else None
        out = env.step(actions, fps)
        want = ref.step(actions, fps)
        assert np.array_equal(out.observations, want.observations), k
        got = env.vehicle_values()
        for row, field in enumerate(("spacing_m", "velocity_mps", "accel_mps2")):
            expected = np.array([getattr(s, field) for s in want.states])
            assert np.array_equal(got[row], expected, equal_nan=True), (k, field)
        assert np.array_equal(got[3], want.power_kw), k
        np.testing.assert_allclose(out.rewards, want.rewards, rtol=1e-12, atol=1e-12)
        assert (out.done, out.collisions) == (want.done, want.collisions), k
        velocities.append(got[1])
        if out.done:
            break
    return np.array(velocities), out


def test_whole_episode_matches_reference_virtual_target():
    cfg = ScenarioConfig(n_vehicles=4, episode_steps=EPISODE_STEPS, perturbation=Perturbation())
    velocities, _ = side_by_side(cfg, None, seed=3, fprint=False)
    assert len(velocities) > EPISODE_STEPS // 2


def test_whole_episode_matches_reference_trace_replay():
    # The replayed leader pulls away at 40 m/s, so the first follower's
    # velocity clip binds at 30 m/s, then stops dead, and the platoon runs
    # into it.
    profile = np.concatenate([np.full(30, 15.0), np.full(100, 40.0), np.zeros(EPISODE_STEPS)])
    cfg = scenario(16, replay=True)
    velocities, out = side_by_side(cfg, profile, seed=4, fprint=True)
    assert (velocities[:, 1] == V_MAX).any()
    assert out.collisions and len(velocities) < EPISODE_STEPS


def test_whole_episode_matches_reference_at_the_size_cap():
    cfg = ScenarioConfig(n_vehicles=64, episode_steps=300, perturbation=Perturbation(start_s=5.0))
    velocities, out = side_by_side(cfg, None, seed=5, fprint=True)
    assert len(velocities) == 300 or out.collisions


def exact_start(v_end, u, dt=0.1):
    """A start velocity from which u over dt ends exactly at v_end."""
    v = v_end - u * dt
    assert v + u * dt == v_end
    return v


AT_ZERO = (exact_start(V_MIN, U_MIN), U_MIN)
AT_TOP = (exact_start(V_MAX, U_MAX), U_MAX)


@pytest.mark.parametrize(
    "platoon",
    [
        [AT_ZERO, AT_TOP, (15.0, 1.0)],
        [AT_ZERO, AT_TOP, (29.9, 2.5)],
        [AT_TOP, (0.1, -2.5), AT_ZERO],
    ],
    ids=["bounds-reached", "upper-clip-binds", "lower-clip-binds"],
)
def test_travel_ending_exactly_on_a_velocity_bound(platoon):
    """Velocities that end a step exactly on V_MIN or V_MAX stay unclipped,
    whether the clip binds on another vehicle of the platoon or on none."""
    v, u = (np.array(col) for col in zip(*platoon))
    dt = 0.1
    spacing, velocity, _ = step_kinematics(np.zeros(len(v)), v, 0.0, 0.0, u, dt)
    v_prev, u_prev = 0.0, 0.0
    for i in range(len(v)):
        dist, v_new = ref_mod.travel(v[i], u[i], dt)
        assert velocity[i] == v_new
        state = ref_mod.VehicleState(0.0, v[i], 0.0)
        want = ref_mod.step_kinematics(state, v_prev, u_prev, u[i], dt)
        assert spacing[i] == want.spacing_m
        v_prev, u_prev = v[i], (v_new - v[i]) / dt
        if i == 0:
            assert spacing[0] == -dist
