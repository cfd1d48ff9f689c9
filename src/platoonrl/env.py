"""CACC platoon POMDP: observations, gain-switching actions, reward, termination.

Each controlled vehicle is an agent that picks one of four (alpha, beta) gain
pairs for the car-following law each step. The platoon is led either by a
virtual target car (every vehicle is an agent) or by a replayed velocity
trace (vehicle 0 follows the trace and is not an agent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ovm import OvmParams, _gain_accel, headway_velocity
from .vehicle import (
    MIN_SPACING,
    U_MAX,
    VehicleParams,
    _all_finite,
    _kinematics,
    _kinematics_rows,
    _power_kw,
    _power_law,
)

# Not called here, since step runs the laws' unchecked cores: bench/spans.py
# times the physics functions under their names in this module.
from .ovm import ovm_accel  # noqa: F401
from .vehicle import electric_power, step_kinematics  # noqa: F401

# Discrete action set: (alpha, beta) gain pairs for the car-following law.
ACTION_GAINS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.5, 0.0),
    (0.0, 0.5),
    (0.5, 0.5),
)
N_ACTIONS = len(ACTION_GAINS)

OBS_MODES = ("ia2c", "fprint")
LEADER_MODES = ("virtual-target", "trace-replay")

_OWN_DIM = 5
# One row of beta and one of alpha, a column per action: the gain law's
# order.
_GAINS = np.array([[beta for _, beta in ACTION_GAINS], [alpha for alpha, _ in ACTION_GAINS]])
# The rows of the reward's error block: spacing, velocity, acceleration and
# spacing again, for the safety term.
_ERROR_ROWS = np.array([0, 1, 2, 0])

# Per-vehicle values of a step, in the order of PlatoonEnv.vehicle_values().
LOG_FIELDS = ("spacing_m", "velocity_mps", "accel_mps2", "power_kw", "reward")

# The collision test's bound as a 0-d array: NumPy converts a Python float
# operand anew on every call.
_MIN_SPACING = np.array(MIN_SPACING)


def obs_dim_for(mode: str) -> int:
    """Observation vector length: own 5-vector plus front/rear neighbor
    5-vectors (15), plus front/rear policy fingerprints in fprint mode (23)."""
    if mode == "ia2c":
        return 3 * _OWN_DIM
    if mode == "fprint":
        return 3 * _OWN_DIM + 2 * N_ACTIONS
    raise ConfigError(f"unknown obs_mode {mode!r}")


@dataclass(frozen=True)
class Perturbation:
    """Leader-target dip: the virtual car's velocity ramps linearly down to
    depth * v_star over the first half of `duration_s`, then back up."""

    start_s: float = 20.0
    depth: float = 0.6
    duration_s: float = 10.0

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ConfigError("Perturbation.start_s must be non-negative")
        if not 0.0 < self.depth <= 1.0:
            raise ConfigError("Perturbation.depth must be in (0, 1]")
        if self.duration_s <= 0.0:
            raise ConfigError("Perturbation.duration_s must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """One training/evaluation scenario.

    n_vehicles counts every simulated vehicle including a replayed leader.
    Initial spacings are d_star * (1 + U(-jitter, jitter)), velocities
    v_star * (1 + U(-jitter, jitter)), fully determined by `seed`.
    """

    n_vehicles: int = 4
    d_star: float = 20.0
    v_star: float = 15.0
    dt: float = 0.1
    episode_steps: int = 600
    leader_mode: str = "virtual-target"
    perturbation: Perturbation | None = field(default_factory=Perturbation)
    init_spacing_jitter: float = 0.15
    init_velocity_jitter: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.n_vehicles <= 64:
            raise ConfigError("ScenarioConfig.n_vehicles must be in [2, 64]")
        if self.d_star <= 0.0:
            raise ConfigError("ScenarioConfig.d_star must be positive")
        if not 0.0 < self.v_star <= 30.0:
            raise ConfigError("ScenarioConfig.v_star must be in (0, 30]")
        if self.dt <= 0.0 or self.dt > 1.0:
            raise ConfigError("ScenarioConfig.dt must be in (0, 1]")
        if self.episode_steps < 1:
            raise ConfigError("ScenarioConfig.episode_steps must be >= 1")
        if self.leader_mode not in LEADER_MODES:
            raise ConfigError(f"unknown leader_mode {self.leader_mode!r}")
        for name in ("init_spacing_jitter", "init_velocity_jitter"):
            if not 0.0 <= getattr(self, name) <= 0.9:
                raise ConfigError(f"ScenarioConfig.{name} must be in [0, 0.9]")
        if self.seed < 0:
            raise ConfigError("ScenarioConfig.seed must be non-negative")

    @property
    def n_agents(self) -> int:
        """The agent count: every vehicle but a replayed leader."""
        return self.n_vehicles - 1 if self.leader_mode == "trace-replay" else self.n_vehicles


@dataclass(frozen=True)
class RewardWeights:
    """Reward term weights (all penalties are negative weights on squared
    errors), safety gap, collision penalty, and the power normalizer in kW."""

    w_spacing: float = -1.0
    w_velocity: float = -1.0
    w_accel: float = -0.1
    w_safety: float = -5.0
    w_power: float = -10.0
    d_safe: float = 5.0
    collision_penalty: float = 1000.0
    power_norm: float = 135.0

    def __post_init__(self) -> None:
        if self.collision_penalty <= 0.0:
            raise ConfigError("RewardWeights.collision_penalty must be positive")
        if self.power_norm <= 0.0:
            raise ConfigError("RewardWeights.power_norm must be positive")
        if self.d_safe <= 0.0:
            raise ConfigError("RewardWeights.d_safe must be positive")


def compute_reward(
    weights: RewardWeights,
    d: float | np.ndarray,
    v: float | np.ndarray,
    u: float | np.ndarray,
    power_kw: float | np.ndarray,
    d_star: float,
    v_star: float,
) -> float | np.ndarray:
    """Multi-objective step reward, for floats or per-agent arrays:

        w_spacing (d - d*)^2 + w_velocity (v - v*)^2 + w_accel u^2
        + w_safety max(0, 2 d_safe - d)^2 + w_power (P / power_norm)

    The safety term activates only once the gap falls below twice d_safe.
    The collision penalty is applied by the environment, not here.
    """
    d, v, u, power_kw = np.broadcast_arrays(d, v, u, power_kw)
    n = d.size
    law = _reward_law(weights, d_star, v_star, n)
    values = np.array([np.reshape(x, -1) for x in (d, v, u, power_kw)], dtype=float)
    rewards = _reward(law, _reward_rows(values), np.empty(n))
    return rewards.reshape(d.shape)[()]


def _full_size(constants, n: int) -> np.ndarray:
    """A law's constants, each repeated into a row of n. The per-step
    arithmetic runs faster on them than on Python floats or on columns,
    which NumPy converts or broadcasts anew on every call."""
    return np.array(constants, dtype=float)[..., None].repeat(n, axis=-1)


def _reward_law(
    weights: RewardWeights, d_star: float, v_star: float, n: int
) -> tuple[np.ndarray, ...]:
    """The constants of _reward for n agents, full-size: the offsets, caps
    and weights of its (4, n) error block over the rows d, v, u and d, then
    the power term's weight and normalizer."""
    offsets, caps, scales = _full_size([
        [d_star, v_star, 0.0, 2.0 * weights.d_safe],
        [math.inf, math.inf, math.inf, 0.0],
        [weights.w_spacing, weights.w_velocity, weights.w_accel, weights.w_safety],
    ], n)
    power_weight, power_norm = _full_size([weights.w_power, weights.power_norm], n)
    return offsets, caps, scales, power_weight, power_norm


def _reward_rows(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks _reward works in and their row views, bound once by a
    caller that rewards the same block again and again: values holds the
    (n,) rows d, v, u and power_kw first; the (4, n) block of errors is
    allocated here."""
    errors = np.empty((4, values.shape[1]))
    return values, values[3], errors, *errors


def _reward(
    law: tuple[np.ndarray, ...], rows: tuple[np.ndarray, ...], out: np.ndarray
) -> np.ndarray:
    """compute_reward from its _reward_law, on the blocks of _reward_rows,
    into out."""
    offsets, caps, scales, power_weight, power_norm = law
    values, power_kw, errors, spacing_err, velocity_err, accel_err, safety_err = rows
    # The errors d - d*, v - v*, u and d - 2 d_safe, the last capped at 0:
    # min(d - 2 d_safe, 0)^2 is the safety term's max(0, 2 d_safe - d)^2.
    values.take(_ERROR_ROWS, axis=0, out=errors, mode="clip")
    errors -= offsets
    np.minimum(errors, caps, out=errors)
    errors *= errors
    errors *= scales
    np.add(spacing_err, velocity_err, out=out)
    out += accel_err
    out += safety_err
    power = np.divide(power_kw, power_norm, out=spacing_err)
    power *= power_weight
    out += power
    return out


def _virtual_target(cfg: ScenarioConfig) -> np.ndarray:
    """The virtual car's velocity at each step index 0..episode_steps:
    v_star, with the perturbation's linear dip down to depth * v_star and
    back over [start_s, start_s + duration_s)."""
    v_star = cfg.v_star
    target = np.full(cfg.episode_steps + 1, v_star)
    pert = cfg.perturbation
    if pert is None:
        return target
    t_rel = np.arange(cfg.episode_steps + 1) * cfg.dt - pert.start_s
    floor = pert.depth * v_star
    half = pert.duration_s / 2.0
    down = v_star + (floor - v_star) * (t_rel / half)
    up = floor + (v_star - floor) * ((t_rel - half) / half)
    dip = (t_rel >= 0.0) & (t_rel < pert.duration_s)
    return np.where(dip, np.where(t_rel < half, down, up), target)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one synchronous platoon step. observations is the
    (n_agents, obs_dim_for("fprint")) array of the next observations; the
    ia2c observation is its first obs_dim_for("ia2c") columns. collisions
    counts the agents whose gap closed to MIN_SPACING; done is set on any
    collision or when the step budget is exhausted; vehicle_values() holds
    the step's per-vehicle values."""

    observations: np.ndarray
    rewards: np.ndarray
    done: bool
    collisions: int


@dataclass
class VehicleLogRow:
    """Per-vehicle values of the last step, for rollout logs. spacing and
    reward are nan for a replayed leader."""

    vehicle: int
    spacing_m: float
    velocity_mps: float
    accel_mps2: float
    power_kw: float
    reward: float


class PlatoonEnv:
    """N-vehicle platoon simulator with per-agent observations and rewards.

    The platoon state is one (len(LOG_FIELDS), n_vehicles) array, vehicles
    front to back. It is allocated at construction with the blocks each
    step works in, and the row views that step and the observations use are
    bound once; set_state, which reset calls, and step overwrite them in
    place, and every array handed out is a fresh copy.
    Agents are the vehicles in the `agents` slice, so a replayed leader is
    the one vehicle that is not an agent. Vehicle 0 follows one leader
    sequence, the velocity of the virtual car or the trace at each step;
    leader_profile, the trace, is given for trace-replay scenarios only.

    Observation rows hold, per agent: own [v_hat, v_diff_hat, v_headway_hat,
    d_hat, u_hat]; the front and rear neighbor agents' own 5-vectors (zeros
    past the platoon ends or where the neighbor is not an agent); the front
    and rear neighbors' previous-step policy distributions (zeros likewise).

    Single-threaded; run distinct instances for parallel scenarios. All
    randomness comes from the reset seed.
    """

    def __init__(
        self,
        cfg: ScenarioConfig,
        vehicle: VehicleParams | None = None,
        ovm: OvmParams | None = None,
        reward: RewardWeights | None = None,
        leader_profile: np.ndarray | None = None,
    ) -> None:
        self.cfg = cfg
        self.vehicle = vehicle if vehicle is not None else VehicleParams()
        self.ovm = ovm if ovm is not None else OvmParams()
        self.reward = reward if reward is not None else RewardWeights()
        if cfg.d_star <= self.ovm.d_stop:
            raise ConfigError("d_star must exceed the car-following stop gap")
        if (leader_profile is None) == (cfg.leader_mode == "trace-replay"):
            raise ConfigError("trace-replay mode requires a leader profile, other modes take none")
        if leader_profile is None:
            leader = _virtual_target(cfg)
        else:
            leader = np.asarray(leader_profile, dtype=float)
            if leader.ndim != 1 or leader.size < 2:
                raise ConfigError("leader profile must be a 1-D array, length >= 2")
            if not np.all(np.isfinite(leader)):
                raise ConfigError("leader profile must be finite")
        # The leader sequence's velocities as floats, read by step index:
        # each step reads two. A trace shorter than the episode holds its
        # last sample to the end.
        self._leader = leader.tolist()
        self._leader += self._leader[-1:] * (cfg.episode_steps + 1 - len(self._leader))
        # The agent vehicles: the last cfg.n_agents.
        self.agents = a = slice(cfg.n_vehicles - cfg.n_agents, None)
        self.n_vehicles = cfg.n_vehicles
        self.n_agents = n_agents = cfg.n_agents
        self._power_law = tuple(_full_size(_power_law(self.vehicle), cfg.n_vehicles))
        self._reward_law = _reward_law(self.reward, cfg.d_star, cfg.v_star, n_agents)
        self._own_law = _own_law(cfg, n_agents)
        # The observations gather from one flat source: the agents' own
        # 5-vectors entry by entry, their fingerprints agent by agent, and a
        # zero for the neighbors that are not agents.
        self._obs_source = np.zeros((_OWN_DIM + N_ACTIONS) * n_agents + 1)
        own = self._obs_source[: _OWN_DIM * n_agents].reshape(_OWN_DIM, n_agents)
        self._own_v, self._own_errors, self._own_gap, self._own_accel = (
            own[0], own[1:3], own[3], own[4]
        )
        self._own_scaled = own[1:]
        # The fingerprints the observations show, written by set_state and by
        # a step that is given fingerprints.
        self._fingerprint_slot = self._obs_source[_OWN_DIM * n_agents : -1].reshape(
            n_agents, N_ACTIONS
        )
        self._obs_index = _observation_index(n_agents)
        # The platoon: one row per LOG_FIELDS entry, one column per vehicle,
        # written by the first set_state.
        self._values = values = np.empty((len(LOG_FIELDS), cfg.n_vehicles))
        self._agent_values = values[:, a]
        self._agent_state = values[:3, a]
        self._spacing, self._velocity, self._accel, _, self._rewards = self._agent_values
        self._ahead_velocity = values[1, a.start : -1]
        self._power_rows = values[1], values[2], values[3]
        self._power_scratch = np.empty(cfg.n_vehicles)
        # Set by each observation for the next step: the agents' own,
        # predecessor and headway velocities, the leader sequence's
        # velocity, and the agents' errors to the predecessor and to the
        # headway velocity.
        self._vel = vel = np.empty((3, n_agents))
        self._vel_own, self._vel_ahead = vel[0], vel[1, 1:]
        self._vel_headway, self._vel_targets = vel[2], vel[1:]
        self._errors = np.empty((2, n_agents))
        self._ahead_error = self._errors[0]
        # The blocks and rows of the kinematics, on the agents' own and
        # predecessor velocities and into their spacing and velocity rows,
        # and of the reward; step scratch: the gains by action and the
        # collision mask.
        self._kinematics_rows = _kinematics_rows(vel[:2], values[:2, a])
        self._reward_rows = _reward_rows(self._agent_values)
        self._gains = np.empty((2, n_agents))
        self._crashed = np.empty(n_agents, dtype=bool)
        # dt as a 0-d array: NumPy converts a Python float anew on each call.
        self._dt = np.array(cfg.dt)
        # The agents' velocities at the episode's start; set_state sets it
        # and the step index.
        self._agent_v0: np.ndarray | None = None
        self._done = True

    def vehicle_values(self) -> np.ndarray:
        """(len(LOG_FIELDS), n_vehicles) copy of the most recent step's (or
        set_state's) per-vehicle values."""
        # set_state binds the agents' v0, so the platoon has no values until then.
        if self._agent_v0 is None:
            raise RuntimeError("no platoon state before the first reset(); reset() first")
        return self._values.copy()

    def vehicle_log_rows(self) -> list[VehicleLogRow]:
        """Per-vehicle values of the most recent step (or of set_state)."""
        return [
            VehicleLogRow(i, *values)
            for i, values in enumerate(self.vehicle_values().T.tolist())
        ]

    def leader_velocities(self) -> np.ndarray:
        """Copy of the leader sequence: vehicle 0's predecessor's velocity at
        each step index 0..episode_steps."""
        return np.array(self._leader)

    def reset(self, seed: int | None = None) -> np.ndarray:
        """set_state on the scenario's seeded draw: jittered spacings and
        velocities, zero accelerations, the velocities as v0 and uniform
        fingerprints, at step 0."""
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        spacing, velocity = (
            x_star * (1.0 + rng.uniform(-jitter, jitter, cfg.n_vehicles))
            for x_star, jitter in (
                (cfg.d_star, cfg.init_spacing_jitter), (cfg.v_star, cfg.init_velocity_jitter)
            )
        )
        uniform = np.full((self.n_agents, N_ACTIONS), 1.0 / N_ACTIONS)
        return self.set_state(spacing, velocity, np.zeros(cfg.n_vehicles), velocity, uniform, 0)

    def set_state(self, spacing, velocity, accel, v0, fingerprints, step: int) -> np.ndarray:
        """Start an episode at a step in [0, episode_steps) from per-vehicle
        rows (v0: the velocities observations scale by) and the agents'
        fingerprints; return its observations. A replayed leader gets a nan
        gap and the leader velocity at step. ValueError before any write on
        input out of shape or range, a non-finite agent row or an agent v0 <= 0."""
        cfg = self.cfg
        a = self.agents
        state = np.array([spacing, velocity, accel, v0], dtype=float)
        if not (state.shape == (4, cfg.n_vehicles) and step in range(cfg.episode_steps)
                and _all_finite(state[:, a]) and np.all(state[3, a] > 0.0)):
            raise ValueError(
                f"set_state takes rows of {cfg.n_vehicles} values, finite with v0 > 0 "
                f"for the agents, and a step in [0, {cfg.episode_steps})"
            )
        # The first write: it checks the fingerprints' shape before it writes them.
        self._set_fingerprints(fingerprints)
        self._step_idx = k = int(step)
        values = self._values
        values[:3] = state[:3]
        values[4] = math.nan
        if a.start:
            values[0, 0], values[1, 0] = math.nan, self._leader[k]
        _power_kw(self._power_law, *self._power_rows, self._power_scratch)
        self._agent_v0 = state[3, a]
        self._done = False
        return self._observations()

    def _set_fingerprints(self, fingerprints) -> None:
        fp = np.asarray(fingerprints, dtype=float)
        if fp.shape != (self.n_agents, N_ACTIONS):
            raise ValueError(f"expected fingerprints shape {(self.n_agents, N_ACTIONS)}")
        self._fingerprint_slot[...] = fp

    def _observations(self) -> np.ndarray:
        # The agents' own velocities, their predecessors' and the headway
        # velocities of their gaps. The first agent's predecessor drives at
        # the leader sequence's velocity: the virtual car, or vehicle 0
        # replaying the trace.
        vel_own = self._vel_own
        vel_own[...] = self._velocity
        self._vel[1, 0] = self._leader[self._step_idx]
        self._vel_ahead[...] = self._ahead_velocity
        d = self._spacing
        headway_velocity(self.ovm, d, out=self._vel_headway)
        errors = np.subtract(self._vel_targets, vel_own, out=self._errors)
        # The own 5-vectors, one row per entry: the numerators, then each
        # row over its scale, with the two velocity errors clipped.
        dt, d_star, scales, low, high = self._own_law
        v0 = self._agent_v0
        own_v = np.subtract(vel_own, v0, out=self._own_v)
        own_v /= v0
        self._own_errors[...] = errors
        gap = np.multiply(self._ahead_error, dt, out=self._own_gap)
        gap += d
        gap -= d_star
        self._own_accel[...] = self._accel
        scaled = np.divide(self._own_scaled, scales, out=self._own_scaled)
        np.maximum(scaled, low, out=scaled)
        np.minimum(scaled, high, out=scaled)
        return self._obs_source.take(self._obs_index)

    def step(
        self,
        actions: Sequence[int] | np.ndarray,
        fingerprints: np.ndarray | Sequence[np.ndarray] | None = None,
    ) -> StepOutcome:
        """Advance the platoon one dt with one action per agent.

        actions is a 1-D integer vector of ACTION_GAINS indices, one per
        agent. fingerprints, when given, are the policy distributions the
        agents just acted from; they appear in the neighbors' next
        observations. Other actions or fingerprints, or a non-finite agent
        state, raise ValueError before anything is written.
        """
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        cfg = self.cfg
        n_agents = self.n_agents
        acts = np.asarray(actions)
        # The range check reads a list: a NumPy reduction costs more than
        # the whole conversion on a few agents.
        listed = acts.tolist()
        if not (
            acts.shape == (n_agents,)
            and acts.dtype.kind in "iu"
            and 0 <= min(listed)
            and max(listed) < N_ACTIONS
        ):
            raise ValueError(
                f"expected {n_agents} integer actions in [0, {N_ACTIONS}), got {listed}"
            )
        # The agents' spacing, velocity and acceleration rows, checked once:
        # the laws below run unchecked on them and on values derived from
        # them or from the leader sequence.
        if not _all_finite(self._agent_state):
            raise ValueError("step requires a finite agent state")
        if fingerprints is not None:
            self._set_fingerprints(fingerprints)

        k = self._step_idx
        # Each agent's gain pair in the law, on the velocity errors of the
        # last observations, straight into the acceleration row.
        u = self._accel
        _gain_accel(_GAINS.take(acts, axis=1, out=self._gains, mode="clip"), self._errors, u)
        # The first agent follows the virtual car or the replayed leader,
        # whose motion over the step comes from the leader sequence.
        lead_v_next = self._leader[k + 1]
        lead_u = (lead_v_next - self._leader[k]) / cfg.dt
        d = self._spacing
        _kinematics(d, lead_u, u, self._dt, self._kinematics_rows)
        if self.agents.start:
            values = self._values
            values[1, 0] = lead_v_next
            values[2, 0] = lead_u
        self._step_idx = k + 1
        _power_kw(self._power_law, *self._power_rows, self._power_scratch)

        rewards = _reward(self._reward_law, self._reward_rows, self._rewards)
        crashed = np.less_equal(d, _MIN_SPACING, out=self._crashed)
        collisions = int(np.count_nonzero(crashed))
        if collisions:
            rewards -= self.reward.collision_penalty * crashed
        self._done = collisions > 0 or self._step_idx >= cfg.episode_steps
        return StepOutcome(self._observations(), rewards.copy(), self._done, collisions)


def _own_law(cfg: ScenarioConfig, n_agents: int) -> tuple[np.ndarray, ...]:
    """The constants of the own 5-vectors' entries after the first,
    full-size: dt and d_star, then the (4, n_agents) scales and clip bounds,
    [-2, 2] on the two velocity errors and none on the rest."""
    dt, d_star = _full_size([cfg.dt, cfg.d_star], n_agents)
    scales, low, high = _full_size([
        [5.0, 5.0, cfg.d_star, U_MAX],
        [-2.0, -2.0, -math.inf, -math.inf],
        [2.0, 2.0, math.inf, math.inf],
    ], n_agents)
    return dt, d_star, scales, low, high


def _observation_index(n_agents: int) -> np.ndarray:
    """(n_agents, obs_dim_for("fprint")) positions in PlatoonEnv's flat
    observation source: per agent its own 5-vector, its front and rear
    neighbors' 5-vectors and their fingerprints, or the trailing zero where
    there is no neighbor."""
    own = np.arange(_OWN_DIM) * n_agents
    fingerprints = _OWN_DIM * n_agents + np.arange(N_ACTIONS)
    agent = np.arange(n_agents)[:, None]
    blocks = []
    for entries, stride, shift in (
        (own, 1, 0), (own, 1, -1), (own, 1, 1),
        (fingerprints, N_ACTIONS, -1), (fingerprints, N_ACTIONS, 1),
    ):
        neighbor = agent + shift
        present = (0 <= neighbor) & (neighbor < n_agents)
        blocks.append(np.where(present, entries + neighbor * stride, -1))
    return np.hstack(blocks)
