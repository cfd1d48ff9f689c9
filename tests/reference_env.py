"""Per-vehicle reference implementation of the platoon step.

This is the original scalar formulation of the simulator: branchy scalar
kinematics and car-following law, one state object per vehicle, one
observation object per agent, and a Python loop over the platoon. The
array-shaped ``PlatoonEnv`` must reproduce it bit for bit (rewards to within
rounding, because ``x ** 2`` on a Python float calls ``pow`` while numpy
squares by multiplication). ``tests/test_env_reference.py`` holds the
property test that compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from platoonrl.env import ACTION_GAINS, N_ACTIONS, RewardWeights, ScenarioConfig
from platoonrl.ovm import OvmParams
from platoonrl.vehicle import (
    MIN_SPACING,
    U_MAX,
    U_MIN,
    V_MAX,
    V_MIN,
    VehicleParams,
    electric_power,
)

_OWN_DIM = 5


@dataclass(frozen=True)
class VehicleState:
    """Kinematic state of one platoon member."""

    spacing_m: float
    velocity_mps: float
    accel_mps2: float


def travel(v: float, u: float, dt: float) -> tuple[float, float]:
    """Distance covered and final velocity over dt under constant u, with
    the velocity held at the [V_MIN, V_MAX] bound once it is hit."""
    if u == 0.0:
        return v * dt, v
    v_end = v + u * dt
    if V_MIN <= v_end <= V_MAX:
        return v * dt + 0.5 * u * dt * dt, v_end
    bound = V_MAX if v_end > V_MAX else V_MIN
    t_hit = (bound - v) / u
    t_hit = min(max(t_hit, 0.0), dt)
    dist = v * t_hit + 0.5 * u * t_hit * t_hit + bound * (dt - t_hit)
    return dist, bound


def step_kinematics(
    state: VehicleState, v_prev: float, u_prev: float, u_cmd: float, dt: float
) -> VehicleState:
    """One vehicle behind a predecessor moving at (v_prev, u_prev)."""
    inputs = (state.spacing_m, state.velocity_mps, v_prev, u_prev, u_cmd, dt)
    if not all(math.isfinite(x) for x in inputs):
        raise ValueError("step_kinematics requires finite inputs")
    if dt <= 0.0:
        raise ValueError("step_kinematics requires dt > 0")
    u = min(max(u_cmd, U_MIN), U_MAX)
    dist_self, v_new = travel(state.velocity_mps, u, dt)
    dist_prev = v_prev * dt + 0.5 * u_prev * dt * dt
    return VehicleState(
        spacing_m=state.spacing_m + dist_prev - dist_self,
        velocity_mps=v_new,
        accel_mps2=u,
    )


def headway_velocity(params: OvmParams, d: float) -> float:
    if not math.isfinite(d):
        raise ValueError("headway_velocity requires finite d")
    if d <= params.d_stop:
        return 0.0
    if d >= params.d_go:
        return params.v_max
    frac = (d - params.d_stop) / (params.d_go - params.d_stop)
    return 0.5 * params.v_max * (1.0 - math.cos(math.pi * frac))


def ovm_accel(
    params: OvmParams, d: float, v: float, v_prev: float, alpha: float, beta: float
) -> float:
    if not (math.isfinite(d) and math.isfinite(v) and math.isfinite(v_prev)):
        raise ValueError("ovm_accel requires finite inputs")
    u = alpha * (headway_velocity(params, d) - v) + beta * (v_prev - v)
    return min(max(u, U_MIN), U_MAX)


def compute_reward(
    weights: RewardWeights, d: float, v: float, u: float, power_kw: float,
    d_star: float, v_star: float,
) -> float:
    safety_gap = max(0.0, 2.0 * weights.d_safe - d)
    return (
        weights.w_spacing * (d - d_star) ** 2
        + weights.w_velocity * (v - v_star) ** 2
        + weights.w_accel * u**2
        + weights.w_safety * safety_gap**2
        + weights.w_power * (power_kw / weights.power_norm)
    )


@dataclass(frozen=True)
class Observation:
    own: np.ndarray
    front: np.ndarray
    rear: np.ndarray
    front_fp: np.ndarray
    rear_fp: np.ndarray

    def vector(self) -> np.ndarray:
        return np.concatenate([self.own, self.front, self.rear, self.front_fp, self.rear_fp])


@dataclass
class StepResult:
    observations: np.ndarray  # (n_agents, 23)
    rewards: np.ndarray
    done: bool
    collisions: int
    states: list[VehicleState]
    power_kw: np.ndarray  # per vehicle


class ReferenceEnv:
    """The platoon step one vehicle at a time. The state is set directly
    with ``set_state`` rather than drawn by a reset."""

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
        self._profile = (
            None if leader_profile is None else np.asarray(leader_profile, dtype=float)
        )
        self.n_vehicles = cfg.n_vehicles

    @property
    def agent_vehicles(self) -> tuple[int, ...]:
        if self._profile is not None:
            return tuple(range(1, self.n_vehicles))
        return tuple(range(self.n_vehicles))

    def set_state(self, spacing, velocity, accel, v0, fingerprints, step_idx) -> None:
        self._states = [
            VehicleState(spacing_m=float(d), velocity_mps=float(v), accel_mps2=float(u))
            for d, v, u in zip(spacing, velocity, accel)
        ]
        self._v0 = np.array(v0, dtype=float)
        self._fingerprints = np.array(fingerprints, dtype=float)
        self._step_idx = int(step_idx)

    def _target_velocity(self, t_s: float) -> float:
        v_star = self.cfg.v_star
        pert = self.cfg.perturbation
        if pert is None:
            return v_star
        t_rel = t_s - pert.start_s
        if t_rel < 0.0 or t_rel >= pert.duration_s:
            return v_star
        floor = pert.depth * v_star
        half = pert.duration_s / 2.0
        if t_rel < half:
            return v_star + (floor - v_star) * (t_rel / half)
        return floor + (v_star - floor) * ((t_rel - half) / half)

    def _leader_velocity(self, k: int) -> float:
        if self._profile is not None:
            return float(self._profile[min(k, self._profile.size - 1)])
        return self._target_velocity(k * self.cfg.dt)

    def _own_vector(self, vehicle_idx: int, v_prev: float) -> np.ndarray:
        s = self._states[vehicle_idx]
        cfg = self.cfg
        v0 = float(self._v0[vehicle_idx])
        v_hat = (s.velocity_mps - v0) / v0
        v_diff = float(np.clip((v_prev - s.velocity_mps) / 5.0, -2.0, 2.0))
        v_head = float(
            np.clip(
                (headway_velocity(self.ovm, s.spacing_m) - s.velocity_mps) / 5.0,
                -2.0,
                2.0,
            )
        )
        d_hat = (
            s.spacing_m + (v_prev - s.velocity_mps) * cfg.dt - cfg.d_star
        ) / cfg.d_star
        u_hat = s.accel_mps2 / U_MAX
        return np.array([v_hat, v_diff, v_head, d_hat, u_hat])

    def observations(self) -> np.ndarray:
        agents = self.agent_vehicles
        k = self._step_idx
        v_prev = np.empty(self.n_vehicles)
        v_prev[0] = self._leader_velocity(k)
        for i in range(1, self.n_vehicles):
            v_prev[i] = self._states[i - 1].velocity_mps
        own = {i: self._own_vector(i, float(v_prev[i])) for i in agents}
        zeros5 = np.zeros(_OWN_DIM)
        zeros_fp = np.zeros(N_ACTIONS)
        obs = []
        for i in agents:
            front_i, rear_i = i - 1, i + 1
            front = own.get(front_i, zeros5) if front_i >= 0 else zeros5
            rear = own.get(rear_i, zeros5) if rear_i < self.n_vehicles else zeros5
            front_fp = zeros_fp
            rear_fp = zeros_fp
            if front_i in agents:
                front_fp = self._fingerprints[agents.index(front_i)]
            if rear_i in agents:
                rear_fp = self._fingerprints[agents.index(rear_i)]
            obs.append(Observation(own[i], front, rear, front_fp, rear_fp).vector())
        return np.array(obs)

    def step(self, actions, fingerprints=None) -> StepResult:
        cfg = self.cfg
        agents = self.agent_vehicles
        if fingerprints is not None:
            self._fingerprints = np.array(fingerprints, dtype=float)
        k = self._step_idx
        dt = cfg.dt
        u_cmd = np.zeros(self.n_vehicles)
        v_now = np.array([s.velocity_mps for s in self._states])
        lead_v_now = self._leader_velocity(k)
        lead_v_next = self._leader_velocity(k + 1)
        for a, i in enumerate(agents):
            alpha, beta = ACTION_GAINS[int(actions[a])]
            v_ahead = lead_v_now if i == 0 else v_now[i - 1]
            u_cmd[i] = ovm_accel(
                self.ovm, self._states[i].spacing_m, v_now[i], float(v_ahead), alpha, beta
            )

        new_states: list[VehicleState] = []
        prev_v = lead_v_now
        prev_u = (lead_v_next - lead_v_now) / dt
        for i in range(self.n_vehicles):
            if i == 0 and self._profile is not None:
                new_states.append(
                    VehicleState(spacing_m=math.nan, velocity_mps=lead_v_next, accel_mps2=prev_u)
                )
            else:
                new_states.append(
                    step_kinematics(self._states[i], prev_v, prev_u, float(u_cmd[i]), dt)
                )
            prev_v = self._states[i].velocity_mps
            prev_u = (new_states[i].velocity_mps - prev_v) / dt
        self._states = new_states
        self._step_idx = k + 1

        power_all = np.array(
            [electric_power(self.vehicle, s.velocity_mps, s.accel_mps2) for s in new_states]
        )
        rewards = np.empty(len(agents))
        collisions = 0
        for a, i in enumerate(agents):
            s = new_states[i]
            r = compute_reward(
                self.reward, s.spacing_m, s.velocity_mps, s.accel_mps2,
                float(power_all[i]), cfg.d_star, cfg.v_star,
            )
            if s.spacing_m <= MIN_SPACING:
                collisions += 1
                r -= self.reward.collision_penalty
            rewards[a] = r
        done = collisions > 0 or self._step_idx >= cfg.episode_steps
        return StepResult(
            observations=self.observations(),
            rewards=rewards,
            done=done,
            collisions=collisions,
            states=new_states,
            power_kw=power_all,
        )
