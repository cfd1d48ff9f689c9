"""The benchmark's workloads, each driven through platoonrl's public API.

A workload object is built by its constructor (the set-up that ``setup_s``
times), runs one round of operations in ``run`` (the timed section) and
checks that round's outputs in ``check`` (outside the timed section). An
operation is one episode. Every round of a run repeats the same inputs, so
each run attempts whole rounds of the same operations.

``tiny=True`` shrinks a workload to a few short episodes for the self-test.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import platoonrl as prl
from platoonrl.env import N_ACTIONS

import checks

HIDDEN = 64  # what the CLI builds for train, eval and replay
OVM_ACTION = 3  # (alpha, beta) = (0.5, 0.5): the classical OVM baseline
OVM_GAINS = (0.5, 0.5)
U_BOX = (-2.5, 2.5)
V_BOX = (0.0, 30.0)
GRAVITY = 9.8


class SetupError(RuntimeError):
    """The workload could not be built as specified."""


def _seeded_nets(obs_dim: int, n_agents: int, seed: int) -> list:
    """Untrained networks seeded the way the CLI seeds them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [prl.nn.init_agent_net(obs_dim, HIDDEN, N_ACTIONS, rng) for _ in range(n_agents)]


class TrainN4:
    """Default BDC-MARL training, run as ``platoonrl train`` runs it, with
    the step budget cut so that one training run is one round."""

    name = "train-n4"
    total_steps = 1200

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        raw = {"train": {"total_steps": self.total_steps}, "seeds": [seed]}
        if tiny:
            raw = {"scenario": {"episode_steps": 30}, "train": {"total_steps": 70}, "seeds": [seed]}
        self.cfg = prl.config_from_dict(raw)
        self.seed = seed
        scenario = self.cfg.scenario
        env = prl.PlatoonEnv(scenario, self.cfg.vehicle, self.cfg.ovm, self.cfg.reward)
        obs_dim = prl.obs_dim_for(self.cfg.train.obs_mode)
        nets = _seeded_nets(obs_dim, env.n_agents, seed)
        self.n_agents = env.n_agents
        self.n_params = checks.param_count(obs_dim, HIDDEN, N_ACTIONS)
        if prl.param_count(nets[0]) != self.n_params:
            raise SetupError(f"network has {prl.param_count(nets[0])} parameters, expected {self.n_params}")
        self.bits_per_round = checks.bdc_bits_per_round(self.n_params, self.n_agents)
        self.checkpoint_dir = out_dir / "checkpoints" / f"seed{seed}"
        self.log_path = out_dir / f"train_log_seed{seed}.csv"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.reference_log: str | None = None
        self.data_load_s = 0.0

    def run(self):
        cfg = self.cfg
        result = prl.train(
            cfg.train,
            cfg.scenario,
            seed=self.seed,
            vehicle=cfg.vehicle,
            ovm=cfg.ovm,
            reward=cfg.reward,
            checkpoint_dir=self.checkpoint_dir,
        )
        prl.write_train_log(result.log, self.log_path)
        return result

    def check(self, result, episode_steps: list[int]) -> list[checks.Failure]:
        cfg = self.cfg
        text = self.log_path.read_text()
        failures = checks.check_train_log(
            text, cfg.train.total_steps, cfg.scenario.episode_steps, self.bits_per_round
        )
        failures += checks.check_log_steps(text, episode_steps)
        if self.reference_log is None:
            self.reference_log = text
        elif text != self.reference_log:
            failures.append((None, "training log differs from the first repetition"))
        weights = []
        for i in range(self.n_agents):
            path = self.checkpoint_dir / f"agent{i}.npz"
            flat = prl.flatten_params(prl.load_params(path))
            failures += checks.check_checkpoint(flat, self.n_params, path.name)
            weights.append(flat)
        if len(failures) == 0:
            consensus = cfg.train.consensus
            before = np.array(weights)
            after = np.array(prl.bdc_round(list(before), consensus.eps, consensus.tau))
            failures += checks.check_bdc_round(before, after, consensus.eps)
        return failures


class EvalN4:
    """Greedy evaluation over 20 seeds with seeded untrained networks, as
    ``platoonrl eval`` runs it when it finds no checkpoint."""

    name = "eval-n4"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        raw = {"scenario": {"seed": seed}, "seeds": [seed]}
        if tiny:
            raw = {"scenario": {"seed": seed, "episode_steps": 40}, "train": {"eval_seeds": 3}, "seeds": [seed]}
        self.cfg = prl.config_from_dict(raw)
        env = prl.PlatoonEnv(self.cfg.scenario, self.cfg.vehicle, self.cfg.ovm, self.cfg.reward)
        self.nets = _seeded_nets(prl.obs_dim_for(self.cfg.train.obs_mode), env.n_agents, seed)
        self.report_path = out_dir / "eval_report.csv"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.reference: list | None = None
        self.data_load_s = 0.0

    def run(self):
        cfg = self.cfg
        report = prl.evaluate(
            self.nets,
            cfg.scenario,
            cfg.train.eval_seeds,
            obs_mode=cfg.train.obs_mode,
            vehicle=cfg.vehicle,
            ovm=cfg.ovm,
            reward=cfg.reward,
        )
        report.to_csv(self.report_path)
        return report

    def check(self, report, episode_steps: list[int]) -> list[checks.Failure]:
        scenario = self.cfg.scenario
        failures = checks.check_eval_report(
            report.rows, report.aggregate, episode_steps, scenario.episode_steps, scenario.dt
        )
        rows = report.rows + [report.aggregate]
        if self.reference is None:
            self.reference = rows
        else:
            failures += checks.check_same_rows(rows, self.reference)
        return failures


def leader_trace(rng: np.random.Generator, duration_s: float, dt: float) -> np.ndarray:
    """Smooth leader velocity (m/s) sampled every dt over [0, duration_s]: a
    base speed in [13, 17] plus three sinusoids of 0.2-0.6 m/s amplitude and
    40-90 s period. Slow enough that 15 OVM followers, string-unstable at
    these gains, stay clear of collisions and of the velocity box."""
    t = dt * np.arange(int(round(duration_s / dt)) + 1)
    v = np.full(t.size, rng.uniform(13.0, 17.0))
    for _ in range(3):
        amp, period, phase = rng.uniform(0.2, 0.6), rng.uniform(40.0, 90.0), rng.uniform(0.0, 2 * math.pi)
        v += amp * np.sin(2 * math.pi * t / period + phase)
    return v


class ReplayN16Ovm:
    """A 16-vehicle platoon behind a generated leader trace; every follower
    holds the OVM gains. The trace goes through the CSV parser and the
    window extractor; the episodes drive PlatoonEnv directly."""

    name = "replay-n16-ovm"
    n_vehicles = 16
    window = (10.0, 70.0)  # 600 samples at 10 Hz: 599 steps
    episodes_per_round = 4

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False) -> None:
        # The default start jitter (15 % spacing, 10 % velocity) is a
        # disturbance these string-unstable gains amplify down 15 followers:
        # over 612 episodes the closest gap was 1.76 m, 0.76 m from a
        # collision. At 5 %/5 % the same episodes keep 13 m or more.
        scenario = {
            "n_vehicles": self.n_vehicles, "leader_mode": "trace-replay", "seed": seed,
            "init_spacing_jitter": 0.05, "init_velocity_jitter": 0.05,
        }
        self.cfg = prl.config_from_dict({"scenario": scenario, "seeds": [seed]})
        dt = self.cfg.scenario.dt
        window = (10.0, 14.0) if tiny else self.window
        rng = np.random.default_rng(seed)
        v1 = leader_trace(rng, window[1] + 10.0, dt)
        lag = int(round(1.5 / dt))
        v2 = np.concatenate([np.full(lag, v1[0]), v1[:-lag]])
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "leader_trace.csv"
        with path.open("w") as fh:
            fh.write("time,v1,v2\n")
            for k in range(v1.size):
                fh.write(f"{k * dt:.1f},{v1[k]:.4f},{v2[k]:.4f}\n")
        first = int(round(window[0] / dt))
        n = int(round((window[1] - window[0]) / dt))
        self.leader = np.round(v1[first : first + n], 4)

        t0 = time.perf_counter()
        table = prl.parse_trace_csv(path)
        profile = prl.extract_window(table, "v1", window[0], window[1], dt)
        self.data_load_s = time.perf_counter() - t0

        scenario = replace(self.cfg.scenario, episode_steps=len(profile) - 1)
        self.scenario = scenario
        self.env = prl.PlatoonEnv(scenario, self.cfg.vehicle, self.cfg.ovm, self.cfg.reward, profile.velocities)
        self.actions = [OVM_ACTION] * self.env.n_agents
        if prl.ACTION_GAINS[OVM_ACTION] != OVM_GAINS:
            raise SetupError(f"action {OVM_ACTION} has gains {prl.ACTION_GAINS[OVM_ACTION]}")
        n_episodes = 1 if tiny else self.episodes_per_round
        self.reset_seeds = [int(s) for s in rng.integers(0, 2**31, size=n_episodes)]
        ovm, veh = self.cfg.ovm, self.cfg.vehicle
        self.law = dict(
            alpha=OVM_GAINS[0], beta=OVM_GAINS[1], d_stop=ovm.d_stop, d_go=ovm.d_go,
            v_max=ovm.v_max, u_min=U_BOX[0], u_max=U_BOX[1],
        )
        self.vehicle = dict(
            mass=veh.mass_kg, gravity=GRAVITY, rolling=veh.rolling_coeff, rho=veh.air_density,
            area=veh.frontal_area_m2, cd=veh.drag_coeff, eta=veh.drivetrain_eff,
        )

    def run(self):
        env, actions = self.env, self.actions
        logs = []
        for s in self.reset_seeds:
            env.reset(seed=s)
            rows = [env.vehicle_log_rows()]
            while True:
                outcome = env.step(actions)
                rows.append(env.vehicle_log_rows())
                if outcome.done:
                    break
            logs.append(rows)
        return logs

    def check(self, logs, episode_steps: list[int]) -> list[checks.Failure]:
        failures: list[checks.Failure] = []
        if episode_steps != [len(rows) - 1 for rows in logs]:
            return [(None, f"counted steps {episode_steps} disagree with the logs")]
        for op, rows in enumerate(logs):
            found = checks.check_replay(
                log_arrays(rows), self.leader, self.scenario.episode_steps, self.scenario.dt,
                self.law, self.vehicle, V_BOX,
            )
            failures += [(op, message) for message in found]
        return failures


def log_arrays(rows: list[list]) -> dict[str, np.ndarray]:
    """One episode's ``vehicle_log_rows()`` as (steps + 1, n_vehicles) arrays."""
    return {
        key: np.array([[getattr(r, attr) for r in step] for step in rows])
        for key, attr in (
            ("spacing", "spacing_m"),
            ("velocity", "velocity_mps"),
            ("accel", "accel_mps2"),
            ("power", "power_kw"),
        )
    }


WORKLOADS = {w.name: w for w in (TrainN4, EvalN4, ReplayN16Ovm)}
