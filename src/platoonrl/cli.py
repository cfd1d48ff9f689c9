"""Command-line operator surface.

Subcommands: fit-energy, train, eval, replay, consensus-bench, sweep-size.
Exit codes: 0 success, 1 usage/config error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import nn
from .config import RunConfig, load_config, resolve_output_dir
from .env import LOG_FIELDS, N_ACTIONS, PlatoonEnv, ScenarioConfig, obs_dim_for
from .errors import ConfigError, DataError, FitError
from .files import write_csv
from .train import (
    EvalReport,
    consensus_bench,
    episode_row,
    evaluate,
    load_checkpoints,
    rollout,
    train,
    write_consensus_bench,
    write_train_log,
)
from .vehicle import fit_energy_poly


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


# Every flag, defined once; each subcommand lists the ones it takes in
# _COMMANDS. --config is required everywhere except fit-energy.
_FLAGS: dict[str, dict] = {
    "--config": dict(help="YAML run config"),
    "--output-dir": dict(help="override the config output directory"),
    "--seed": dict(type=int, help="override the run seed(s)"),
    "--protocol": dict(help="consensus protocol override (consensus-bench: run only this one)"),
    "--steps": dict(type=int, help="total env steps override"),
    "--n-vehicles": dict(type=int, help="platoon size override"),
    "--obs-mode": dict(help="observation mode override (ia2c|fprint)"),
    "--checkpoint-dir": dict(help="checkpoint directory to load"),
    "--trace": dict(help="trace CSV for trace-replay scenarios (replay: required)"),
    "--window": dict(help="trace window as t0:t1 seconds (replay: required); "
                          "write a negative t0 as --window=-5:3"),
    "--leader-col": dict(help="trace leader column (default v1)"),
    "--grid": dict(default="61x51", help="fit grid as NVxNU, e.g. 61x51"),
    "--rounds": dict(type=int, default=500, help="mixing rounds"),
}
_COMMON = ("--config", "--output-dir")
_TRACE = ("--trace", "--window", "--leader-col")


def _build_parser() -> _Parser:
    parser = _Parser(prog="platoonrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag in (*_COMMON, *flags):
            required = flag == "--config" and name != "fit-energy"
            p.add_argument(flag, required=required, **_FLAGS[flag])
    return parser


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    scenario = cfg.scenario
    train_cfg = cfg.train
    if getattr(args, "n_vehicles", None) is not None:
        scenario = replace(scenario, n_vehicles=args.n_vehicles)
    if getattr(args, "obs_mode", None) is not None:
        train_cfg = replace(train_cfg, obs_mode=args.obs_mode)
    if getattr(args, "protocol", None) is not None:
        train_cfg = replace(train_cfg, consensus=replace(train_cfg.consensus, protocol=args.protocol))
    if getattr(args, "steps", None) is not None:
        train_cfg = replace(train_cfg, total_steps=args.steps)
    seeds = cfg.seeds
    if getattr(args, "seed", None) is not None:
        seeds = [args.seed]
        scenario = replace(scenario, seed=args.seed)
    return replace(cfg, scenario=scenario, train=train_cfg, seeds=seeds)


def _leader_profile(
    args: argparse.Namespace, scenario: ScenarioConfig
) -> data_mod.LeaderProfile | None:
    """The replayed-leader profile a trace-replay scenario needs: the
    --leader-col column of --trace over --window (the whole trace when
    absent), sampled every scenario.dt. Other scenarios take none of them."""
    if scenario.leader_mode != "trace-replay":
        if args.trace is not None or args.window or args.leader_col is not None:
            raise ConfigError("--trace/--window/--leader-col need scenario.leader_mode: trace-replay")
        return None
    if args.trace is None:
        raise ConfigError("trace-replay scenarios require --trace")
    table = data_mod.parse_trace_csv(args.trace)
    if not args.window:
        t0, t1 = float(table.times[0]), float(table.times[-1])
    else:
        try:
            t0, t1 = map(float, args.window.split(":"))
        except ValueError:
            t0 = t1 = math.nan
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ConfigError(f"--window expects finite t0:t1 with t0 < t1, got {args.window!r}")
    column = "v1" if args.leader_col is None else args.leader_col
    return data_mod.extract_window(table, column, t0, t1, scenario.dt)


def _models(cfg: RunConfig) -> dict[str, object]:
    """The vehicle, car-following and reward settings of every simulation."""
    return dict(vehicle=cfg.vehicle, ovm=cfg.ovm, reward=cfg.reward)


def _nets_for(
    cfg: RunConfig, checkpoint_dir: str | Path | None, n_agents: int, seed: int
) -> tuple[list[nn.AgentNet], str]:
    """Load the checkpoints in checkpoint_dir, or fresh seeded networks without one."""
    if checkpoint_dir is not None:
        nets = load_checkpoints(checkpoint_dir, n_agents, cfg.train.obs_mode)
        return nets, f"checkpoints from {checkpoint_dir}"
    obs_dim = obs_dim_for(cfg.train.obs_mode)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nets = [nn.init_agent_net(obs_dim, nn.HIDDEN_DIM, N_ACTIONS, rng) for _ in range(n_agents)]
    return nets, "untrained networks (no checkpoint found)"


def _write_rollout_log(log: np.ndarray, path: Path) -> None:
    """Per-step per-vehicle rollout CSV from a rollout's vehicle log; nan
    marks undefined fields of a replayed leader."""
    rows = (
        [step, i] + [f"{x:.6f}" for x in values]
        for step, vehicles in enumerate(log.transpose(1, 2, 0).tolist(), start=1)
        for i, values in enumerate(vehicles)
    )
    write_csv(path, ["step", "vehicle", *LOG_FIELDS], rows)


def _cmd_fit_energy(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    try:
        n_v, n_u = map(int, args.grid.lower().split("x"))
    except ValueError:
        n_v = n_u = 0
    # A quartic needs at least 5 points per axis.
    if min(n_v, n_u) < 5:
        raise ConfigError(f"--grid expects NVxNU with NV, NU >= 5, got {args.grid!r}")
    poly, rmse = fit_energy_poly(cfg.vehicle, n_v, n_u)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "energy_poly.csv"
    header = [f"p{k}{j}" for k in range(5) for j in range(5)]
    write_csv(path, header, [[f"{c:.12e}" for c in poly.flat()]])
    print(f"fit-energy: rmse_kw={rmse:.4f} grid={n_v}x{n_u} -> {path}")
    return 0


def _cmd_train(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    profile = _leader_profile(args, cfg.scenario)
    leader = None if profile is None else profile.velocities
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        t_start = time.perf_counter()
        result = train(
            cfg.train, cfg.scenario, seed=seed, leader_profile=leader,
            checkpoint_dir=out / "checkpoints" / f"seed{seed}", **_models(cfg),
        )
        log_path = out / f"train_log_seed{seed}.csv"
        write_train_log(result.log, log_path)
        wall_s = time.perf_counter() - t_start
        tail = result.log[-1]
        print(
            f"train: seed={seed} protocol={cfg.train.consensus.protocol} "
            f"episodes={tail.episode} steps={tail.steps} "
            f"final_reward={tail.mean_reward:.3f} comm_bits={tail.comm_bits_cum} "
            f"wall_s={wall_s:.1f} -> {log_path}"
        )
    return 0


def _cmd_eval(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    profile = _leader_profile(args, cfg.scenario)
    leader = None if profile is None else profile.velocities
    seed = cfg.seeds[0]
    # Of the checkpoint directories only the default, where train writes, may be missing.
    default_dir = out / "checkpoints" / f"seed{seed}"
    checkpoint_dir = args.checkpoint_dir or (default_dir if default_dir.exists() else None)
    nets, source = _nets_for(cfg, checkpoint_dir, cfg.scenario.n_agents, seed)
    out.mkdir(parents=True, exist_ok=True)
    print(f"eval: using {source}")
    report = evaluate(
        nets, cfg.scenario, cfg.train.eval_seeds, obs_mode=cfg.train.obs_mode,
        leader_profile=leader, **_models(cfg),
    )
    path = out / "eval_report.csv"
    report.to_csv(path)
    agg = report.aggregate
    print(
        f"eval: seeds={cfg.train.eval_seeds} ivs_mean_m={agg.ivs_mean_m:.3f} "
        f"velocity_mean_mps={agg.velocity_mean_mps:.3f} collisions={agg.collisions} -> {path}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    """One greedy rollout behind the --window of --trace; its three output
    files are written only once the rollout has run."""
    if not args.window:
        raise ConfigError("replay requires --window")
    scenario = replace(cfg.scenario, leader_mode="trace-replay")
    profile = _leader_profile(args, scenario)
    scenario = replace(scenario, episode_steps=max(1, len(profile) - 1))
    env = PlatoonEnv(scenario, leader_profile=profile.velocities, **_models(cfg))
    nets, source = _nets_for(cfg, args.checkpoint_dir, scenario.n_agents, cfg.seeds[0])
    print(f"replay: using {source}")
    ep = rollout(env, nn.stack_nets(nets), cfg.train.obs_mode, scenario.seed)
    row = episode_row(env, scenario.seed, ep.collisions, ep.log)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.save_profile(profile, out / "leader_profile.csv")
    _write_rollout_log(ep.log, out / "replay_log.csv")
    # Single-rollout stats: one data row plus the (identical) aggregate row.
    EvalReport(rows=[row], aggregate=row).to_csv(out / "replay_stats.csv")
    print(
        f"replay: window={profile.t0:g}:{profile.t1:g} samples={len(profile)} "
        f"steps={len(ep.rewards)} ivs_mean_m={row.ivs_mean_m:.3f} "
        f"power_mean_kw={row.power_mean_kw:.3f} collisions={row.collisions} "
        f"-> {out / 'replay_log.csv'}"
    )
    return 0


def _cmd_consensus_bench(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    # Without --protocol, consensus_bench's default: every mixing protocol.
    only = {"protocols": [args.protocol]} if args.protocol else {}
    n_agents = cfg.scenario.n_agents
    rows = consensus_bench(
        **only,
        n_agents=n_agents,
        rounds=args.rounds,
        eps=cfg.train.consensus.eps,
        tau=cfg.train.consensus.tau,
        seed=cfg.seeds[0],
    )
    out.mkdir(parents=True, exist_ok=True)
    path = out / "consensus_bench.csv"
    write_consensus_bench(rows, path)
    # A protocol's rows run in round order, so its last one is its final.
    finals = {p: spread for _, p, spread, _ in rows}
    summary = " ".join(f"{p}={s:.6f}" for p, s in finals.items())
    print(f"consensus-bench: rounds={args.rounds} agents={n_agents} final_spread {summary} -> {path}")
    return 0


def _cmd_sweep_size(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seeds[0]
    rows = []
    for n in (2, 4, 6, 8):
        scenario = replace(cfg.scenario, n_vehicles=n)
        result = train(cfg.train, scenario, seed=seed, **_models(cfg))
        write_train_log(result.log, out / f"train_log_n{n}_seed{seed}.csv")
        report = evaluate(
            result.nets, scenario, cfg.train.eval_seeds, obs_mode=cfg.train.obs_mode,
            **_models(cfg),
        )
        tail = result.log[-1]
        agg = report.aggregate
        rows.append(
            [n, tail.episode, f"{tail.mean_reward:.6f}", f"{agg.ivs_mean_m:.6f}",
             f"{agg.velocity_mean_mps:.6f}", f"{agg.energy_kwh:.6f}", agg.collisions,
             tail.comm_bits_cum]
        )
        print(
            f"sweep-size: n={n} episodes={tail.episode} final_reward={tail.mean_reward:.3f} "
            f"ivs_mean_m={agg.ivs_mean_m:.3f} collisions={agg.collisions}"
        )
    path = out / "sweep_size.csv"
    header = ["n_vehicles", "episodes", "final_reward", "ivs_mean_m", "velocity_mean_mps",
              "energy_kwh", "collisions", "comm_bits_cum"]
    write_csv(path, header, rows)
    print(f"sweep-size: -> {path}")
    return 0


# Subcommand -> (handler, help, the flags it takes beyond _COMMON).
_COMMANDS = {
    "fit-energy": (_cmd_fit_energy, "fit the power surrogate", ("--grid",)),
    "train": (_cmd_train, "train one run per configured seed",
              ("--seed", "--protocol", "--steps", "--n-vehicles", "--obs-mode", *_TRACE)),
    "eval": (_cmd_eval, "evaluate trained checkpoints",
             ("--seed", "--n-vehicles", "--obs-mode", "--checkpoint-dir", *_TRACE)),
    "replay": (_cmd_replay, "replay a recorded leader trace",
               ("--seed", "--n-vehicles", "--obs-mode", "--checkpoint-dir", *_TRACE)),
    "consensus-bench": (_cmd_consensus_bench, "benchmark the mixing protocols",
                        ("--seed", "--protocol", "--rounds", "--n-vehicles")),
    "sweep-size": (_cmd_sweep_size, "train/evaluate platoon sizes 2,4,6,8",
                   ("--seed", "--protocol", "--steps", "--obs-mode")),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_run_config(args)
        return args.handler(args, cfg, resolve_output_dir(cfg, args.output_dir))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FitError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
