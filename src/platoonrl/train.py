"""Decentralized advantage actor-critic training and evaluation.

Each agent owns a recurrent actor-critic network and trains on its own local
reward; coordination happens only through the chosen weight-consensus
protocol, applied between episodes. One batch = one full episode, with the
LSTM carry reset at every episode start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .consensus import (
    PROTOCOLS,
    ConsensusConfig,
    apply_consensus,
    comm_bits_per_round,
    qsgd_step,
)
from .env import (
    LOG_FIELDS,
    N_ACTIONS,
    OBS_MODES,
    PlatoonEnv,
    RewardWeights,
    ScenarioConfig,
    obs_dim_for,
)
from .errors import ConfigError, DataError
from .files import write_csv
from .ovm import OvmParams
from .vehicle import VehicleParams


# The sums a policy may have, as rng.choice allows: within sqrt(eps) =
# 2**-26 of 1. Both ends are exact doubles, and so is s - 1 for any s near
# them, so s passes exactly when abs(s - 1) <= sqrt(eps).
_SUM_TOL = float(np.sqrt(np.finfo(float).eps))
_SUM_LOW, _SUM_HIGH = 1.0 - _SUM_TOL, 1.0 + _SUM_TOL


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    obs_mode selects the observation assembly ('ia2c' or 'fprint').
    normalize_advantages standardizes advantages per agent per episode
    before the actor loss. compress_gradients swaps the plain SGD update for
    the ternary-quantized error-feedback step. checkpoint_every counts
    episodes; 0 writes only the final checkpoint.
    """

    total_steps: int = 600_000
    gamma: float = 0.99
    actor_lr: float = 5.0e-4
    critic_lr: float = 2.5e-4
    entropy_coeff: float = 0.01
    grad_clip: float = 5.0
    obs_mode: str = "ia2c"
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    eval_seeds: int = 20
    checkpoint_every: int = 0
    normalize_advantages: bool = True
    compress_gradients: bool = False

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigError("TrainConfig.total_steps must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("TrainConfig.gamma must be in (0, 1)")
        if self.actor_lr <= 0.0 or self.critic_lr <= 0.0:
            raise ConfigError("TrainConfig learning rates must be positive")
        if self.entropy_coeff < 0.0:
            raise ConfigError("TrainConfig.entropy_coeff must be non-negative")
        if self.grad_clip <= 0.0:
            raise ConfigError("TrainConfig.grad_clip must be positive")
        if self.obs_mode not in OBS_MODES:
            raise ConfigError(f"unknown obs_mode {self.obs_mode!r}")
        if self.eval_seeds < 1:
            raise ConfigError("TrainConfig.eval_seeds must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("TrainConfig.checkpoint_every must be >= 0")


@dataclass
class Episode:
    """One rollout: (steps, n_agents) actions, values and rewards (a view of
    the log's agent columns); the forward activations, a ForwardRecord of
    (steps, n_agents, ...) arrays (None for greedy play); the
    colliding-agent count; and the vehicle log, shaped (len(LOG_FIELDS),
    steps, n_vehicles), of env.vehicle_values() per step. When the rollout
    wrote into a caller's tape, `tape` holds views of its first rows, valid
    only until the next rollout into that tape."""

    actions: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    tape: nn.ForwardRecord | None
    collisions: int
    log: np.ndarray


@dataclass(frozen=True)
class LogRow:
    """One training-log line: cumulative env steps, across-agent mean of the
    agents' summed episode rewards, colliding-agent count, cumulative
    communication bits."""

    episode: int
    steps: int
    mean_reward: float
    collisions: int
    comm_bits_cum: int


@dataclass
class TrainResult:
    nets: list[nn.AgentNet]
    log: list[LogRow]
    comm_bits: int


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """G_t = r_t + gamma * G_{t+1} along axis 0 (steps), bootstrapping 0
    past the end; further axes (agents) are independent."""
    rewards = np.asarray(rewards, dtype=float)
    out = np.empty_like(rewards)
    acc = np.zeros(rewards.shape[1:])
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def sample_actions(rng: np.random.Generator, policy: np.ndarray) -> np.ndarray:
    """One action per row of the (n_agents, n_actions) policy, from one
    rng.random(n_agents) draw. Gives the actions, and leaves rng in the
    state, that rng.choice(n_actions, p=row) for each row in turn would:
    the same cumulative sums, uniforms and right-side search. Raises
    ValueError, as rng.choice does, on a row that has a negative or nan
    entry or does not sum to 1."""
    policy = np.asarray(policy)
    # Called as ufunc methods: ndarray's min and sum go through Python
    # wrappers, and cumsum is add.accumulate at a higher call cost.
    cdf = np.add.accumulate(policy, axis=1)
    totals = cdf[:, -1].tolist()
    # The min is nan when an entry is, which fails the sign test; the totals
    # are then free of nan, so their min and max bound every one.
    if not (
        np.minimum.reduce(policy, axis=None) >= 0.0
        and _SUM_LOW <= min(totals)
        and max(totals) <= _SUM_HIGH
    ):
        raise ValueError("probabilities must be non-negative and sum to 1")
    cdf /= cdf[:, -1:]
    return np.add.reduce(cdf <= rng.random(len(policy))[:, None], axis=1)


def rollout(
    env: PlatoonEnv,
    net: nn.AgentNet,
    obs_mode: str,
    episode_seed: int | None,
    rng: np.random.Generator | None = None,
    tape: nn.ForwardRecord | None = None,
) -> Episode:
    """Run one episode with the agent-batched `net`, one parameter row per
    agent and one forward call per step. With rng, actions are sampled from
    the policies and the episode keeps the forward activations for
    learning. Each step's forward call writes them straight into row t of
    `tape`, a ForwardRecord of (at least episode_steps, n_agents, width)
    buffers that train allocates once per run, or of a fresh one; the
    episode's tape is then a view of the rows it wrote, valid only until
    the next rollout into the same tape. Without rng, play is greedy
    (argmax, lowest index wins ties) and keeps none: every step's forward
    call writes into one step record, allocated once per rollout, which the
    next step overwrites. Of a greedy step's results, only the value and
    the cell state are fresh arrays."""
    obs = env.reset(seed=episode_seed)
    obs_dim = obs_dim_for(obs_mode)
    n_steps, n_agents = env.cfg.episode_steps, env.n_agents
    zeros = np.zeros((n_agents, net.hidden_dim))
    hidden = nn.Hidden(h=zeros, c=zeros)
    if rng is None:
        # Greedy, every step writes into one record.
        rows = itertools.repeat(nn.ForwardRecord(*(a[0] for a in nn._empty_records(1, net))))
    else:
        if tape is None:
            tape = nn._empty_records(n_steps, net)
        elif min(map(len, tape)) < n_steps:
            raise ValueError(f"tape holds fewer than the episode's {n_steps} steps")
        # Sampled, forward writes step t straight into row t of the tape.
        rows = map(nn.ForwardRecord._make, zip(*tape))
    actions = np.empty((n_steps, n_agents), dtype=np.intp)
    values = np.empty((n_steps, n_agents))
    log = np.empty((len(LOG_FIELDS), n_steps, env.n_vehicles))
    for t, out in zip(range(n_steps), rows):
        policy, values[t], hidden, _ = nn.forward(net, obs[:, :obs_dim], hidden, out)
        if rng is None:
            # The method skips np.argmax's Python-level wrapper.
            actions[t] = policy.argmax(axis=1)
        else:
            actions[t] = sample_actions(rng, policy)
        outcome = env.step(actions[t], policy if obs_mode == "fprint" else None)
        log[:, t] = env.vehicle_values()
        if outcome.done:
            break
        obs = outcome.observations
    log = log[:, : t + 1]
    return Episode(
        actions=actions[: t + 1],
        values=values[: t + 1],
        rewards=log[LOG_FIELDS.index("reward"), :, env.agents],
        tape=None if rng is None else nn.ForwardRecord(*(a[: t + 1] for a in tape)),
        collisions=outcome.collisions,
        log=log,
    )


def _update(
    cfg: TrainConfig,
    net: nn.AgentNet,
    ep: Episode,
    residuals: list[np.ndarray] | None,
    episode: int,
) -> None:
    """One A2C update of every agent of the agent-batched `net` from one
    episode, each agent on its own rewards. Actor and critic gradients share
    the trunk but carry separate learning rates, so one backward pass for
    all agents returns the two apart, and each agent's actor and critic
    gradients get their own global-norm clips. With compress_gradients,
    `residuals` holds the actor and critic error-feedback stacks and is
    updated in place.

    The loss seeds: the actor loss  -sum_t A_t log pi(a_t) - entropy_coeff *
    sum_t H(pi_t)  gives dL/dpolicy, the critic loss  sum_t (G_t - V_t)^2
    gives dL/dvalue."""
    n_steps, n_agents = ep.actions.shape
    values = ep.values
    returns = discounted_returns(ep.rewards, cfg.gamma)
    advantages = returns - values
    if cfg.normalize_advantages:
        # Each agent's advantages in one contiguous row, so the mean and std
        # sum them pairwise, as they would a single agent's vector.
        adv = np.ascontiguousarray(advantages.T)
        mean, std = adv.mean(axis=1, keepdims=True), adv.std(axis=1, keepdims=True)
        advantages = ((adv - mean) / (std + 1e-8)).T
    policy = ep.tape.policy
    taken = np.arange(n_steps)[:, None], np.arange(n_agents), ep.actions
    d_policy = cfg.entropy_coeff * (np.log(policy) + 1.0)
    d_policy[taken] -= advantages / policy[taken]
    g_actor, g_critic = nn.backward(net, ep.tape, d_policy, -2.0 * (returns - values))
    for grad in (*g_actor, *g_critic):
        # Pairwise summation, not a BLAS dot product, whose last bits
        # follow the BLAS thread count.
        norm = float(np.sqrt(np.add.reduce(grad * grad)))
        if norm > cfg.grad_clip:
            grad *= cfg.grad_clip / norm
    finite = np.all(np.isfinite(g_actor), axis=1) & np.all(np.isfinite(g_critic), axis=1)
    if not finite.all():
        raise RuntimeError(
            f"non-finite gradients at episode {episode}, agent {int(np.argmin(finite))}"
        )
    if cfg.compress_gradients:
        assert residuals is not None
        tau = cfg.consensus.tau
        w, res_a = qsgd_step(net.params, g_actor, residuals[0], cfg.actor_lr, tau)
        w, res_c = qsgd_step(w, g_critic, residuals[1], cfg.critic_lr, tau)
        net.params[...] = w
        residuals[:] = res_a, res_c
        return
    net.params -= cfg.actor_lr * g_actor
    net.params -= cfg.critic_lr * g_critic


def train(
    cfg: TrainConfig,
    scenario: ScenarioConfig,
    *,
    seed: int | None = None,
    vehicle: VehicleParams | None = None,
    ovm: OvmParams | None = None,
    reward: RewardWeights | None = None,
    leader_profile: np.ndarray | None = None,
    hidden_dim: int = nn.HIDDEN_DIM,
    checkpoint_dir: str | Path | None = None,
) -> TrainResult:
    """Train all agents until total_steps env steps are consumed (the last
    episode runs to completion). All randomness derives from `seed`
    (scenario.seed when omitted), so identical inputs give bitwise-identical
    parameters and logs.
    """
    env = PlatoonEnv(scenario, vehicle, ovm, reward, leader_profile)
    if seed is None:
        seed = scenario.seed
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    obs_dim = obs_dim_for(cfg.obs_mode)
    net = nn.stack_nets(
        [nn.init_agent_net(obs_dim, hidden_dim, N_ACTIONS, rng) for _ in range(env.n_agents)]
    )
    # The returned per-agent nets' vectors are the rows of the stack.
    nets = [nn.AgentNet(obs_dim, hidden_dim, N_ACTIONS, params=row) for row in net.params]
    residuals = None
    if cfg.compress_gradients:
        residuals = [np.zeros_like(net.params), np.zeros_like(net.params)]
    # Every episode's forward activations go into this one tape, so no
    # episode pays for fresh pages.
    tape = nn._empty_records(env.cfg.episode_steps, net)
    mixing = cfg.consensus
    round_bits = comm_bits_per_round(mixing.protocol, nn.param_count(net), env.n_agents)
    log: list[LogRow] = []
    steps_done = comm_bits = episode = 0
    while steps_done < cfg.total_steps:
        episode += 1
        # A sampled rollout into the run's tape, every agent's update, then
        # a consensus round when one is due.
        ep = rollout(env, net, cfg.obs_mode, int(rng.integers(0, 2**63 - 1)), rng, tape)
        _update(cfg, net, ep, residuals, episode)
        if mixing.protocol != "none" and episode % mixing.period == 0:
            net.params[...] = apply_consensus(mixing.protocol, net.params, mixing.eps, mixing.tau)
            comm_bits += round_bits
        steps_done += len(ep.rewards)
        # Each agent's total by Python's sum, which adds in step order
        # (np.sum adds pairwise); the log's bytes depend on that order.
        mean_reward = float(np.mean([sum(r) for r in ep.rewards.T.tolist()]))
        log.append(LogRow(episode, steps_done, mean_reward, ep.collisions, comm_bits))
        if (
            checkpoint_dir is not None
            and cfg.checkpoint_every > 0
            and episode % cfg.checkpoint_every == 0
        ):
            _save_checkpoints(nets, checkpoint_dir)
    if checkpoint_dir is not None:
        _save_checkpoints(nets, checkpoint_dir)
    return TrainResult(nets=nets, log=log, comm_bits=comm_bits)


# Agent i's checkpoint file in a checkpoint directory.
CHECKPOINT_NAME = "agent{}.npz"


def _save_checkpoints(nets: list[nn.AgentNet], directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, net in enumerate(nets):
        nn.save_params(net, directory / CHECKPOINT_NAME.format(i))


def load_checkpoints(directory: str | Path, n_agents: int, obs_mode: str) -> list[nn.AgentNet]:
    """Load the n_agents checkpoints that _save_checkpoints writes, as
    networks that stack and take obs_mode's observations. Raises ConfigError
    when the directory is missing or holds another number of agent
    checkpoints, DataError when a checkpoint's action count is not
    N_ACTIONS, its hidden width differs from agent 0's, or a parameter is
    not finite, and, once every file has passed those checks, ConfigError
    when a checkpoint takes another observation width than obs_mode gives."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"checkpoint directory {directory} does not exist")
    found = len(list(directory.glob(CHECKPOINT_NAME.format("*"))))
    if found != n_agents:
        raise ConfigError(
            f"{directory} holds {found} agent checkpoints, but the scenario has {n_agents} agents"
        )
    nets: list[nn.AgentNet] = []
    for i in range(n_agents):
        path = directory / CHECKPOINT_NAME.format(i)
        net = nn.load_params(path)
        if not np.isfinite(net.params).all():
            raise DataError(f"{path} holds non-finite parameters")
        if net.n_actions != N_ACTIONS:
            raise DataError(f"{path} has {net.n_actions} actions, the action set {N_ACTIONS}")
        if nets and net.hidden_dim != nets[0].hidden_dim:
            raise DataError(
                f"{path} has hidden_dim {net.hidden_dim}, "
                f"{CHECKPOINT_NAME.format(0)} {nets[0].hidden_dim}"
            )
        nets.append(net)
    obs_dim = obs_dim_for(obs_mode)
    for i, net in enumerate(nets):
        if net.obs_dim != obs_dim:
            raise ConfigError(
                f"{directory / CHECKPOINT_NAME.format(i)} takes {net.obs_dim} "
                f"observation values, but obs_mode {obs_mode!r} gives {obs_dim}"
            )
    return nets


def _cells(row: LogRow | EvalRow) -> list[object]:
    """CSV cells of a LogRow or EvalRow, whose field names are the header,
    in field order; fixed float formatting keeps repeat runs byte-identical."""
    values = (getattr(row, f.name) for f in fields(row))
    return [f"{v:.6f}" if isinstance(v, float) else v for v in values]


def write_train_log(log: list[LogRow], path: str | Path) -> None:
    write_csv(path, [f.name for f in fields(LogRow)], map(_cells, log))


@dataclass(frozen=True)
class EvalRow:
    """Within-episode mean/std statistics of one evaluation rollout (or the
    across-seed aggregate when seed == 'all'): spacing and velocity over
    agent steps, |acceleration| over agent steps, platoon power over steps
    (summed across vehicles), episode energy, colliding-agent count."""

    seed: int | str
    ivs_mean_m: float
    ivs_std_m: float
    velocity_mean_mps: float
    velocity_std_mps: float
    accel_mean_mps2: float
    accel_std_mps2: float
    power_mean_kw: float
    power_std_kw: float
    energy_kwh: float
    collisions: int


@dataclass
class EvalReport:
    rows: list[EvalRow]
    aggregate: EvalRow

    def to_csv(self, path: str | Path) -> None:
        rows = self.rows + [self.aggregate]
        write_csv(path, [f.name for f in fields(EvalRow)], map(_cells, rows))


# EvalRow's (mean, std) field pairs: spacing, velocity, |acceleration|,
# platoon power.
_MEAN_STD = (
    ("ivs_mean_m", "ivs_std_m"), ("velocity_mean_mps", "velocity_std_mps"),
    ("accel_mean_mps2", "accel_std_mps2"), ("power_mean_kw", "power_std_kw"),
)


def _mean_std(samples: Sequence[np.ndarray]) -> dict[str, float]:
    """The _MEAN_STD fields: each pair's mean and std of its samples."""
    out = {}
    for (mean, std), x in zip(_MEAN_STD, samples):
        out[mean], out[std] = float(x.mean()), float(x.std())
    return out


def episode_row(env: PlatoonEnv, seed: int, collisions: int, log: np.ndarray) -> EvalRow:
    """Statistics of one rollout from its vehicle log. Platoon power and
    energy sum over all simulated vehicles; spacing/velocity/|accel|
    statistics cover the agents."""
    spacing, velocity, accel = (x[:, env.agents].ravel() for x in log[:3])
    power = log[3]
    return EvalRow(
        seed=seed,
        **_mean_std((spacing, velocity, np.abs(accel), power.sum(axis=1))),
        energy_kwh=float(power.sum() * env.cfg.dt / 3600.0),
        collisions=collisions,
    )


def evaluate(
    nets: list[nn.AgentNet],
    scenario: ScenarioConfig,
    n_seeds: int,
    *,
    obs_mode: str = "ia2c",
    vehicle: VehicleParams | None = None,
    ovm: OvmParams | None = None,
    reward: RewardWeights | None = None,
    leader_profile: np.ndarray | None = None,
) -> EvalReport:
    """Greedy evaluation over seeds scenario.seed .. scenario.seed+n_seeds-1.

    Per-seed rows hold within-episode statistics; the aggregate row holds the
    across-seed mean of each mean, the across-seed std of each mean, the mean
    episode energy, and the total collision count.
    """
    if n_seeds < 1:
        raise ConfigError("evaluate requires n_seeds >= 1")
    env = PlatoonEnv(scenario, vehicle, ovm, reward, leader_profile)
    if len(nets) != env.n_agents:
        raise ConfigError(f"expected {env.n_agents} nets, got {len(nets)}")
    net = nn.stack_nets(nets)
    rows = []
    for seed in range(scenario.seed, scenario.seed + n_seeds):
        ep = rollout(env, net, obs_mode, seed)
        rows.append(episode_row(env, seed, ep.collisions, ep.log))
    def col(name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in rows])
    aggregate = EvalRow(
        seed="all",
        **_mean_std([col(mean) for mean, _ in _MEAN_STD]),
        energy_kwh=float(col("energy_kwh").mean()),
        collisions=int(col("collisions").sum()),
    )
    return EvalReport(rows=rows, aggregate=aggregate)


def consensus_bench(
    protocols: Sequence[str] = tuple(p for p in PROTOCOLS if p != "none"),
    n_agents: int = 4,
    n_params: int = 64,
    rounds: int = 500,
    eps: float = 0.01,
    tau: float = 0.0,
    seed: int = 0,
) -> list[tuple[int, str, float, int]]:
    """Mixing-protocol bench on random vectors over the line graph: rows of
    (round, protocol, spread, cumulative bits) where spread is the largest
    across-agent max-min gap over components. Round 0 is the initial state."""
    if rounds < 0:
        raise ConfigError("consensus_bench requires rounds >= 0")
    out = []
    for protocol in protocols:
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((n_agents, n_params))
        bits = 0
        out.append((0, protocol, float(np.ptp(weights, axis=0).max()), bits))
        for r in range(1, rounds + 1):
            weights = apply_consensus(protocol, weights, eps, tau)
            bits += comm_bits_per_round(protocol, n_params, n_agents)
            out.append((r, protocol, float(np.ptp(weights, axis=0).max()), bits))
    return out


def write_consensus_bench(rows: list[tuple[int, str, float, int]], path: str | Path) -> None:
    cells = ([rnd, protocol, f"{spread:.9f}", bits] for rnd, protocol, spread, bits in rows)
    write_csv(path, ["round", "protocol", "spread", "bits_cumulative"], cells)
