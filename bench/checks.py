"""Output checks, each an independent recomputation or a property of the
method. They run outside the timed sections.

Every check returns a list of failures, ``(op, message)``: ``op`` is the
index of the failed operation (episode) within its round, or ``None`` when
the failure belongs to the round as a whole and so fails every operation in
it. Nothing here calls into platoonrl except where the check is about the
program's own loader or mixing rule (checkpoints, the bdc round).
"""

from __future__ import annotations

import csv
import io
import math
import statistics

import numpy as np

Failure = tuple[int | None, str]

LOG_HEADER = ["episode", "steps", "mean_reward", "collisions", "comm_bits_cum"]
BDC_BITS_PER_PARAM = 2


def param_count(obs_dim: int, hidden: int, n_actions: int) -> int:
    """Parameters of one agent: input layer, LSTM (x and h weights, bias),
    actor head, critic head."""
    lstm = 4 * hidden
    return (
        hidden * obs_dim + hidden
        + lstm * hidden + lstm * hidden + lstm
        + n_actions * hidden + n_actions
        + hidden + 1
    )


def bdc_bits_per_round(n_params: int, n_agents: int) -> int:
    """2 bits per parameter over each of the 2(n-1) directed edges of the
    platoon line graph."""
    return BDC_BITS_PER_PARAM * n_params * 2 * (n_agents - 1)


def check_train_log(
    text: str, total_steps: int, episode_steps: int, bits_per_round: int
) -> list[Failure]:
    """Cumulative steps rise strictly and end in [total, total + episode);
    comm_bits_cum is exactly episodes x bits_per_round."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != LOG_HEADER:
        return [(None, f"log header {rows[:1]} != {LOG_HEADER}")]
    if len(rows) < 2:
        return [(None, "log has no episodes")]
    failures: list[Failure] = []
    prev = 0
    for k, row in enumerate(rows[1:], start=1):
        op = k - 1
        try:
            episode, steps, bits = int(row[0]), int(row[1]), int(row[4])
        except (ValueError, IndexError):
            failures.append((op, f"malformed log row {row}"))
            continue
        if episode != k:
            failures.append((op, f"row {k} numbered {episode}"))
        if steps <= prev:
            failures.append((op, f"steps {steps} after {prev}"))
        if bits != k * bits_per_round:
            failures.append((op, f"comm_bits_cum {bits} != {k} x {bits_per_round}"))
        prev = steps
    if not total_steps <= prev < total_steps + episode_steps:
        failures.append(
            (None, f"final steps {prev} outside [{total_steps}, {total_steps + episode_steps})")
        )
    return failures


def check_log_steps(text: str, episode_steps: list[int]) -> list[Failure]:
    """The log's per-episode step increments equal the env steps counted."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    logged = [int(r[1]) for r in rows]
    counted = list(np.cumsum(episode_steps))
    if logged != counted:
        return [(None, f"logged cumulative steps {logged[:5]}... != counted {counted[:5]}...")]
    return []


def check_checkpoint(flat: np.ndarray, n_params: int, name: str) -> list[Failure]:
    if flat.shape != (n_params,):
        return [(None, f"{name}: {flat.shape} parameters, expected {n_params}")]
    if not np.all(np.isfinite(flat)):
        return [(None, f"{name}: non-finite parameters")]
    return []


def check_bdc_round(
    before: np.ndarray, after: np.ndarray, eps: float
) -> list[Failure]:
    """One bdc round on the line graph keeps every component's across-agent
    mean and moves no component of agent i by more than 2 eps deg(i)."""
    n = before.shape[0]
    drift = float(np.max(np.abs(after.mean(axis=0) - before.mean(axis=0))))
    failures: list[Failure] = []
    if drift > 1e-12:
        failures.append((None, f"bdc round moved a component mean by {drift:.3e}"))
    for i in range(n):
        deg = (i > 0) + (i < n - 1)
        move = float(np.max(np.abs(after[i] - before[i])))
        if move > 2.0 * eps * deg + 1e-12:
            failures.append((None, f"bdc round moved agent {i} by {move:.3e} > 2 eps deg"))
    return failures


EVAL_FIELDS = (
    "ivs_mean_m",
    "velocity_mean_mps",
    "accel_mean_mps2",
    "power_mean_kw",
)


def check_eval_report(
    rows: list, aggregate, episode_steps: list[int], max_steps: int, dt: float
) -> list[Failure]:
    """Per seed: an episode that ends before ``max_steps`` counts a
    collision, and energy is mean platoon power x steps x dt. The aggregate
    row is the mean and population std of the per-seed means, the mean
    energy and the summed collisions.

    A full-length episode may count a collision too: one that happens on the
    last step (greedy eval seed 0 of the default scenario collides at step
    600), so the step count cannot show that a collision was counted
    wrongly, only that one was missed."""
    if len(episode_steps) != len(rows):
        return [(None, f"{len(episode_steps)} episodes counted, {len(rows)} rows")]
    failures: list[Failure] = []
    for op, (row, steps) in enumerate(zip(rows, episode_steps)):
        if not 1 <= steps <= max_steps or (steps < max_steps and row.collisions == 0):
            failures.append((op, f"seed {row.seed}: {steps} steps, {row.collisions} collisions"))
        energy = row.power_mean_kw * steps * dt / 3600.0
        if not math.isclose(row.energy_kwh, energy, rel_tol=1e-9, abs_tol=1e-12):
            failures.append((op, f"seed {row.seed}: energy {row.energy_kwh} != {energy}"))
    for name in EVAL_FIELDS:
        values = [getattr(r, name) for r in rows]
        std_name = name.replace("_mean_", "_std_")
        if not math.isclose(getattr(aggregate, name), statistics.fmean(values), rel_tol=1e-9, abs_tol=1e-12):
            failures.append((None, f"aggregate {name} is not the mean of the rows"))
        if not math.isclose(getattr(aggregate, std_name), statistics.pstdev(values), rel_tol=1e-9, abs_tol=1e-12):
            failures.append((None, f"aggregate {std_name} is not the std of the row means"))
    energies = [r.energy_kwh for r in rows]
    if not math.isclose(aggregate.energy_kwh, statistics.fmean(energies), rel_tol=1e-9, abs_tol=1e-12):
        failures.append((None, "aggregate energy_kwh is not the mean of the rows"))
    if aggregate.collisions != sum(r.collisions for r in rows):
        failures.append((None, "aggregate collisions is not the sum of the rows"))
    return failures


def check_same_rows(rows: list, reference: list) -> list[Failure]:
    """A repetition reproduces the reference rows exactly."""
    if len(rows) != len(reference):
        return [(None, f"{len(rows)} rows, reference has {len(reference)}")]
    return [
        (op, f"seed {row.seed} differs from the first repetition")
        for op, (row, ref) in enumerate(zip(rows, reference))
        if row != ref
    ]


def ovm_accel(d, v, v_ahead, alpha, beta, d_stop, d_go, v_max, u_min, u_max):
    """The optimal-velocity law: half-cosine headway velocity between d_stop
    and d_go, gains alpha/beta, clipped to [u_min, u_max]."""
    frac = np.clip((d - d_stop) / (d_go - d_stop), 0.0, 1.0)
    v_head = 0.5 * v_max * (1.0 - np.cos(np.pi * frac))
    u = alpha * (v_head - v) + beta * (v_ahead - v)
    return np.clip(u, u_min, u_max)


def battery_power_kw(v, u, mass, gravity, rolling, rho, area, cd, eta):
    """F v / eta while driving, F v eta under regeneration, in kW."""
    force = mass * u + mass * gravity * rolling + 0.5 * rho * area * cd * v * v
    wheel = force * v
    return np.where(wheel >= 0.0, wheel / eta, wheel * eta) / 1000.0


def check_replay(
    log: dict[str, np.ndarray],
    leader: np.ndarray,
    expected_steps: int,
    dt: float,
    law: dict,
    vehicle: dict,
    v_bounds: tuple[float, float],
) -> list[str]:
    """One replay episode; returns what is wrong with it. ``log`` holds
    (steps + 1, n_vehicles) arrays of spacing, velocity, accel and power,
    row 0 from reset. Vehicle 0 replays ``leader``; every follower holds the
    same OVM gains."""
    d, v, u, p = log["spacing"], log["velocity"], log["accel"], log["power"]
    if d.shape[0] != expected_steps + 1:
        return [f"{d.shape[0] - 1} steps, expected {expected_steps} (collision?)"]
    failures: list[str] = []
    if not np.allclose(v[:, 0], leader[: v.shape[0]], rtol=0.0, atol=1e-9):
        failures.append("leader velocity differs from the generated trace")
    u_law = ovm_accel(d[:-1, 1:], v[:-1, 1:], v[:-1, :-1], **law)
    if not np.allclose(u[1:, 1:], u_law, rtol=0.0, atol=1e-12):
        worst = float(np.max(np.abs(u[1:, 1:] - u_law)))
        failures.append(f"follower acceleration off the OVM law by {worst:.3e}")
    p_law = battery_power_kw(v, u, **vehicle)
    if not np.allclose(p, p_law, rtol=1e-12, atol=1e-12):
        worst = float(np.max(np.abs(p - p_law)))
        failures.append(f"power off the closed form by {worst:.3e} kW")
    u_ahead = (v[1:, :-1] - v[:-1, :-1]) / dt
    d_law = d[:-1, 1:] + (v[:-1, :-1] - v[:-1, 1:]) * dt + (u_ahead - u[1:, 1:]) * dt * dt / 2.0
    v_free = v[:-1, 1:] + u[1:, 1:] * dt
    unclipped = (v_free >= v_bounds[0]) & (v_free <= v_bounds[1])
    gap = np.abs(d[1:, 1:] - d_law)[unclipped]
    if gap.size and float(gap.max()) > 1e-9:
        failures.append(f"spacing off the kinematic update by {float(gap.max()):.3e} m")
    if np.any(v < v_bounds[0]) or np.any(v > v_bounds[1]):
        failures.append(f"velocity outside [{v_bounds[0]}, {v_bounds[1]}]")
    return failures
