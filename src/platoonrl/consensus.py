"""Bandwidth-constrained weight consensus over the platoon's line graph.

Each agent exchanges its parameter vector with the vehicle ahead of it and
the vehicle behind it (agent i talks to i-1 and i+1). Three synchronous
mixing rules are provided, differing in what crosses the wire per round:

  bdc   ternary-quantized weights, 2 bits per parameter per directed edge
  wac   full-precision weights averaged over the closed neighborhood
  dcea  full-precision diffusion toward neighbor weights

plus a ternary-quantized gradient step with error feedback for local updates.
Each round is one product of an (n_agents, n_agents) line-graph matrix with
the (n_agents, P) stack of the incoming weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PROTOCOLS = ("bdc", "wac", "dcea", "none")

# Payload bits per parameter sent over one directed edge in one round.
_BITS_PER_PARAM = {"bdc": 2, "wac": 32, "dcea": 32, "none": 0}


@dataclass(frozen=True)
class ConsensusConfig:
    """How and how often agents mix weights during training.

    protocol: one of PROTOCOLS; 'none' disables mixing.
    eps: diffusion step size for bdc/dcea.
    tau: dead-zone threshold of the ternary quantizer.
    period: apply one mixing round every `period` episodes.
    """

    protocol: str = "bdc"
    eps: float = 0.01
    tau: float = 0.0
    period: int = 1

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not 0.0 < self.eps <= 0.5:
            raise ConfigError("ConsensusConfig.eps must be in (0, 0.5]")
        if self.tau < 0.0:
            raise ConfigError("ConsensusConfig.tau must be non-negative")
        if self.period < 1:
            raise ConfigError("ConsensusConfig.period must be >= 1")


def ternary_quantize(x: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """Elementwise sign with a dead zone: -1 where x < -tau, +1 where
    x > tau, else 0. Idempotent for tau < 1. One pass: the two masks'
    difference, taken in float."""
    x = np.asarray(x, dtype=float)
    return np.subtract(x > tau, x < -tau, dtype=float)


def _stack_weights(weights: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """The agents' vectors as one (n_agents, P) float array. A float stack is
    used as it is, not copied; no round writes to it."""
    if len(weights) < 1:
        raise ValueError("need at least one agent")
    if len({np.shape(w) for w in weights}) != 1:
        raise ValueError("all agents must share one parameter shape")
    stacked = np.asarray(weights, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("each agent's weights must be one vector")
    return stacked


def _adjacency(n: int) -> np.ndarray:
    """(n, n) 0/1 adjacency matrix of the n-agent line graph."""
    return np.eye(n, k=1) + np.eye(n, k=-1)


def _laplacian(n: int) -> np.ndarray:
    """Line-graph Laplacian D - A: row i of L @ W is
    sum_{j in N(i)} (w_i - w_j)."""
    a = _adjacency(n)
    return np.diag(a.sum(axis=1)) - a


def bdc_round(
    weights: list[np.ndarray] | np.ndarray, eps: float, tau: float = 0.0
) -> np.ndarray:
    """One synchronous round of ternary-difference diffusion:

        w_i' = w_i + eps * sum_{j in N(i)} (q(w_j) - q(w_i)),  i.e.
        W'   = W - eps * L @ q(W)

    with L the line-graph Laplacian and W the (n_agents, P) stack; returns
    W'. Only the quantized vectors cross the wire. Any state with identical
    componentwise sign patterns across agents is a fixed point, and the
    per-component change is bounded by 2 * eps * deg(i).
    """
    w = _stack_weights(weights)
    return w - eps * (_laplacian(len(w)) @ ternary_quantize(w, tau))


def wac_round(weights: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """One synchronous round of closed-neighborhood averaging:

        w_i' = mean of {w_i} union {w_j : j in N(i)},  i.e.  W' = M @ W

    with M = (I + A) / (deg + 1) row-wise; returns the (n_agents, P) W'.
    """
    w = _stack_weights(weights)
    closed = _adjacency(len(w)) + np.eye(len(w))
    return (closed / closed.sum(axis=1, keepdims=True)) @ w


def dcea_round(weights: list[np.ndarray] | np.ndarray, eps: float) -> np.ndarray:
    """One synchronous round of full-precision diffusion:

        w_i' = w_i + eps * sum_{j in N(i)} (w_j - w_i),  i.e.
        W'   = W - eps * L @ W

    returning the (n_agents, P) W'. Antisymmetric over edges, so the
    across-agent mean of every component is preserved; spread contracts for
    eps <= 0.5 / max degree.
    """
    w = _stack_weights(weights)
    return w - eps * (_laplacian(len(w)) @ w)


def apply_consensus(
    protocol: str,
    weights: list[np.ndarray] | np.ndarray,
    eps: float,
    tau: float = 0.0,
) -> np.ndarray:
    """Dispatch one mixing round for the named protocol ('none' is identity);
    returns the mixed (n_agents, P) stack."""
    if protocol == "bdc":
        return bdc_round(weights, eps, tau)
    if protocol == "wac":
        return wac_round(weights)
    if protocol == "dcea":
        return dcea_round(weights, eps)
    if protocol == "none":
        return np.array(weights, dtype=float)
    raise ValueError(f"unknown protocol {protocol!r}")


def qsgd_step(
    w: np.ndarray,
    grad: np.ndarray,
    residual: np.ndarray,
    lr: float,
    tau: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ternary-quantized gradient step with error feedback.

    The residual carries quantization error forward so the compressed updates
    track the uncompressed ones over time:

        p  = grad + residual
        q  = ternary_quantize(p, tau)
        w' = w - lr * q
        residual' = p - q
    """
    w = np.asarray(w, dtype=float)
    grad = np.asarray(grad, dtype=float)
    residual = np.asarray(residual, dtype=float)
    if not (w.shape == grad.shape == residual.shape):
        raise ValueError("qsgd_step requires matching shapes")
    if lr <= 0.0:
        raise ValueError("qsgd_step requires lr > 0")
    p = grad + residual
    q = ternary_quantize(p, tau)
    return w - lr * q, p - q


def comm_bits_per_round(protocol: str, n_params: int, n_agents: int) -> int:
    """Total payload bits one mixing round moves across the n_agents line
    graph: bits per parameter per directed edge times its 2 (n_agents - 1)
    directed edges."""
    if protocol not in _BITS_PER_PARAM:
        raise ValueError(f"unknown protocol {protocol!r}")
    if n_params < 0:
        raise ValueError("n_params must be >= 0")
    if n_agents < 1:
        raise ValueError("line graph needs n_agents >= 1")
    return _BITS_PER_PARAM[protocol] * n_params * 2 * (n_agents - 1)
