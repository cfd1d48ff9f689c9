"""Bandwidth-constrained weight consensus over a platoon graph.

Agents exchange parameter vectors with their graph neighbors (by default the
platoon line graph: agent i talks to i-1 and i+1). Three synchronous mixing
rules are provided, differing in what crosses the wire per round:

  bdc   ternary-quantized weights, 2 bits per parameter per directed edge
  wac   full-precision weights averaged over the closed neighborhood
  dcea  full-precision diffusion toward neighbor weights

plus a ternary-quantized gradient step with error feedback for local updates.
Each round is one product of an (n_agents, n_agents) graph matrix with the
(n_agents, P) stack of the incoming weights, so agent order cannot matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PROTOCOLS = ("bdc", "wac", "dcea", "none")

# Payload bits per parameter sent over one directed edge in one round.
_BITS_PER_PARAM = {"bdc": 2, "wac": 32, "dcea": 32, "none": 0}


@dataclass(frozen=True)
class NeighborGraph:
    """Undirected communication graph as per-agent sorted neighbor lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.adjacency) != self.n:
            raise ValueError("adjacency must list neighbors for each of n agents")
        for i, neigh in enumerate(self.adjacency):
            if list(neigh) != sorted(set(neigh)):
                raise ValueError(f"adjacency[{i}] must be sorted and duplicate-free")
            for j in neigh:
                if not 0 <= j < self.n:
                    raise ValueError(f"adjacency[{i}] index {j} out of range")
                if j == i:
                    raise ValueError(f"agent {i} lists itself as a neighbor")
                if i not in self.adjacency[j]:
                    raise ValueError(f"edge ({i}, {j}) is not symmetric")

    @property
    def n_directed_edges(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency)

    @staticmethod
    def line(n: int) -> "NeighborGraph":
        """Platoon topology: each vehicle talks to the one ahead and behind."""
        if n < 1:
            raise ValueError("line graph needs n >= 1")
        adjacency = tuple(
            tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)
        )
        return NeighborGraph(n=n, adjacency=adjacency)


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


def _stack_weights(
    weights: list[np.ndarray] | np.ndarray, graph: NeighborGraph | None
) -> tuple[np.ndarray, NeighborGraph]:
    """The agents' vectors as one (n_agents, P) float array, and the graph
    (the line graph when none is given). A float stack is used as it is, not
    copied; no round writes to it."""
    if len(weights) < 1:
        raise ValueError("need at least one agent")
    if graph is None:
        graph = NeighborGraph.line(len(weights))
    elif graph.n != len(weights):
        raise ValueError(f"graph has {graph.n} agents, got {len(weights)} vectors")
    if len({np.shape(w) for w in weights}) != 1:
        raise ValueError("all agents must share one parameter shape")
    stacked = np.asarray(weights, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("each agent's weights must be one vector")
    return stacked, graph


def _adjacency(graph: NeighborGraph) -> np.ndarray:
    """(n, n) 0/1 adjacency matrix of the graph."""
    a = np.zeros((graph.n, graph.n))
    for i, neigh in enumerate(graph.adjacency):
        a[i, list(neigh)] = 1.0
    return a


def _laplacian(graph: NeighborGraph) -> np.ndarray:
    """Graph Laplacian D - A: row i of L @ W is sum_{j in N(i)} (w_i - w_j)."""
    a = _adjacency(graph)
    return np.diag(a.sum(axis=1)) - a


def bdc_round(
    weights: list[np.ndarray] | np.ndarray,
    eps: float,
    tau: float = 0.0,
    graph: NeighborGraph | None = None,
) -> np.ndarray:
    """One synchronous round of ternary-difference diffusion:

        w_i' = w_i + eps * sum_{j in N(i)} (q(w_j) - q(w_i)),  i.e.
        W'   = W - eps * L @ q(W)

    with L the graph Laplacian and W the (n_agents, P) stack; returns W'.
    Only the quantized vectors cross the wire. Any state with identical
    componentwise sign patterns across agents is a fixed point, and the
    per-component change is bounded by 2 * eps * deg(i).
    """
    w, graph = _stack_weights(weights, graph)
    return w - eps * (_laplacian(graph) @ ternary_quantize(w, tau))


def wac_round(
    weights: list[np.ndarray] | np.ndarray, graph: NeighborGraph | None = None
) -> np.ndarray:
    """One synchronous round of closed-neighborhood averaging:

        w_i' = mean of {w_i} union {w_j : j in N(i)},  i.e.  W' = M @ W

    with M = (I + A) / (deg + 1) row-wise; returns the (n_agents, P) W'.
    """
    w, graph = _stack_weights(weights, graph)
    closed = _adjacency(graph) + np.eye(graph.n)
    return (closed / closed.sum(axis=1, keepdims=True)) @ w


def dcea_round(
    weights: list[np.ndarray] | np.ndarray,
    eps: float,
    graph: NeighborGraph | None = None,
) -> np.ndarray:
    """One synchronous round of full-precision diffusion:

        w_i' = w_i + eps * sum_{j in N(i)} (w_j - w_i),  i.e.
        W'   = W - eps * L @ W

    returning the (n_agents, P) W'. Antisymmetric over edges, so the
    across-agent mean of every component is preserved; spread contracts for
    eps <= 0.5 / max degree.
    """
    w, graph = _stack_weights(weights, graph)
    return w - eps * (_laplacian(graph) @ w)


def apply_consensus(
    protocol: str,
    weights: list[np.ndarray] | np.ndarray,
    eps: float,
    tau: float = 0.0,
    graph: NeighborGraph | None = None,
) -> np.ndarray:
    """Dispatch one mixing round for the named protocol ('none' is identity);
    returns the mixed (n_agents, P) stack."""
    if protocol == "bdc":
        return bdc_round(weights, eps, tau, graph)
    if protocol == "wac":
        return wac_round(weights, graph)
    if protocol == "dcea":
        return dcea_round(weights, eps, graph)
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


def comm_bits_per_round(
    protocol: str, n_params: int, graph: NeighborGraph | int
) -> int:
    """Total payload bits one mixing round moves across the graph: bits per
    parameter per directed edge times the number of directed edges (an int
    argument means a line graph with that many agents)."""
    if protocol not in _BITS_PER_PARAM:
        raise ValueError(f"unknown protocol {protocol!r}")
    if n_params < 0:
        raise ValueError("n_params must be >= 0")
    if isinstance(graph, int):
        graph = NeighborGraph.line(graph)
    return _BITS_PER_PARAM[protocol] * n_params * graph.n_directed_edges
