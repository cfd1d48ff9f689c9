"""Per-agent loop reference for the consensus rounds.

Each agent's new vector is built by walking its neighbor list, the way the
package computed a round before it became one graph-matrix product. The
graph is given as `neighbors`, one list of neighbor indices per agent.
Property tests hold the products to these loops. The ternary quantizer is
the package's earlier two-`where` form, which its one-pass form must match
bit for bit.
"""

import numpy as np


def line_neighbors(n: int) -> list[list[int]]:
    """The platoon line graph: agent i talks to i-1 and i+1."""
    return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]


def ternary_quantize(x: np.ndarray, tau: float = 0.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > tau, 1.0, 0.0) + np.where(x < -tau, -1.0, 0.0)


def bdc_round(
    ws: list[np.ndarray], eps: float, tau: float, neighbors: list[list[int]]
) -> list[np.ndarray]:
    qs = [ternary_quantize(w, tau) for w in ws]
    out = []
    for i, w in enumerate(ws):
        delta = np.zeros_like(w)
        for j in neighbors[i]:
            delta += qs[j] - qs[i]
        out.append(w + eps * delta)
    return out


def wac_round(ws: list[np.ndarray], neighbors: list[list[int]]) -> list[np.ndarray]:
    out = []
    for i, w in enumerate(ws):
        group = [w] + [ws[j] for j in neighbors[i]]
        out.append(np.mean(group, axis=0))
    return out


def dcea_round(
    ws: list[np.ndarray], eps: float, neighbors: list[list[int]]
) -> list[np.ndarray]:
    out = []
    for i, w in enumerate(ws):
        delta = np.zeros_like(w)
        for j in neighbors[i]:
            delta += ws[j] - w
        out.append(w + eps * delta)
    return out
