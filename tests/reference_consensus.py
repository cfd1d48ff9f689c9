"""Per-agent loop reference for the consensus rounds.

Each agent's new vector is built by walking its neighbor list, the way the
package computed a round before it became one graph-matrix product.
Property tests hold the products to these loops. The ternary quantizer is
the package's earlier two-`where` form, which its one-pass form must match
bit for bit.
"""

import numpy as np

from platoonrl.consensus import NeighborGraph


def ternary_quantize(x: np.ndarray, tau: float = 0.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > tau, 1.0, 0.0) + np.where(x < -tau, -1.0, 0.0)


def bdc_round(
    ws: list[np.ndarray], eps: float, tau: float, graph: NeighborGraph
) -> list[np.ndarray]:
    qs = [ternary_quantize(w, tau) for w in ws]
    out = []
    for i, w in enumerate(ws):
        delta = np.zeros_like(w)
        for j in graph.adjacency[i]:
            delta += qs[j] - qs[i]
        out.append(w + eps * delta)
    return out


def wac_round(ws: list[np.ndarray], graph: NeighborGraph) -> list[np.ndarray]:
    out = []
    for i, w in enumerate(ws):
        group = [w] + [ws[j] for j in graph.adjacency[i]]
        out.append(np.mean(group, axis=0))
    return out


def dcea_round(
    ws: list[np.ndarray], eps: float, graph: NeighborGraph
) -> list[np.ndarray]:
    out = []
    for i, w in enumerate(ws):
        delta = np.zeros_like(w)
        for j in graph.adjacency[i]:
            delta += ws[j] - w
        out.append(w + eps * delta)
    return out
