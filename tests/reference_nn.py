"""Step-by-step reference for the BPTT backward pass and the A2C loss seeds.

This is the per-step formulation the package used before backward() formed
its weight gradients as products over the whole episode: every step adds
outer products into the gradient, and each loss seed is a list of one
(dL/dpolicy_t, dL/dvalue_t) pair per step. Property tests hold the
vectorised code to it.
"""

import numpy as np

from platoonrl.nn import AgentNet, ForwardRecord, _views


def backward(
    net: AgentNet,
    records: list[ForwardRecord],
    loss_grads: list[tuple[np.ndarray, float]],
) -> np.ndarray:
    """Gradient summed over steps, accumulated one step at a time in reverse."""
    if len(records) != len(loss_grads):
        raise ValueError("records and loss_grads must have equal length")
    grad = np.zeros(net.params.size)
    g = _views(grad, net.layout)
    dh_next = np.zeros(net.hidden_dim)
    dc_next = np.zeros(net.hidden_dim)
    for rec, (d_policy, d_value) in zip(reversed(records), reversed(loss_grads)):
        p = rec.policy
        d_logits = p * (d_policy - p @ d_policy)
        g["actor_w"] += np.outer(d_logits, rec.h_new)
        g["actor_b"] += d_logits
        g["critic_w"] += d_value * rec.h_new[None, :]
        g["critic_b"] += d_value
        dh = net.actor_w.T @ d_logits + d_value * net.critic_w[0] + dh_next
        d_o = dh * rec.tanh_c
        dc = dh * rec.gate_o * (1.0 - rec.tanh_c**2) + dc_next
        d_i = dc * rec.gate_g
        d_f = dc * rec.c_prev
        d_g = dc * rec.gate_i
        dz = np.concatenate(
            [
                d_i * rec.gate_i * (1.0 - rec.gate_i),
                d_f * rec.gate_f * (1.0 - rec.gate_f),
                d_g * (1.0 - rec.gate_g**2),
                d_o * rec.gate_o * (1.0 - rec.gate_o),
            ]
        )
        g["lstm_wx"] += np.outer(dz, rec.x)
        g["lstm_wh"] += np.outer(dz, rec.h_prev)
        g["lstm_b"] += dz
        dx = net.lstm_wx.T @ dz
        dh_next = net.lstm_wh.T @ dz
        dc_next = dc * rec.gate_f
        d_pre = dx * (1.0 - rec.x**2)
        g["input_w"] += np.outer(d_pre, rec.obs)
        g["input_b"] += d_pre
    return grad


def actor_loss_grads(
    records: list[ForwardRecord],
    actions: np.ndarray,
    advantages: np.ndarray,
    entropy_coeff: float,
) -> list[tuple[np.ndarray, float]]:
    """d/dpolicy of  -sum_t A_t log pi(a_t) - entropy_coeff * sum_t H(pi_t)."""
    grads = []
    for t, record in enumerate(records):
        policy = record.policy
        dp = entropy_coeff * (np.log(policy) + 1.0)
        dp[actions[t]] -= advantages[t] / policy[actions[t]]
        grads.append((dp, 0.0))
    return grads


def critic_loss_grads(
    values: np.ndarray, returns: np.ndarray, n_actions: int
) -> list[tuple[np.ndarray, float]]:
    """d/dvalue of  sum_t (G_t - V_t)^2."""
    zeros = np.zeros(n_actions)
    return [(zeros, -2.0 * (returns[t] - values[t])) for t in range(len(values))]
