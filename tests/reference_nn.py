"""References for the network passes and the A2C loss seeds.

- forward() and matrix_backward() are the single-agent passes the package
  used before its network core took an agent axis: one forward call per
  agent per step, and one backward call per agent and loss. The
  agent-batched passes are held to them, agent by agent.
- backward() is the older per-step formulation, from before the backward
  pass formed its weight gradients as products over the whole episode:
  every step adds outer products into the gradient, and each loss seed is
  a list of one (dL/dpolicy_t, dL/dvalue_t) pair per step.
- actor_loss_grads() and critic_loss_grads() build those per-step seeds.
- one_agent_backward() runs the package's backward() on one agent's net
  and per-step records, as a stack of one, and returns the gradient of the
  loss both seeds make together.
"""

import numpy as np

from platoonrl import nn
from platoonrl.nn import AgentNet, ForwardRecord, Hidden, _views


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The gate sigmoid, 0.5 (1 + tanh(z / 2)): nn.forward takes the same
    steps in place."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def forward(
    net: AgentNet, obs: np.ndarray, hidden: Hidden
) -> tuple[np.ndarray, float, Hidden, ForwardRecord]:
    """One step of one agent: (policy, value, new_hidden, record)."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (net.obs_dim,):
        raise ValueError(f"expected obs shape ({net.obs_dim},), got {obs.shape}")
    hd = net.hidden_dim
    x = np.tanh(net.input_w @ obs + net.input_b)
    z = net.lstm_wx @ x + net.lstm_wh @ hidden.h + net.lstm_b
    gate_i = _sigmoid(z[:hd])
    gate_f = _sigmoid(z[hd : 2 * hd])
    gate_g = np.tanh(z[2 * hd : 3 * hd])
    gate_o = _sigmoid(z[3 * hd :])
    c_new = gate_f * hidden.c + gate_i * gate_g
    tanh_c = np.tanh(c_new)
    h_new = gate_o * tanh_c
    logits = net.actor_w @ h_new + net.actor_b
    logits = logits - logits.max()
    exp_l = np.exp(logits)
    policy = exp_l / exp_l.sum()
    value = float((net.critic_w @ h_new + net.critic_b)[0])
    if not (np.all(np.isfinite(policy)) and np.isfinite(value)):
        raise FloatingPointError("non-finite network output")
    record = ForwardRecord(
        obs=obs,
        x=x,
        h_prev=hidden.h,
        c_prev=hidden.c,
        gate_i=gate_i,
        gate_f=gate_f,
        gate_g=gate_g,
        gate_o=gate_o,
        tanh_c=tanh_c,
        h_new=h_new,
        policy=policy,
    )
    return policy, value, Hidden(h=h_new, c=c_new), record


def matrix_backward(
    net: AgentNet,
    records: list[ForwardRecord],
    d_policy: np.ndarray,
    d_value: np.ndarray,
) -> np.ndarray:
    """One agent's episode gradient: the dh/dc recurrence step by step, every
    weight gradient one product over the episode."""
    d_policy = np.asarray(d_policy, dtype=float)
    d_value = np.asarray(d_value, dtype=float)
    n_steps, hd = len(records), net.hidden_dim
    if d_policy.shape != (n_steps, net.n_actions) or d_value.shape != (n_steps,):
        raise ValueError(f"loss seeds {d_policy.shape}, {d_value.shape} for {n_steps} records")
    r = ForwardRecord(*map(np.array, zip(*records)))
    p = r.policy
    d_logits = p * (d_policy - np.sum(p * d_policy, axis=1, keepdims=True))
    dh_head = d_logits @ net.actor_w + d_value[:, None] * net.critic_w[0]
    d_tanh_c = 1.0 - r.tanh_c**2
    gate_in = np.stack([r.gate_g, r.c_prev, r.gate_i], axis=1)
    d_gate = np.stack([r.gate_i, r.gate_f, r.gate_g, r.gate_o], axis=1)
    d_gate *= 1.0 - d_gate
    d_gate[:, 2] = 1.0 - r.gate_g**2
    dz = np.empty((n_steps, 4, hd))
    dh_next = np.zeros(hd)
    dc_next = np.zeros(hd)
    for t in range(n_steps - 1, -1, -1):
        dh = dh_head[t] + dh_next
        dc = dh * r.gate_o[t] * d_tanh_c[t] + dc_next
        dz[t, :3] = (dc * gate_in[t]) * d_gate[t, :3]
        dz[t, 3] = (dh * r.tanh_c[t]) * d_gate[t, 3]
        dh_next = net.lstm_wh.T @ dz[t].ravel()
        dc_next = dc * r.gate_f[t]
    dz = dz.reshape(n_steps, 4 * hd)
    d_pre = (dz @ net.lstm_wx) * (1.0 - r.x**2)
    grads = {
        "input_w": d_pre.T @ r.obs,
        "input_b": d_pre.sum(axis=0),
        "lstm_wx": dz.T @ r.x,
        "lstm_wh": dz.T @ r.h_prev,
        "lstm_b": dz.sum(axis=0),
        "actor_w": d_logits.T @ r.h_new,
        "actor_b": d_logits.sum(axis=0),
        "critic_w": d_value @ r.h_new,
        "critic_b": d_value.sum(),
    }
    return np.concatenate([np.ravel(grads[name]) for name, _ in net.layout])


def one_agent_backward(
    net: AgentNet, records: list[ForwardRecord], d_policy: np.ndarray, d_value: np.ndarray
) -> np.ndarray:
    """nn.backward for one agent: its (P,) gradient from its single-agent
    records and its (T, n_actions) and (T,) loss seeds, the sum of the
    gradients backward() returns for the two seeds."""
    tape = ForwardRecord(*(np.array(a)[:, None] for a in zip(*records)))
    seeds = (np.asarray(d, dtype=float)[:, None] for d in (d_policy, d_value))
    g_policy, g_value = nn.backward(nn.stack_nets([net]), tape, *seeds)
    return (g_policy + g_value)[0]


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
