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
- windowed_backward() is the package's backward() as it ran before its
  window products moved to a helper thread: the same NumPy calls in the
  same order, all on the calling thread. The pipelined pass must give its
  bits.
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


def windowed_backward(
    net: AgentNet, tape: ForwardRecord, d_policy: np.ndarray, d_value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """nn.backward's serial windowed pass: each window's trunk weight
    products are added into the gradients on the calling thread before the
    next window's recurrence starts."""
    if net.params.ndim != 2:
        raise ValueError("backward takes an (n_agents, P) stack; build one with stack_nets")
    d_policy = np.asarray(d_policy, dtype=float)
    d_value = np.asarray(d_value, dtype=float)
    r = tape
    n_steps, n_agents, hd = len(r.policy), len(net.params), net.hidden_dim
    if d_policy.shape != (n_steps, n_agents, net.n_actions) or d_value.shape != (n_steps, n_agents):
        raise ValueError(f"loss seeds {d_policy.shape}, {d_value.shape} for {n_steps} steps")
    p = r.policy
    d_logits = p * (d_policy - np.sum(p * d_policy, axis=-1, keepdims=True))

    def by_agent(a: np.ndarray) -> np.ndarray:
        """(T, n_agents, ...) as (n_agents, T, ...): each agent's episode."""
        return a.swapaxes(0, 1)

    # One (2, n_agents, P) result, policy seed first; g[name][k] is seed
    # k's view of a weight array.
    grads = np.zeros((2,) + net.params.shape)
    g = _views(grads, net.layout)
    np.matmul(by_agent(d_logits).swapaxes(1, 2), by_agent(r.h_new), out=g["actor_w"][0])
    g["actor_b"][0] = d_logits.sum(axis=0)
    # Each agent's critic seeds in one contiguous row, as a single agent's
    # are: their sum is then pairwise and their product with h_new takes
    # the same BLAS path, so neither moves an agent's numbers.
    d_value_rows = np.ascontiguousarray(d_value.T)
    np.matmul(d_value_rows[:, None], by_agent(r.h_new), out=g["critic_w"][1])
    g["critic_b"][1, :, 0] = d_value_rows.sum(axis=1)

    w_max = min(nn._WINDOW, n_steps)
    # The window's buffers, the seed axis next to the hidden one. dz is
    # agent-major, so each agent's window is one matrix of the weight
    # products; the others are step-major, as the tape is.
    dz = np.empty((n_agents, w_max, 2, 4, hd))
    # The heads' dL/dh, to which each step adds the recurrent term in place.
    dh = np.empty((w_max, n_agents, 2, 1, hd))
    # dz's four gate blocks (input, forget, cell, output) are dc times
    # factors 0-2 and dh times factor 3: each gate's squashing derivative,
    # s(1 - s) for sigmoids and 1 - g^2 for tanh, times gate_g, c_prev,
    # gate_i and tanh_c. Factor 4 is dc's g_o (1 - tanh_c^2).
    factors = np.empty((w_max, n_agents, 1, 5, hd))
    prod = np.empty((n_agents, 8 * hd, hd))
    dh_next = np.zeros((n_agents, 2, 1, hd))
    dc_next = np.zeros((n_agents, 2, 1, hd))
    dc = np.empty((n_agents, 2, 1, hd))
    for t0 in reversed(range(0, n_steps, w_max)):
        t = slice(t0, min(t0 + w_max, n_steps))
        w = t.stop - t0
        f = factors[:w, :, 0]
        for k, s, times in (
            (0, r.gate_i, r.gate_g), (1, r.gate_f, r.c_prev), (3, r.gate_o, r.tanh_c)
        ):
            np.subtract(1.0, s[t], out=f[:, :, k])
            f[:, :, k] *= s[t]
            f[:, :, k] *= times[t]
        for k, s, times in ((2, r.gate_g, r.gate_i), (4, r.tanh_c, r.gate_o)):
            np.square(s[t], out=f[:, :, k])
            np.subtract(1.0, f[:, :, k], out=f[:, :, k])
            f[:, :, k] *= times[t]
        heads = dh[:w, :, :, 0]
        np.matmul(by_agent(d_logits[t]), net.actor_w, out=by_agent(heads[:, :, 0]))
        np.multiply(d_value[t, :, None], net.critic_w[:, 0], out=heads[:, :, 1])
        dz_w = dz[:, :w]
        per_step = (
            dh[:w], factors[:w, ..., :3, :], factors[:w, ..., 3:4, :],
            factors[:w, ..., 4:, :], r.gate_f[t, :, None, None],
            by_agent(dz_w[..., :3, :]), by_agent(dz_w[..., 3:, :]),
            by_agent(dz_w.reshape(n_agents, w, 2, 4 * hd)),
        )
        for dh_t, a_gates, a_o, b, g_f, dz_gates, dz_o, dz_t in zip(*(a[::-1] for a in per_step)):
            dh_t += dh_next
            np.multiply(dh_t, b, out=dc)
            dc += dc_next
            np.multiply(dc, a_gates, out=dz_gates)
            np.multiply(dh_t, a_o, out=dz_o)
            np.matmul(dz_t, net.lstm_wh, out=dh_next[:, :, 0])
            np.multiply(dc, g_f, out=dc_next)
        # The window's trunk products, both seeds of an agent in one: seed
        # k's rows of the results are its gradient.
        dz_rows = dz_w.reshape(n_agents, w, 8 * hd)
        for name, a in (("lstm_wx", r.x), ("lstm_wh", r.h_prev)):
            np.matmul(dz_rows.swapaxes(1, 2), by_agent(a[t]), out=prod)
            g[name] += by_agent(prod.reshape(n_agents, 2, 4 * hd, hd))
        g["lstm_b"] += by_agent(dz_rows.sum(axis=1).reshape(n_agents, 2, 4 * hd))
        # dL/dx, times tanh's derivative 1 - x^2.
        d_pre = np.matmul(dz_w.reshape(n_agents, 2 * w, 4 * hd), net.lstm_wx)
        d_pre = d_pre.reshape(n_agents, w, 2, hd)
        d_x = np.square(r.x[t])
        d_pre *= by_agent(np.subtract(1.0, d_x, out=d_x))[:, :, None]
        d_rows = d_pre.reshape(n_agents, w, 2 * hd)
        g["input_w"] += by_agent(
            np.matmul(d_rows.swapaxes(1, 2), by_agent(r.obs[t])).reshape(n_agents, 2, hd, -1)
        )
        g["input_b"] += by_agent(d_pre.sum(axis=1))
    return grads[0], grads[1]


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
