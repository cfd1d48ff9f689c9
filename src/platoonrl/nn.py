"""Recurrent actor-critic network with hand-written forward/backward passes.

Architecture per agent: fully connected tanh layer (obs_dim -> hidden_dim),
one LSTM cell (hidden_dim -> hidden_dim), a softmax actor head over the
discrete actions and a scalar critic head, both read from the LSTM output.

Everything is float64 numpy. The recurrent state is an explicit (h, c) pair
carried by the caller; of what a caller can see, forward() writes nothing
but the record it computes the step into: the `out` record it may be
given, such as a row of a training episode's tape, or else a fresh one.
Both take the same code, so identical inputs always produce identical
outputs.

Each AgentNet binds once, at construction, the views forward() reads its
biases through and private scratch for the values forward() never hands
out: the two LSTM products, the gate-major pre-activation block and the
critic product. forward() writes that scratch on every call, so one net
must not be stepped from two threads at once; separate nets may.

Parameter buffer: an AgentNet owns one float64 array, `params`, and its
named weight arrays are views into it, so writing either one changes both.
param_layout() gives the (name, shape) of each array in vector order, with
every array stored row-major and the LSTM gate blocks ordered input, forget,
cell, output along the 4*hidden axis. That order is the contract the
consensus protocols, the gradient step and the checkpoints share; backward()
returns its gradients in the same layout.

Agent axis: `params` is one agent's (P,) vector or an (n_agents, P) stack
with one row per agent, and then every named view and every forward() input
and output carries the agent axis in front. Each agent's products are
separate BLAS calls through np.matmul, so stacking agents does not change
any agent's numbers. backward() takes a stack only, with its activations
and its two loss seeds shaped (T, n_agents, ...), and returns one gradient
per seed from a single reverse pass: the actor's and the critic's, which
train clips and steps apart.

Threads: backward() starts one helper thread per call, which adds each
window's trunk weight products into the gradients while the calling thread
runs the next window's recurrence; the calling thread adds the first
window's products, the last ones, itself, so an episode of one window
starts no thread. The helper reads the tape, the net's
lstm_wx and the window's dz, writes only the gradients backward() returns
and its own scratch, and is joined before backward() returns, also when it
raises; its exception is raised from backward() as it was raised. A call
writes nothing but its own buffers and the gradients it returns, so
backward() may run from several threads at once. With more than one BLAS
thread, the two threads of a call oversubscribe a two-core machine.
"""

from __future__ import annotations

import math
import zipfile
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .files import replaced

HIDDEN_DIM = 64  # LSTM width of every network the package builds by default

_CHECKPOINT_KEYS = ("flat", "obs_dim", "hidden_dim", "n_actions")


def param_layout(
    obs_dim: int, hidden_dim: int, n_actions: int
) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every parameter array, in flat-vector order."""
    return (
        ("input_w", (hidden_dim, obs_dim)),
        ("input_b", (hidden_dim,)),
        ("lstm_wx", (4 * hidden_dim, hidden_dim)),
        ("lstm_wh", (4 * hidden_dim, hidden_dim)),
        ("lstm_b", (4 * hidden_dim,)),
        ("actor_w", (n_actions, hidden_dim)),
        ("actor_b", (n_actions,)),
        ("critic_w", (1, hidden_dim)),
        ("critic_b", (1,)),
    )


def _views(
    flat: np.ndarray, layout: tuple[tuple[str, tuple[int, ...]], ...]
) -> dict[str, np.ndarray]:
    """Named views into the last axis of `flat`, shaped by `layout` behind
    flat's leading (agent) axes."""
    out = {}
    offset = 0
    for name, shape in layout:
        n = math.prod(shape)
        out[name] = flat[..., offset : offset + n].reshape(flat.shape[:-1] + shape)
        offset += n
    return out


class AgentNet:
    """Parameters of one agent, a (P,) vector, or of n agents, an (n, P)
    stack: `params` plus a view into it per param_layout() entry
    (net.input_w, net.lstm_wx, ...). A C-contiguous float64 `params`
    argument is used in place, not copied. Write `params` in place; rebinding it would detach
    the views, and forward()'s bias views with them."""

    def __init__(
        self,
        obs_dim: int,
        hidden_dim: int,
        n_actions: int,
        params: np.ndarray | None = None,
    ) -> None:
        if obs_dim < 1 or hidden_dim < 1 or n_actions < 2:
            raise ValueError("network dimensions out of range")
        self.obs_dim = obs_dim
        self.hidden_dim = hidden_dim
        self.n_actions = n_actions
        self.layout = param_layout(obs_dim, hidden_dim, n_actions)
        size = sum(math.prod(shape) for _, shape in self.layout)
        if params is None:
            params = np.zeros(size)
        self.params = np.ascontiguousarray(params, dtype=float)
        if self.params.ndim not in (1, 2) or self.params.shape[-1] != size:
            raise ValueError(
                f"dims ({obs_dim}, {hidden_dim}, {n_actions}) take {size} parameters, "
                f"got shape {self.params.shape}"
            )
        self.__dict__.update(_views(self.params, self.layout))
        self._step = _bind_step(self)


class _StepOperands(NamedTuple):
    """forward()'s operands besides its inputs, record and weights, bound
    once per net. The LSTM and critic products go into private (..., m, 1)
    columns, the shape np.matmul writes, and are read through views that
    drop the column axis, gate-major (4, ..., hidden_dim) for the LSTM's."""

    zx_col: np.ndarray  # LSTM input product
    zx_gates: np.ndarray
    zh_col: np.ndarray  # LSTM recurrent product
    zh_gates: np.ndarray
    v_col: np.ndarray  # critic product
    v: np.ndarray  # without either length-1 axis
    z: np.ndarray  # gate-major pre-activations, private too
    lstm_b_gates: np.ndarray  # the LSTM bias, gate-major
    critic_b: np.ndarray  # the critic bias without its length-1 axis


def _bind_step(net: AgentNet) -> _StepOperands:
    lead, hd = net.params.shape[:-1], net.hidden_dim

    def gates(a: np.ndarray) -> np.ndarray:
        return a.reshape(lead + (4, hd)).swapaxes(0, -2)

    zx_col, zh_col = np.empty((2,) + lead + (4 * hd, 1))
    v_col = np.empty(lead + (1, 1))
    return _StepOperands(
        zx_col, gates(zx_col[..., 0]), zh_col, gates(zh_col[..., 0]), v_col,
        v_col[..., 0, 0], np.empty((4,) + lead + (hd,)), gates(net.lstm_b),
        net.critic_b[..., 0],
    )


def stack_nets(nets: Sequence[AgentNet]) -> AgentNet:
    """One agent-batched net over a copy of the nets' vectors, stacked in
    list order."""
    dims = {(net.obs_dim, net.hidden_dim, net.n_actions) for net in nets}
    if len(dims) != 1:
        raise ValueError(f"cannot stack networks of dimensions {sorted(dims)}")
    return AgentNet(*dims.pop(), params=np.stack([net.params for net in nets]))


class Hidden(NamedTuple):
    """LSTM carry: hidden output h and cell state c, each (hidden_dim,) per
    agent."""

    h: np.ndarray
    c: np.ndarray


class ForwardRecord(NamedTuple):
    """Activations retained for backpropagation through time: one step's
    from forward(), or a whole episode's with the steps stacked on axis 0."""

    obs: np.ndarray
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gate_i: np.ndarray
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    tanh_c: np.ndarray
    h_new: np.ndarray
    policy: np.ndarray


def _empty_records(n_steps: int, net: AgentNet) -> ForwardRecord:
    """Uninitialised buffers for n_steps of forward() records of `net`: one
    (n_steps, *lead, width) array per ForwardRecord field, lead being the
    net's agent axes. h_prev and h_new are the first and last n_steps rows
    of one (n_steps + 1)-row buffer, so a step's h_new is the next step's
    h_prev in place."""
    lead, hd = net.params.shape[:-1], net.hidden_dim
    widths = {"obs": net.obs_dim, "policy": net.n_actions}
    h = np.empty((n_steps + 1,) + lead + (hd,))
    buffers = {
        f: np.empty((n_steps,) + lead + (widths.get(f, hd),))
        for f in ForwardRecord._fields
        if f not in ("h_prev", "h_new")
    }
    return ForwardRecord(**buffers, h_prev=h[:-1], h_new=h[1:])


def orthogonal_init(
    shape: tuple[int, int], gain: float, rng: np.random.Generator
) -> np.ndarray:
    """Orthogonal matrix via QR of a Gaussian draw, with the R-diagonal sign
    fix so the distribution is uniform over orthogonal matrices."""
    rows, cols = shape
    a = rng.standard_normal((rows, cols) if rows >= cols else (cols, rows))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_agent_net(
    obs_dim: int,
    hidden_dim: int = HIDDEN_DIM,
    n_actions: int = 4,
    rng: np.random.Generator | None = None,
) -> AgentNet:
    """Fresh network: orthogonal weights (gain 1.0 on the trunk, 0.01 on both
    heads so initial policies are near uniform and values near zero), zero
    biases. The matrices are drawn in layout order."""
    net = AgentNet(obs_dim, hidden_dim, n_actions)
    if rng is None:
        rng = np.random.default_rng()
    for w, gain in (
        (net.input_w, 1.0),
        (net.lstm_wx, 1.0),
        (net.lstm_wh, 1.0),
        (net.actor_w, 0.01),
        (net.critic_w, 0.01),
    ):
        w[...] = orthogonal_init(w.shape, gain, rng)
    return net


def zero_hidden(hidden_dim: int) -> Hidden:
    return Hidden(h=np.zeros(hidden_dim), c=np.zeros(hidden_dim))


def forward(
    net: AgentNet, obs: np.ndarray, hidden: Hidden, out: ForwardRecord | None = None
) -> tuple[np.ndarray, float | np.ndarray, Hidden, ForwardRecord]:
    """One step of every agent of `net`: returns (policy, value, new_hidden,
    record), each with the net's agent axis in front.

    policy is a proper distribution over actions (softmax with max-logit
    subtraction, so it is invariant to shifting all logits); value is the
    critic output, a float for a single-agent net; record holds what
    backward() needs.

    The step is computed into a record, `out` or else a fresh one-row
    record: out, when given, is a ForwardRecord of writable float64 arrays
    shaped as the record this step returns, such as one step's row of an
    episode tape. obs, hidden.h and hidden.c are copied in, to out.obs,
    out.h_prev and out.c_prev; each of those may share memory with the
    array it receives (a copy onto itself is skipped), and out.h_new may
    share memory with hidden.h. No other field of out may overlap obs or
    hidden. The record's arrays are then the returned record's fields,
    policy and new_hidden.h; value and new_hidden.c are fresh arrays.
    """
    obs = np.asarray(obs, dtype=float)
    lead = net.params.shape[:-1]
    if obs.shape != lead + (net.obs_dim,):
        raise ValueError(f"expected obs shape {lead + (net.obs_dim,)}, got {obs.shape}")
    zx_col, zx_gates, zh_col, zh_gates, v_col, v, z, lstm_b_gates, critic_b = net._step
    if out is None:
        out = ForwardRecord(*(a[0] for a in _empty_records(1, net)))
    out.obs[...] = obs
    out.h_prev[...] = hidden.h
    out.c_prev[...] = hidden.c
    # The input layer's and the actor's products go straight into the
    # record and are finished there in place.
    x = out.x
    np.matmul(net.input_w, out.obs[..., None], out=x[..., None])
    x += net.input_b
    np.tanh(x, out=x)
    np.matmul(net.lstm_wx, x[..., None], out=zx_col)
    np.matmul(net.lstm_wh, out.h_prev[..., None], out=zh_col)
    # Gate-major: each gate's block of every agent in one contiguous array.
    np.add(zx_gates, zh_gates, out=z)
    z += lstm_b_gates
    # The cell gate is tanh(z); the other three are the sigmoid
    # 0.5 (1 + tanh(z / 2)), taken over all four blocks at once up to the
    # final halving, which writes each gate.
    gate_g = np.tanh(z[2], out=out.gate_g)
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    gate_i = np.multiply(z[0], 0.5, out=out.gate_i)
    gate_f = np.multiply(z[1], 0.5, out=out.gate_f)
    gate_o = np.multiply(z[3], 0.5, out=out.gate_o)
    # c_new = gate_f * c_prev + gate_i * gate_g, with the second product
    # held in tanh_c's buffer until tanh(c_new) replaces it.
    c_new = gate_f * out.c_prev
    tanh_c = np.multiply(gate_i, gate_g, out=out.tanh_c)
    c_new += tanh_c
    np.tanh(c_new, out=tanh_c)
    h_new = np.multiply(gate_o, tanh_c, out=out.h_new)
    h_col = h_new[..., None]
    policy = out.policy
    np.matmul(net.actor_w, h_col, out=policy[..., None])
    policy += net.actor_b
    policy -= np.maximum.reduce(policy, axis=-1, keepdims=True)
    np.exp(policy, out=policy)
    policy /= np.add.reduce(policy, axis=-1, keepdims=True)
    np.matmul(net.critic_w, h_col, out=v_col)
    value = np.add(v, critic_b)
    # Counting costs less than an all() reduction, which goes through
    # NumPy's Python-level wrapper.
    finite = np.count_nonzero(np.isfinite(policy)) + np.count_nonzero(np.isfinite(value))
    if finite != policy.size + np.size(value):
        raise FloatingPointError("non-finite network output")
    return policy, value, Hidden(h=h_new, c=c_new), out


# Steps per window of backward()'s reverse pass. dz, the heads' dL/dh and
# the gate factors are built for one window at a time, so the pass's memory
# is bounded by the window rather than by the episode. A window is also a
# stage of the pipeline, so an episode of one window gains nothing from the
# helper. Each window adds one set of weight products per agent, so very
# short windows pay more of those calls; the window is their inner
# dimension, so another window moves the gradients' last bits. On a
# 600-step, 4-agent, hidden-64 episode (one BLAS thread, 2-core VM, the
# serial pass and the pipelined one interleaved in one process, medians of
# 20 calls) a call took 60, 46, 41, 41, 43 and 42 ms serially and 39, 28,
# 28, 29, 31 and 42 ms pipelined at windows of 25, 50, 100, 150, 200 and
# 600 steps, at tracemalloc peaks of 5.1, 6.0, 7.7, 9.5, 11.4 and 24.5 MiB
# serially and 4.6, 5.7, 7.9, 10.2, 12.6 and 32.9 MiB pipelined (at 600,
# one window, the second dz buffer goes unused): past 100 steps a window
# saves no time and costs about 2.3 MiB per 50 steps more.
_WINDOW = 100


def backward(
    net: AgentNet, tape: ForwardRecord, d_policy: np.ndarray, d_value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagation through time over one episode of every agent of an
    (n_agents, P) stack, for two losses at once.

    tape is one ForwardRecord of the episode, forward()'s (n_agents, ...)
    records stacked on a leading step axis. d_policy (T, n_agents,
    n_actions) and d_value (T, n_agents) hold dL/dpolicy_t and
    dL/dvalue_t. Returns (g_policy, g_value), each shaped like net.params:
    every agent's gradient, summed over all steps, of the loss that
    d_policy alone seeds and of the loss that d_value alone seeds. Their
    sum is the gradient of the loss both seed together. The softmax
    Jacobian is applied here, so callers express losses directly in terms
    of the policy probabilities.

    The reverse pass runs over windows of _WINDOW steps, last window first.
    Per window, the heads' dL/dh and the gate derivatives are built once
    for both seeds; per step, the dh/dc recurrence advances both seeds of
    every agent together; at the window's end its trunk weight products,
    one per agent for both seeds, are added into the result. The head
    gradients are products over the whole episode.

    The windows are a two-stage pipeline. The calling thread runs each
    window's recurrence into one of two dz buffers and hands the window to
    one helper thread, started per call, which adds its trunk products
    (lstm_wx, lstm_wh, lstm_b, input_w, input_b) into the result in window
    order while the calling thread runs the next window into the other
    buffer. Before a buffer is written again, the products that read it
    have finished. The first window's products, the last to be added, the
    calling thread adds itself once the helper has added the others. Each element is computed by the same arithmetic, and
    added into the result in the same order, as in the serial windowed
    pass that tests/reference_nn.py keeps, so the gradients are bit for bit
    the same. The helper reads the tape, lstm_wx and dz, writes only the
    returned gradients and its own scratch, and is joined before this
    returns; an exception it raises is raised here.
    """
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

    w_max = min(_WINDOW, n_steps)
    # Two window buffers, the seed axis next to the hidden one: the helper
    # reads one window's dz while the recurrence writes the next window's
    # into the other. dz is agent-major, so each agent's window is one
    # matrix of the weight products; the others are step-major, as the
    # tape is.
    dz = np.empty((2, n_agents, w_max, 2, 4, hd))
    # The heads' dL/dh, to which each step adds the recurrent term in place.
    dh = np.empty((w_max, n_agents, 2, 1, hd))
    # dz's four gate blocks (input, forget, cell, output) are dc times
    # factors 0-2 and dh times factor 3: each gate's squashing derivative,
    # s(1 - s) for sigmoids and 1 - g^2 for tanh, times gate_g, c_prev,
    # gate_i and tanh_c. Factor 4 is dc's g_o (1 - tanh_c^2).
    factors = np.empty((w_max, n_agents, 1, 5, hd))
    # The helper's scratch: a window's two trunk products, then, once both
    # are added, its dL/dx, 1 - x^2 and input-layer product.
    scratch = np.empty(n_agents * hd * max(8 * hd, 3 * w_max + 2 * net.obs_dim))
    dh_next = np.zeros((n_agents, 2, 1, hd))
    dc_next = np.zeros((n_agents, 2, 1, hd))
    dc = np.empty((n_agents, 2, 1, hd))

    def add_by_agent(grad: np.ndarray, product: np.ndarray) -> None:
        """grad (2, n_agents, ...) += product (n_agents, 2 * m, ...), seed
        k's rows of an agent's product onto its seed-k gradient. Each agent
        is one 2-D add, which NumPy makes in place, where one 4-D add would
        first copy the whole operand."""
        for grad_i, product_i in zip(by_agent(grad), product):
            rows = grad_i.reshape(2, -1)
            rows += product_i.reshape(2, -1)

    def add_trunk_products(t: slice, dz_w: np.ndarray) -> None:
        """Window t's trunk products, both seeds of an agent in one, added
        into g: the helper's work, and the calling thread's for the first
        window. Reads dz_w, the tape and lstm_wx."""
        w = t.stop - t.start
        dz_rows = dz_w.reshape(n_agents, w, 8 * hd)
        prod = scratch[: n_agents * 8 * hd * hd].reshape(n_agents, 8 * hd, hd)
        for name, a in (("lstm_wx", r.x), ("lstm_wh", r.h_prev)):
            np.matmul(dz_rows.swapaxes(1, 2), by_agent(a[t]), out=prod)
            add_by_agent(g[name], prod)
        g["lstm_b"] += by_agent(dz_rows.sum(axis=1).reshape(n_agents, 2, 4 * hd))
        # dL/dx, times tanh's derivative 1 - x^2.
        sizes = np.cumsum([2 * w * hd, w * hd, 2 * hd * net.obs_dim]) * n_agents
        d_pre, d_x, in_prod = np.split(scratch[: sizes[-1]], sizes[:-1])
        d_pre = np.matmul(
            dz_w.reshape(n_agents, 2 * w, 4 * hd), net.lstm_wx,
            out=d_pre.reshape(n_agents, 2 * w, hd),
        )
        d_pre = d_pre.reshape(n_agents, w, 2, hd)
        d_x = np.square(r.x[t], out=d_x.reshape(w, n_agents, hd))
        d_pre *= by_agent(np.subtract(1.0, d_x, out=d_x))[:, :, None]
        d_rows = d_pre.reshape(n_agents, w, 2 * hd)
        in_prod = in_prod.reshape(n_agents, 2 * hd, net.obs_dim)
        np.matmul(d_rows.swapaxes(1, 2), by_agent(r.obs[t]), out=in_prod)
        add_by_agent(g["input_w"], in_prod)
        g["input_b"] += by_agent(d_pre.sum(axis=1))

    # Imported here, not at the top: importing the package starts no thread
    # and loads no executor.
    from concurrent.futures import ThreadPoolExecutor

    windows = []  # each submitted window's products, in window order
    with ThreadPoolExecutor(max_workers=1) as helper:
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
            if len(windows) >= 2:
                # The buffer still holds the dz of the window two later
                # until that window's products have read it.
                windows[-2].result()
            dz_w = dz[len(windows) % 2, :, :w]
            per_step = (
                dh[:w], factors[:w, ..., :3, :], factors[:w, ..., 3:4, :],
                factors[:w, ..., 4:, :], r.gate_f[t, :, None, None],
                by_agent(dz_w[..., :3, :]), by_agent(dz_w[..., 3:, :]),
                by_agent(dz_w.reshape(n_agents, w, 2, 4 * hd)),
            )
            for dh_t, a_gates, a_o, b, g_f, dz_gates, dz_o, dz_t in zip(
                *(a[::-1] for a in per_step)
            ):
                dh_t += dh_next
                np.multiply(dh_t, b, out=dc)
                dc += dc_next
                np.multiply(dc, a_gates, out=dz_gates)
                np.multiply(dh_t, a_o, out=dz_o)
                np.matmul(dz_t, net.lstm_wh, out=dh_next[:, :, 0])
                np.multiply(dc, g_f, out=dc_next)
            if t0:
                windows.append(helper.submit(add_trunk_products, t, dz_w))
        for window in windows:
            window.result()
    # The first window's products come last, so the calling thread adds
    # them itself rather than wait for the helper; an episode of one window
    # starts no thread.
    add_trunk_products(t, dz_w)
    return grads[0], grads[1]


def flatten_params(net: AgentNet) -> np.ndarray:
    """A copy of the parameter vector."""
    return net.params.copy()


def param_count(net: AgentNet) -> int:
    """Parameters per agent."""
    return net.params.shape[-1]


def set_flat_params(net: AgentNet, flat: np.ndarray) -> None:
    """Overwrite the parameter vector in place with `flat` (same layout)."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != net.params.shape:
        raise ValueError(f"expected {net.params.size} parameters, got {flat.shape}")
    net.params[...] = flat


def save_params(net: AgentNet, path: str | Path) -> None:
    """Checkpoint: flat float64 parameter vector plus a dimensions header.
    Written to a temporary file beside `path` and then moved over it, so an
    interrupted write leaves any earlier checkpoint intact."""
    dims = {k: getattr(net, k) for k in _CHECKPOINT_KEYS[1:]}
    with replaced(path) as tmp:
        np.savez(tmp, flat=net.params, **dims)


def load_params(path: str | Path) -> AgentNet:
    """Rebuild a network from save_params output; round-trips exactly.
    Raises DataError when the file is not a checkpoint, lacks an entry, or
    holds a dimension that is not one integer, a parameter vector that is
    not floating point, or one that misfits the dimensions."""
    try:
        with np.load(path) as data:
            entries = {k: data[k] for k in _CHECKPOINT_KEYS if k in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a readable checkpoint ({exc})") from None
    missing = [k for k in _CHECKPOINT_KEYS if k not in entries]
    if missing:
        raise DataError(f"{path}: checkpoint lacks {', '.join(missing)}")
    # Each dimension is one integer: int() would truncate a float and
    # raise on text or on an array.
    bad = [k for k in _CHECKPOINT_KEYS[1:] if entries[k].ndim or entries[k].dtype.kind not in "iu"]
    if bad:
        raise DataError(f"{path}: {', '.join(bad)}: not one integer")
    dims = [int(entries[k]) for k in _CHECKPOINT_KEYS[1:]]
    flat = entries["flat"]
    # AgentNet converts to float64 unchecked: it would drop a complex
    # vector's imaginary parts and parse a text one.
    if flat.dtype.kind != "f":
        raise DataError(f"{path}: parameter vector has dtype {flat.dtype}, not float")
    if flat.ndim != 1:
        raise DataError(f"{path}: parameter vector has shape {flat.shape}")
    try:
        return AgentNet(*dims, params=flat)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
