"""Recurrent actor-critic network with hand-written forward/backward passes.

Architecture per agent: fully connected tanh layer (obs_dim -> hidden_dim),
one LSTM cell (hidden_dim -> hidden_dim), a softmax actor head over the
discrete actions and a scalar critic head, both read from the LSTM output.

Everything is float64 numpy. The recurrent state is an explicit (h, c) pair
carried by the caller; forward() mutates nothing, so identical inputs always
produce identical outputs.

Parameter buffer: each AgentNet owns one flat vector, `params`, and its
named weight arrays are views into it, so writing either one changes both.
param_layout() gives the (name, shape) of each array in vector order, with
every array stored row-major and the LSTM gate blocks ordered input, forget,
cell, output along the 4*hidden axis. That order is the contract the
consensus protocols, the gradient step and the checkpoints share; backward()
returns its gradient in the same layout.
"""

from __future__ import annotations

import math
import os
import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

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
    """Named views into `flat`, shaped by `layout`."""
    out = {}
    offset = 0
    for name, shape in layout:
        n = math.prod(shape)
        out[name] = flat[offset : offset + n].reshape(shape)
        offset += n
    return out


class AgentNet:
    """One agent's parameters: the flat float64 vector `params` plus a view
    into it per param_layout() entry (net.input_w, net.lstm_wx, ...). Write
    `params` in place; rebinding it would detach the views."""

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
        self.params = np.zeros(size) if params is None else np.array(params, dtype=float)
        if self.params.shape != (size,):
            raise ValueError(
                f"dims ({obs_dim}, {hidden_dim}, {n_actions}) take {size} parameters, "
                f"got shape {self.params.shape}"
            )
        self.__dict__.update(_views(self.params, self.layout))


class Hidden(NamedTuple):
    """LSTM carry: hidden output h and cell state c, each (hidden_dim,)."""

    h: np.ndarray
    c: np.ndarray


class ForwardRecord(NamedTuple):
    """Per-step activations retained for backpropagation through time."""

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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def forward(
    net: AgentNet, obs: np.ndarray, hidden: Hidden
) -> tuple[np.ndarray, float, Hidden, ForwardRecord]:
    """One step: returns (policy, value, new_hidden, record).

    policy is a proper distribution over actions (softmax with max-logit
    subtraction, so it is invariant to shifting all logits); value is the
    critic scalar; record holds what backward() needs.
    """
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


def backward(
    net: AgentNet,
    records: list[ForwardRecord],
    d_policy: np.ndarray,
    d_value: np.ndarray,
) -> np.ndarray:
    """Backpropagation through time over one episode.

    records come from forward() in step order; row t of d_policy (T,
    n_actions) and entry t of d_value (T,) hold dL/dpolicy_t and
    dL/dvalue_t. Returns the parameter gradient summed over all steps, as a
    flat vector in net.params' layout. The softmax Jacobian is applied here,
    so callers express losses directly in terms of the policy probabilities.

    Only the dh/dc recurrence runs step by step; every weight gradient is
    one product over the whole episode.
    """
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
    # dz's four gate blocks (input, forget, cell, output) are dc times
    # gate_in (dh times tanh_c for the output gate), times the derivative of
    # the gate's squashing function: s(1 - s) for sigmoids, 1 - g^2 for tanh.
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


def flatten_params(net: AgentNet) -> np.ndarray:
    """A copy of the parameter vector."""
    return net.params.copy()


def param_count(net: AgentNet) -> int:
    return net.params.size


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
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    try:
        np.savez(
            tmp,
            flat=net.params,
            obs_dim=net.obs_dim,
            hidden_dim=net.hidden_dim,
            n_actions=net.n_actions,
        )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_params(path: str | Path) -> AgentNet:
    """Rebuild a network from save_params output; round-trips exactly.
    Raises DataError when the file is not a checkpoint, lacks an entry, or
    holds a vector whose length does not match its dimensions."""
    try:
        with np.load(path) as data:
            entries = {k: data[k] for k in _CHECKPOINT_KEYS if k in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a readable checkpoint ({exc})") from None
    missing = [k for k in _CHECKPOINT_KEYS if k not in entries]
    if missing:
        raise DataError(f"{path}: checkpoint lacks {', '.join(missing)}")
    dims = [int(entries[k]) for k in ("obs_dim", "hidden_dim", "n_actions")]
    try:
        return AgentNet(*dims, params=entries["flat"])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
