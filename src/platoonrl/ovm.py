"""Optimal velocity model car-following controller.

Maps gap and relative speed to a longitudinal acceleration command; the RL
agents act by switching the (alpha, beta) feedback gains of this law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vehicle import _actuate, _all_finite


@dataclass(frozen=True)
class OvmParams:
    """Headway profile of the optimal velocity law; ovm_accel takes the
    law's gains as arguments.

    d_stop: gap (m) at and below which the desired velocity is zero.
    d_go: gap (m) at and above which the desired velocity is v_max.
    v_max: free-flow desired velocity, m/s.
    """

    d_stop: float = 5.0
    d_go: float = 35.0
    v_max: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.d_stop < self.d_go:
            raise ValueError("OvmParams requires 0 < d_stop < d_go")
        if self.v_max <= 0.0:
            raise ValueError("OvmParams.v_max must be strictly positive")
        # The operands of headway_velocity's ramp as 0-d arrays, bound once:
        # d_stop, the ramp span, its bounds 0 and 1, pi and v_max / 2. NumPy
        # converts a Python float operand anew on every call.
        ramp = (self.d_stop, self.d_go - self.d_stop, 0.0, 1.0, np.pi, 0.5 * self.v_max)
        object.__setattr__(self, "_ramp", tuple(map(np.array, ramp)))


def headway_velocity(
    params: OvmParams, d: float | np.ndarray, out: np.ndarray | None = None
) -> float | np.ndarray:
    """Desired velocity for gap d: 0 below d_stop, v_max above d_go, and a
    half-cosine ramp in between. Continuous and non-decreasing in d.

    out, when given, is a float array of d's shape that receives the
    velocities and is returned; without it they are a fresh array, or a
    float for a float d."""
    if not _all_finite(d):
        raise ValueError("headway_velocity requires finite d")
    d_stop, span, zero, one, pi, half_v_max = params._ramp
    v = np.subtract(d, d_stop, out=np.empty(np.shape(d)) if out is None else out)
    v /= span
    np.maximum(v, zero, out=v)
    np.minimum(v, one, out=v)
    v *= pi
    np.cos(v, out=v)
    np.subtract(one, v, out=v)
    v *= half_v_max
    return v if out is not None else v[()]


def ovm_accel(
    params: OvmParams,
    d: float | np.ndarray,
    v: float | np.ndarray,
    v_prev: float | np.ndarray,
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
) -> float | np.ndarray:
    """Acceleration command u = alpha (v_h(d) - v) + beta (v_prev - v),
    clipped to the actuation box. alpha and beta are the gains on the
    headway and the predecessor velocity errors, 1/s. Takes floats or
    arrays; array gains hold one gain per vehicle and broadcast against the
    state."""
    # d is checked by headway_velocity.
    if not (_all_finite(v) and _all_finite(v_prev)):
        raise ValueError("ovm_accel requires finite inputs")
    if not (_all_finite(alpha) and _all_finite(beta) and min(np.min(alpha), np.min(beta)) >= 0.0):
        raise ValueError("ovm_accel requires finite, non-negative gains")
    ahead_err = v_prev - v
    head_err = headway_velocity(params, d) - v
    shape = np.broadcast_shapes(*map(np.shape, (alpha, beta, ahead_err, head_err)))
    gains, errors = np.empty((2, 2, *shape))
    gains[0], gains[1] = beta, alpha
    errors[0], errors[1] = ahead_err, head_err
    return _gain_accel(gains, errors, np.empty(shape))[()]


def _gain_accel(gains: np.ndarray, errors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ovm_accel without its checks, into out. gains is the (2, ...) block
    of beta and alpha, errors that of the velocity errors to the
    predecessor, v_prev - v, and to the headway velocity, v_h(d) - v; the
    products overwrite gains."""
    np.multiply(gains, errors, out=gains)
    np.add(gains[0], gains[1], out=out)
    return _actuate(out, out)
