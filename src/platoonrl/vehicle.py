"""Longitudinal vehicle model: point-mass kinematics, drive power, energy surrogate.

Units are SI unless noted: distance m, velocity m/s, acceleration m/s^2,
force N, power kW (the one deliberate exception, matching how results are
reported downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

# Constraint box for every controlled vehicle.
V_MIN = 0.0
V_MAX = 30.0
U_MIN = -2.5
U_MAX = 2.5
MIN_SPACING = 1.0  # below this the platoon has collided

GRAVITY = 9.8

# The constant operands of the per-step laws as 0-d arrays: NumPy converts a
# Python float operand anew on every call.
_U_MIN, _U_MAX, _HALF, _W_PER_KW = map(np.array, (U_MIN, U_MAX, 0.5, 1000.0))


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of one vehicle.

    mass_kg: curb mass plus payload.
    rolling_coeff: dimensionless rolling resistance coefficient.
    air_density: kg/m^3.
    drag_coeff: dimensionless aerodynamic drag coefficient.
    frontal_area_m2: projected frontal area.
    drivetrain_eff: one-way drivetrain efficiency in (0, 1].
    """

    mass_kg: float = 1718.4
    rolling_coeff: float = 0.011
    air_density: float = 1.206
    drag_coeff: float = 0.32
    frontal_area_m2: float = 2.455
    drivetrain_eff: float = 0.9

    def __post_init__(self) -> None:
        for name in (
            "mass_kg",
            "rolling_coeff",
            "air_density",
            "drag_coeff",
            "frontal_area_m2",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"VehicleParams.{name} must be strictly positive")
        if not 0.0 < self.drivetrain_eff <= 1.0:
            raise ValueError("VehicleParams.drivetrain_eff must be in (0, 1]")
        # The constants of driving_force and electric_power as 0-d arrays,
        # bound once: m, m g f, rho A_f C_d / 2 and eta. NumPy converts a
        # Python float operand anew on every call.
        law = (
            self.mass_kg,
            self.mass_kg * GRAVITY * self.rolling_coeff,
            0.5 * self.air_density * self.frontal_area_m2 * self.drag_coeff,
            self.drivetrain_eff,
        )
        object.__setattr__(self, "_law", tuple(np.array(x, dtype=float) for x in law))


def _all_finite(x) -> bool:
    """Whether every element of x, an array or a float, is finite. Counting
    costs less than an all() reduction, which goes through NumPy's
    Python-level wrapper."""
    finite = np.isfinite(x)
    return np.count_nonzero(finite) == finite.size


def _operands(name: str, *values) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The checked front of the public laws: values, floats or arrays, as
    float arrays broadcast to one shape; returns that shape and each value
    flattened. ValueError naming the law unless every element is finite."""
    arrays = [np.asarray(x, dtype=float) for x in values]
    if not all(map(_all_finite, arrays)):
        raise ValueError(f"{name} requires finite inputs")
    arrays = np.broadcast_arrays(*arrays)
    return arrays[0].shape, [x.reshape(-1) for x in arrays]


def _actuate(u_cmd, out=None):
    """A commanded acceleration clipped to the actuation box, into out when
    given."""
    return np.minimum(np.maximum(u_cmd, _U_MIN, out=out), _U_MAX, out=out)


def _travel(v: np.ndarray, u: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray | None:
    """Final velocity over dt under constant u, clipped to [V_MIN, V_MAX],
    into out; returns the mask of the vehicles the clip binds on, None where
    it binds on none. A zero command coasts at v, even outside the bounds.

    The bound test reads a list: on a few vehicles two NumPy reductions
    cost more than the conversion.
    """
    v_end = np.multiply(u, dt, out=out)
    np.add(v, v_end, out=v_end)
    listed = v_end.tolist()
    if V_MIN <= min(listed) and max(listed) <= V_MAX:
        return None
    clipped = (u != 0.0) & ((v_end < V_MIN) | (v_end > V_MAX))
    np.copyto(v_end, np.where(v_end > V_MAX, V_MAX, V_MIN), where=clipped)
    return clipped


def _clipped_distance(v: np.ndarray, u: np.ndarray, bound: np.ndarray, dt: float) -> np.ndarray:
    """Distance covered over dt under constant u by vehicles that hit their
    velocity bound within the step and hold it for the remainder: the
    distance integral accounts for that exactly."""
    t_hit = np.clip((bound - v) / u, 0.0, dt)
    return v * t_hit + 0.5 * u * t_hit * t_hit + bound * (dt - t_hit)


def step_kinematics(
    d: float | np.ndarray,
    v: float | np.ndarray,
    v_prev: float,
    u_prev: float,
    u_cmd: float | np.ndarray,
    dt: float,
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Advance one vehicle, or a platoon of them, by dt: returns the new
    (spacing, velocity, applied acceleration), floats for float inputs or
    arrays of the inputs' broadcast shape.

    d is the bumper gap to the predecessor and v the own velocity; for a
    platoon both are (n,) arrays ordered front to back. (v_prev, u_prev) is
    the motion of the first vehicle's predecessor over the step. In a
    platoon every later vehicle follows the one ahead of it, at that
    vehicle's realized average acceleration (v' - v) / dt.
    The commanded acceleration is clipped to the actuation box, own velocity
    to [V_MIN, V_MAX]. Spacing integrates both trajectories exactly under
    piecewise-constant acceleration:

        d' = d + (v_prev - v) dt + (u_prev - u) dt^2 / 2

    with the own-velocity clip, when it binds, integrated consistently
    (velocity held at the bound for the clipped portion of the step). The
    predecessor term is exact unless the predecessor's own clip binds.
    """
    # The scalars v_prev, u_prev and dt are checked here and used as given.
    shape, (d, v, u_cmd, *_) = _operands("step_kinematics", d, v, u_cmd, v_prev, u_prev, dt)
    if dt <= 0.0:
        raise ValueError("step_kinematics requires dt > 0")
    u = _actuate(u_cmd)
    vel = np.array((v, np.concatenate(([v_prev], v[:-1]))))
    out = np.empty_like(vel)
    _kinematics(d, u_prev, u, dt, _kinematics_rows(vel, out))
    return tuple(x.reshape(shape)[()] for x in (*out, u))


def _kinematics_rows(vel: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks _kinematics works in and their row views, bound once by a
    caller that steps the same blocks again and again. vel is the (2, n)
    block of each vehicle's own and predecessor velocity, and out the
    (2, n) block that receives the new spacing and velocity; the (2, n)
    scratch blocks of accelerations and distances are allocated here."""
    acc, dist = np.empty((2, *vel.shape))
    v, v_new = vel[0], out[1]
    return vel, acc, dist, v, v_new, out[0], acc[0], acc[1, 1:], v[:-1], v_new[:-1], *dist


def _kinematics(
    d: np.ndarray, u_lead: float, u: np.ndarray, dt: float, rows: tuple[np.ndarray, ...]
) -> None:
    """step_kinematics on 1-D float arrays, without its checks: writes the
    new spacing and velocity into the out block that rows, from
    _kinematics_rows, were bound to, a block d may share. u_lead is the
    first predecessor's acceleration and u the command, already in the
    actuation box."""
    (vel, acc, dist, v, v_new, spacing, own_acc, ahead,
     v_front, v_new_front, own_dist, lead_dist) = rows
    clipped = _travel(v, u, dt, v_new)
    # Each vehicle and its predecessor travel in one (2, n) pass; the
    # predecessors in the platoon move at their realized accelerations.
    own_acc[...] = u
    acc[1, 0] = u_lead
    np.subtract(v_new_front, v_front, out=ahead)
    ahead /= dt
    # dist = vel dt + 0.5 acc dt dt
    np.multiply(_HALF, acc, out=acc)
    acc *= dt
    acc *= dt
    np.multiply(vel, dt, out=dist)
    dist += acc
    if clipped is not None:
        own_dist[clipped] = _clipped_distance(v[clipped], u[clipped], v_new[clipped], dt)
    np.add(d, lead_dist, out=spacing)
    spacing -= own_dist


def _force(law: tuple, v, u, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """driving_force without its checks, on a VehicleParams' bound _law,
    into out; scratch is an array of out's shape."""
    mass, rolling, drag, _ = law
    np.multiply(mass, u, out=out)
    out += rolling
    np.multiply(drag, v, out=scratch)
    scratch *= v
    out += scratch
    return out


def _power_kw(law: tuple, v, u, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """electric_power without its checks, as _force, into out; scratch is
    an array of out's shape."""
    wheel_w = _force(law, v, u, out, scratch)
    wheel_w *= v
    eta = law[3]
    # With eta in (0, 1], wheel_w / eta is the larger of the two exactly
    # when wheel_w >= 0, and the maximum picks one of them unchanged.
    np.divide(wheel_w, eta, out=scratch)
    wheel_w *= eta
    np.maximum(scratch, wheel_w, out=out)
    out /= _W_PER_KW
    return out


def driving_force(
    params: VehicleParams, v: float | np.ndarray, u: float | np.ndarray
) -> float | np.ndarray:
    """Tractive force in N at velocity v and acceleration u on flat road.

    Sum of inertial force, rolling resistance, and aerodynamic drag:

        F = m u + m g f + (1/2) rho A_f C_d v^2
    """
    shape, (v, u) = _operands("driving_force", v, u)
    return _force(params._law, v, u, *np.empty((2, v.size))).reshape(shape)[()]


def electric_power(
    params: VehicleParams, v: float | np.ndarray, u: float | np.ndarray
) -> float | np.ndarray:
    """Battery-side electric power in kW at operating point (v, u).

    Wheel power F*v is divided by the drivetrain efficiency when driving and
    multiplied by it when braking, so regeneration recovers only a fraction
    of the wheel power:

        P = F v / eta   if F v >= 0
        P = F v * eta   otherwise
    """
    shape, (v, u) = _operands("electric_power", v, u)
    return _power_kw(params._law, v, u, *np.empty((2, v.size))).reshape(shape)[()]


@dataclass(frozen=True)
class EnergyPoly:
    """Bivariate quartic surrogate of electric_power over the operating box.

    coeffs[k, j] multiplies v^k * u^j; evaluation and serialization are
    row-major (k outer, j inner).
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (5, 5):
            raise ValueError("EnergyPoly.coeffs must have shape (5, 5)")
        if not np.all(np.isfinite(c)):
            raise ValueError("EnergyPoly.coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1).copy()


def eval_energy_poly(poly: EnergyPoly, v: float, u: float) -> float:
    """Evaluate the surrogate at (v, u) in kW."""
    return float(np.polynomial.polynomial.polyval2d(v, u, poly.coeffs))


def _poly_design(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    cols = [v**k * u**j for k in range(5) for j in range(5)]
    return np.stack(cols, axis=1)


def fit_energy_poly(
    params: VehicleParams,
    n_v: int = 61,
    n_u: int = 51,
) -> tuple[EnergyPoly, float]:
    """Least-squares fit of the 5x5 surrogate on a regular (v, u) grid.

    The grid spans v in [V_MIN, V_MAX] (n_v points) by u in [U_MIN, U_MAX]
    (n_u points). Returns the fitted surface and its RMSE in kW against
    electric_power on that grid. Fewer than 5 distinct samples per axis
    cannot identify a quartic and raises FitError.
    """
    if n_v < 5 or n_u < 5:
        raise FitError("fit grid needs at least 5 points per axis for a quartic")
    v_grid = np.linspace(V_MIN, V_MAX, n_v)
    u_grid = np.linspace(U_MIN, U_MAX, n_u)
    vv, uu = np.meshgrid(v_grid, u_grid, indexing="ij")
    v_flat = vv.reshape(-1)
    u_flat = uu.reshape(-1)
    target = electric_power(params, v_flat, u_flat)
    design = _poly_design(v_flat, u_flat)
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 25:
        raise FitError(f"degenerate fit: design rank {rank} < 25")
    poly = EnergyPoly(coeffs.reshape(5, 5))
    resid = design @ coeffs - target
    rmse = float(np.sqrt(np.mean(resid**2)))
    return poly, rmse
