"""Longitudinal vehicle model: point-mass kinematics, drive power, energy surrogate.

Units are SI unless noted: distance m, velocity m/s, acceleration m/s^2,
force N, power kW (the one deliberate exception, matching how results are
reported downstream).
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of one vehicle.

    mass_kg: curb mass plus payload.
    rolling_coeff: dimensionless rolling resistance coefficient.
    air_density: kg/m^3.
    drag_coeff: dimensionless aerodynamic drag coefficient.
    frontal_area_m2: projected frontal area.
    wheel_radius_m: effective tire rolling radius.
    gear_ratio: overall reduction, motor shaft to wheel.
    drivetrain_eff: one-way drivetrain efficiency in (0, 1].
    """

    mass_kg: float = 1718.4
    rolling_coeff: float = 0.011
    air_density: float = 1.206
    drag_coeff: float = 0.32
    frontal_area_m2: float = 2.455
    wheel_radius_m: float = 0.337
    gear_ratio: float = 3.91 * 4.14
    drivetrain_eff: float = 0.9

    def __post_init__(self) -> None:
        for name in (
            "mass_kg",
            "rolling_coeff",
            "air_density",
            "drag_coeff",
            "frontal_area_m2",
            "wheel_radius_m",
            "gear_ratio",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"VehicleParams.{name} must be strictly positive")
        if not 0.0 < self.drivetrain_eff <= 1.0:
            raise ValueError("VehicleParams.drivetrain_eff must be in (0, 1]")


def _require_finite(name: str, *values) -> None:
    """Raise ValueError unless every element of every value is finite."""
    for x in values:
        if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
            raise ValueError(f"{name} requires finite inputs")


def _travel(v: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Distance covered and final velocity over dt under constant u.

    The velocity trajectory is clipped to [V_MIN, V_MAX]: once the bound is
    hit the vehicle holds it for the remainder of the step, and the distance
    integral accounts for that exactly. A zero command coasts at v.
    """
    v_end = v + u * dt
    dist = v * dt + 0.5 * u * dt * dt
    if V_MIN <= v_end.min() and v_end.max() <= V_MAX:
        return dist, v_end
    clipped = (u != 0.0) & ((v_end < V_MIN) | (v_end > V_MAX))
    bound = np.where(v_end > V_MAX, V_MAX, V_MIN)
    t_hit = np.clip((bound - v) / np.where(clipped, u, 1.0), 0.0, dt)
    dist_clipped = v * t_hit + 0.5 * u * t_hit * t_hit + bound * (dt - t_hit)
    return np.where(clipped, dist_clipped, dist), np.where(clipped, bound, v_end)


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
    arrays shaped like d.

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
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    u_cmd = np.asarray(u_cmd, dtype=float)
    _require_finite("step_kinematics", d, v, u_cmd, v_prev, u_prev, dt)
    if dt <= 0.0:
        raise ValueError("step_kinematics requires dt > 0")
    return tuple(x[()] for x in _kinematics(d, v, v_prev, u_prev, u_cmd, dt))


def _kinematics(
    d: np.ndarray, v: np.ndarray, v_prev: float, u_prev: float, u_cmd: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """step_kinematics on float arrays, without its checks."""
    u = np.minimum(np.maximum(u_cmd, U_MIN), U_MAX)
    dist_self, v_new = _travel(v, u, dt)
    v_flat, v_new_flat = v.reshape(-1), v_new.reshape(-1)
    v_ahead = np.concatenate(([v_prev], v_flat[:-1]))
    u_ahead = np.concatenate(([u_prev], (v_new_flat[:-1] - v_flat[:-1]) / dt))
    dist_prev = (v_ahead * dt + 0.5 * u_ahead * dt * dt).reshape(v.shape)
    return d + dist_prev - dist_self, v_new, u


# The constants of driving_force and electric_power: m, m g f,
# rho A_f C_d / 2 and eta.
_PowerLaw = tuple[float, float, float, float]


def _power_law(params: VehicleParams) -> _PowerLaw:
    return (
        params.mass_kg,
        params.mass_kg * GRAVITY * params.rolling_coeff,
        0.5 * params.air_density * params.frontal_area_m2 * params.drag_coeff,
        params.drivetrain_eff,
    )


def _force(law: _PowerLaw, v, u):
    """driving_force without its checks."""
    mass, rolling, drag, _ = law
    return mass * u + rolling + drag * v * v


def _power_kw(law: _PowerLaw, v, u) -> np.ndarray:
    """electric_power without its checks."""
    wheel_w = _force(law, v, u) * v
    eta = law[3]
    return np.where(wheel_w >= 0.0, wheel_w / eta, wheel_w * eta) / 1000.0


def driving_force(
    params: VehicleParams, v: float | np.ndarray, u: float | np.ndarray
) -> float | np.ndarray:
    """Tractive force in N at velocity v and acceleration u on flat road.

    Sum of inertial force, rolling resistance, and aerodynamic drag:

        F = m u + m g f + (1/2) rho A_f C_d v^2
    """
    _require_finite("driving_force", v, u)
    return _force(_power_law(params), v, u)


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
    _require_finite("electric_power", v, u)
    return _power_kw(_power_law(params), v, u)[()]


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
    """Evaluate the surrogate at (v, u) in kW via nested Horner."""
    acc = 0.0
    for row in poly.coeffs[::-1]:
        inner = 0.0
        for c in row[::-1]:
            inner = inner * u + c
        acc = acc * v + inner
    return acc


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
