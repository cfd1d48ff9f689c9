"""Vehicle physics: longitudinal force, electric power, kinematics, energy fit.

Expected numbers are frozen from hand arithmetic over the model constants:
rolling = 1718.4 * 9.8 * 0.011 = 185.24352 N, aero(15) = 0.5 * 1.206 *
2.455 * 0.32 * 15^2 = 106.58628 N, so F(15,0) = 291.8298 N and P(15,0) =
291.8298 * 15 / 0.9 / 1000 = 4.86383 kW.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from platoonrl.env import RewardWeights, compute_reward
from platoonrl.errors import FitError
from platoonrl.ovm import OvmParams, ovm_accel
from platoonrl.vehicle import (
    U_MAX,
    U_MIN,
    V_MAX,
    V_MIN,
    EnergyPoly,
    VehicleParams,
    driving_force,
    electric_power,
    eval_energy_poly,
    fit_energy_poly,
    step_kinematics,
)

PARAMS = VehicleParams()


class TestDrivingForce:
    def test_cruise_at_15(self):
        assert driving_force(PARAMS, 15.0, 0.0) == pytest.approx(291.8298, abs=0.05)

    def test_standstill_is_rolling_resistance_only(self):
        assert driving_force(PARAMS, 0.0, 0.0) == pytest.approx(185.24352, abs=1e-9)

    def test_braking_at_15(self):
        # 291.8298 - 1718.4 * 1.0
        assert driving_force(PARAMS, 15.0, -1.0) == pytest.approx(-1426.5702, abs=0.05)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            driving_force(PARAMS, float("nan"), 0.0)


class TestElectricPower:
    def test_cruise_at_15(self):
        assert electric_power(PARAMS, 15.0, 0.0) == pytest.approx(4.86383, abs=0.005)

    def test_driving_at_15(self):
        # F = 291.8298 + 1718.4 = 2010.2298 N -> * 15 / 0.9 = 33.5038 kW
        assert electric_power(PARAMS, 15.0, 1.0) == pytest.approx(33.504, abs=0.005)

    def test_regen_at_15(self):
        # wheel -21.3986 kW, recovered at eta: -19.2587 kW
        assert electric_power(PARAMS, 15.0, -1.0) == pytest.approx(-19.2587, abs=0.005)

    def test_zero_velocity_zero_power(self):
        assert electric_power(PARAMS, 0.0, 0.0) == 0.0

    @given(
        v=st.floats(min_value=0.0, max_value=30.0),
        u=st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_sign_convention(self, v, u):
        """Battery pays more than the wheel needs when driving; recovers less
        than the wheel provides when braking."""
        wheel_kw = driving_force(PARAMS, v, u) * v / 1000.0
        battery_kw = electric_power(PARAMS, v, u)
        if wheel_kw >= 0.0:
            assert battery_kw >= wheel_kw - 1e-12
        else:
            assert abs(battery_kw) <= abs(wheel_kw) + 1e-12

    @given(v=st.floats(min_value=0.0, max_value=30.0))
    def test_coasting_never_negative(self, v):
        assert electric_power(PARAMS, v, 0.0) >= 0.0


class TestStepKinematics:
    def test_exact_spacing_integral(self):
        # d' = 20 + (15-14)*0.1 + 0.5*(0-0)*0.01 = 20.1
        spacing, velocity, _ = step_kinematics(
            20.0, 14.0, v_prev=15.0, u_prev=0.0, u_cmd=0.0, dt=0.1
        )
        assert spacing == pytest.approx(20.1, abs=1e-12)
        assert velocity == 14.0

    @given(
        d=st.floats(min_value=1.0, max_value=50.0),
        v=st.floats(min_value=2.0, max_value=28.0),
        v_prev=st.floats(min_value=0.0, max_value=30.0),
        u_prev=st.floats(min_value=-2.5, max_value=2.5),
        u=st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_matches_closed_form_when_unclipped(self, d, v, v_prev, u_prev, u):
        dt = 0.1
        spacing, velocity, _ = step_kinematics(d, v, v_prev, u_prev, u, dt)
        if V_MIN <= v + u * dt <= V_MAX:
            expected = d + (v_prev - v) * dt + 0.5 * (u_prev - u) * dt * dt
            assert spacing == pytest.approx(expected, abs=1e-12)
            assert velocity == pytest.approx(v + u * dt, abs=1e-12)

    @given(
        v0=st.floats(min_value=0.0, max_value=30.0),
        cmds=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=50),
    )
    def test_constraint_box(self, v0, cmds):
        """Velocity and applied acceleration stay inside the box for any
        command sequence, including out-of-range commands."""
        spacing, velocity = 20.0, v0
        for u_cmd in cmds:
            spacing, velocity, accel = step_kinematics(spacing, velocity, 15.0, 0.0, u_cmd, 0.1)
            assert V_MIN <= velocity <= V_MAX
            assert U_MIN <= accel <= U_MAX

    def test_velocity_clip_integrates_consistently(self):
        # From v=29.95 with u=2.5, the bound is hit at t*=0.02 s; the vehicle
        # then holds 30 m/s for the remaining 0.08 s.
        spacing, velocity, _ = step_kinematics(
            20.0, 29.95, v_prev=29.95, u_prev=0.0, u_cmd=2.5, dt=0.1
        )
        dist_self = 29.95 * 0.02 + 0.5 * 2.5 * 0.02**2 + 30.0 * 0.08
        expected = 20.0 + 29.95 * 0.1 - dist_self
        assert velocity == 30.0
        assert spacing == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_dt_and_nan(self):
        with pytest.raises(ValueError):
            step_kinematics(20.0, 15.0, 15.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            step_kinematics(20.0, 15.0, math.nan, 0.0, 0.0, 0.1)


# Each public law at a valid operating point, and the positions of its
# arguments that take arrays. The other numbers are scalars of the law.
LAWS = {
    "driving_force": (driving_force, (PARAMS, 15.0, 0.5), (1, 2)),
    "electric_power": (electric_power, (PARAMS, 15.0, 0.5), (1, 2)),
    "step_kinematics": (step_kinematics, (20.0, 15.0, 15.0, 0.0, 0.5, 0.1), (0, 1, 4)),
    "ovm_accel": (ovm_accel, (OvmParams(), 20.0, 15.0, 15.0, 0.5, 0.5), (1, 2, 3, 4, 5)),
    "compute_reward": (
        compute_reward, (RewardWeights(), 20.0, 15.0, 0.5, 4.0, 20.0, 15.0), (1, 2, 3, 4)
    ),
}


def _with(args, changes):
    return tuple(changes.get(i, x) for i, x in enumerate(args))


class TestCheckedFront:
    """The public laws share one input front: floats or arrays that
    broadcast, and a ValueError naming the law on any non-finite element."""

    @pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "law, position", [(law, i) for law, (_, _, arrays) in LAWS.items() for i in arrays]
    )
    def test_non_finite_input_names_the_law(self, law, position, bad, as_array):
        fn, args, _ = LAWS[law]
        value = np.array([args[position], bad]) if as_array else bad
        with pytest.raises(ValueError, match=f"^{law} requires finite inputs$"):
            fn(*_with(args, {position: value}))

    @pytest.mark.parametrize(
        "law, position", [("step_kinematics", i) for i in (2, 3, 5)]
        + [("compute_reward", i) for i in (5, 6)]
    )
    def test_non_finite_scalar_names_the_law(self, law, position):
        fn, args, _ = LAWS[law]
        with pytest.raises(ValueError, match=f"^{law} requires finite inputs$"):
            fn(*_with(args, {position: math.nan}))

    @pytest.mark.parametrize("law", LAWS)
    def test_floats_give_floats(self, law):
        fn, args, _ = LAWS[law]
        result = fn(*args)
        for x in result if law == "step_kinematics" else (result,):
            assert type(x) is np.float64

    @pytest.mark.parametrize("law", LAWS)
    def test_arrays_give_their_broadcast_shape(self, law):
        fn, args, (first, second, *_) = LAWS[law]
        columns = np.full((2, 1), args[first])
        row = np.full(3, args[second])
        result = fn(*_with(args, {first: columns, second: row}))
        for x in result if law == "step_kinematics" else (result,):
            assert isinstance(x, np.ndarray) and x.shape == (2, 3)

    @pytest.mark.parametrize("gain", [0.5, np.empty(0)], ids=["float", "per-vehicle"])
    def test_ovm_accel_on_an_empty_state(self, gain):
        empty = np.empty(0)
        result = ovm_accel(OvmParams(), empty, empty, empty, gain, gain)
        assert isinstance(result, np.ndarray) and result.shape == (0,)

    @pytest.mark.parametrize("state", [20.0, np.empty(0)], ids=["float", "empty"])
    def test_negative_gain_is_rejected_apart(self, state):
        # An empty state does not hide the gain.
        with pytest.raises(ValueError, match="^ovm_accel requires non-negative gains$"):
            ovm_accel(OvmParams(), state, state, state, 0.5, -0.1)


class TestVehicleParams:
    def test_bound_law_is_not_a_field(self):
        """The power law's constants are bound at construction, not fields:
        the field list, equality, asdict and replace are those of the six
        settings."""
        names = [f.name for f in dataclasses.fields(VehicleParams)]
        assert names == [
            "mass_kg", "rolling_coeff", "air_density", "drag_coeff", "frontal_area_m2",
            "drivetrain_eff",
        ]
        assert dataclasses.asdict(PARAMS) == dict(
            zip(names, (1718.4, 0.011, 1.206, 0.32, 2.455, 0.9))
        )
        assert VehicleParams() == PARAMS and hash(VehicleParams()) == hash(PARAMS)
        heavy = dataclasses.replace(PARAMS, mass_kg=2000.0)
        assert heavy != PARAMS
        # replace binds the law anew: m u + m g f at standstill.
        assert driving_force(heavy, 0.0, 1.0) == pytest.approx(2000.0 + 2000.0 * 9.8 * 0.011)


@pytest.fixture(scope="module")
def fit():
    return fit_energy_poly(PARAMS)


class TestEnergyFit:
    def test_default_grid_rmse(self, fit):
        _, rmse = fit
        assert rmse <= 0.5, f"fit RMSE {rmse:.4f} kW exceeds 0.5 kW"

    def test_surface_near_origin(self, fit):
        poly, _ = fit
        assert abs(eval_energy_poly(poly, 0.0, 0.0)) <= 0.2

    def test_surface_at_cruise(self, fit):
        poly, _ = fit
        assert eval_energy_poly(poly, 15.0, 0.0) == pytest.approx(4.864, abs=0.5)

    def test_held_out_rmse(self, fit):
        """Half-cell offset grid: residuals stay within 2x the fit RMSE."""
        poly, rmse = fit
        v_grid = np.linspace(0.0, 30.0, 61) + 0.25
        u_grid = np.linspace(-2.5, 2.5, 51) + 0.05
        v_grid = v_grid[v_grid <= 30.0]
        u_grid = u_grid[u_grid <= 2.5]
        resid = [
            eval_energy_poly(poly, v, u) - electric_power(PARAMS, v, u)
            for v in v_grid
            for u in u_grid
        ]
        held_out = float(np.sqrt(np.mean(np.square(resid))))
        assert held_out <= 2.0 * rmse, f"held-out {held_out:.4f} vs fit {rmse:.4f}"

    def test_degenerate_grid_rejected(self):
        with pytest.raises(FitError):
            fit_energy_poly(PARAMS, n_v=1, n_u=51)

    def test_eval_zero_and_constant_coeffs(self):
        zero = EnergyPoly(np.zeros((5, 5)))
        assert eval_energy_poly(zero, 12.3, -1.7) == 0.0
        const = np.zeros((5, 5))
        const[0, 0] = 1.0
        assert eval_energy_poly(EnergyPoly(const), 12.3, -1.7) == 1.0

    def test_eval_matches_monomial_sum(self, fit):
        poly, _ = fit
        v, u = 17.3, -0.8
        expected = sum(
            poly.coeffs[k, j] * v**k * u**j for k in range(5) for j in range(5)
        )
        assert eval_energy_poly(poly, v, u) == pytest.approx(expected, rel=1e-12)


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VehicleParams(mass_kg=0.0)
        with pytest.raises(ValueError):
            VehicleParams(drivetrain_eff=1.5)
