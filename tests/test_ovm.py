"""Car-following law: headway velocity profile and gain-blended acceleration."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from platoonrl.ovm import OvmParams, headway_velocity, ovm_accel

P = OvmParams()
# The classical OVM: the gains of the action set's last pair.
GAINS = (0.5, 0.5)


class TestHeadwayVelocity:
    def test_stop_boundary_exact(self):
        assert headway_velocity(P, 5.0) == 0.0

    def test_go_boundary_exact(self):
        assert headway_velocity(P, 35.0) == 30.0

    def test_midpoint(self):
        assert headway_velocity(P, 20.0) == pytest.approx(15.0, abs=1e-12)

    def test_flat_outside_ramp(self):
        assert headway_velocity(P, 0.0) == 0.0
        assert headway_velocity(P, 2.5) == 0.0
        assert headway_velocity(P, 50.0) == 30.0

    @given(d=st.floats(min_value=0.0, max_value=60.0))
    def test_range(self, d):
        v = headway_velocity(P, d)
        assert 0.0 <= v <= 30.0

    @given(
        d=st.floats(min_value=0.0, max_value=60.0),
        delta=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_nondecreasing(self, d, delta):
        assert headway_velocity(P, d + delta) >= headway_velocity(P, d) - 1e-12

    @given(d=st.floats(min_value=4.0, max_value=36.0))
    def test_continuity_at_breakpoints(self, d):
        """Small gap changes move the target velocity by at most the ramp's
        Lipschitz bound, sampled densely across both breakpoints."""
        eps = 1e-6
        lipschitz = 0.5 * P.v_max * 3.1416 / (P.d_go - P.d_stop)
        jump = abs(headway_velocity(P, d + eps) - headway_velocity(P, d))
        assert jump <= lipschitz * eps * 1.01


class TestOvmAccel:
    def test_zero_gains_always_zero(self):
        assert ovm_accel(P, 3.0, 25.0, 1.0, 0.0, 0.0) == 0.0

    def test_clipped_at_box(self):
        # raw = 0.5*(15-10) + 0.5*(12-10) = 3.5 -> clip 2.5
        assert ovm_accel(P, 20.0, 10.0, 12.0, *GAINS) == 2.5

    def test_equilibrium_exact(self):
        assert ovm_accel(P, 20.0, 15.0, 15.0, *GAINS) == pytest.approx(0.0, abs=1e-12)

    @given(d_star=st.floats(min_value=5.1, max_value=34.9))
    def test_equilibrium_everywhere_on_ramp(self, d_star):
        v_eq = headway_velocity(P, d_star)
        assert ovm_accel(P, d_star, v_eq, v_eq, *GAINS) == 0.0

    @given(
        d=st.floats(min_value=0.0, max_value=60.0),
        v=st.floats(min_value=0.0, max_value=30.0),
        v_prev=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_always_inside_actuation_box(self, d, v, v_prev):
        u = ovm_accel(P, d, v, v_prev, *GAINS)
        assert -2.5 <= u <= 2.5

    @given(
        d=st.floats(min_value=0.0, max_value=60.0),
        v=st.floats(min_value=0.0, max_value=29.0),
        v_prev=st.floats(min_value=0.0, max_value=30.0),
        dv=st.floats(min_value=0.001, max_value=1.0),
    )
    def test_decreasing_in_own_velocity(self, d, v, v_prev, dv):
        """Faster ego never commands more acceleration (fixed d, v_prev)."""
        faster, slower = ovm_accel(P, d, v + dv, v_prev, *GAINS), ovm_accel(P, d, v, v_prev, *GAINS)
        assert faster <= slower + 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ovm_accel(P, 20.0, 15.0, 15.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            ovm_accel(P, 20.0, 15.0, 15.0, math.inf, 0.5)
        with pytest.raises(ValueError):
            ovm_accel(P, 20.0, 15.0, 15.0, 0.5, np.array([0.5, math.nan]))
        with pytest.raises(ValueError):
            OvmParams(d_stop=40.0, d_go=35.0)

    def test_params_hold_only_the_headway_profile(self):
        """The gains are ovm_accel's arguments, not settings of the law."""
        assert [f.name for f in dataclasses.fields(OvmParams)] == ["d_stop", "d_go", "v_max"]
        with pytest.raises(TypeError):
            OvmParams(alpha=0.5)
