import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respalloc.dynamics import (make_double_integrator_2d,
                                make_relative_double_integrator,
                                make_single_integrator_1d, relative_state)


def test_single_integrator_identity_actuation():
    sys = make_single_integrator_1d(2)
    x = np.array([0.0, 1.5])
    assert np.allclose(sys.xdot(x, [1.0, -1.0]), [1.0, -1.0])
    assert np.allclose(sys.xdot(x, [0.0, 0.0]), [0.0, 0.0])


def test_single_integrator_dimensions():
    sys = make_single_integrator_1d(6)
    assert sys.state_dim == 6
    assert sys.control_dim_total == 6
    assert sys.relative_degree == 1


def test_double_integrator_drift_and_actuation():
    sys = make_double_integrator_2d(1)
    x = np.array([0.0, 0.0, 1.0, 2.0])
    assert np.allclose(sys.xdot(x, [0.0, 0.0]), [1.0, 2.0, 0.0, 0.0])
    x = np.array([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(sys.xdot(x, [3.0, -1.0]), [0.0, 0.0, 3.0, -1.0])


def test_double_integrator_dimensions():
    sys = make_double_integrator_2d(6)
    assert sys.state_dim == 24
    assert sys.control_dim_total == 12
    assert sys.relative_degree == 2


def test_relative_system_closed_forms():
    sys = make_relative_double_integrator()
    r = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(sys.xdot(r, [0, 0, 0, 0]), [1.0, 0.0, 0.0, 0.0])
    r = np.zeros(4)
    # Equal controls cancel in relative coordinates.
    assert np.allclose(sys.xdot(r, [1, 0, 1, 0]), np.zeros(4))
    assert np.allclose(sys.xdot(r, [0, 0, 0, 1]), [0.0, 0.0, 0.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_xdot_linear_in_control(seed):
    rng = np.random.default_rng(seed)
    for sys in (make_single_integrator_1d(3), make_double_integrator_2d(2),
                make_relative_double_integrator()):
        x = rng.normal(size=sys.state_dim)
        u = rng.normal(size=sys.control_dim_total)
        v = rng.normal(size=sys.control_dim_total)
        a, b = rng.normal(size=2)
        lhs = sys.xdot(x, a * u + b * v)
        rhs = sys.drift(x) + a * (sys.xdot(x, u) - sys.drift(x)) \
            + b * (sys.xdot(x, v) - sys.drift(x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        # A batch of states and controls gives the stacked single-state rates.
        np.testing.assert_array_equal(sys.xdot(np.array([x, -x]), np.array([u, v])),
                                      [sys.xdot(x, u), sys.xdot(-x, v)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_relative_system_swap_consistency(seed):
    # Swapping the two agents negates r; swapping controls then negates rdot.
    rng = np.random.default_rng(seed)
    sys = make_relative_double_integrator()
    r = rng.normal(size=4)
    u1, u2 = rng.normal(size=2), rng.normal(size=2)
    fwd = sys.xdot(r, np.concatenate([u1, u2]))
    swapped = sys.xdot(-r, np.concatenate([u2, u1]))
    np.testing.assert_allclose(swapped, -fwd, atol=1e-12)


def test_relative_state_negates_under_swap():
    x1 = np.array([0.0, -1.85, 10.0, 0.0])
    x2 = np.array([-3.0, 1.85, 12.0, 0.1])
    np.testing.assert_allclose(relative_state(x1, x2), -relative_state(x2, x1))


def test_control_bound_validation():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="control_bound must be nonnegative"):
            make_single_integrator_1d(2, control_bound=bad)
    lb, ub = make_relative_double_integrator(control_bound=5.0).control_bounds()
    np.testing.assert_array_equal(lb, np.full(4, -5.0))
    np.testing.assert_array_equal(ub, np.full(4, 5.0))
    lb, ub = make_double_integrator_2d(2, control_bound=np.inf).control_bounds()
    assert np.all(lb == -np.inf) and np.all(ub == np.inf)


def test_control_bounds_are_formed_once_and_read_only():
    system = make_double_integrator_2d(3, control_bound=4.0)
    lb, ub = system.control_bounds()
    assert system.control_bounds()[0] is lb and system.control_bounds()[1] is ub
    np.testing.assert_array_equal(lb, np.full(6, -4.0))
    np.testing.assert_array_equal(ub, np.full(6, 4.0))
    for bound in (lb, ub):
        assert not bound.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = 0.0
