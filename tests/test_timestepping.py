"""SSP-RK steppers: convergence orders and state plumbing."""

import numpy as np
import pytest

from repro.timestepping import ForwardEuler, SSPRK2, SSPRK3, get_stepper


def _into(rhs):
    """The ``rhs_into(state, out)`` of a functional ``rhs(state) -> state``."""

    def rhs_into(state, out):
        for key, val in rhs(state).items():
            np.copyto(out[key], val)

    return rhs_into


def _integrate(stepper, lam, y0, t_end, n):
    dt = t_end / n
    state = {"y": np.array([y0])}

    def rhs(s):
        return {"y": lam * s["y"]}

    for _ in range(n):
        stepper.step_inplace(state, _into(rhs), dt)
    return state["y"][0]


@pytest.mark.parametrize(
    "stepper,order",
    [(ForwardEuler(), 1), (SSPRK2(), 2), (SSPRK3(), 3)],
)
def test_convergence_order(stepper, order):
    lam, y0, t_end = -1.0, 1.0, 1.0
    exact = y0 * np.exp(lam * t_end)
    errs = []
    for n in (20, 40, 80):
        errs.append(abs(_integrate(stepper, lam, y0, t_end, n) - exact))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 == pytest.approx(order, abs=0.35)
    assert rate2 == pytest.approx(order, abs=0.35)


def test_multi_key_state():
    stepper = SSPRK3()
    state = {"a": np.ones(3), "b": np.full(2, 2.0)}

    def rhs(s):
        return {"a": -s["a"], "b": 0.5 * s["b"]}

    stepper.step_inplace(state, _into(rhs), 0.1)
    assert state["a"] == pytest.approx(np.exp(-0.1) * np.ones(3), abs=1e-5)
    assert state["b"] == pytest.approx(np.exp(0.05) * np.full(2, 2.0), abs=1e-5)


def test_get_stepper():
    assert isinstance(get_stepper("ssp-rk3"), SSPRK3)
    assert isinstance(get_stepper("ssp-rk2"), SSPRK2)
    assert isinstance(get_stepper("forward-euler"), ForwardEuler)
    with pytest.raises(ValueError):
        get_stepper("rk4")


def test_ssp_property_linear_advection_no_overshoot():
    """SSP steppers keep forward-Euler monotonicity bounds for this toy."""
    stepper = SSPRK3()
    y = {"y": np.array([1.0])}

    def rhs(s):
        return {"y": -s["y"]}

    for _ in range(10):
        stepper.step_inplace(y, _into(rhs), 0.5)
        assert 0.0 < y["y"][0] <= 1.0
