"""Strong-stability-preserving Runge–Kutta steppers.

The paper integrates the semi-discrete system with the three-stage,
third-order SSP-RK method; forward Euler and SSP-RK2 are provided for
convergence studies and cost accounting.  All three are one
:class:`ShuOsherStepper` with a different **Shu–Osher table**: one
``(a, b)`` pair per stage, each stage being a forward-Euler step followed by
a convex combination with the step's initial state ``u0``,

.. math:: u \\leftarrow a\\,u_0 + b\\,(u + \\Delta t\\,L(u)),

with ``(0, 1)`` — a bare forward-Euler step, no combination — spelled out
because it is not *computed* as a combination (``0 * u0`` would turn a
``-0.0`` into ``+0.0``).  Steppers operate on *states*: flat dictionaries
mapping names to NumPy arrays, combined elementwise — the ``state()`` dicts
of the :class:`repro.systems.Model` protocol — which keeps multi-species +
field systems in lockstep through the stages exactly as Gkeyll's App system
does.

One stepping interface, :meth:`~ShuOsherStepper.step_inplace`, runs the
table through the float operations ``t = k * dt; t = u + t; t = t * b;
s = u0 * a; u = t + s``.  It is buffer-donating: it mutates the state
arrays using persistent per-stepper workspaces (a state snapshot when the
table combines, and stage-RHS buffers, each allocated on first use), and
evaluates the RHS through a ``rhs_into(state, out_state)`` callback that
fills donated arrays.  A steady-state step then performs zero avoidable
allocations.  Its optional ``fused`` callback ``fused(state, k, u0, a, b,
dt) -> keys`` stands in for ``rhs_into`` and may apply the stage to some
keys itself (a right-hand side that forms the update cell by cell and never
holds ``L`` whole: it returns the keys it has already updated, the stepper
combines the rest from ``k``; ``u0`` is None for a table that never
combines).
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT

State = Dict[str, np.ndarray]
RhsIntoFn = Callable[[State, State], None]

__all__ = [
    "ShuOsherStepper",
    "ForwardEuler",
    "SSPRK2",
    "SSPRK3",
    "get_stepper",
    "available_steppers",
]


class _LikeState(dict):
    """Work arrays shaped like the arrays of a state, each allocated when it
    is first asked for."""

    def __init__(self, state: State):
        super().__init__()
        self.state = state

    def __missing__(self, key: str) -> np.ndarray:
        buf = self[key] = np.empty_like(self.state[key])
        return buf


_S_RK_STAGES = _OBS_SLOT["rk_stages"]
#: the table entry of a bare forward-Euler stage: nothing is combined
_EULER = (0.0, 1.0)


def _combine(arr: np.ndarray, k: np.ndarray, u0: Optional[np.ndarray],
             a: float, b: float, dt: float) -> None:
    """``arr <- a * u0 + b * (arr + dt * k)`` in place, consuming ``k`` as
    scratch; ``(a, b) == (0, 1)`` is the bare ``arr += dt * k``."""
    k *= dt
    arr += k
    if (a, b) != _EULER:
        arr *= b
        np.multiply(u0, a, out=k)
        arr += k


class ShuOsherStepper:
    """An explicit SSP Runge–Kutta method in Shu–Osher form.

    ``table`` holds one ``(a, b)`` per stage (see the module docstring);
    subclasses only set it, with ``order``.
    """

    order: int
    table: Tuple[Tuple[float, float], ...]
    _workspaces: Optional[Dict[str, _LikeState]] = None

    def _work(self, name: str, state: State) -> _LikeState:
        """Persistent buffers for the arrays of ``state`` (dropped when the
        state's names or shapes change)."""
        if self._workspaces is None:
            self._workspaces = {}
        ws = self._workspaces.get(name)
        if ws is None or any(
            key not in state or buf.shape != state[key].shape
            for key, buf in ws.items()
        ):
            ws = self._workspaces[name] = _LikeState(state)
        ws.state = state
        return ws

    def step_inplace(
        self,
        state: State,
        rhs_into: RhsIntoFn,
        dt: float,
        fused: Optional[Callable[..., Iterable[str]]] = None,
    ) -> None:
        k = self._work("k", state)
        u0 = None
        if any(pair != _EULER for pair in self.table):
            u0 = self._work("u0", state)
            for key, arr in state.items():
                np.copyto(u0[key], arr)
        for a, b in self.table:
            self._stage(state, rhs_into, fused, k, u0, a, b, dt)

    @staticmethod
    def _stage(state: State, rhs_into, fused, k: State, u0, a, b, dt) -> None:
        """One stage — the unit every table repeats, and the observability
        ``rk_stage`` span (one flag check when off)."""
        t0 = _perf_counter() if _OBS.on else None
        done: Iterable[str] = ()
        if fused is None:
            rhs_into(state, k)
        else:
            done = fused(state, k, u0, a, b, dt)
        for key, arr in state.items():
            if key not in done:
                _combine(arr, k[key], None if u0 is None else u0[key], a, b, dt)
        if t0 is not None:
            _OBS.finish("rk_stage", t0, _S_RK_STAGES)


class ForwardEuler(ShuOsherStepper):
    """First-order explicit Euler (also the unit of the paper's cost metric)."""

    order = 1
    table = (_EULER,)


class SSPRK2(ShuOsherStepper):
    """Two-stage, second-order SSP-RK (Heun form)."""

    order = 2
    table = (_EULER, (0.5, 0.5))


class SSPRK3(ShuOsherStepper):
    """Three-stage, third-order SSP-RK (Shu–Osher) — the paper's stepper."""

    order = 3
    table = (_EULER, (0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))


_STEPPERS = {
    "forward-euler": ForwardEuler,
    "ssp-rk2": SSPRK2,
    "ssp-rk3": SSPRK3,
}


def get_stepper(name: str):
    try:
        return _STEPPERS[name]()
    except KeyError as exc:
        raise ValueError(
            f"unknown stepper {name!r}; choose from {sorted(_STEPPERS)}"
        ) from exc


def available_steppers() -> tuple:
    """Registered stepper names (the single source the spec validates
    against — previously duplicated as a literal in ``runtime.spec``)."""
    return tuple(sorted(_STEPPERS))
