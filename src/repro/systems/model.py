"""The ``Model`` protocol: the exact surface the runtime may touch.

Every consumer of a built simulation — :class:`~repro.runtime.driver.Driver`,
:class:`~repro.dist.sharded.ShardedApp`, the SSP-RK steppers, checkpoint
save/restore, and the diagnostics recorders — programs against this
protocol and nothing else.  Anything that implements it (the composable
:class:`~repro.systems.system.System`, the sharded wrapper around one)
can be driven, checkpointed, resumed, and diagnosed without a single
``isinstance`` check.

The surface is deliberately small:

========================  =================================================
member                    contract
========================  =================================================
``state()``               dict of named arrays (the full evolved state);
                          the *same* array objects the model steps, so
                          in-place mutation of the dict's arrays is visible
``set_state(state)``      adopt checkpoint arrays (shapes must match)
``rhs(state, out=None)``  semi-discrete RHS; ``out`` is an optional donated
                          state-shaped buffer dict filled in place
``suggested_dt()``        CFL-stable step from the current state
``step(dt=None)``         advance once in place, return the dt taken
``time``                  current simulation time (settable)
``step_count``            steps taken so far (settable)
``energies()``            dict: ``field``, ``particle/<name>``, ``total``
``observables()``         dict of scalar diagnostics
                          (``particle_number/<name>`` ...)
========================  =================================================

One optional extra sits outside the protocol: ``jdote()`` (the J.E
field–particle exchange diagnostic).  A registered system advertises it
via ``SystemKind.supports_jdote``; ``SimulationSpec`` validation rejects
``diagnostics.record_jdote`` for systems that do not, so the recorder
never calls it blind.

:func:`protocol_signature` hashes this table so the public-API snapshot
test fails loudly whenever the surface drifts.
"""

from __future__ import annotations

import hashlib
import time as _time
from typing import Dict, Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Model",
    "run_loop",
    "cfl_dt",
    "protocol_signature",
    "PROTOCOL_MEMBERS",
]

State = Dict[str, np.ndarray]


@runtime_checkable
class Model(Protocol):
    """Structural protocol for a steppable kinetic simulation."""

    time: float
    step_count: int

    def state(self) -> State: ...

    def set_state(self, state: State) -> None: ...

    def rhs(self, state: State, out: Optional[State] = None) -> State: ...

    def suggested_dt(self) -> float: ...

    def step(self, dt: Optional[float] = None) -> float: ...

    def energies(self) -> Dict[str, float]: ...

    def observables(self) -> Dict[str, float]: ...


#: (member, rendered contract) pairs — the protocol in canonical form.
PROTOCOL_MEMBERS = (
    ("time", "float"),
    ("step_count", "int"),
    ("state", "() -> Dict[str, ndarray]"),
    ("set_state", "(state) -> None"),
    ("rhs", "(state, out=None) -> state"),
    ("suggested_dt", "() -> float"),
    ("step", "(dt=None) -> float"),
    ("energies", "() -> Dict[str, float]"),
    ("observables", "() -> Dict[str, float]"),
)


def protocol_signature() -> str:
    """Stable hash of the :class:`Model` surface (member names + contracts).

    Changing the protocol — adding, removing, or re-typing a member —
    changes this hash; the API snapshot test pins it so redesigns of the
    runtime seam are always explicit, reviewed events.
    """
    text = ";".join(f"{name}{sig}" for name, sig in PROTOCOL_MEMBERS)
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------- #
# shared drive helpers (deduplicated from the old per-app copies)
# --------------------------------------------------------------------- #
def cfl_dt(cfl: float, frequency: float) -> float:
    """Stable time step from the maximum characteristic frequency."""
    if frequency <= 0.0:
        raise RuntimeError("cannot determine a stable time step")
    return cfl / frequency


def run_loop(model, t_end: float, diagnostics=None, max_steps: int = 10**9):
    """Advance ``model`` to ``t_end`` with an optional per-step callback.

    The single implementation of the advance/diagnose loop every model
    shares (both apps used to carry verbatim copies).  Returns a summary
    with wall-clock timing (the quantity Table I compares between the
    modal and nodal schemes).
    """
    start = _time.perf_counter()
    steps = 0
    if diagnostics is not None:
        diagnostics(model)
    while model.time < t_end - 1e-12 and steps < max_steps:
        dt = min(model.suggested_dt(), t_end - model.time)
        model.step(dt)
        steps += 1
        if diagnostics is not None:
            diagnostics(model)
    wall = _time.perf_counter() - start
    return {
        "steps": steps,
        "wall_time": wall,
        "wall_per_step": wall / max(steps, 1),
        "time": model.time,
    }
