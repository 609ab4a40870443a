"""Energy bookkeeping: the observable the alias-free construction protects.

For the Vlasov–Maxwell system there is no evolved energy variable; the total
energy splits into the :math:`|v|^2` moment of each distribution function
plus the L2 norm of the electromagnetic field, exchanged through
:math:`J \\cdot E` (paper Eq. 9).  :class:`EnergyHistory` records these
pieces every step so tests and benchmarks can verify (a) exact conservation
with central fluxes and (b) the kinetic -> electromagnetic -> thermal
conversion in the instability runs of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["EnergyHistory"]


_PARTICLE_PREFIX = "particle/"


@dataclass
class EnergyHistory:
    """Per-step energy record; use as the ``diagnostics`` callback of
    :func:`repro.systems.run_loop` / :meth:`repro.systems.System.run`.

    Reads the model through the :class:`repro.systems.Model` protocol
    (``energies()``), so any registered system — or a sharded wrapper — can
    be recorded without per-app code.
    """

    times: List[float] = field(default_factory=list)
    field_energy: List[float] = field(default_factory=list)
    particle_energy: Dict[str, List[float]] = field(default_factory=dict)
    jdote: List[float] = field(default_factory=list)
    record_jdote: bool = False

    def __call__(self, model) -> None:
        self.times.append(model.time)
        energies = model.energies()
        self.field_energy.append(energies["field"])
        for key, val in energies.items():
            if key.startswith(_PARTICLE_PREFIX):
                self.particle_energy.setdefault(
                    key[len(_PARTICLE_PREFIX):], []
                ).append(val)
        if self.record_jdote:
            self.jdote.append(model.jdote())

    # ------------------------------------------------------------------ #
    @property
    def total(self) -> np.ndarray:
        tot = np.asarray(self.field_energy, dtype=float)
        for vals in self.particle_energy.values():
            tot = tot + np.asarray(vals, dtype=float)
        return tot

    def relative_drift(self) -> float:
        """Max relative total-energy deviation from the initial value."""
        tot = self.total
        if tot.size == 0:
            return 0.0
        e0 = tot[0]
        scale = abs(e0) if e0 else 1.0
        return float(np.max(np.abs(tot - e0)) / scale)
