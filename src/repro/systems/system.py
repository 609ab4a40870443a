"""The composable ``System``: species blocks + a field block = a model.

A :class:`System` is the single :class:`~repro.systems.model.Model`
implementation behind every workload: Vlasov–Maxwell, Vlasov–Poisson,
field-free advection, and anything else declared through the registry are
all the *same* class wired with different blocks.

It is also the only time step in the repo.  A ``process:N`` shard worker
runs this class on its block of the configuration grid, told two things a
serial run is not: its grid declares ghost layers (the two solvers that
read neighbour cells take them from there), and a ``halo`` collaborator
fills those layers and gathers the one global field input (the Poisson
charge density).  Initial conditions are projected on first read of a
distribution nobody has set, so a System that is handed its state — a
worker's shared-memory slab, a checkpoint — never projects one.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter as _perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine.program import Stage
from ..grid.cartesian import Grid
from ..grid.phase import PhaseGrid
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from ..timestepping.ssprk import get_stepper
from .blocks import (
    ExternalField,
    FieldBlock,
    KineticSpecies,
    MaxwellBlock,
    NullFieldBlock,
    PoissonBlock,
    Species,
)
from .model import cfl_dt, run_loop

__all__ = ["System"]

_S_RHS = _OBS_SLOT["rhs_calls"]
_S_RHS_MS = _OBS_SLOT["rhs_ms"]


class _ProjectedOnDemand(dict):
    """``{species name: distribution}`` where an entry nobody has set is
    the species' projected initial condition, computed on first read."""

    def __init__(self, blocks: Sequence[KineticSpecies]):
        super().__init__()
        self._blocks = {b.name: b for b in blocks}

    def __missing__(self, name: str) -> np.ndarray:
        self[name] = f = self._blocks[name].project_initial()
        return f


class System:
    """Multi-species kinetic system assembled from declarative blocks.

    Parameters
    ----------
    conf_grid:
        Configuration-space grid (periodic).
    species:
        Kinetic species declarations (:class:`~repro.systems.blocks.Species`).
    field:
        A field block — :class:`MaxwellBlock`, :class:`PoissonBlock`, or
        :class:`NullFieldBlock` (the default: field-free streaming).
    poly_order, family:
        DG basis selection.
    cfl:
        CFL number (fraction of the stability limit).
    scheme:
        ``"modal"`` (the paper's algorithm) or ``"quadrature"``
        (the alias-free nodal-style baseline of Table I).
    stepper:
        ``"ssp-rk3"`` (default), ``"ssp-rk2"`` or ``"forward-euler"``.
    external:
        Optional prescribed time-dependent EM drive.
    name:
        Registry name of the system declaration (informational).
    halo:
        Set when ``conf_grid`` is one block of a larger grid (see
        :meth:`on_block`): the collaborator that reaches the other blocks.
        ``halo.exchange(state)`` returns the state arrays carrying the
        grid's ghost layers (called once per RHS), ``halo.allgather(arr)``
        the whole grid's array from each block's configuration-cell piece.
        ``None`` — a whole grid — is the serial system.
    """

    def __init__(
        self,
        conf_grid: Grid,
        species: Sequence[Species],
        field: Optional[FieldBlock] = None,
        poly_order: int = 2,
        family: str = "serendipity",
        cfl: float = 0.9,
        scheme: str = "modal",
        stepper: str = "ssp-rk3",
        velocity_flux: str = "central",
        ic_quad_order: Optional[int] = None,
        external: Optional[ExternalField] = None,
        name: Optional[str] = None,
        halo=None,
    ):
        if scheme not in ("modal", "quadrature"):
            raise ValueError("scheme must be 'modal' or 'quadrature'")
        if not species:
            raise ValueError("need at least one species")
        names = [s.name for s in species]
        if len(set(names)) != len(names):
            raise ValueError("species names must be unique")
        if field is None:
            field = NullFieldBlock()
        if not isinstance(field, FieldBlock):
            raise TypeError(
                f"field must be a FieldBlock (MaxwellBlock/PoissonBlock/"
                f"NullFieldBlock), got {type(field).__name__}"
            )
        self.name = name or field.kind
        self.conf_grid = conf_grid
        self.species = list(species)
        self.field = field
        self.poly_order = int(poly_order)
        self.family = family
        self.cfl = float(cfl)
        self.scheme = scheme
        self.stepper = get_stepper(stepper)
        self.halo = halo
        self.time = 0.0
        self.step_count = 0
        # what on_block() rebuilds this declaration from
        self._decl = dict(
            poly_order=poly_order, family=family, cfl=cfl, scheme=scheme,
            stepper=stepper, velocity_flux=velocity_flux,
            ic_quad_order=ic_quad_order, external=external, name=name,
        )

        from ..basis.modal import ModalBasis

        self.cfg_basis = ModalBasis(conf_grid.ndim, poly_order, family)
        field.bind_to(conf_grid, self.cfg_basis, external)

        self.blocks: List[KineticSpecies] = [
            KineticSpecies(
                sp, conf_grid, self.poly_order, family, scheme, velocity_flux,
                ic_quad_order,
            )
            for sp in self.species
        ]
        # per-species views of the block stacks (tests, examples, and the
        # benchmarks address them this way)
        self.phase_grids = {b.name: b.phase_grid for b in self.blocks}
        self.solvers = {b.name: b.solver for b in self.blocks}
        self.moments = {b.name: b.moments for b in self.blocks}
        self.f: Dict[str, np.ndarray] = _ProjectedOnDemand(self.blocks)
        self.em: Optional[np.ndarray] = field.initial_em()

    def on_block(self, conf_grid: Grid, halo) -> "System":
        """This declaration rebuilt on ``conf_grid``, one block of this
        system's grid, with ``halo`` reaching the other blocks.  Collision
        operators re-create themselves on the block's phase grids; the
        field block is a fresh copy of this one's declaration."""
        species = [
            sp if sp.collisions is None else replace(
                sp,
                collisions=sp.collisions.on_grid(
                    PhaseGrid(conf_grid, sp.velocity_grid)
                ),
            )
            for sp in self.species
        ]
        return System(
            conf_grid, species, field=self.field.unbound(), halo=halo, **self._decl
        )

    # ------------------------------------------------------------------ #
    # convenience accessors (the old app attribute names)
    # ------------------------------------------------------------------ #
    @property
    def field_kind(self) -> str:
        """Field-closure tag: ``"maxwell"``, ``"poisson"``, or ``"none"``."""
        return self.field.kind

    @property
    def field_spec(self):
        """The Maxwell :class:`~repro.systems.blocks.FieldSpec` (Maxwell
        field block only)."""
        return self.field.spec

    @property
    def maxwell(self):
        """The bound :class:`~repro.fields.maxwell.MaxwellSolver`
        (Maxwell field block only)."""
        if self.field.kind != "maxwell":
            raise AttributeError(
                f"no Maxwell solver on a {self.field.kind!r}-closed System"
            )
        return self.field.solver

    # ------------------------------------------------------------------ #
    # state plumbing
    # ------------------------------------------------------------------ #
    def state(self) -> Dict[str, np.ndarray]:
        out = {f"f/{sp.name}": self.f[sp.name] for sp in self.species}
        if self.field.in_state:
            out["em"] = self.em
        return out

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        for sp in self.species:
            self.f[sp.name] = state[f"f/{sp.name}"]
        if self.field.in_state:
            self.em = state["em"]

    def rhs(
        self,
        state: Dict[str, np.ndarray],
        out: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Full coupled RHS: Vlasov per species + the field block's own
        time derivative.

        ``out``, when given, is a donated state-shaped buffer dict filled in
        place (the steady-state path: no phase-space allocation).

        This wrapper is the observability seam: with the default
        ``mode="off"`` it is one flag check over :meth:`_rhs_impl`
        (``bench_rhs_hotpath.py --require-obs-overhead`` times the two
        against each other, call by call).
        """
        return self._rhs_span(state, out, None)

    def _rhs_span(self, state, out, stage):
        if _OBS.on:
            t0 = _perf_counter()
            out = self._rhs_impl(state, out, stage)
            _OBS.finish("rhs", t0, _S_RHS, _S_RHS_MS)
            return out
        return self._rhs_impl(state, out, stage)

    def _rhs_impl(
        self,
        state: Dict[str, np.ndarray],
        out: Optional[Dict[str, np.ndarray]] = None,
        stage: Optional[tuple] = None,
    ) -> Dict[str, np.ndarray]:
        """``stage``, from :meth:`_stage_into`, is ``(keys, u0, a, b, dt)``:
        the species of ``keys`` are not differentiated into ``out`` but
        advanced by the Shu–Osher stage, in place, inside their solver."""
        # the two solvers that read neighbour cells take the state with
        # the grid's ghost layers (a whole grid has none: the state
        # itself); everything cell-local reads ``state``
        ghosted = state if self.halo is None else self.halo.exchange(state)
        em_eff = self.field.em_for_species(self, state)
        if out is None:
            out = {k: np.empty_like(v) for k, v in state.items()}
        # the field block reads the species' moments: it goes first, before
        # a staged species below is overwritten
        self.field.accumulate_rhs(self, state, out, ghosted)
        for blk in self.blocks:
            key = f"f/{blk.name}"
            if stage is not None and key in stage[0]:
                _keys, u0, a, b, dt = stage
                blk.solver.rhs(
                    ghosted[key], em_eff,
                    stage=Stage(a, b, dt, None if u0 is None else u0[key], state[key]),
                )
                continue
            df = out[key]
            blk.solver.rhs(ghosted[key], em_eff, out=df)
            if blk.collisions is not None:
                blk.collisions.rhs(state[key], blk.moments, out=df, accumulate=True)
        return out

    # ------------------------------------------------------------------ #
    # time advance
    # ------------------------------------------------------------------ #
    def suggested_dt(self) -> float:
        """CFL-stable step: every ingredient is a pure function of the
        current state (no value cached by an earlier ``rhs`` call), so any
        holder of the same state — a sharded run's parent — gets the same
        answer."""
        state = self.state()
        freq = self.field.max_frequency()
        em_eff = self.field.em_for_species(self, state)
        for blk in self.blocks:
            freq = max(freq, blk.solver.max_frequency(em_eff))
            if blk.collisions is not None:
                freq = max(
                    freq,
                    blk.collisions.max_frequency(state[f"f/{blk.name}"], blk.moments),
                )
        return cfl_dt(self.cfl, freq)

    def step(self, dt: Optional[float] = None) -> float:
        """Advance one step (in place; the state arrays are mutated);
        returns the dt taken."""
        if dt is None:
            dt = self.suggested_dt()
        state = self.state()
        if self.field.in_state and not self.field.evolves:
            # a static field is not stepped: keeps it bitwise frozen and
            # skips three stage combinations
            state.pop("em")
        self.stepper.step_inplace(state, self._rhs_into, dt, fused=self._stage_into)
        self.time += dt
        self.step_count += 1
        return dt

    def _rhs_into(
        self, state: Dict[str, np.ndarray], out: Dict[str, np.ndarray]
    ) -> None:
        self.rhs(state, out=out)

    def _stage_into(self, state, k, u0, a: float, b: float, dt: float) -> List[str]:
        """The stepper's ``fused`` callback: the RHS of one stage into
        ``k``, except that a species whose solver is the last writer of its
        ``df/dt`` (modal scheme, no collision operator) and whose state
        array is C-contiguous has the stage applied by that solver, one
        configuration cell at a time — returned, so the stepper skips it."""
        keys = [
            f"f/{blk.name}"
            for blk in self.blocks
            if blk.stages and state[f"f/{blk.name}"].flags.c_contiguous
        ]
        self._rhs_span(state, k, (keys, u0, a, b, dt))
        return keys

    def run(self, t_end: float, diagnostics=None, max_steps: int = 10**9):
        """Advance to ``t_end``; optional per-step diagnostics callback.
        Returns a summary with wall-clock timing."""
        return run_loop(self, t_end, diagnostics=diagnostics, max_steps=max_steps)

    # ------------------------------------------------------------------ #
    # couplings (legacy method names kept for the Maxwell/Poisson cases)
    # ------------------------------------------------------------------ #
    def total_current(
        self, state: Dict[str, np.ndarray], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self.field.coupling.total_current(self.blocks, state, out=out)

    def total_charge_density(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        return self.field.coupling.total_charge_density(self.blocks, state)

    def charge_density(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        return self.field.coupling.charge_density(self.blocks, state, self.halo)

    def electric_field(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        return self.field.em_for_species(self, state)

    def effective_em(self, em: np.ndarray) -> np.ndarray:
        """The field the particles feel: ``em`` plus the external drive at
        the current step time (``em`` itself when there is no drive).
        Maxwell field block only — functional closures derive their field
        from the state via :meth:`electric_field` instead."""
        if self.field.kind != "maxwell":
            raise RuntimeError(
                "effective_em requires a Maxwell field block; use "
                "electric_field(state) for functional closures"
            )
        return self.field.em_for_species(self, {"em": em})

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def field_energy(self) -> float:
        return self.field.energy(self)

    def particle_energy(self, name: str) -> float:
        sp = next(s for s in self.species if s.name == name)
        return self.moments[name].particle_energy(self.f[name], sp.mass)

    def total_energy(self) -> float:
        return self.field_energy() + sum(
            self.particle_energy(sp.name) for sp in self.species
        )

    def particle_number(self, name: str) -> float:
        return self.moments[name].number(self.f[name])

    def jdote(self) -> float:
        """Instantaneous field–particle energy exchange ``int J.E dx``
        (Maxwell field block only)."""
        if self.field.kind != "maxwell":
            raise RuntimeError("J.E requires a Maxwell field block")
        current = self.total_current(self.state())
        jac = float(np.prod([0.5 * dx for dx in self.conf_grid.dx]))
        return float(np.sum(current * self.em[..., 0:3, :]) * jac)

    def energies(self) -> Dict[str, float]:
        """Protocol diagnostic: field, per-species particle, and total energy
        (each piece computed once)."""
        field = self.field_energy()
        out = {"field": field}
        total = field
        for sp in self.species:
            e = self.particle_energy(sp.name)
            out[f"particle/{sp.name}"] = e
            total += e
        out["total"] = total
        return out

    def observables(self) -> Dict[str, float]:
        """Protocol diagnostic: scalar observables (particle counts)."""
        return {
            f"particle_number/{sp.name}": self.particle_number(sp.name)
            for sp in self.species
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(sp.name for sp in self.species)
        return (
            f"System({self.name!r}, species=[{names}], field={self.field.kind}, "
            f"p={self.poly_order}, scheme={self.scheme}, t={self.time:.6g})"
        )
