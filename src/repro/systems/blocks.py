"""Composable building blocks for kinetic systems.

A :class:`~repro.systems.system.System` is assembled from three kinds of
reusable parts — the Gkeyll-style decomposition of an "App" into declared
pieces instead of a bespoke class per equation set:

* :class:`KineticSpecies` — one species' built solver stack: phase grid,
  modal Vlasov solver, moment calculator, collision operator,
  and the projected initial distribution;
* a field block closing the kinetic equation —
  :class:`MaxwellBlock` (evolved EM field), :class:`PoissonBlock`
  (electrostatic functional closure), or :class:`NullFieldBlock`
  (field-free passive advection);
* couplings — :class:`CurrentCoupling` / :class:`ChargeCoupling` —
  accumulating species moments onto the configuration grid for the field
  block to consume.

Every block reuses the compiled :mod:`repro.engine` plan cache and the
cell-major :class:`~repro.engine.layout.StateLayout`; composing blocks adds
no new numerical code paths, so a block-built Vlasov–Maxwell system is
bit-identical to the former hand-rolled app.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from ..basis.modal import ModalBasis
from ..grid.cartesian import Grid
from ..grid.phase import PhaseGrid
from ..moments.calc import MomentCalculator
from ..obs import OBS as _OBS
from ..projection import project_phase_function

__all__ = [
    "Species",
    "FieldSpec",
    "ExternalField",
    "KineticSpecies",
    "FieldBlock",
    "MaxwellBlock",
    "PoissonBlock",
    "NullFieldBlock",
    "CurrentCoupling",
    "ChargeCoupling",
]


# --------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------- #
@dataclass
class Species:
    """One kinetic species declaration.

    Parameters
    ----------
    name:
        Unique identifier.
    charge, mass:
        Normalized charge and mass.
    velocity_grid:
        Velocity-space grid (should not straddle v=0 within a cell).
    initial:
        Vectorized callable ``f0(x..., v...)`` for the initial condition.
    collisions:
        Optional collision operator run inside the species' cell program:
        an object with a ``cell_table``, ``refresh``,
        ``max_frequency`` and ``on_grid`` —
        :class:`~repro.collisions.LBOCollisions`.
    """

    name: str
    charge: float
    mass: float
    velocity_grid: Grid
    initial: Callable[..., np.ndarray]
    collisions: Optional[object] = None


@dataclass
class FieldSpec:
    """Electromagnetic field configuration.

    ``initial`` maps component names (``Ex`` ... ``psi``) to callables of the
    configuration coordinates; omitted components start at zero.  Set
    ``evolve=False`` for a static external field.
    """

    initial: Dict[str, Callable[..., np.ndarray]] = field(default_factory=dict)
    light_speed: float = 1.0
    epsilon0: float = 1.0
    flux: str = "central"
    chi_e: float = 0.0
    chi_m: float = 0.0
    evolve: bool = True


@dataclass
class ExternalField:
    """Prescribed, time-dependent external EM drive.

    The drive is separable: a static spatial profile per component
    (callables of the configuration coordinates, projected once at system
    construction) times the scalar envelope

    .. math:: g(t) = \\cos(\\omega t + \\varphi) \\cdot \\min(t/t_{ramp}, 1)

    (the ramp factor applies only when ``ramp > 0``).  The drive
    accelerates particles — it is added to the self-consistent field seen
    by the Vlasov solvers and by the CFL estimate — but it is *not*
    evolved and does not enter the field update or the field-energy
    diagnostics.  Within a time step the envelope is frozen at the step's
    start time (all RK stages see the same drive), keeping the stepper's
    stage structure field-agnostic.
    """

    profiles: Dict[str, Callable[..., np.ndarray]]
    omega: float = 0.0
    phase: float = 0.0
    ramp: float = 0.0

    def envelope(self, t: float) -> float:
        g = math.cos(self.omega * t + self.phase)
        if self.ramp > 0.0:
            g *= min(t / self.ramp, 1.0)
        return g


# --------------------------------------------------------------------- #
# species block
# --------------------------------------------------------------------- #
class KineticSpecies:
    """One species' built solver stack on a configuration grid.

    Owns the phase grid, the modal Vlasov solver, the moment calculator,
    and the collision operator (its cell table runs inside the solver's
    program); projects the declared initial condition on demand.  The
    evolved distribution array itself lives in the owning
    :class:`~repro.systems.system.System` state, which projects it only if
    nobody hands it one first (a checkpoint resume and a shard worker both
    do).  The solver applies a Shu–Osher stage as it forms ``df/dt``
    (``rhs(..., stage=)``), collisions included: it is the last writer.
    """

    def __init__(
        self,
        decl: Species,
        conf_grid: Grid,
        poly_order: int,
        family: str,
        ic_quad_order: Optional[int],
    ):
        from ..vlasov.modal_solver import VlasovModalSolver

        self.decl = decl
        self.name = decl.name
        self.collisions = decl.collisions
        pg = PhaseGrid(conf_grid, decl.velocity_grid)
        self.phase_grid = pg
        # the collision operator's cell table rides the solver's program
        self.solver = VlasovModalSolver(
            pg, poly_order, family, decl.charge, decl.mass,
            collisions=decl.collisions,
        )
        self.moments = MomentCalculator(pg, self.solver.kernels, pool=self.solver.pool)
        self._basis = ModalBasis(pg.pdim, poly_order, family)
        self._ic_quad_order = ic_quad_order

    def rhs(self, f, own, em, out=None, stage=None, token=None) -> np.ndarray:
        """``df/dt`` of the species, collisions included, into ``out`` — or
        with ``stage`` that Shu–Osher stage applied in its place.  ``f``
        carries the grid's ghost layers, ``own`` is the species' state
        without them (what the collision operator's moments read; the two
        are one array on a whole grid).  ``token``: the owning system's
        state token, when ``own`` is its state under it (the collision
        moments computed for it earlier are reused)."""
        if self.collisions is not None:
            # the moments first: the stage may overwrite ``own`` cell by cell
            self.collisions.refresh(own, self.moments, token)
            return self.solver.rhs(f, em, out=out, stage=stage, collide=True)
        if stage is not None:
            return self.solver.rhs(f, em, stage=stage)
        return self.solver.rhs(f, em, out=out)

    def project_initial(self) -> np.ndarray:
        """Project the declared initial condition onto the DG basis."""
        return project_phase_function(
            self.decl.initial, self.phase_grid, self._basis, self._ic_quad_order
        )


# --------------------------------------------------------------------- #
# couplings
# --------------------------------------------------------------------- #
class CurrentCoupling:
    """Accumulates the species' total current (and charge) density.

    The per-species scratch buffer is persistent, so steady-state stepping
    performs no configuration-space allocation.
    """

    def __init__(self, conf_grid: Grid, cfg_basis: ModalBasis):
        self.conf_grid = conf_grid
        self.cfg_basis = cfg_basis
        self._species_current: Optional[np.ndarray] = None
        self._charge = ChargeCoupling(conf_grid, cfg_basis, neutralize=False)

    def total_current(
        self,
        blocks: List[KineticSpecies],
        state: Dict[str, np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        shape = self.conf_grid.cells + (3, self.cfg_basis.num_basis)
        if out is None:
            out = np.zeros(shape)
        else:
            out.fill(0.0)
        if self._species_current is None:
            self._species_current = np.empty(shape)
        for blk in blocks:
            out += blk.moments.current_density(
                state[f"f/{blk.name}"], blk.decl.charge, out=self._species_current
            )
        return out

    def total_charge_density(
        self, blocks: List[KineticSpecies], state: Dict[str, np.ndarray]
    ) -> np.ndarray:
        return self._charge.charge_density(blocks, state)


class ChargeCoupling:
    """Accumulates the species' charge density for functional field solves,
    with optional uniform neutralizing background."""

    def __init__(self, conf_grid: Grid, cfg_basis: ModalBasis, neutralize: bool):
        self.conf_grid = conf_grid
        self.cfg_basis = cfg_basis
        self.neutralize = neutralize
        self._rho = np.empty(conf_grid.cells + (cfg_basis.num_basis,))
        self._scaled = np.empty_like(self._rho)

    def charge_density(
        self, blocks: List[KineticSpecies], state: Dict[str, np.ndarray], halo=None
    ) -> np.ndarray:
        """Charge density on the whole grid: with a ``halo`` (the owning
        system is one block of it) the blocks' densities are gathered
        before the background is subtracted.  ``sum_s q_s M0_s`` is zero,
        then each species' product added in order, in a buffer the coupling
        owns (the next call rewrites it)."""
        rho = self._rho
        rho.fill(0.0)
        for blk in blocks:
            m0 = blk.moments.sums(("M0",), state[f"f/{blk.name}"])
            np.multiply(m0.reshape(rho.shape), blk.decl.charge, out=self._scaled)
            rho += self._scaled
        if halo is not None:
            rho = halo.allgather(rho)
        if self.neutralize:
            # sum / size: the bits of ``ndarray.mean``, without its overhead
            rho0 = rho[..., 0]
            rho0 -= rho0.sum() / rho0.size
        return rho


# --------------------------------------------------------------------- #
# field blocks
# --------------------------------------------------------------------- #
class FieldBlock:
    """Base class for field closures.

    A field block is constructed from its declaration alone and bound to
    the owning system's grid/basis by :meth:`bind` (called once by
    ``System.__init__``); :meth:`unbound` hands out a fresh copy of the
    declaration for another System.  Subclasses define:

    ``kind``
        ``"maxwell"`` / ``"poisson"`` / ``"none"`` — the closure's name
        (what ``System.field_kind`` reports).
    ``in_state``
        whether the block contributes an ``"em"`` entry to the model state.
    ``evolves``
        whether that entry has a nonzero time derivative.
    ``em_for_species(system, state, token=None)``
        the EM array the Vlasov solvers consume (self-consistent field
        plus any external drive at the system's current time).  With the
        system's state token (``state`` is then the system's state under
        it) a functional closure reuses the field it solved for that token;
        without one it solves afresh from ``state``.
    ``accumulate_rhs(system, state, out, ghosted=None)``
        fill the field's own time derivative into ``out`` (no-op for
        functional/static closures); ``ghosted`` is ``state`` carrying the
        grid's ghost layers, when the system is a block of a larger grid.
    ``max_frequency()``
        the field's CFL frequency contribution (0 when not evolved).
    ``energy(system, token=None)``
        the field-energy diagnostic (``token`` as for ``em_for_species``).
    """

    kind: str = "abstract"
    in_state: bool = False
    evolves: bool = False

    def __init__(self):
        self.external: Optional[ExternalField] = None
        self._ext_coeffs: Optional[np.ndarray] = None
        self._bound = False

    def bind_to(self, conf_grid: Grid, cfg_basis: ModalBasis,
                external: Optional[ExternalField]) -> None:
        """One-time binding entry point (called by ``System.__init__``).

        A block instance holds grid-shaped solvers and buffers, so it
        belongs to exactly one System; rebinding would silently corrupt
        the first owner."""
        if self._bound:
            raise ValueError(
                f"this {type(self).__name__} is already bound to a System; "
                "construct a fresh field block per System"
            )
        self.bind(conf_grid, cfg_basis, external)
        self._bound = True

    def bind(self, conf_grid: Grid, cfg_basis: ModalBasis,
             external: Optional[ExternalField]) -> None:
        raise NotImplementedError

    def unbound(self) -> "FieldBlock":
        """A fresh, unbound block with this one's declaration."""
        raise NotImplementedError

    def initial_em(self) -> Optional[np.ndarray]:
        """The initial ``"em"`` state entry (None when not ``in_state``)."""
        return None

    def em_for_species(self, system, state, token=None) -> np.ndarray:
        raise NotImplementedError

    def accumulate_rhs(self, system, state, out, ghosted=None) -> None:
        pass

    def max_frequency(self) -> float:
        return 0.0

    def energy(self, system, token=None) -> float:
        return 0.0

    def _project_external(self, conf_grid: Grid, cfg_basis: ModalBasis) -> np.ndarray:
        """Project the external drive's spatial profiles onto the full
        8-component EM layout (components not driven stay zero).  A block
        of a larger grid cuts its cells out of the whole grid's projection,
        so its coefficients are the serial ones whatever the profile."""
        from ..fields.maxwell import project_em_components

        return conf_grid.restrict(
            project_em_components(conf_grid.parent, cfg_basis, self.external.profiles)
        )


class MaxwellBlock(FieldBlock):
    """Evolved electromagnetic field (Maxwell's equations, DG central or
    upwind fluxes, with divergence-cleaning potentials): its
    :class:`~repro.fields.maxwell.MaxwellSolver` runs volume, trace, face
    flux and lift as plans of the engine the species run on."""

    kind = "maxwell"
    in_state = True

    def __init__(self, spec: Optional[FieldSpec] = None):
        super().__init__()
        self.spec = spec or FieldSpec(evolve=False)
        self.solver = None
        self.coupling: Optional[CurrentCoupling] = None
        self._ext_buf: Optional[np.ndarray] = None
        self._total_current: Optional[np.ndarray] = None

    @property
    def evolves(self) -> bool:
        return self.spec.evolve

    def unbound(self) -> "MaxwellBlock":
        return MaxwellBlock(self.spec)

    def bind(self, conf_grid, cfg_basis, external) -> None:
        from ..fields.maxwell import MaxwellSolver

        self.solver = MaxwellSolver(
            conf_grid,
            cfg_basis,
            light_speed=self.spec.light_speed,
            epsilon0=self.spec.epsilon0,
            flux=self.spec.flux,
            chi_e=self.spec.chi_e,
            chi_m=self.spec.chi_m,
        )
        self.coupling = CurrentCoupling(conf_grid, cfg_basis)
        self.external = external
        if external is not None:
            self._ext_coeffs = self._project_external(conf_grid, cfg_basis)
            self._ext_buf = np.empty_like(self._ext_coeffs)

    def initial_em(self) -> np.ndarray:
        if _OBS.on:
            t0 = _perf_counter()
            em = self.solver.project_initial_condition(self.spec.initial)
            _OBS.finish("systems.project_initial", t0)
            return em
        return self.solver.project_initial_condition(self.spec.initial)

    def em_for_species(self, system, state, token=None) -> np.ndarray:
        """The field the particles feel: the evolved state plus the external
        drive at the system's current time.  The returned array is a
        persistent buffer refreshed per call (the state array itself when
        there is no drive)."""
        em = state["em"] if "em" in state else system.em
        if self.external is None:
            return em
        np.multiply(
            self._ext_coeffs, self.external.envelope(system.time), out=self._ext_buf
        )
        self._ext_buf += em
        return self._ext_buf

    def _current_buf(self) -> np.ndarray:
        if self._total_current is None:
            self._total_current = np.empty(
                self.coupling.conf_grid.cells + (3, self.coupling.cfg_basis.num_basis)
            )
        return self._total_current

    def accumulate_rhs(self, system, state, out, ghosted=None) -> None:
        if self.spec.evolve:
            em = (state if ghosted is None else ghosted)["em"]
            current = self.coupling.total_current(
                system.blocks, state, out=self._current_buf()
            )
            rho = (
                self.coupling.total_charge_density(system.blocks, state)
                if self.spec.chi_e
                else None
            )
            self.solver.rhs(em, current=current, charge_density=rho, out=out["em"])
        elif "em" in state:
            # (``out`` may allocate its entries on first access)
            out["em"].fill(0.0)

    def max_frequency(self) -> float:
        return self.solver.max_frequency() if self.spec.evolve else 0.0

    def energy(self, system, token=None) -> float:
        return self.solver.field_energy(system.em)


class PoissonBlock(FieldBlock):
    """Electrostatic closure: ``Ex`` is a *functional* of the instantaneous
    charge density via the exact 1-D DG Poisson solve — no field state is
    evolved, so light-speed CFL limits never enter."""

    kind = "poisson"
    in_state = False

    def __init__(self, epsilon0: float = 1.0, neutralize: bool = True):
        super().__init__()
        self.epsilon0 = float(epsilon0)
        self.neutralize = bool(neutralize)
        self.solver = None
        self.coupling: Optional[ChargeCoupling] = None
        self._em_buf: Optional[np.ndarray] = None
        self._conf_grid: Optional[Grid] = None
        # the self-consistent Ex of the state token it was solved for
        self._ex_token: Optional[tuple] = None
        self._ex: Optional[np.ndarray] = None

    def unbound(self) -> "PoissonBlock":
        return PoissonBlock(self.epsilon0, self.neutralize)

    def bind(self, conf_grid, cfg_basis, external) -> None:
        if conf_grid.ndim != 1:
            raise ValueError("the Poisson field block supports 1-D configuration space")
        from ..fields.poisson import Poisson1D

        # the solve is global: a block of a larger grid gathers the charge
        # density, solves on the whole grid and keeps its own cells
        self.solver = Poisson1D(conf_grid.parent, cfg_basis, self.epsilon0)
        self.coupling = ChargeCoupling(conf_grid, cfg_basis, self.neutralize)
        self._conf_grid = conf_grid
        self._em_buf = np.zeros(conf_grid.cells + (8, cfg_basis.num_basis))
        self.external = external
        if external is not None:
            self._ext_coeffs = self._project_external(conf_grid, cfg_basis)

    def em_for_species(self, system, state, token=None) -> np.ndarray:
        """Full EM-state array (cell-major ``(nx, 8, Npc)``) with ``Ex``
        from the Poisson solve plus any external drive at the system's
        current time.  The returned array is a persistent buffer refreshed
        on every call; with ``token`` the solve is the one made for it, if
        any."""
        ex = self._self_consistent_ex(system, state, token)
        if self.external is not None:
            np.multiply(
                self._ext_coeffs,
                self.external.envelope(system.time),
                out=self._em_buf,
            )
            self._em_buf[..., 0, :] += ex
        else:
            self._em_buf[..., 0, :] = ex
        return self._em_buf

    def _self_consistent_ex(self, system, state, token=None) -> np.ndarray:
        """This block's cells of ``Ex`` from the Poisson solve (no drive),
        solved once per ``token``.  A solve without one drops the kept
        field, as a token-less LBO refresh drops its moments: ``state`` may
        be the system's arrays mid-step.  Every shard of a sharded run asks
        with the same tokens, so all of them take part in the charge gather
        or none does."""
        if token is not None and token == self._ex_token:
            return self._ex
        rho = self.coupling.charge_density(system.blocks, state, system.halo)
        ex = self._conf_grid.restrict(self.solver.solve(rho))
        self._ex_token, self._ex = token, ex
        return ex

    def energy(self, system, token=None) -> float:
        """Electrostatic energy ``(eps0/2) int E^2 dx`` of the
        self-consistent field (the external drive does not enter)."""
        ex = self._self_consistent_ex(system, system.state(), token)
        jac = 0.5 * self._conf_grid.dx[0]
        return 0.5 * self.epsilon0 * float(np.sum(ex**2)) * jac


class NullFieldBlock(FieldBlock):
    """No field at all: species stream freely (passive DG advection).

    Unlike a static :class:`MaxwellBlock` this contributes no ``"em"``
    state entry, so checkpoints, halos, and stepping carry distribution
    functions only.  An external drive may still be prescribed (it matters
    only for charged species).
    """

    kind = "none"
    in_state = False

    def __init__(self):
        super().__init__()
        self._zero_em: Optional[np.ndarray] = None
        self._em_buf: Optional[np.ndarray] = None

    def unbound(self) -> "NullFieldBlock":
        return NullFieldBlock()

    def bind(self, conf_grid, cfg_basis, external) -> None:
        self._zero_em = np.zeros(conf_grid.cells + (8, cfg_basis.num_basis))
        self.external = external
        if external is not None:
            self._ext_coeffs = self._project_external(conf_grid, cfg_basis)
            self._em_buf = np.empty_like(self._ext_coeffs)

    def em_for_species(self, system, state, token=None) -> np.ndarray:
        if self.external is None:
            return self._zero_em
        np.multiply(
            self._ext_coeffs, self.external.envelope(system.time), out=self._em_buf
        )
        return self._em_buf
