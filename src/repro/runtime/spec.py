"""Declarative simulation specifications.

A :class:`SimulationSpec` is the JSON-serializable description of one
kinetic run: model (any system registered in
:mod:`repro.systems.registry` — ``maxwell``, ``poisson``, ``advection``,
...), discretization, grids, species with kind-tagged initial-condition
profiles, optional collisions, EM field seeding, and diagnostics
scheduling.  It plays the role of Gkeyll's Lua input file: the
:class:`~repro.runtime.driver.Driver` compiles a spec into a live
:class:`~repro.systems.system.System`, and the campaign runner scans over
spec overrides.

Every validation failure raises :class:`~repro.runtime.errors.SpecError`
naming the offending field as a dotted path (``species[0].velocity_grid.cells``)
so errors from hand-edited JSON are actionable.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from dataclasses import field as _dc_field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import SpecError
from .profiles import build_conf_profile, build_phase_profile

__all__ = [
    "GridSpec",
    "SpeciesSpec",
    "CollisionsSpec",
    "FieldInitSpec",
    "ExternalFieldSpec",
    "DiagnosticsSpec",
    "ObservabilitySpec",
    "SimulationSpec",
    "SpecError",
    "parse_backend",
]

SCHEMES = ("modal", "quadrature")
COLLISION_KINDS = ("lbo", "bgk")
EM_COMPONENTS = ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "phi", "psi")


def _reject_unknown(data: Mapping, path: str, known: Sequence[str]) -> None:
    if not isinstance(data, Mapping):
        raise SpecError(path, f"expected an object, got {data!r}")
    for key in data:
        if key not in known:
            raise SpecError(
                f"{path}.{key}",
                f"unknown field (expected one of: {', '.join(known)})",
            )


def parse_backend(value, path: str = "spec.backend") -> Optional[int]:
    """The shard count a ``backend`` value asks for: ``None`` for ``numpy``
    (serial), ``N`` for ``process:N``, the CPU count for a bare ``process``.

    ``backend`` only says where the configuration cells run —
    :func:`repro.runtime.driver.build_app` acts on it and nothing below
    sees it; every value produces the same bits.
    """
    if value == "numpy":
        return None
    if value == "process":
        return os.cpu_count() or 1
    match = isinstance(value, str) and re.fullmatch(r"process:0*([1-9][0-9]*)", value)
    if match:
        return int(match[1])
    raise SpecError(
        path,
        f"expected numpy, process or process:<N> (integer N >= 1), got {value!r}",
    )


def _num(value, path: str, *, integer: bool = False):
    ok = isinstance(value, int) if integer else isinstance(value, (int, float))
    if not ok or isinstance(value, bool):
        kind = "an integer" if integer else "a number"
        raise SpecError(path, f"expected {kind}, got {value!r}")
    return int(value) if integer else float(value)


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridSpec:
    """Uniform Cartesian grid description (mirrors :class:`repro.grid.Grid`)."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    cells: Tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "lower": list(self.lower),
            "upper": list(self.upper),
            "cells": list(self.cells),
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "grid") -> "GridSpec":
        _reject_unknown(data, path, ("lower", "upper", "cells"))
        out = {}
        for key, integer in (("lower", False), ("upper", False), ("cells", True)):
            if key not in data:
                raise SpecError(f"{path}.{key}", "missing required field")
            val = data[key]
            if not isinstance(val, (list, tuple)) or not val:
                raise SpecError(f"{path}.{key}", f"expected a non-empty list, got {val!r}")
            out[key] = tuple(
                _num(x, f"{path}.{key}[{i}]", integer=integer) for i, x in enumerate(val)
            )
        return cls(**out)

    def validate(self, path: str) -> None:
        if not (len(self.lower) == len(self.upper) == len(self.cells)):
            raise SpecError(path, "lower/upper/cells must have equal lengths")
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if hi <= lo:
                raise SpecError(f"{path}.upper[{i}]", f"upper {hi} must exceed lower {lo}")
        for i, n in enumerate(self.cells):
            if n < 1:
                raise SpecError(f"{path}.cells[{i}]", "need at least one cell")

    @property
    def ndim(self) -> int:
        return len(self.cells)

    def build(self):
        from ..grid.cartesian import Grid

        return Grid(list(self.lower), list(self.upper), list(self.cells))


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CollisionsSpec:
    """Collision operator selection: ``kind`` is ``"lbo"`` or ``"bgk"``."""

    kind: str = "lbo"
    nu: float = 1.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "nu": self.nu}

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "CollisionsSpec":
        _reject_unknown(data, path, ("kind", "nu"))
        kind = data.get("kind", "lbo")
        nu = _num(data.get("nu", 1.0), f"{path}.nu")
        return cls(kind=kind, nu=nu)

    def validate(self, path: str) -> None:
        if self.kind not in COLLISION_KINDS:
            raise SpecError(
                f"{path}.kind",
                f"unknown collision kind {self.kind!r} (known: {', '.join(COLLISION_KINDS)})",
            )
        if self.nu < 0:
            raise SpecError(f"{path}.nu", "collision frequency must be non-negative")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpeciesSpec:
    """One kinetic species: charge/mass, velocity grid, declarative IC."""

    name: str
    charge: float
    mass: float
    velocity_grid: GridSpec
    initial: Dict = field(default_factory=lambda: {"kind": "maxwellian"})
    collisions: Optional[CollisionsSpec] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "charge": self.charge,
            "mass": self.mass,
            "velocity_grid": self.velocity_grid.to_dict(),
            "initial": dict(self.initial),
            "collisions": self.collisions.to_dict() if self.collisions else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "SpeciesSpec":
        _reject_unknown(
            data, path,
            ("name", "charge", "mass", "velocity_grid", "initial", "collisions"),
        )
        for key in ("name", "charge", "mass", "velocity_grid"):
            if key not in data:
                raise SpecError(f"{path}.{key}", "missing required field")
        name = data["name"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"{path}.name", f"expected a non-empty string, got {name!r}")
        coll = data.get("collisions")
        initial = data.get("initial", {"kind": "maxwellian"})
        if not isinstance(initial, Mapping):
            raise SpecError(f"{path}.initial", f"expected a profile object, got {initial!r}")
        return cls(
            name=name,
            charge=_num(data["charge"], f"{path}.charge"),
            mass=_num(data["mass"], f"{path}.mass"),
            velocity_grid=GridSpec.from_dict(data["velocity_grid"], f"{path}.velocity_grid"),
            initial=dict(initial),
            collisions=CollisionsSpec.from_dict(coll, f"{path}.collisions") if coll else None,
        )

    def validate(self, path: str, cdim: int) -> None:
        self.velocity_grid.validate(f"{path}.velocity_grid")
        if self.mass <= 0:
            raise SpecError(f"{path}.mass", "mass must be positive")
        # compiling the profile performs its full parameter validation
        build_phase_profile(
            self.initial, cdim, self.velocity_grid.ndim, f"{path}.initial"
        )
        if self.collisions is not None:
            self.collisions.validate(f"{path}.collisions")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FieldInitSpec:
    """EM field configuration with declarative component seeding."""

    initial: Dict[str, Dict] = field(default_factory=dict)
    light_speed: float = 1.0
    epsilon0: float = 1.0
    flux: str = "central"
    chi_e: float = 0.0
    chi_m: float = 0.0
    evolve: bool = True

    def to_dict(self) -> dict:
        return {
            "initial": {k: dict(v) for k, v in self.initial.items()},
            "light_speed": self.light_speed,
            "epsilon0": self.epsilon0,
            "flux": self.flux,
            "chi_e": self.chi_e,
            "chi_m": self.chi_m,
            "evolve": self.evolve,
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "FieldInitSpec":
        _reject_unknown(
            data, path,
            ("initial", "light_speed", "epsilon0", "flux", "chi_e", "chi_m", "evolve"),
        )
        initial = data.get("initial", {})
        if not isinstance(initial, Mapping):
            raise SpecError(f"{path}.initial", f"expected an object, got {initial!r}")
        evolve = data.get("evolve", True)
        if not isinstance(evolve, bool):
            raise SpecError(f"{path}.evolve", f"expected a boolean, got {evolve!r}")
        return cls(
            initial={k: dict(v) for k, v in initial.items()},
            light_speed=_num(data.get("light_speed", 1.0), f"{path}.light_speed"),
            epsilon0=_num(data.get("epsilon0", 1.0), f"{path}.epsilon0"),
            flux=data.get("flux", "central"),
            chi_e=_num(data.get("chi_e", 0.0), f"{path}.chi_e"),
            chi_m=_num(data.get("chi_m", 0.0), f"{path}.chi_m"),
            evolve=evolve,
        )

    def validate(self, path: str, cdim: int) -> None:
        if self.flux not in ("central", "upwind"):
            raise SpecError(f"{path}.flux", f"unknown flux {self.flux!r}")
        if self.light_speed <= 0:
            raise SpecError(f"{path}.light_speed", "light speed must be positive")
        for comp, prof in self.initial.items():
            if comp not in EM_COMPONENTS:
                raise SpecError(
                    f"{path}.initial.{comp}",
                    f"unknown EM component (expected one of: {', '.join(EM_COMPONENTS)})",
                )
            build_conf_profile(prof, cdim, f"{path}.initial.{comp}")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExternalFieldSpec:
    """Prescribed time-dependent external EM drive.

    ``components`` maps EM component names (``Ex`` ... ``Bz``) to
    configuration-space spatial profiles; the drive is that static profile
    times the envelope ``cos(omega t + phase)`` (times a linear ramp over
    ``ramp`` time units when positive).  The drive accelerates particles
    and enters the CFL estimate, but is not evolved by the field solver.
    """

    components: Dict[str, Dict] = field(default_factory=dict)
    omega: float = 0.0
    phase: float = 0.0
    ramp: float = 0.0

    def to_dict(self) -> dict:
        return {
            "components": {k: dict(v) for k, v in self.components.items()},
            "omega": self.omega,
            "phase": self.phase,
            "ramp": self.ramp,
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "ExternalFieldSpec":
        _reject_unknown(data, path, ("components", "omega", "phase", "ramp"))
        components = data.get("components", {})
        if not isinstance(components, Mapping):
            raise SpecError(f"{path}.components", f"expected an object, got {components!r}")
        return cls(
            components={k: dict(v) for k, v in components.items()},
            omega=_num(data.get("omega", 0.0), f"{path}.omega"),
            phase=_num(data.get("phase", 0.0), f"{path}.phase"),
            ramp=_num(data.get("ramp", 0.0), f"{path}.ramp"),
        )

    def validate(self, path: str, cdim: int) -> None:
        if not self.components:
            raise SpecError(f"{path}.components", "need at least one driven component")
        for comp, prof in self.components.items():
            if comp not in EM_COMPONENTS[:6]:
                raise SpecError(
                    f"{path}.components.{comp}",
                    "unknown EM component (expected one of: "
                    f"{', '.join(EM_COMPONENTS[:6])})",
                )
            build_conf_profile(prof, cdim, f"{path}.components.{comp}")
        if self.ramp < 0:
            raise SpecError(f"{path}.ramp", "ramp must be non-negative")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DiagnosticsSpec:
    """Diagnostics/checkpoint scheduling (step-count intervals; 0 = off).

    ``stream_path`` names a JSONL file that receives one record per
    diagnostics event *during* the run (incremental, flushed per line);
    when unset, a Driver with an ``outdir`` streams to
    ``outdir/diagnostics.jsonl``.
    """

    energy_interval: int = 1
    checkpoint_interval: int = 0
    checkpoint_path: Optional[str] = None
    record_jdote: bool = False
    stream_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "energy_interval": self.energy_interval,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoint_path": self.checkpoint_path,
            "record_jdote": self.record_jdote,
            "stream_path": self.stream_path,
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "DiagnosticsSpec":
        _reject_unknown(
            data, path,
            ("energy_interval", "checkpoint_interval", "checkpoint_path",
             "record_jdote", "stream_path"),
        )
        for key in ("checkpoint_path", "stream_path"):
            val = data.get(key)
            if val is not None and not isinstance(val, str):
                raise SpecError(f"{path}.{key}", f"expected a string, got {val!r}")
        record = data.get("record_jdote", False)
        if not isinstance(record, bool):
            raise SpecError(f"{path}.record_jdote", f"expected a boolean, got {record!r}")
        return cls(
            energy_interval=_num(data.get("energy_interval", 1), f"{path}.energy_interval", integer=True),
            checkpoint_interval=_num(data.get("checkpoint_interval", 0), f"{path}.checkpoint_interval", integer=True),
            checkpoint_path=data.get("checkpoint_path"),
            record_jdote=record,
            stream_path=data.get("stream_path"),
        )

    def validate(self, path: str) -> None:
        if self.energy_interval < 0:
            raise SpecError(f"{path}.energy_interval", "interval must be >= 0")
        if self.checkpoint_interval < 0:
            raise SpecError(f"{path}.checkpoint_interval", "interval must be >= 0")


# --------------------------------------------------------------------- #
OBS_MODES = ("off", "summary", "trace")


@dataclass(frozen=True)
class ObservabilitySpec:
    """Observability configuration (see :mod:`repro.obs`).

    ``mode`` — ``"off"`` (default; instrumentation compiles to flag
    checks), ``"summary"`` (metrics counters + ``metrics.jsonl``), or
    ``"trace"`` (summary plus per-span Chrome-trace output).
    ``sample`` — in trace mode, record spans every Nth step (metrics stay
    exact; 1 = every step).  ``trace_path``/``metrics_path`` override the
    Driver's default outputs (``outdir/trace.json``,
    ``outdir/metrics.jsonl``).  ``$REPRO_OBS`` overrides ``mode`` at run
    time.
    """

    mode: str = "off"
    sample: int = 1
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "sample": self.sample,
            "trace_path": self.trace_path,
            "metrics_path": self.metrics_path,
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str) -> "ObservabilitySpec":
        _reject_unknown(
            data, path, ("mode", "sample", "trace_path", "metrics_path")
        )
        for key in ("trace_path", "metrics_path"):
            val = data.get(key)
            if val is not None and not isinstance(val, str):
                raise SpecError(f"{path}.{key}", f"expected a string, got {val!r}")
        return cls(
            mode=data.get("mode", "off"),
            sample=_num(data.get("sample", 1), f"{path}.sample", integer=True),
            trace_path=data.get("trace_path"),
            metrics_path=data.get("metrics_path"),
        )

    def validate(self, path: str) -> None:
        if self.mode not in OBS_MODES:
            raise SpecError(
                f"{path}.mode",
                f"unknown observability mode {self.mode!r} "
                f"(known: {', '.join(OBS_MODES)})",
            )
        if self.sample < 1:
            raise SpecError(f"{path}.sample", "sample must be >= 1")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SimulationSpec:
    """Full declarative description of one kinetic simulation."""

    name: str
    model: str
    conf_grid: GridSpec
    species: Tuple[SpeciesSpec, ...]
    field: Optional[FieldInitSpec] = None
    external_field: Optional[ExternalFieldSpec] = None
    poly_order: int = 2
    family: str = "serendipity"
    cfl: float = 0.9
    scheme: str = "modal"
    stepper: str = "ssp-rk3"
    backend: str = "numpy"
    #: plan/kernel disk cache: ``"auto"`` ($REPRO_CACHE_DIR or
    #: ``~/.cache/repro``), ``"off"``, or an explicit directory
    plan_cache: str = "auto"
    t_end: float = 10.0
    steps: Optional[int] = None
    epsilon0: float = 1.0
    neutralize: bool = True
    diagnostics: DiagnosticsSpec = _dc_field(default_factory=DiagnosticsSpec)
    observability: ObservabilitySpec = _dc_field(default_factory=ObservabilitySpec)

    _FIELDS = (
        "name", "model", "conf_grid", "species", "field", "external_field",
        "poly_order", "family", "cfl", "scheme", "stepper", "backend",
        "plan_cache", "t_end",
        "steps", "epsilon0", "neutralize", "diagnostics", "observability",
    )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "conf_grid": self.conf_grid.to_dict(),
            "species": [sp.to_dict() for sp in self.species],
            "field": self.field.to_dict() if self.field else None,
            "external_field": (
                self.external_field.to_dict() if self.external_field else None
            ),
            "poly_order": self.poly_order,
            "family": self.family,
            "cfl": self.cfl,
            "scheme": self.scheme,
            "stepper": self.stepper,
            "backend": self.backend,
            "plan_cache": self.plan_cache,
            "t_end": self.t_end,
            "steps": self.steps,
            "epsilon0": self.epsilon0,
            "neutralize": self.neutralize,
            "diagnostics": self.diagnostics.to_dict(),
            "observability": self.observability.to_dict(),
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "spec") -> "SimulationSpec":
        if isinstance(data, Mapping) and "plan_mode" in data:
            # legacy key: specs stored before the plan executors were merged
            # (checkpoints, serve job.json) carry it; both of its values ran
            # bit-identically, so it is dropped rather than rejected
            if data["plan_mode"] not in ("fused", "interpreted"):
                raise SpecError(
                    f"{path}.plan_mode", f"unknown plan mode {data['plan_mode']!r}"
                )
            data = {k: v for k, v in data.items() if k != "plan_mode"}
        _reject_unknown(data, path, cls._FIELDS)
        backend = data.get("backend", "numpy")
        if isinstance(backend, str) and re.fullmatch(r"threaded(:0*[1-9]\d*)?", backend):
            backend = "numpy"  # legacy value in stored specs; it ran the same products
        for key in ("name", "model", "conf_grid", "species"):
            if key not in data:
                raise SpecError(f"{path}.{key}", "missing required field")
        species_data = data["species"]
        if not isinstance(species_data, (list, tuple)):
            raise SpecError(f"{path}.species", f"expected a list, got {species_data!r}")
        species = tuple(
            SpeciesSpec.from_dict(sp, f"{path}.species[{i}]")
            for i, sp in enumerate(species_data)
        )
        field_data = data.get("field")
        ext_data = data.get("external_field")
        steps = data.get("steps")
        neutralize = data.get("neutralize", True)
        if not isinstance(neutralize, bool):
            raise SpecError(f"{path}.neutralize", f"expected a boolean, got {neutralize!r}")
        spec = cls(
            name=data["name"],
            model=data["model"],
            conf_grid=GridSpec.from_dict(data["conf_grid"], f"{path}.conf_grid"),
            species=species,
            field=FieldInitSpec.from_dict(field_data, f"{path}.field") if field_data else None,
            external_field=(
                ExternalFieldSpec.from_dict(ext_data, f"{path}.external_field")
                if ext_data
                else None
            ),
            poly_order=_num(data.get("poly_order", 2), f"{path}.poly_order", integer=True),
            family=data.get("family", "serendipity"),
            cfl=_num(data.get("cfl", 0.9), f"{path}.cfl"),
            scheme=data.get("scheme", "modal"),
            stepper=data.get("stepper", "ssp-rk3"),
            backend=backend,
            plan_cache=data.get("plan_cache", "auto"),
            t_end=_num(data.get("t_end", 10.0), f"{path}.t_end"),
            steps=None if steps is None else _num(steps, f"{path}.steps", integer=True),
            epsilon0=_num(data.get("epsilon0", 1.0), f"{path}.epsilon0"),
            neutralize=neutralize,
            diagnostics=DiagnosticsSpec.from_dict(
                data.get("diagnostics", {}), f"{path}.diagnostics"
            ),
            observability=ObservabilitySpec.from_dict(
                data.get("observability", {}), f"{path}.observability"
            ),
        )
        return spec.validate()

    @classmethod
    def from_json(cls, text: str) -> "SimulationSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("spec", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    def validate(self, path: str = "spec") -> "SimulationSpec":
        # the model catalogue is the systems registry: every registered
        # system declaration is a valid model name, nothing else is
        from ..systems.registry import get_system_kind, known_models

        if not isinstance(self.name, str) or not self.name:
            raise SpecError(f"{path}.name", f"expected a non-empty string, got {self.name!r}")
        if self.model not in known_models():
            raise SpecError(
                f"{path}.model",
                f"unknown model {self.model!r} (known: {', '.join(known_models())})",
            )
        if self.scheme not in SCHEMES:
            raise SpecError(
                f"{path}.scheme", f"unknown scheme {self.scheme!r} (known: {', '.join(SCHEMES)})"
            )
        from ..timestepping.ssprk import available_steppers

        if self.stepper not in available_steppers():
            raise SpecError(
                f"{path}.stepper",
                f"unknown stepper {self.stepper!r} "
                f"(known: {', '.join(available_steppers())})",
            )
        parse_backend(self.backend, f"{path}.backend")
        if not isinstance(self.plan_cache, str) or not self.plan_cache:
            raise SpecError(
                f"{path}.plan_cache",
                "expected 'auto', 'off', or a cache directory, "
                f"got {self.plan_cache!r}",
            )
        from ..basis.multiindex import FAMILIES

        if self.family not in FAMILIES:
            raise SpecError(
                f"{path}.family",
                f"unknown basis family {self.family!r} (known: {', '.join(sorted(FAMILIES))})",
            )
        if self.poly_order < 1:
            raise SpecError(f"{path}.poly_order", "poly_order must be >= 1")
        if not 0 < self.cfl <= 2.0:
            raise SpecError(f"{path}.cfl", f"cfl must be in (0, 2], got {self.cfl}")
        if self.t_end <= 0:
            raise SpecError(f"{path}.t_end", "t_end must be positive")
        if self.steps is not None and self.steps < 1:
            raise SpecError(f"{path}.steps", "steps must be >= 1 when set")
        self.conf_grid.validate(f"{path}.conf_grid")
        cdim = self.conf_grid.ndim
        if not self.species:
            raise SpecError(f"{path}.species", "need at least one species")
        names = [sp.name for sp in self.species]
        if len(set(names)) != len(names):
            raise SpecError(f"{path}.species", f"species names must be unique, got {names}")
        for i, sp in enumerate(self.species):
            sp.validate(f"{path}.species[{i}]", cdim)
        # model-specific constraints live with the registered system
        kind = get_system_kind(self.model)
        if self.diagnostics.record_jdote and not kind.supports_jdote:
            raise SpecError(
                f"{path}.diagnostics.record_jdote",
                "J.E recording requires the maxwell model",
            )
        if kind.validate is not None:
            kind.validate(self, path)
        if self.field is not None:
            self.field.validate(f"{path}.field", cdim)
        if self.external_field is not None:
            self.external_field.validate(f"{path}.external_field", cdim)
        self.diagnostics.validate(f"{path}.diagnostics")
        self.observability.validate(f"{path}.observability")
        return self

    # ------------------------------------------------------------------ #
    def with_overrides(self, overrides: Mapping[str, object]) -> "SimulationSpec":
        """Apply dotted-path overrides (``species.elc.charge``, ``cfl`` ...).

        List segments accept either an integer index or, for species, the
        species name.  Profile/collision parameter dicts (kind-tagged) accept
        new keys; structured spec fields must already exist.
        """
        data = self.to_dict()
        for dotted, value in overrides.items():
            _assign(data, dotted.split("."), value, dotted)
        return SimulationSpec.from_dict(data)


def _assign(node, parts: List[str], value, full: str) -> None:
    head, rest = parts[0], parts[1:]
    if isinstance(node, list):
        try:
            idx = int(head)
        except ValueError:
            idx = next(
                (
                    i
                    for i, entry in enumerate(node)
                    if isinstance(entry, Mapping) and entry.get("name") == head
                ),
                None,
            )
            if idx is None:
                raise SpecError(full, f"no list entry named {head!r}")
        if not -len(node) <= idx < len(node):
            raise SpecError(full, f"index {idx} out of range (list has {len(node)} entries)")
        if not rest:
            node[idx] = value
            return
        _assign(node[idx], rest, value, full)
        return
    if not isinstance(node, dict):
        raise SpecError(full, f"cannot descend into {node!r} at segment {head!r}")
    if not rest:
        # kind-tagged dicts (profiles, collisions) are open parameter sets;
        # structured spec objects are closed.
        if head not in node and "kind" not in node and head != "kind":
            raise SpecError(
                full, f"unknown field {head!r} (known: {', '.join(sorted(node))})"
            )
        node[head] = value
        return
    if head not in node or node[head] is None:
        if head == "collisions":
            # seed with the default kind so the open kind-tagged-dict rule
            # applies to whatever parameter is being set underneath
            node[head] = {"kind": "lbo"}
        elif head not in node:
            raise SpecError(
                full, f"unknown field {head!r} (known: {', '.join(sorted(node))})"
            )
        else:
            raise SpecError(full, f"field {head!r} is null; set it wholesale first")
    _assign(node[head], rest, value, full)
