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

A spec field is declared once, ``name: type = wire(kind, default)``; the one
reader and one writer (``from_dict`` / ``to_dict``, inherited by every spec
class) walk those declarations, and ``validate`` holds the semantic rules.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import OBS_MODES
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


def _check(value, path: str, types, what: str):
    if not isinstance(value, types):
        raise SpecError(path, f"expected {what}, got {value!r}")
    return value


def _name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecError(path, f"expected a non-empty string, got {value!r}")
    return value


def _known(value, path: str, what: str, known: Sequence[str]) -> None:
    if value not in known:
        raise SpecError(path, f"unknown {what} {value!r} (known: {', '.join(known)})")


def _tuple_of(value, path: str, integer: bool) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError(path, f"expected a non-empty list, got {value!r}")
    return tuple(_num(x, f"{path}[{i}]", integer=integer) for i, x in enumerate(value))


def _profile(value, path: str) -> dict:
    """A kind-tagged profile object (``validate`` compiles it: kind, parameters)."""
    return dict(_check(value, path, Mapping, "a profile object"))


def _profiles(value, path: str) -> Dict[str, dict]:
    _check(value, path, Mapping, "an object")
    return {key: _profile(prof, f"{path}.{key}") for key, prof in value.items()}


def _specs(value, path: str, of) -> tuple:
    _check(value, path, (list, tuple), "a list")
    return tuple(_read(of, item, f"{path}[{i}]") for i, item in enumerate(value))


#: the declarations of a spec class (``fields`` builds a new tuple per call)
_declared = functools.cache(fields)


def _read(cls, data, path: str):
    """The one reader: ``data`` against the field declarations of ``cls``."""
    data = cls._stored(data, path)
    _reject_unknown(data, path, [f.name for f in _declared(cls)])
    values = {}
    for f in _declared(cls):
        if f.name in data:
            read = _READ[f.metadata["wire"]]
            values[f.name] = read(data[f.name], f"{path}.{f.name}", f.metadata["of"])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SpecError(f"{path}.{f.name}", "missing required field")
    return cls(**values)._checked(path)


def _write(spec) -> dict:
    """The one writer: a JSON-ready dict in declaration order."""
    out = {}
    for f in _declared(type(spec)):
        value, writer = getattr(spec, f.name), _WRITE.get(f.metadata["wire"])
        out[f.name] = writer(value) if writer else value
    return out


#: wire kind -> reader ``(value, path, of) -> field value``.  A ``string`` is
#: read as it stands: each is an enumerated name that ``validate`` checks
#: against its list of known values.  An ``optional spec`` reads any empty
#: value (``null``, ``{}``) as None.
_READ = {
    "number": lambda v, path, of: _num(v, path),
    "integer": lambda v, path, of: _num(v, path, integer=True),
    "optional integer": lambda v, path, of: None if v is None else _num(v, path, integer=True),
    "boolean": lambda v, path, of: _check(v, path, bool, "a boolean"),
    "string": lambda v, path, of: v,
    "name": lambda v, path, of: _name(v, path),
    "optional string": lambda v, path, of: None if v is None else _check(v, path, str, "a string"),
    "numbers": lambda v, path, of: _tuple_of(v, path, integer=False),
    "integers": lambda v, path, of: _tuple_of(v, path, integer=True),
    "spec": lambda v, path, of: _read(of, v, path),
    "optional spec": lambda v, path, of: _read(of, v, path) if v else None,
    "specs": _specs,
    "profile": lambda v, path, of: _profile(v, path),
    "profiles": lambda v, path, of: _profiles(v, path),
}
#: wire kind -> writer, for the kinds whose field value is not its JSON value
_WRITE = {
    "numbers": list,
    "integers": list,
    "spec": _write,
    "optional spec": lambda v: None if v is None else _write(v),
    "specs": lambda v: [_write(item) for item in v],
    "profile": dict,
    "profiles": lambda v: {key: dict(prof) for key, prof in v.items()},
}


def wire(kind: str, default=MISSING, *, factory=MISSING, of=None):
    """Declare one spec field: its wire kind (a key of the reader table), its
    default (none = required) and, for the nested kinds, the spec class."""
    if kind not in _READ:
        raise ValueError(f"unknown wire kind {kind!r}")
    return field(default=default, default_factory=factory, metadata={"wire": kind, "of": of})


class _Spec:
    """The dict form of every spec dataclass, from its :func:`wire` declarations."""

    def to_dict(self) -> dict:
        return _write(self)

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "spec"):
        """Type-check ``data`` into a spec; ``path`` prefixes error fields."""
        return _read(cls, data, path)

    @classmethod
    def _stored(cls, data, path: str):
        """Hook, before reading: rewrite what earlier versions stored."""
        return data

    def _checked(self, path: str):
        """Hook, after reading: what :func:`_read` returns for this spec."""
        return self


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridSpec(_Spec):
    """Uniform Cartesian grid description (mirrors :class:`repro.grid.Grid`)."""

    lower: Tuple[float, ...] = wire("numbers")
    upper: Tuple[float, ...] = wire("numbers")
    cells: Tuple[int, ...] = wire("integers")

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
class CollisionsSpec(_Spec):
    """Collision operator selection: ``kind`` is ``"lbo"`` or ``"bgk"``."""

    kind: str = wire("string", "lbo")
    nu: float = wire("number", 1.0)

    def validate(self, path: str) -> None:
        _known(self.kind, f"{path}.kind", "collision kind", COLLISION_KINDS)
        if self.nu < 0:
            raise SpecError(f"{path}.nu", "collision frequency must be non-negative")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpeciesSpec(_Spec):
    """One kinetic species: charge/mass, velocity grid, declarative IC."""

    name: str = wire("name")
    charge: float = wire("number")
    mass: float = wire("number")
    velocity_grid: GridSpec = wire("spec", of=GridSpec)
    initial: Dict = wire("profile", factory=lambda: {"kind": "maxwellian"})
    collisions: Optional[CollisionsSpec] = wire("optional spec", None, of=CollisionsSpec)

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
class FieldInitSpec(_Spec):
    """EM field configuration with declarative component seeding."""

    initial: Dict[str, Dict] = wire("profiles", factory=dict)
    light_speed: float = wire("number", 1.0)
    epsilon0: float = wire("number", 1.0)
    flux: str = wire("string", "central")
    chi_e: float = wire("number", 0.0)
    chi_m: float = wire("number", 0.0)
    evolve: bool = wire("boolean", True)

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
class ExternalFieldSpec(_Spec):
    """Prescribed time-dependent external EM drive.

    ``components`` maps EM component names (``Ex`` ... ``Bz``) to
    configuration-space spatial profiles; the drive is that static profile
    times the envelope ``cos(omega t + phase)`` (times a linear ramp over
    ``ramp`` time units when positive).  The drive accelerates particles
    and enters the CFL estimate, but is not evolved by the field solver.
    """

    components: Dict[str, Dict] = wire("profiles", factory=dict)
    omega: float = wire("number", 0.0)
    phase: float = wire("number", 0.0)
    ramp: float = wire("number", 0.0)

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
class DiagnosticsSpec(_Spec):
    """Diagnostics/checkpoint scheduling (step-count intervals; 0 = off).

    ``stream_path`` names a JSONL file that receives one record per
    diagnostics event *during* the run (incremental, flushed per line);
    when unset, a Driver with an ``outdir`` streams to
    ``outdir/diagnostics.jsonl``.
    """

    energy_interval: int = wire("integer", 1)
    checkpoint_interval: int = wire("integer", 0)
    checkpoint_path: Optional[str] = wire("optional string", None)
    record_jdote: bool = wire("boolean", False)
    stream_path: Optional[str] = wire("optional string", None)

    def validate(self, path: str) -> None:
        if self.energy_interval < 0:
            raise SpecError(f"{path}.energy_interval", "interval must be >= 0")
        if self.checkpoint_interval < 0:
            raise SpecError(f"{path}.checkpoint_interval", "interval must be >= 0")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ObservabilitySpec(_Spec):
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

    mode: str = wire("string", "off")
    sample: int = wire("integer", 1)
    trace_path: Optional[str] = wire("optional string", None)
    metrics_path: Optional[str] = wire("optional string", None)

    def validate(self, path: str) -> None:
        _known(self.mode, f"{path}.mode", "observability mode", OBS_MODES)
        if self.sample < 1:
            raise SpecError(f"{path}.sample", "sample must be >= 1")


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SimulationSpec(_Spec):
    """Full declarative description of one kinetic simulation."""

    name: str = wire("name")
    model: str = wire("string")
    conf_grid: GridSpec = wire("spec", of=GridSpec)
    species: Tuple[SpeciesSpec, ...] = wire("specs", of=SpeciesSpec)
    field: Optional[FieldInitSpec] = wire("optional spec", None, of=FieldInitSpec)
    external_field: Optional[ExternalFieldSpec] = wire("optional spec", None, of=ExternalFieldSpec)
    poly_order: int = wire("integer", 2)
    family: str = wire("string", "serendipity")
    cfl: float = wire("number", 0.9)
    scheme: str = wire("string", "modal")
    stepper: str = wire("string", "ssp-rk3")
    backend: str = wire("string", "numpy")
    #: plan/kernel disk cache: ``"auto"`` ($REPRO_CACHE_DIR or
    #: ``~/.cache/repro``), ``"off"``, or an explicit directory
    plan_cache: str = wire("string", "auto")
    t_end: float = wire("number", 10.0)
    steps: Optional[int] = wire("optional integer", None)
    epsilon0: float = wire("number", 1.0)
    neutralize: bool = wire("boolean", True)
    diagnostics: DiagnosticsSpec = wire("spec", factory=DiagnosticsSpec, of=DiagnosticsSpec)
    observability: ObservabilitySpec = wire("spec", factory=ObservabilitySpec, of=ObservabilitySpec)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def _stored(cls, data, path: str):
        """Specs stored by earlier versions (checkpoint metadata, serve
        ``job.json``) name a ``plan_mode`` and a ``threaded[:N]`` backend; every
        value of either ran the same products bit-identically, so they are
        checked and dropped rather than rejected."""
        if not isinstance(data, Mapping):
            return data
        data = dict(data)
        if "plan_mode" in data:
            mode = data.pop("plan_mode")
            if mode not in ("fused", "interpreted"):
                raise SpecError(f"{path}.plan_mode", f"unknown plan mode {mode!r}")
        backend = data.get("backend")
        if isinstance(backend, str) and re.fullmatch(r"threaded(:0*[1-9]\d*)?", backend):
            data["backend"] = "numpy"
        return data

    def _checked(self, path: str) -> "SimulationSpec":
        return self.validate(path)  # a whole spec is validated as it is read

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
        from ..basis.multiindex import FAMILIES
        from ..systems.registry import get_system_kind, known_models
        from ..timestepping.ssprk import available_steppers

        _name(self.name, f"{path}.name")
        _known(self.model, f"{path}.model", "model", known_models())
        _known(self.scheme, f"{path}.scheme", "scheme", SCHEMES)
        _known(self.stepper, f"{path}.stepper", "stepper", available_steppers())
        parse_backend(self.backend, f"{path}.backend")
        if not isinstance(self.plan_cache, str) or not self.plan_cache:
            raise SpecError(
                f"{path}.plan_cache",
                "expected 'auto', 'off', or a cache directory, "
                f"got {self.plan_cache!r}",
            )
        _known(self.family, f"{path}.family", "basis family", sorted(FAMILIES))
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
