"""Declarative initial-condition profiles.

Specs are plain JSON data, so initial conditions cannot be arbitrary Python
callables.  This module is the bridge: a profile is a kind-tagged parameter
dict (``{"kind": "maxwellian", "vt": 0.5, ...}``) that compiles into the
vectorized callable the projection machinery consumes.  Two registries:

* **phase profiles** — distribution functions ``f0(x..., v...)`` for
  :class:`~repro.runtime.spec.SpeciesSpec.initial`;
* **conf profiles** — scalar fields ``g(x...)`` for EM field components.

Both validate their parameters eagerly and raise
:class:`~repro.runtime.errors.SpecError` naming the bad field, so a typo in
an input file fails at spec-validation time, not mid-run.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import SpecError

__all__ = [
    "phase_profile",
    "conf_profile",
    "build_phase_profile",
    "build_conf_profile",
    "PHASE_PROFILES",
    "CONF_PROFILES",
]

PHASE_PROFILES: Dict[str, Callable] = {}
CONF_PROFILES: Dict[str, Callable] = {}


def phase_profile(kind: str):
    """Register a phase-space profile builder under ``kind``."""

    def deco(fn):
        PHASE_PROFILES[kind] = fn
        return fn

    return deco


def conf_profile(kind: str):
    """Register a configuration-space profile builder under ``kind``."""

    def deco(fn):
        CONF_PROFILES[kind] = fn
        return fn

    return deco


# --------------------------------------------------------------------- #
# parameter plumbing
# --------------------------------------------------------------------- #
class _Params:
    """Typed access to a profile's parameter dict with path-aware errors."""

    def __init__(self, data: dict, path: str, known: Sequence[str]):
        self.data = data
        self.path = path
        for key in data:
            if key != "kind" and key not in known:
                raise SpecError(
                    f"{path}.{key}",
                    f"unknown parameter (expected one of: {', '.join(sorted(known))})",
                )

    def number(self, key: str, default: float) -> float:
        val = self.data.get(key, default)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SpecError(f"{self.path}.{key}", f"expected a number, got {val!r}")
        return float(val)

    def integer(self, key: str, default: int) -> int:
        val = self.data.get(key, default)
        if not isinstance(val, int) or isinstance(val, bool):
            raise SpecError(f"{self.path}.{key}", f"expected an integer, got {val!r}")
        return int(val)

    def sub(self, key: str) -> Optional[dict]:
        val = self.data.get(key)
        if val is None:
            return None
        if not isinstance(val, dict):
            raise SpecError(f"{self.path}.{key}", f"expected an object, got {val!r}")
        return val


def _kind(spec, path: str, registry: Dict[str, Callable]) -> str:
    if not isinstance(spec, dict):
        raise SpecError(path, f"expected a profile object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in registry:
        raise SpecError(
            f"{path}.kind",
            f"unknown profile kind {kind!r} (known: {', '.join(sorted(registry))})",
        )
    return kind


def build_phase_profile(spec: dict, cdim: int, vdim: int, path: str = "initial"):
    """Compile a phase-profile dict into ``f0(*x, *v)``."""
    return PHASE_PROFILES[_kind(spec, path, PHASE_PROFILES)](spec, cdim, vdim, path)


def build_conf_profile(spec: dict, cdim: int, path: str = "field.initial"):
    """Compile a conf-profile dict into ``g(*x)``."""
    return CONF_PROFILES[_kind(spec, path, CONF_PROFILES)](spec, cdim, path)


def _density_factor(pert: Optional[dict], cdim: int, path: str):
    """Compile the optional ``perturbation`` sub-dict to ``1 + amp cos(k x)``."""
    if pert is None:
        return lambda xs: 1.0
    p = _Params(pert, path, known=("amp", "k", "axis", "phase"))
    if "kind" in pert:
        raise SpecError(f"{path}.kind", "perturbation takes no 'kind' tag")
    amp = p.number("amp", 0.0)
    k = p.number("k", 0.0)
    phase = p.number("phase", 0.0)
    axis = p.integer("axis", 0)
    if not 0 <= axis < cdim:
        raise SpecError(f"{path}.axis", f"axis {axis} out of range for cdim={cdim}")
    return lambda xs: 1.0 + amp * np.cos(k * xs[axis] + phase)


def _maxwellian(vs, drifts, vt, vdim):
    norm = (2.0 * math.pi * vt**2) ** (vdim / 2.0)
    arg = sum((v - u) ** 2 for v, u in zip(vs, drifts))
    return np.exp(-arg / (2.0 * vt**2)) / norm


def _broadcaster(coords):
    """``+0.0``-valued array spanning every coordinate's shape (broadcast
    glue)."""
    return np.zeros(np.broadcast(*coords).shape)


def _drift_list(p: _Params, key: str, vdim: int):
    val = p.data.get(key, 0.0)
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return [float(val)] * vdim
    if isinstance(val, (list, tuple)) and len(val) == vdim and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
    ):
        return [float(x) for x in val]
    raise SpecError(
        f"{p.path}.{key}", f"expected a number or list of {vdim} numbers, got {val!r}"
    )


# --------------------------------------------------------------------- #
# phase-space profiles
# --------------------------------------------------------------------- #
@phase_profile("maxwellian")
def _p_maxwellian(spec, cdim, vdim, path):
    """Drifting Maxwellian with optional cosine density perturbation."""
    p = _Params(spec, path, known=("n0", "drift", "vt", "perturbation"))
    n0 = p.number("n0", 1.0)
    vt = p.number("vt", 1.0)
    if vt <= 0:
        raise SpecError(f"{path}.vt", "thermal speed must be positive")
    drifts = _drift_list(p, "drift", vdim)
    dens = _density_factor(p.sub("perturbation"), cdim, f"{path}.perturbation")

    def f0(*coords):
        xs, vs = coords[:cdim], coords[cdim:]
        return (
            n0 * dens(xs) * _maxwellian(vs, drifts, vt, vdim) + _broadcaster(coords)
        )

    return f0


@phase_profile("counter_beams")
def _p_counter_beams(spec, cdim, vdim, path):
    """Two equal Maxwellian beams at ±drift along one velocity axis."""
    p = _Params(spec, path, known=("n0", "drift", "vt", "axis", "perturbation"))
    n0 = p.number("n0", 1.0)
    vt = p.number("vt", 0.5)
    drift = p.number("drift", 1.0)
    axis = p.integer("axis", 0)
    if vt <= 0:
        raise SpecError(f"{path}.vt", "thermal speed must be positive")
    if not 0 <= axis < vdim:
        raise SpecError(f"{path}.axis", f"axis {axis} out of range for vdim={vdim}")
    dens = _density_factor(p.sub("perturbation"), cdim, f"{path}.perturbation")
    plus = [drift if d == axis else 0.0 for d in range(vdim)]
    minus = [-drift if d == axis else 0.0 for d in range(vdim)]

    def f0(*coords):
        xs, vs = coords[:cdim], coords[cdim:]
        beams = 0.5 * (
            _maxwellian(vs, plus, vt, vdim) + _maxwellian(vs, minus, vt, vdim)
        )
        return n0 * dens(xs) * beams + _broadcaster(coords)

    return f0


@phase_profile("bump_on_tail")
def _p_bump_on_tail(spec, cdim, vdim, path):
    """1V Maxwellian bulk plus a Gaussian bump on the tail."""
    if vdim != 1:
        raise SpecError(path, f"bump_on_tail requires vdim=1, got vdim={vdim}")
    p = _Params(
        spec,
        path,
        known=("n0", "vt", "bump_amp", "bump_drift", "bump_width", "perturbation"),
    )
    n0 = p.number("n0", 1.0)
    vt = p.number("vt", 1.0)
    bump_amp = p.number("bump_amp", 0.2)
    bump_drift = p.number("bump_drift", 3.0)
    bump_width = p.number("bump_width", 0.4)
    if vt <= 0:
        raise SpecError(f"{path}.vt", "thermal speed must be positive")
    if bump_width <= 0:
        raise SpecError(f"{path}.bump_width", "bump width must be positive")
    dens = _density_factor(p.sub("perturbation"), cdim, f"{path}.perturbation")

    def f0(*coords):
        xs, (v,) = coords[:cdim], coords[cdim:]
        bulk = np.exp(-(v**2) / (2.0 * vt**2)) / math.sqrt(2.0 * math.pi * vt**2)
        bump = (
            bump_amp
            * np.exp(-((v - bump_drift) ** 2) / bump_width)
            / math.sqrt(bump_width * math.pi)
        )
        return n0 * dens(xs) * (bulk + bump) + _broadcaster(coords)

    return f0


# --------------------------------------------------------------------- #
# configuration-space profiles (EM field components)
# --------------------------------------------------------------------- #
@conf_profile("constant")
def _c_constant(spec, cdim, path):
    p = _Params(spec, path, known=("value",))
    value = p.number("value", 0.0)

    def g(*xs):
        return value + _broadcaster(xs)

    return g


def _harmonic(spec, cdim, path, fn):
    p = _Params(spec, path, known=("amp", "k", "axis", "phase", "offset"))
    amp = p.number("amp", 1.0)
    k = p.number("k", 1.0)
    phase = p.number("phase", 0.0)
    offset = p.number("offset", 0.0)
    axis = p.integer("axis", 0)
    if not 0 <= axis < cdim:
        raise SpecError(f"{path}.axis", f"axis {axis} out of range for cdim={cdim}")

    def g(*xs):
        return offset + amp * fn(k * xs[axis] + phase) + _broadcaster(xs)

    return g


@conf_profile("cosine")
def _c_cosine(spec, cdim, path):
    return _harmonic(spec, cdim, path, np.cos)


@conf_profile("sine")
def _c_sine(spec, cdim, path):
    return _harmonic(spec, cdim, path, np.sin)
