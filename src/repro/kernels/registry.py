"""Process-wide cache of generated kernel bundles.

Kernel generation (exact symbolic integration) is paid once per
``(cdim, vdim, poly_order, family)`` combination and process — the analogue
of Gkeyll pre-generating its C++ kernels with Maxima.  It is cheap (about
0.04 s for the 48-mode 2X2V p=2 bundle, 0.28 s for the 112-mode 2X3V p=2
one, milliseconds in 1X1V, on a 2-core x86 box), so bundles are
memoized in memory only: there is no on-disk kernel cache to validate or
corrupt.  Concurrent callers of one key wait for a single build.  A bundle
holds what the solvers apply; the four-sided surface kernels of the Fig. 1/2
cost model are generated on demand by :mod:`repro.kernels.flops`.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from .vlasov import VlasovKernels, build_vlasov_kernels

__all__ = ["get_vlasov_kernels", "clear_registry", "registry_stats"]

_Key = Tuple[int, int, int, str]

_LOCK = threading.Lock()
_CACHE: Dict[_Key, VlasovKernels] = {}
_BUILD_LOCKS: Dict[_Key, threading.Lock] = {}


def get_vlasov_kernels(
    cdim: int, vdim: int, poly_order: int, family: str = "serendipity"
) -> VlasovKernels:
    """Fetch (generating on first use) the Vlasov kernel bundle."""
    key = (int(cdim), int(vdim), int(poly_order), str(family))
    with _LOCK:
        bundle = _CACHE.get(key)
        if bundle is not None:
            return bundle
        build_lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
    with build_lock:  # one build per key; later arrivals find it published
        with _LOCK:
            bundle = _CACHE.get(key)
        if bundle is None:
            bundle = build_vlasov_kernels(*key)
            with _LOCK:
                _CACHE[key] = bundle
    return bundle


def clear_registry() -> None:
    with _LOCK:
        _CACHE.clear()


def registry_stats() -> Dict[str, int]:
    """Cached bundles, and the exact non-zeros of every termset they hold."""
    with _LOCK:
        return {
            "bundles": len(_CACHE),
            "total_nnz": sum(
                ts.num_entries for b in _CACHE.values() for ts in b.termsets()
            ),
        }
