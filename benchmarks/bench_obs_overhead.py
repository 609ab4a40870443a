"""The cost of the observability seam in ``off`` mode, gated at 2 %.

``System.rhs`` is the instrumented wrapper: with observability off it is
one module-level flag check over the unwrapped body ``System._rhs_impl``.
The test times the two against each other on the coupled Vlasov–Maxwell
RHS of a reduced ``weibel_2x2v`` (4 x 4 configuration x 8 x 8 velocity
cells, every plan compiled first): 200 back-to-back pairs, the order
alternating from pair to pair, read as the median of the bare time and
the median of the paired difference.  Drift cancels inside a pair and a
disturbed pair is an outlier the median ignores (for a 1 ms call on a
shared 2-core box, best-of means of a few calls spread +-5 %, this under
+-2 %).  This is the only place the off-mode instrumentation cost is
gated; CI's ``perf-smoke`` job runs it:

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

import time

import numpy as np

from repro.obs import OBS
from repro.runtime import build, build_app

#: the largest allowed (wrapped - bare) / bare of the off-mode coupled RHS
MAX_OFF_OVERHEAD = 0.02
PAIRS = 200


def _paired(fn_a, fn_b, pairs=PAIRS):
    """Medians of A's time and of the paired difference B - A over
    back-to-back calls, the order alternating from pair to pair."""
    clock = time.perf_counter
    t_a, diff = [], []
    for i in range(pairs):
        first, second = (fn_a, fn_b) if i % 2 else (fn_b, fn_a)
        t0 = clock()
        first()
        t1 = clock()
        second()
        t2 = clock()
        a, b = (t1 - t0, t2 - t1) if i % 2 else (t2 - t1, t1 - t0)
        t_a.append(a)
        diff.append(b - a)
    return float(np.median(t_a)), float(np.median(diff))


def test_off_mode_rhs_seam_costs_at_most_two_percent():
    app = build_app(build("weibel_2x2v", nx=4, nv=8, plan_cache="off"))
    state = app.state()
    out = {k: np.empty_like(v) for k, v in state.items()}
    app.rhs(state, out=out)  # compile every plan before timing
    OBS.configure("off")
    bare, seam = _paired(
        lambda: app._rhs_impl(state, out=out),
        lambda: app.rhs(state, out=out),
    )
    overhead = seam / bare
    print(f"obs off-mode: bare {1e3 * bare:.3f} ms | wrapped "
          f"{1e3 * (bare + seam):.3f} ms | overhead {100.0 * overhead:+.2f}%")
    assert overhead <= MAX_OFF_OVERHEAD, (
        f"off-mode observability seam costs {100.0 * overhead:.2f}% of the "
        f"coupled RHS (allowed {100.0 * MAX_OFF_OVERHEAD:.0f}%)"
    )
