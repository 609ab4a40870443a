#!/usr/bin/env python
"""Collisional relaxation: the Dougherty (LBO) Fokker–Planck operator.

A bump-on-tail electron distribution relaxes to a Maxwellian under the
alias-free DG discretization of the Dougherty collision operator (the
operator whose cost footprint the paper quantifies in footnote 7: it
roughly doubles the kinetic update).  Density, momentum, and energy are
conserved to machine precision throughout the relaxation, so the target is
the Maxwellian of the initial density, flow and thermal speed.

The setup is the registry's ``collisional_relaxation`` scenario; the driver
is run in segments so the invariants can be sampled along the way.

Run:  python examples/collisional_relaxation.py
"""

import numpy as np

from repro.basis.modal import ModalBasis
from repro.moments import integrate_conf_field
from repro.projection import project_phase_function
from repro.runtime import Driver, build


def main():
    nu = 0.8
    spec = build("collisional_relaxation", nu=nu, t_end=6.0)
    driver = Driver(spec)
    app = driver.app
    mom = app.moments["elc"]
    pg = app.phase_grids["elc"]
    basis = ModalBasis(2, 2, "serendipity")

    def invariants():
        f = app.f["elc"]
        return (
            integrate_conf_field(mom.compute("M0", f), pg),
            integrate_conf_field(mom.compute("M1x", f), pg),
            integrate_conf_field(mom.compute("M2", f), pg),
        )

    n0, p0, e0 = invariants()
    print(f"t=0     N={n0:.10f}  P={p0:.10f}  E={e0:.10f}")
    # the bump-on-tail state is uniform in x: per-length moments
    length = pg.conf.upper[0] - pg.conf.lower[0]
    dens, u = n0 / length, p0 / n0
    vtsq = e0 / n0 - u**2
    f_m = project_phase_function(
        lambda x, v: dens * np.exp(-((v - u) ** 2) / (2 * vtsq)) / np.sqrt(2 * np.pi * vtsq),
        pg, basis,
    )
    dist0 = np.max(np.abs(app.f["elc"] - f_m))

    for t_target in (1.0, 3.0, 6.0):
        driver.run(t_end=t_target)
        n, p, e = invariants()
        dist = np.max(np.abs(app.f["elc"] - f_m))
        print(
            f"t={app.time:4.1f}  dN={abs(n-n0)/n0:.1e}  dP={abs(p-p0):.1e}  "
            f"dE={abs(e-e0)/e0:.1e}  |f - f_M| = {dist:.3e} "
            f"({dist/dist0:.1%} of initial)"
        )

    # 1-D cut of f(v) at the domain center after relaxation
    v = np.linspace(-7.5, 7.5, 61)
    from repro.diagnostics import evaluate_points

    pts = np.stack([np.full_like(v, 0.5), v], axis=1)
    fv = evaluate_points(app.f["elc"], pg, basis, pts)
    print("\nrelaxed f(v) (the bump has merged into the Maxwellian):")
    hi = fv.max()
    bars = (np.clip(fv, 0, None) / hi * 30).astype(int)
    for vi, b in zip(v[::3], bars[::3]):
        print(f"  v={vi:+5.1f} |" + "#" * b)


if __name__ == "__main__":
    main()
