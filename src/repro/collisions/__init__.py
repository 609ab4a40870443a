"""Collision operators: Dougherty/LBO Fokker–Planck and BGK.

Both are configuration-local.  The LBO's velocity-space terms run on the
Vlasov acceleration's machinery — generated volume kernels, then trace →
flux → lift through the velocity faces of each configuration cell — so
there is one velocity-face path in the package, and a modal species runs
them inside its cell program; BGK projects a Maxwellian per cell, has no
face terms, and is added after the solver's ``df/dt``.
"""

from .bgk import BGKCollisions
from .lbo import LBOCollisions

__all__ = ["LBOCollisions", "BGKCollisions"]
