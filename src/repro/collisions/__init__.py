"""Collision operators: the Dougherty/LBO Fokker–Planck operator.

It is configuration-local.  Its velocity-space terms run on the Vlasov
acceleration's machinery — generated volume kernels, then trace → flux →
lift through the velocity faces of each configuration cell — so there is
one velocity-face path in the package, and a modal species runs them inside
its cell program.
"""

from .lbo import LBOCollisions

__all__ = ["LBOCollisions"]
