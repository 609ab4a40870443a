"""The factorised kernel generator against a brute-force reference.

The reference below knows nothing about 1-D tables, common denominators or
integer tensors: it multiplies the basis functions and the flux polynomial as
:class:`~repro.cas.poly.Poly` objects, differentiates or restricts them to the
face, and integrates over the cube in ``Fraction`` arithmetic.  Every entry
the generator emits must equal the reference value, and every non-zero
reference entry must be emitted.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis.legendre import legendre_coefficients
from repro.basis.modal import ModalBasis
from repro.basis.multiindex import FAMILIES
from repro.cas.poly import Poly
from repro.kernels.generator import (
    FluxSpec,
    FluxTerm,
    generate_moment_termset,
    generate_multiply_termset,
    generate_surface_termsets,
    generate_volume_termset,
)


def _legendre_product(nvars, alpha):
    poly = Poly.one(nvars)
    for var, a in enumerate(alpha):
        poly = poly * Poly.from_univariate(nvars, var, legendre_coefficients(a))
    return poly


def _reference(terms, prefix, test_polys, state_polys, test_norms, state_norms,
               restrict=lambda poly: poly, sign=1.0):
    """``{sym: {(l, m): coeff}}`` of ``int Q * state_m * test_l`` by brute force."""
    out = {}
    for term in terms:
        bucket = out.setdefault(prefix + term.sym, {})
        q = restrict(term.poly)
        for m, wm in enumerate(state_polys):
            qm = q * wm
            for l, wl in enumerate(test_polys):
                exact = (qm * wl).integrate_cube()
                if exact != 0:
                    bucket[(l, m)] = (
                        float(exact) * test_norms[l] * state_norms[m] * term.scale * sign
                    )
    return {sym: b for sym, b in out.items() if b}


def _assert_matches(termset, reference):
    got = {
        sym: {(l, m): c for l, m, c in triples}
        for sym, triples in termset.entries_by_symbol().items()
    }
    assert got == reference
    # no (l, m) slot is emitted twice under one symbol
    assert termset.num_entries == sum(len(b) for b in reference.values())


def check_all_generators(ndim, poly_order, family, dim, cdim, terms):
    basis = ModalBasis(ndim, poly_order, family)
    cfg_basis = ModalBasis(cdim, poly_order, family)
    polys = [_legendre_product(ndim, a) for a in basis.indices]
    norms = [basis.norm(i) for i in range(basis.num_basis)]
    flux = FluxSpec(dim=dim, terms=tuple(terms))

    _assert_matches(
        generate_volume_termset(basis, flux),
        _reference(terms, (f"rdx{dim}",), [w.diff(dim) for w in polys], polys, norms, norms),
    )

    def at_face(sign):
        return lambda poly: poly.substitute_value(dim, sign).drop_var(dim)

    surfaces = generate_surface_termsets(basis, flux)
    assert list(surfaces) == [("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]
    side_sign = {"L": 1, "R": -1}
    for (test_side, state_side), termset in surfaces.items():
        test_at, state_at = at_face(side_sign[test_side]), at_face(side_sign[state_side])
        _assert_matches(
            termset,
            _reference(
                terms, (f"rdx{dim}",),
                [test_at(w) for w in polys], [state_at(w) for w in polys],
                norms, norms, restrict=state_at,
                sign=-1.0 if test_side == "L" else 1.0,
            ),
        )

    _assert_matches(
        generate_multiply_termset(basis, terms),
        _reference(terms, (), polys, polys, norms, norms),
    )

    cfg_polys = [_legendre_product(ndim, a + (0,) * (ndim - cdim)) for a in cfg_basis.indices]
    cfg_norms = [cfg_basis.norm(k) for k in range(cfg_basis.num_basis)]
    _assert_matches(
        generate_moment_termset(basis, cfg_basis, cdim, terms),
        _reference(terms, ("vjac",), cfg_polys, polys, cfg_norms, norms),
    )


@st.composite
def generator_cases(draw):
    ndim = draw(st.integers(1, 3))
    family = draw(st.sampled_from(FAMILIES))
    # brute force is O(Np^2) Poly products per term: keep Np <= 20
    poly_order = draw(st.integers(0, 1 if (ndim == 3 and family == "tensor") else 2))
    expo = st.tuples(*[st.integers(0, 3)] * ndim)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    poly = st.dictionaries(expo, coeff, min_size=0, max_size=3).map(lambda d: Poly(ndim, d))
    scale = st.sampled_from([1.0, -1.0, 2.0, 0.7071067811865476, -1.5811388300841898])
    nterms = draw(st.integers(1, 3))
    terms = [
        FluxTerm(sym=(f"s{i}",), poly=draw(poly), scale=draw(scale)) for i in range(nterms)
    ]
    return ndim, poly_order, family, draw(st.integers(0, ndim - 1)), draw(st.integers(1, ndim)), terms


@settings(max_examples=60, deadline=None)
@given(generator_cases())
def test_generators_match_brute_force(case):
    check_all_generators(*case)


def test_high_order_case_exceeds_64_bit_numerators():
    """p=4 in 3-D with monomial powers up to 6: the per-dimension integer
    tables and the scaled coefficients multiply to numerators of ~70 bits, so
    this case fails (checked) if the Python ints of the assembly are ever
    swapped for ``int64``."""
    terms = [
        FluxTerm(
            sym=("a",),
            poly=Poly(
                3,
                {(6, 5, 6): Fraction(1009, 1013), (4, 6, 2): Fraction(-1019, 1021), (0, 1, 0): 3},
            ),
            scale=0.5,
        ),
        FluxTerm(sym=("b",), poly=Poly(3, {(6, 6, 6): Fraction(1031, 1033), (5, 3, 6): 1})),
    ]
    check_all_generators(3, 4, "maximal-order", 1, 2, terms)
