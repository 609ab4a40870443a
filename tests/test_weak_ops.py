"""Weak multiplication/division (alias-free primitive-moment algebra)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis.modal import ModalBasis, tensor_gauss_points
from repro.moments.weak_ops import triple_product_tensor
from weak_oracle import weak_divide, weak_multiply


@pytest.fixture(scope="module")
def basis_1d():
    return ModalBasis(1, 2, "serendipity")


def test_triple_product_symmetry(basis_1d):
    t = triple_product_tensor(basis_1d)
    assert np.allclose(t, np.swapaxes(t, 0, 1))
    assert np.allclose(t, np.swapaxes(t, 1, 2))  # fully symmetric integrand


def test_triple_product_vs_quadrature(basis_1d):
    t = triple_product_tensor(basis_1d)
    pts, wts = tensor_gauss_points(5, 1)
    v = basis_1d.eval_at(pts)
    ref = np.einsum("lq,mq,kq,q->lmk", v, v, v, wts)
    assert np.allclose(t, ref, atol=1e-12)


def test_multiply_by_constant_mode(basis_1d):
    """Multiplying by the constant field c*phi_0 scales coefficients by c/sqrt(2)^... exactly."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, basis_1d.num_basis))
    const = np.zeros_like(a)
    const[..., 0] = 3.0
    prod = weak_multiply(a, const, basis_1d)
    # phi_0 = 1/sqrt(2) in 1D, so the function value is 3/sqrt(2)
    assert np.allclose(prod, a * 3.0 * basis_1d.norm(0), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(-0.3, 0.3))
def test_divide_inverts_multiply(den0, den1):
    """weak_divide(weak_multiply(u, den), den) == u when products stay in-span.

    Exact when den is the constant mode; near-exact (projection) otherwise —
    here we use a constant denominator for the exact property.
    """
    basis = ModalBasis(1, 2, "serendipity")
    rng = np.random.default_rng(7)
    u = rng.standard_normal((4, basis.num_basis))
    den = np.zeros_like(u)
    den[..., 0] = den0
    prod = weak_multiply(den, u, basis)
    back = weak_divide(prod, den, basis)
    assert np.allclose(back, u, rtol=1e-10, atol=1e-10)


def test_divide_recovers_known_ratio():
    """u = M1/M0 for linear-in-x fields, checked pointwise at cell centers."""
    basis = ModalBasis(1, 1, "serendipity")
    nx = 4
    m0 = np.zeros((nx, 2))
    m1 = np.zeros((nx, 2))
    m0[..., 0] = np.sqrt(2.0) * 2.0          # density = 2 everywhere
    m1[..., 0] = np.sqrt(2.0) * 2.0 * 0.5    # momentum = 1 -> u = 0.5
    u = weak_divide(m1, m0, basis)
    assert np.allclose(u[..., 0], np.sqrt(2.0) * 0.5, atol=1e-12)
    assert np.allclose(u[..., 1], 0.0, atol=1e-12)


def test_divide_singular_raises():
    basis = ModalBasis(1, 1, "serendipity")
    num = np.ones((3, 2))
    den = np.zeros((3, 2))
    with pytest.raises(np.linalg.LinAlgError):
        weak_divide(num, den, basis)


def test_multidim_weak_ops():
    basis = ModalBasis(2, 1, "serendipity")
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3, basis.num_basis))
    one = np.zeros_like(a)
    one[..., 0] = 1.0 / basis.norm(0)  # the function "1"
    assert np.allclose(weak_multiply(a, one, basis), a, atol=1e-12)
    assert np.allclose(weak_divide(a, one, basis), a, atol=1e-12)
