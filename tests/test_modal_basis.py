"""Orthonormality and evaluation of the modal bases (the identity mass matrix
that makes the scheme matrix-free)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis.modal import ModalBasis, tensor_gauss_points
from repro.basis.matrices import derivative_matrix


@pytest.mark.parametrize("family", ["tensor", "serendipity", "maximal-order"])
@pytest.mark.parametrize("ndim,p", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2)])
def test_orthonormality(ndim, p, family):
    basis = ModalBasis(ndim, p, family)
    pts, wts = tensor_gauss_points(p + 2, ndim)
    v = basis.eval_at(pts)
    gram = (v * wts) @ v.T
    assert np.allclose(gram, np.eye(basis.num_basis), atol=1e-12)


@pytest.mark.parametrize("ndim,p", [(1, 2), (2, 1), (2, 2)])
def test_derivative_matrix_vs_quadrature(ndim, p):
    basis = ModalBasis(ndim, p, "serendipity")
    pts, wts = tensor_gauss_points(p + 2, ndim)
    v = basis.eval_at(pts)
    for d in range(ndim):
        dv = basis.eval_deriv_at(pts, d)
        ref = (dv * wts) @ v.T
        assert np.allclose(derivative_matrix(basis, d), ref, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_projection_reproduces_basis_functions(ndim, p):
    """Projecting w_i returns the unit coefficient vector (L2 projector is
    the identity on the span)."""
    basis = ModalBasis(ndim, p, "serendipity")
    i = min(2, basis.num_basis - 1)

    def func(pts):
        return basis.eval_at(pts)[i]

    coeffs = basis.project(func)
    expected = np.zeros(basis.num_basis)
    expected[i] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_eval_shapes_and_errors():
    basis = ModalBasis(2, 1, "tensor")
    pts = np.zeros((5, 2))
    assert basis.eval_at(pts).shape == (4, 5)
    with pytest.raises(ValueError):
        basis.eval_at(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        ModalBasis(2, 1, "bogus")
