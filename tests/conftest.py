import os

# The suite works on tiny matrices; multi-threaded BLAS only adds dispatch
# overhead (and an order-of-magnitude slowdown on many-core machines).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from mlcc import builtin_field, build_rule
from mlcc._poly import Poly, poly_collect


@pytest.fixture(scope="session")
def gauss1():
    return builtin_field("gaussian_scalar", {"n": 1})


@pytest.fixture(scope="session")
def gauss2():
    return builtin_field("gaussian_scalar", {"n": 2})


@pytest.fixture(scope="session")
def gh64():
    return build_rule("gauss_hermite", order=64, m=1)


@pytest.fixture(scope="session")
def gh32x1():
    return build_rule("gauss_hermite", order=32, m=1)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def poly_arrays(terms, n=None):
    """The exponent matrix and the coefficient block of a ``(coeff, degs)`` term list
    (``n`` variables when the list is empty)."""
    exps = np.array([degs for _, degs in terms], dtype=np.int64)
    coeffs = np.array([c for c, _ in terms], dtype=float)
    return exps.reshape(len(terms), -1 if terms else n), coeffs


def poly_of(terms, n=None):
    """The polynomial of a ``(coeff, degs)`` term list, collected."""
    return poly_collect(*poly_arrays(terms, n))


def poly_written(terms, n=None):
    """The polynomial of a ``(coeff, degs)`` term list as written, a row per term."""
    return Poly(*poly_arrays(terms, n))


def poly_terms(poly) -> list:
    """A polynomial as a ``(coeff, degs)`` term list, its coefficients rows of its block."""
    return [(c, tuple(degs)) for c, degs in zip(poly.coeffs, poly.exps.tolist())]
