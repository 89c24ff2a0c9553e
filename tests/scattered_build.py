"""The scatter-and-collect build of a polynomial test function, kept as the reference.

``VectorFieldFn.polynomial`` once scattered every term into a (T, d) block, its
coefficient in its component's column and 0.0 in the others, and collected that
block with ``poly_collect``.  It now collects the rows as it reads the terms;
``tests/test_field_layer.py`` checks that build against this one bit for bit.  The
construction below is the replaced one, unchanged; only the last line differs: it
also returns F and its gradient polynomials.  Pytest does not collect this file.
"""

from __future__ import annotations

import math

import numpy as np

from mlcc._poly import poly_collect, poly_degrees, poly_diff, poly_rows
from mlcc.errors import InputError
from mlcc.quadrature import VectorFieldFn


def polynomial(n: int, components):
    """(the test function, F, [d_j F for each j]) of the term lists ``components``."""

    components = list(components)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1 or not components:
        raise InputError(f"a polynomial test function needs n >= 1 variables and at least "
                         f"one component, got n = {n!r} and {len(components)} components")

    exps, cols, coeffs = [], [], []  # per term its degrees, component and coefficient
    for l, comp in enumerate(components):
        for c, degs in comp:
            if not math.isfinite(c := float(c)):
                raise InputError(f"test function coefficients must be finite, got {c!r}")
            exps.append(poly_degrees(degs, n))
            cols.append(l)
            coeffs.append(c)
    d = len(components)
    block = np.zeros((len(coeffs), d))  # term t's coefficient in its component's column
    block[np.arange(len(coeffs)), np.array(cols, dtype=np.intp)] = coeffs
    poly = poly_collect(np.array(exps, dtype=np.int64).reshape(-1, n), block)
    grads = [poly_diff(poly, j) for j in range(n)]
    hessians = None  # built on first use: a variance or energy pass never asks for them

    def value(x):
        return poly_rows([poly], x)[0].T.reshape(x.shape[:-1] + (d,))

    def grad(x):
        rows = poly_rows(grads, x).T  # (N, d, n)
        return rows.reshape(x.shape[:-1] + (d, n)) if x.ndim > 1 else rows[0].copy()

    def hess(x):
        nonlocal hessians
        if hessians is None:  # part j n + k is d_k d_j F
            hessians = [poly_diff(g, k) for g in grads for k in range(n)]
        rows = poly_rows(hessians, x).reshape(n, n, d, -1).transpose(3, 2, 0, 1)
        return np.ascontiguousarray(rows).reshape(x.shape[:-1] + (d, n, n))

    fn = VectorFieldFn(n, d, value)
    fn._value, fn._grad, fn._hess = value, grad, hess  # stack-native, not row-mapped
    return fn, poly, grads
