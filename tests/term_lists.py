"""The term-list polynomials that ``mlcc._poly`` replaced, kept as the reference.

A polynomial here is a list of ``(coeff, degs)`` pairs.  The functions are the
ones the polynomial module had before it kept an exponent matrix and a
coefficient block, unchanged; ``tests/test_field_layer.py`` checks the new type
against them bit for bit.  Pytest does not collect this file.
"""

from __future__ import annotations

import numpy as np

Term = tuple[float | np.ndarray, tuple[int, ...]]


def poly_rows(terms: list[Term], x) -> np.ndarray:
    """Value at ``x`` (shape (..., n)) with the points last: the coefficients' shape
    plus (N,), N the number of points, as one C-contiguous array of rows.

    The sum is accumulated coefficient-major: each term is one broadcast of
    ``coeff[..., None]`` over contiguous rows of point values.  Each power
    x_j^k is formed once per call by multiplication (see ``_power``), not by
    libm ``pow``; ``x * x`` has the bits of ``x**2``, so only x_j^k with
    k >= 3 may differ in the last bits from ``x**k``.  Every point runs
    through the same 1-D array operations, so a stack of points gives bit for
    bit the values of one call per point.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    shape = np.asarray(terms[0][0]).shape if terms else ()
    cols = x.reshape(-1, n).T.copy()  # (n, N): one contiguous row per variable
    powers = {}  # (j, k) -> x_j^k
    total = np.zeros(shape + cols.shape[1:])
    for coeff, degs in terms:
        m = coeff[..., None] if isinstance(coeff, np.ndarray) else coeff
        fresh = False  # whether m is a new array of this term, safe to update in place
        for j, dj in enumerate(degs):
            if dj:
                if (j, dj) not in powers:
                    powers[j, dj] = _power(cols[j], dj)
                if fresh:
                    m *= powers[j, dj]
                else:
                    m, fresh = m * powers[j, dj], True
        total += m
    return total


def poly_eval(terms: list[Term], x):
    """Value at ``x`` (shape (..., n)): shape (...) plus the coefficients' shape.

    ``poly_rows``' sum, moved to a C-contiguous ``(...) + shape`` array by one
    copy: the same bits, points first.
    """
    rows = poly_rows(terms, x)
    points_first = rows.transpose((rows.ndim - 1,) + tuple(range(rows.ndim - 1)))
    return np.ascontiguousarray(points_first).reshape(np.shape(x)[:-1] + rows.shape[:-1])


def _power(row: np.ndarray, k: int) -> np.ndarray:
    """row**k for k >= 1 by binary powering: about log2(k) multiplications, and
    ``row * row`` for the square, which has the bits of ``row**2``."""
    result, base = None, row
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def _or_zero(out: list[Term], terms: list[Term], dropped: int = 0) -> list[Term]:
    """``out``, or a zero term of the coefficients' shape if every term dropped out."""
    if out or not terms:
        return out
    coeff, degs = terms[0]
    return [(0.0 * coeff, (0,) * (len(degs) - dropped))]


def poly_diff(terms: list[Term], j: int) -> list[Term]:
    """Partial derivative with respect to variable ``j``."""
    out = [(coeff * degs[j], degs[:j] + (degs[j] - 1,) + degs[j + 1 :])
           for coeff, degs in terms if degs[j]]
    return _or_zero(out, terms)


def poly_collect(terms: list[Term]) -> list[Term]:
    """One term per monomial, in the order of first occurrence; repeats are summed from the
    left, with no zero start (a lone coefficient stays the same object, a sum is read-only)."""
    collected: dict[tuple[int, ...], float | np.ndarray] = {}
    for coeff, degs in terms:
        if degs in collected:
            coeff = collected[degs] + coeff
            if isinstance(coeff, np.ndarray):
                coeff.setflags(write=False)
        collected[degs] = coeff
    return [(c, degs) for degs, c in collected.items()]


def poly_substitute_prefix(terms: list[Term], t) -> list[Term]:
    """Freeze the first ``len(t)`` variables at the values ``t``.

    Returns a polynomial in the remaining trailing variables, collected (see
    ``poly_collect``), without the terms whose coefficient is all zeros (0.0, -0.0 or a
    zero matrix; a NaN coefficient stays).
    """
    n0 = len(t)
    out = []
    for coeff, degs in terms:
        for ti, di in zip(t, degs[:n0]):
            if di:
                coeff = coeff * ti**di
        out.append((coeff, degs[n0:]))
    out = [(c, degs) for c, degs in poly_collect(out)
           if (c.any() if isinstance(c, np.ndarray) else c != 0.0)]
    return _or_zero(out, terms, n0)
