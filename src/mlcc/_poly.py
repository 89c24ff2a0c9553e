"""Multivariate polynomials: one exponent matrix and one coefficient block.

A polynomial in ``n`` variables is a :class:`Poly`: a read-only integer exponent
matrix ``exps`` (T, n), row t the degrees of term t, and a read-only coefficient
block ``coeffs`` (T, then any member axis, then the coefficient shape: () for a
float, (d, d) for a matrix, (d,) for a vector field's components), row t the
coefficient of term t; T = 0 is a zero polynomial.  ``poly_collect`` builds one
with a row per monomial, like monomials collected, by the rule its docstring
states: a monomial written twice, a and b, is the one term (a + b) e.  The fields'
q and P are built by it, and the polynomial test functions by the same rule as
their terms are read (``VectorFieldFn.polynomial``); everything derived from them
keeps a row per monomial.
``(coeff, degs)`` term lists are only the input format.
Evaluation takes one point, shape (n,), or a stack of points, shape (N, n);
it works with the points on the last axis (coefficient-major) and forms
powers by multiplication, so x_j^k for k >= 3 may differ in the last bits
from ``x**k``.  ``poly_rows`` evaluates a list of polynomials of one
coefficient shape, each summed over its own rows, into one block, points last;
``poly_eval`` copies one polynomial's sum points first.
Exact differentiation (``poly_diff``, one partial per call) is what makes the
closed-form jet oracles of the field module possible: a jet's or a test
function's partials are ``poly_diff``'s polynomials, summed by ``poly_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _whole


@dataclass(frozen=True, slots=True, eq=False)
class Poly:
    """``exps`` (T, n) and ``coeffs`` (T, ...), a row per term, both made read-only."""

    exps: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.exps.setflags(write=False)
        self.coeffs.setflags(write=False)

    @property
    def n(self) -> int:
        return self.exps.shape[1]


def poly_collect(exps, coeffs) -> Poly:
    """The polynomial of the terms with degrees ``exps`` (T, n) and coefficients ``coeffs``
    (T, ...), like monomials collected.

    The rule, which every polynomial with a row per monomial is built by: a row per
    monomial, in the order of first occurrence, whose coefficient is the first term's
    as it is (not 0.0 plus it, so a lone -0.0 stays), with each later term's whole
    coefficient added from the left, entry by entry.  Here repeats are found by hashing
    the rows and summed by one unbuffered ``np.add.at``; with none, the polynomial keeps
    the given arrays."""
    exps, coeffs = np.asarray(exps), np.asarray(coeffs, dtype=float)
    rows = list(map(tuple, exps.tolist()))
    if len(set(rows)) == len(rows):
        return Poly(exps, coeffs)
    index, kept, rest, slots = {}, [], [], []
    for t, row in enumerate(rows):
        u = index.setdefault(row, len(index))
        if u == len(kept):
            kept.append(t)
        else:
            rest.append(t)
            slots.append(u)
    block = coeffs.take(kept, axis=0)
    np.add.at(block, np.array(slots, dtype=np.intp), coeffs.take(rest, axis=0))
    return Poly(exps.take(kept, axis=0), block)


def poly_rows(polys: list[Poly], x) -> np.ndarray:
    """Values of the polynomials ``polys``, of one coefficient shape, at ``x`` (shape
    (..., n)) with the points last: one C-contiguous block (K, then the coefficients'
    shape, then N), part k the value of ``polys[k]``, K the number of polynomials and N
    the number of points.

    Each sum runs over its polynomial's own rows, in index order, from 0.0 (a zero
    polynomial's part is that 0.0, and costs nothing more), and is accumulated
    coefficient-major: each term is one broadcast of ``coeff[..., None]``
    over contiguous rows of point values, so part k has the bits of ``polys[k]`` alone.
    Each power x_j^k is formed once per call, for the whole list, by multiplication
    (see ``_power``), not by libm ``pow``; ``x * x`` has the bits of ``x**2``, so only
    x_j^k with k >= 3 may differ in the last bits from ``x**k``.  Every point runs
    through the same 1-D array operations, so a stack of points gives bit for bit the
    values of one call per point.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    cols = x.reshape(-1, n).T.copy()  # (n, N): one contiguous row per variable
    powers = {}  # (j, k) -> x_j^k
    out = np.zeros((len(polys),) + polys[0].coeffs.shape[1:] + cols.shape[1:])
    for total, poly in zip(out, polys):
        if not len(poly.exps):  # a zero polynomial: its part stays 0.0
            continue
        for m, degs in zip(poly.coeffs[..., None], poly.exps.tolist()):
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
    return out


def poly_eval(poly: Poly, x):
    """Value at ``x`` (shape (..., n)): shape (...) plus the coefficients' shape.

    ``poly_rows``' sum, moved to a C-contiguous ``(...) + shape`` array by one
    copy: the same bits, points first.
    """
    rows = poly_rows([poly], x)[0]
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


def poly_degrees(degs, n: int) -> tuple[int, ...]:
    """The degree tuple ``degs`` of one monomial in ``n`` variables, as ints.

    A tuple of another length is an InputError, and so is a degree that is not
    a whole number >= 0 (``_whole``: an integral float such as 2.0 is taken as 2):
    ``_power`` forms no other, and a negative one would never end.  A degree of 2**63
    or more does not fit the exponent matrix and is an InputError too.  The error names
    the monomial by its degrees.
    """
    degs = tuple(degs)
    if len(degs) != n:
        raise InputError("polynomial degree tuples must have length n")
    for k in degs:
        if type(k) is not int or not 0 <= k < 2**63:  # plain ints in range pass as they are
            whole = tuple(_whole(f"monomial of degrees {degs}: each degree", k, 0) for k in degs)
            if max(whole) >= 2**63:
                raise InputError(f"monomial of degrees {degs}: each degree must be below 2**63")
            return whole
    return degs


def poly_diff(poly: Poly, j: int) -> Poly:
    """Partial derivative with respect to variable ``j``: the monomials with e_j > 0, each
    coefficient times e_j and e_j lowered by one (a zero polynomial if there are none)."""
    rows = poly.exps[:, j].nonzero()[0]
    exps = poly.exps.take(rows, axis=0)
    degree = exps[:, j]
    coeffs = poly.coeffs.take(rows, axis=0)
    coeffs *= degree.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    degree -= 1
    return Poly(exps, coeffs)


def poly_substitute_prefix(poly: Poly, t) -> Poly:
    """Freeze the first ``len(t)`` variables at the values ``t``.

    Each coefficient is multiplied by t_1^{e_1}, then t_2^{e_2}, ..., each power by the
    scalar ``pow`` of a NumPy float (NumPy's array power may round differently), and a
    power t_j^0 is 1.0, an exact factor.  Returns a polynomial in the remaining
    trailing variables, collected (see ``poly_collect``), without the monomials whose
    coefficient is all zeros (0.0, -0.0 or a zero matrix; a NaN coefficient stays).
    """
    rows, coeffs = poly.exps.tolist(), poly.coeffs
    lift = (-1,) + (1,) * (coeffs.ndim - 1)
    for j, tj in enumerate(map(np.float64, t)):
        coeffs = coeffs * np.array([tj ** e[j] for e in rows]).reshape(lift)
    out = poly_collect(poly.exps[:, len(t) :], coeffs)
    nonzero = (out.coeffs != 0.0).reshape(len(out.exps), math.prod(out.coeffs.shape[1:])).any(1)
    return out if nonzero.all() else Poly(out.exps[nonzero], out.coeffs[nonzero])
