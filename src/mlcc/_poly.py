"""Multivariate polynomial helpers (term lists, exact differentiation).

A polynomial in ``n`` variables is a list of ``(coeff, degs)`` pairs where
``degs`` is an n-tuple of nonnegative integer exponents and ``coeff`` is a
float or a NumPy array (a matrix polynomial then evaluates to a matrix).
The same term list carries the envelope q, the matrix part P and the
polynomial test functions.  Coefficients are never modified in place.
Evaluation takes one point, shape (n,), or a stack of points, shape (N, n).
Exact differentiation of these term lists is what makes the closed-form jet
oracles of the field module possible.
"""

from __future__ import annotations

import numpy as np


Term = tuple[float | np.ndarray, tuple[int, ...]]


def poly_eval(terms: list[Term], x):
    """Value at ``x`` (shape (..., n)): shape (...) plus the coefficients' shape.

    Every point runs through the same 1-D array operations, so a stack of
    points gives bit for bit the values of one call per point.
    """
    x = np.asarray(x, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    shape = np.asarray(terms[0][0]).shape if terms else ()
    # one contiguous column per variable, shaped to broadcast against the coefficients
    cols = x.reshape(-1, n).T.copy().reshape((n, -1) + (1,) * len(shape))
    powers = {}
    total = np.zeros(cols.shape[1:2] + shape)
    for coeff, degs in terms:
        m = coeff
        for j, dj in enumerate(degs):
            if dj:
                if (j, dj) not in powers:
                    powers[j, dj] = cols[j] ** dj
                m = m * powers[j, dj]
        total = total + m
    return total.reshape(lead + shape)


def poly_stack(polys: list[list[Term]]) -> list[Term]:
    """One term list that evaluates every polynomial of ``polys`` at once.

    Its coefficients have a new leading axis, entry k holding polynomial k's
    coefficient of that monomial, so its value at a point is the stack
    ``[poly_eval(p, x) for p in polys]`` along the axis after the points'
    (equal up to rounding: like monomials are collected).  Every polynomial
    needs at least one term.
    """
    shape = np.asarray(polys[0][0][0]).shape
    collected: dict[tuple[int, ...], np.ndarray] = {}
    for k, terms in enumerate(polys):
        for coeff, degs in terms:
            collected.setdefault(degs, np.zeros((len(polys),) + shape))[k] += coeff
    for c in collected.values():
        c.setflags(write=False)
    return [(c, degs) for degs, c in collected.items()]


def _or_zero(out: list[Term], terms: list[Term], dropped: int = 0) -> list[Term]:
    """``out``, or a zero term of the coefficients' shape if every term dropped out."""
    if out or not terms:
        return out
    coeff, degs = terms[0]
    return [(0.0 * coeff, (0,) * (len(degs) - dropped))]


def poly_diff(terms: list[Term], j: int) -> list[Term]:
    """Partial derivative with respect to variable ``j``."""
    out = []
    for coeff, degs in terms:
        dj = degs[j]
        if dj == 0:
            continue
        newdegs = degs[:j] + (dj - 1,) + degs[j + 1 :]
        out.append((coeff * dj, newdegs))
    return _or_zero(out, terms)


def poly_substitute_prefix(terms: list[Term], t) -> list[Term]:
    """Freeze the first ``len(t)`` variables at the values ``t``.

    Returns a polynomial in the remaining trailing variables.
    """
    n0 = len(t)
    collected: dict[tuple[int, ...], float | np.ndarray] = {}
    for coeff, degs in terms:
        c = coeff
        for ti, di in zip(t, degs[:n0]):
            if di:
                c = c * ti**di
        rest = degs[n0:]
        collected[rest] = collected[rest] + c if rest in collected else c
    out = [(c, degs) for degs, c in collected.items() if np.any(c)]
    return _or_zero(out, terms, n0)
