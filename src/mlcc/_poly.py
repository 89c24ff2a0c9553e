"""Multivariate polynomial helpers (term lists, exact differentiation).

A polynomial in ``n`` variables is a list of ``(coeff, degs)`` pairs where
``degs`` is an n-tuple of nonnegative integer exponents and ``coeff`` is a
float or a NumPy array (a matrix polynomial then evaluates to a matrix).
The same term list carries the envelope q, the matrix part P and the
polynomial test functions.  Coefficients are never modified in place.
Exact differentiation of these term lists is what makes the closed-form jet
oracles of the field module possible.
"""

from __future__ import annotations

import numpy as np


Term = tuple[float | np.ndarray, tuple[int, ...]]


def poly_eval(terms: list[Term], x):
    total = 0.0
    for coeff, degs in terms:
        m = coeff
        for xi, di in zip(x, degs):
            if di:
                m = m * xi**di
        total += m
    return total


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
