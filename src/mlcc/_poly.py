"""Multivariate polynomials: one exponent matrix and one coefficient block.

A polynomial in ``n`` variables is a :class:`Poly`: a read-only integer exponent
matrix ``exps`` (T, n), row t the degrees of term t, and a read-only coefficient
block ``coeffs`` (T, then any member axis, then the coefficient shape: () for a
float, (d, d) for a matrix), row t the coefficient of term t; T = 0 is a zero
polynomial.  ``poly_collect`` builds one with a row per monomial, like monomials
collected; the fields' q and P and everything derived from them are built so.
``(coeff, degs)`` term lists are only the input format, checked and collected by
``MatrixField``; ``VectorFieldFn.polynomial`` stacks its components as written.
Evaluation takes one point, shape (n,), or a stack of points, shape (N, n);
it works with the points on the last axis (coefficient-major) and forms
powers by multiplication, so x_j^k for k >= 3 may differ in the last bits
from ``x**k``.  ``poly_rows`` returns that sum as it is, points last;
``poly_eval`` copies it points first.
Exact differentiation (``poly_diff``, ``poly_family``) is what makes the
closed-form jet oracles of the field module possible.

Where each coefficient of a ``poly_family`` goes depends on its monomial structure
(n, rows, groups) alone, so ``_family_layout`` derives that layout once per structure
and caches it, read-only, keyed on the structure's tuples; 32 are kept, least recently
used first out.  A call on a cached layout only gathers, scales and sums the
coefficients, in the order a fresh layout gives, so every value has the bits it would
have without the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, count

import numpy as np

from .errors import InputError


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
    (T, ...): like monomials collected, in the order of first occurrence.  Repeats are
    found by hashing the rows and summed from the left, starting from the first
    coefficient and not from 0.0 (a lone -0.0 stays), by one unbuffered ``np.add.at``;
    with none, the polynomial keeps the given arrays."""
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


def poly_rows(poly: Poly, x) -> np.ndarray:
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
    cols = x.reshape(-1, n).T.copy()  # (n, N): one contiguous row per variable
    powers = {}  # (j, k) -> x_j^k
    total = np.zeros(poly.coeffs.shape[1:] + cols.shape[1:])
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
    return total


def poly_eval(poly: Poly, x):
    """Value at ``x`` (shape (..., n)): shape (...) plus the coefficients' shape.

    ``poly_rows``' sum, moved to a C-contiguous ``(...) + shape`` array by one
    copy: the same bits, points first.
    """
    rows = poly_rows(poly, x)
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
    a whole number >= 0 (an integral float such as 2.0 is taken as 2): ``_power``
    forms no other, and a negative one would never end.  A degree of 2**63 or more
    does not fit the exponent matrix and is an InputError too.  The error names the
    monomial by its degrees.
    """
    degs = tuple(degs)
    if len(degs) != n:
        raise InputError("polynomial degree tuples must have length n")
    for k in degs:
        if type(k) is not int or not 0 <= k < 2**63:  # plain ints in range pass as they are
            return tuple(_whole(k, degs) for k in degs)
    return degs


def _whole(k, degs) -> int:
    """The degree ``k`` of the monomial of degrees ``degs`` as an int, if it is whole, >= 0
    and below 2**63 (a bool is not a degree)."""
    try:
        i = -1 if isinstance(k, (bool, np.bool_)) else int(k)
    except (TypeError, ValueError, OverflowError):
        i = -1
    if i < 0 or i != k:
        raise InputError(f"monomial of degrees {degs}: each degree must be a whole number >= 0")
    if i >= 2**63:
        raise InputError(f"monomial of degrees {degs}: each degree must be below 2**63")
    return i


def poly_stack(polys: list[Poly], lead: int = 0) -> Poly:
    """One polynomial that evaluates every polynomial of ``polys`` at once.

    Its monomials are the union of theirs, in the order of first occurrence, and its
    coefficients have a new axis, behind their first axis with ``lead`` = 1 (a member
    axis), entry k holding polynomial k's coefficient of that monomial or 0.0, so its
    value at a point is the stack ``[poly_eval(p, x) for p in polys]`` along that axis
    (bit for bit for the first polynomial; up to rounding otherwise, as the union may
    order another polynomial's monomials differently).  See ``poly_family``.
    """
    return poly_partials(polys, [(i, ()) for i in range(len(polys))], lead)


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


def poly_family(n: int, rows: list, coeffs: np.ndarray, groups, lead: int = 0) -> list[Poly]:
    """A stack (see ``poly_stack``) per group of parts: of the polynomials and first
    partials named by the group's parts, (i, None) polynomial i and (i, j) its d_j, as
    ``poly_diff`` forms it.

    Polynomial i in ``n`` variables is given by its exponent rows ``rows[i]`` (tuples of
    its exponent matrix's rows) and its coefficients, those of every polynomial
    concatenated in ``coeffs``.  A part's terms are its polynomial's rows in their order
    (for d_j those with e_j > 0, e_j lowered, the coefficient times e_j), and a
    polynomial's repeats of a monomial are summed with the rest.  Where each term goes
    depends on ``n``, ``rows`` and ``groups`` alone: ``_family_layout`` derives it once per
    such structure and caches it.  Per call, the coefficients of every group are only
    gathered, scaled and summed from 0.0 into one block by one ``np.add.at``, in the
    layout's slot order, so a cached layout gives the bits of a fresh one.
    """
    picks, scales, slots, unions = _family_layout(n, tuple(map(tuple, rows)),
                                                  tuple(map(tuple, groups)))
    shape = coeffs.shape[1:]
    if picks is not None:
        coeffs = coeffs.take(picks, axis=0)
    if scales is not None:
        coeffs = coeffs * scales.reshape((-1,) + (1,) * len(shape))
    block = np.zeros((sum(len(exps) * width for exps, width in unions),) + shape)
    np.add.at(block, slots, coeffs)
    out = []
    for exps, width in unions:
        stack, block = block[: len(exps) * width], block[len(exps) * width :]
        stack = stack.reshape((len(exps), width) + shape)
        out.append(Poly(exps, stack.swapaxes(1, 2) if lead else stack))
    return out


@lru_cache(maxsize=32)
def _family_layout(n: int, rows: tuple, groups: tuple):
    """``(picks, scales, slots, unions)``: the layout of ``poly_family``'s stacks, derived
    once per structure ``(n, rows, groups)`` (at most 32 kept, least recently used first
    out), its arrays read-only.

    A group's monomials, the union of its parts', are found by hashing the rows (a dict
    keeps the order of first occurrence).  Term k of the gathered coefficients is the
    coefficient ``picks[k]`` (None: every coefficient in order) times ``scales[k]`` (None:
    all 1), and it adds to the slot ``slots[k]`` of the groups' stacks, laid end to end;
    ``unions`` holds per group its exponent matrix and its number of parts.
    """
    start = list(accumulate(map(len, rows), initial=0))
    unions, slots, picks, scales, size = [], [], [], [], 0
    for parts in groups:
        index, width = {}, len(parts)
        setdefault = index.setdefault
        for k, (i, j) in enumerate(parts, size):
            if j is None:
                slots += [k + setdefault(e, len(index)) * width for e in rows[i]]
                picks += range(start[i], start[i + 1])
                scales += [1] * len(rows[i])
                continue
            for t, e in enumerate(rows[i], start[i]):
                if e[j]:
                    key = e[:j] + (e[j] - 1,) + e[j + 1 :]
                    slots.append(k + setdefault(key, len(index)) * width)
                    picks.append(t)
                    scales.append(e[j])
        exps = np.fromiter(chain.from_iterable(index), np.int64, len(index) * n).reshape(-1, n)
        unions.append((exps, width))
        size += len(index) * width
    picks = None if picks == list(range(start[-1])) else np.array(picks, dtype=np.intp)
    scales = None if len(scales) == scales.count(1) else np.array(scales)
    slots = np.array(slots, dtype=np.intp)
    for a in (picks, scales, slots, *(exps for exps, _ in unions)):
        if a is not None:
            a.setflags(write=False)
    return picks, scales, slots, tuple(unions)


def poly_partials(polys: list[Poly], parts, lead: int = 0) -> Poly:
    """``poly_family`` of the partials named by ``parts``: (i, ()) is ``polys[i]``, (i, (j,))
    its d_j and (i, (j, k)) the d_k of its d_j, ``poly_diff(polys[i], j)``."""
    if not any(len(p.exps) for p in polys):  # zero polynomials: a zero stack
        block = np.zeros((0, len(parts)) + polys[0].coeffs.shape[1:])
        exps = np.zeros((0, polys[0].n), dtype=np.int64)
        return Poly(exps, block.swapaxes(1, 2) if lead else block)
    firsts = {(i, part[0]): None for i, part in parts if len(part) == 2}
    polys = [*polys, *(poly_diff(polys[i], j) for i, j in firsts)]
    firsts = dict(zip(firsts, count(len(polys) - len(firsts))))
    coeffs = polys[0].coeffs if len(polys) == 1 else np.concatenate([p.coeffs for p in polys])
    return poly_family(polys[0].n, [list(map(tuple, p.exps.tolist())) for p in polys], coeffs,
                       [[(i, part[0] if part else None) if len(part) < 2
                         else (firsts[i, part[0]], part[1]) for i, part in parts]], lead)[0]


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
