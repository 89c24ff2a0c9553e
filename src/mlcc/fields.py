"""Smooth maps from R^n into the SPD cone, with exact or finite-difference jets.

Every shipped field has the closed form  g(x) = exp(-q(x)) * P(x)  where q is
a scalar polynomial and P a symmetric-matrix polynomial.  This single shape
covers pure polynomial fields (q = 0), scalar Gaussians, Gaussian envelopes of
a constant SPD matrix, and the perturbed fixtures, while keeping exact
entrywise differentiation available as the oracle for the finite-difference
path.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from ._poly import (Poly, poly_collect, poly_degrees, poly_diff, poly_eval, poly_rows,
                    poly_substitute_prefix)
from .errors import NODE_BUDGET, BudgetError, InputError, NotPositiveError, _UnderflowError
from .metric import SpdMatrix, _first

#: Default central-difference step for finite-difference jets.
DEFAULT_FD_STEP = 1e-4

_FD_STEP_NAME = "the finite-difference step h (--h)"


def _step(h, what: str) -> float:
    """``h`` as a float if it is a finite step > 0, else an InputError naming ``what``."""
    if not 0.0 < float(h) < np.inf:
        raise InputError(f"{what} must be finite and > 0, got {float(h)!r}")
    return float(h)


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of a matrix field at a point (or a stack: leading axis N).

    ``value`` is the SPD value, ``d1[..., j]`` the first partials,
    ``d2[..., j, k]`` the second partials (symmetrized in (j, k) on assembly).
    The log-derivatives g^{-1} d_j g are solved once per jet, on first use
    (``_log_d1``), for the curvature, the weighted Laplacian and route B.
    """

    value: SpdMatrix
    d1: np.ndarray  # (..., n, d, d)
    d2: np.ndarray  # (..., n, n, d, d)

    @cached_property
    def _log_d1(self) -> np.ndarray:
        """g^{-1} d_j g at ``[..., j, :, :]``, (..., n, d, d): one batched solve, read-only."""
        out = np.linalg.solve(self.value.entries[..., None, :, :], self.d1)
        out.setflags(write=False)
        return out

    @property
    def n(self) -> int:
        return self.d1.shape[-3]

    @property
    def d(self) -> int:
        return self.value.dim


@lru_cache(maxsize=32)
def _stencil_plan(n: int, richardson: bool, second: bool):
    """``(units, half, order)``: the stencil of ``central_differences`` in n variables.

    Row p of ``units`` (P, n) is point p's offset at unit step: the centre (with
    ``second``), then per step +e_j, -e_j and, with ``second``, +-e_j +-e_k for j < k
    (pp, pm, mp, mm), each formed from -0.0 by the same additions, so x + step * row
    has the bits of x +- step e_j (+- step e_k), signed zeros too.  The rows from
    ``half`` on take the step h/2.  ``order`` picks d2's (j, k), row-major, from the
    n diagonal then the mixed second differences.
    """
    eye, zero = np.eye(n), np.full(n, -0.0)
    block = [zero + eye[j] for j in range(n)] + [zero - eye[j] for j in range(n)]
    order = np.empty((n, n), dtype=int)
    order[range(n), range(n)] = range(n)
    if second:
        for i, (j, k) in enumerate((j, k) for j in range(n) for k in range(j + 1, n)):
            block += [zero + eye[j] + eye[k], zero + eye[j] - eye[k],
                      zero - eye[j] + eye[k], zero - eye[j] - eye[k]]
            order[j, k] = order[k, j] = n + i
    units = np.array(([zero] if second else []) + block * (2 if richardson else 1))
    order = order.ravel()
    for a in (units, order):
        a.setflags(write=False)
    return units, len(units) - len(block) if richardson else len(units), order


def central_differences(fn, x, h: float, richardson: bool = False, second: bool = True):
    """Central differences of ``fn`` at ``x`` (one point or a stack of centres).

    Returns ``(d1, d2)``; ``d1[..., j]`` and ``d2[..., j, k]`` approximate the
    first and second partials to O(h^2), ``richardson`` combines the steps h
    and h/2 to O(h^4).  The stencil is the centre (first, so a caller that
    wants the value keeps it from ``fn``), x +- step e_j and, for the mixed
    partials, x +- step e_j +- step e_k (a plan cached per shape,
    ``_stencil_plan``); ``fn`` maps a stack of points to a stack of values and
    runs once, on the stencils of all centres, and the differences are slices of
    that one stack.  With ``second=False`` only the first differences are formed
    (d2 is None, the centre is not evaluated).  Every caller's SPD or shape
    checks run inside ``fn``.  The differences are formed with NumPy's
    floating-point warnings off: a step too small for them (h^2 underflowing to
    0, say) gives entries that are not finite, and ``_checked_differences`` turns
    those into an InputError.
    """
    n, lead = x.shape[-1], x.shape[:-1]
    units, half, order = _stencil_plan(n, richardson, second)
    offsets = units * h
    offsets[half:] = units[half:] * (h / 2.0)
    vals = fn((x.reshape(-1, 1, n) + offsets).reshape(-1, n))
    vals = vals.reshape((math.prod(lead), len(units)) + vals.shape[1:]).swapaxes(0, 1)

    def diffs(b, step):  # from the rows b, b + 1, ... of one step
        plus, minus = vals[b : b + n], vals[b + n : b + 2 * n]
        d1 = (plus - minus) / (2.0 * step)
        if not second:
            return d1, None
        diag = (plus - 2.0 * vals[0] + minus) / step**2
        pp, pm, mp, mm = (vals[b + 2 * n + i : b + 2 * n * n : 4] for i in range(4))
        return d1, np.concatenate([diag, (pp - pm - mp + mm) / (4.0 * step**2)])[order]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1, d2 = diffs(1 if second else 0, h)
        if richardson:
            d1_half, d2_half = diffs(half, h / 2.0)
            d1 = (4.0 * d1_half - d1) / 3.0
            if second:
                d2 = (4.0 * d2_half - d2) / 3.0
    # the derivative axes go behind the centres' axes, C-contiguous
    shape = vals.shape[2:]
    d1 = np.ascontiguousarray(d1.swapaxes(0, 1)).reshape(lead + (n,) + shape)
    if second:
        d2 = np.ascontiguousarray(d2.swapaxes(0, 1)).reshape(lead + (n, n) + shape)
    return d1, d2


def _checked_differences(fn, x, h: float, richardson: bool, what: str):
    """``central_differences(fn, x, h, richardson)``, where first or second
    differences that are not all finite are an InputError naming ``what`` and h."""
    d1, d2 = central_differences(fn, x, h, richardson)
    if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
        raise InputError(f"{what} = {h!r} gives derivatives that are not finite; "
                         "central differences need a larger step")
    return d1, d2


def _checked_poly(terms, n: int, lead: tuple, shape: tuple) -> Poly:
    """q or P of a field from its terms, collected (``poly_collect``), or a derived field's
    polynomial as it is.  Terms are ``(coeff, degs)`` pairs for q (``shape`` ()) and
    ``(degs, matrix)`` pairs for P.

    Each term is a pair with a real coefficient, each coefficient has ``shape``, behind
    the member axis ``lead`` (or is repeated along it), and each degree tuple is checked
    (``poly_degrees``); the block of coefficients is then checked once: finite and, as
    matrices, symmetric.  The first bad term is the InputError, its pair, shape, entries
    and degrees checked in that order.
    """
    if isinstance(terms, Poly):
        block, fault = terms.coeffs, None
    else:
        full, coeffs, exps, fault = lead + shape, [], [], None
        for term in terms:
            try:
                c, degs = term
                c, degs = (degs, c) if shape else (c, degs)
                c = np.asarray(c, dtype=float)
            except (TypeError, ValueError):
                pair = "(degs, matrix)" if shape else "(coeff, degs)"
                fault = InputError(f"field {'P' if shape else 'q'} term {term!r} is not a "
                                   f"{pair} pair with a real coefficient")
                break
            if c.shape not in (full, shape):
                fault = InputError(f"field coefficient has shape {c.shape}, expected {shape}")
                break
            coeffs.append(c if c.shape == full else np.broadcast_to(c, full))
            try:
                exps.append(poly_degrees(degs, n))
            except InputError as exc:
                fault = exc
                break
        block = np.array(coeffs).reshape((len(coeffs),) + full)
    if not (np.isfinite(block).all() and (not shape or (block == block.swapaxes(-1, -2)).all())):
        bad = ~np.isfinite(block) | (block != block.swapaxes(-1, -2) if shape else False)
        if not np.isfinite(block[np.argmax(bad.any(axis=tuple(range(1, bad.ndim))))]).all():
            raise InputError("field coefficients must be finite")  # the first bad term's fault
        raise InputError("matrix coefficients must be symmetric")
    if fault is not None:
        raise fault
    if isinstance(terms, Poly):
        return terms
    return poly_collect(np.array(exps, dtype=np.int64).reshape(-1, n), block)


def _within_budget(n: int, d: int) -> None:
    """A BudgetError naming n and d when one point's curvature matrix, (n d)^2 entries,
    exceeds ``NODE_BUDGET``."""
    entries = (int(n) * int(d)) ** 2
    if entries > NODE_BUDGET:
        raise BudgetError(f"a field with n = {n} and d = {d} has a curvature matrix of "
                          f"(n d)^2 = {entries} entries at each point, beyond the budget "
                          f"of {NODE_BUDGET}")


class MatrixField:
    """A map x -> exp(-q(x)) * P(x) into the d x d symmetric matrices.

    q and P are given as term lists, ``q_terms`` as ``(coeff, degs)`` and ``p_terms`` as
    ``(degs, matrix)`` pairs (no terms give 0), and kept as polynomials of
    :mod:`mlcc._poly`; a field derived from another passes its polynomials as they are.
    Each term must be such a pair with a real coefficient (else an InputError naming q
    or P and the term), each degree tuple is checked (``poly_degrees``: length n, whole
    degrees >= 0, else an InputError), and so is each polynomial's coefficient block,
    once.  Both are collected here, once (``poly_collect``), so values and jets read g
    by one formula.
    Positivity is enforced per evaluation: querying a point where the value
    is not positive definite raises :class:`NotPositiveError`.  Jets come
    either from exact differentiation of the closed form or from central
    finite differences (optionally Richardson extrapolated); derivatives that
    are not finite are an InputError either way, the exact jet's naming the
    point.

    ``members``, a ``(name, values)`` pair, makes a stacked field: member k is
    the field at parameter ``name`` = ``values[k]`` (so named in errors), every
    coefficient has a leading member axis of length ``len(values)`` (one
    without it is shared by every member), and values and jets carry that
    axis after any node axis.
    """

    def __init__(
        self,
        n: int,
        d: int,
        q_terms,
        p_terms,
        jet_mode: str = "exact",
        h: float = DEFAULT_FD_STEP,
        richardson: bool = True,
        name: str = "custom",
        members: tuple | None = None,
    ):
        if n < 1 or d < 1:
            raise InputError("field dimensions must be positive")
        _within_budget(n, d)
        if jet_mode not in ("exact", "finite_difference"):
            raise InputError(f"unknown jet mode {jet_mode!r}")
        self.n = n
        self.d = d
        self.name = name
        self.members = members
        self.jet_mode = jet_mode
        self.h = _step(h, _FD_STEP_NAME)
        self.richardson = bool(richardson)
        lead = () if members is None else (len(members[1]),)
        self._q = _checked_poly(q_terms, n, lead, ())
        self._p = _checked_poly(p_terms, n, lead, (d, d))

    def _derived(self, q: Poly, p: Poly, name: str, **jet) -> "MatrixField":
        """A field of the polynomials q and P, keeping the jet settings."""
        if self.members is not None:
            raise InputError("a stacked field is evaluated, not derived from")
        jet = {"jet_mode": self.jet_mode, "h": self.h, "richardson": self.richardson, **jet}
        return MatrixField(q.n, self.d, q, p, name=name, **jet)

    @cached_property
    def _jet_terms(self):
        """q's and P's partials, derived once per field by ``poly_diff``: for each, the list
        [p, d_j p for each j, d_k d_j p for j <= k, row-major], and ``second[j, k]`` the
        index of d_j d_k in it.  A polynomial with no rows is its own partial."""
        n = self.n
        pairs = [(j, k) for j in range(n) for k in range(j, n)]
        second = np.empty((n, n), dtype=int)
        for i, (j, k) in enumerate(pairs):
            second[j, k] = second[k, j] = 1 + n + i

        def partials(poly):
            diff = poly_diff if len(poly.exps) else lambda p, j: p
            d1 = [diff(poly, j) for j in range(n)]
            return [poly, *d1, *(diff(d1[j], k) for j, k in pairs)]

        return partials(self._q), partials(self._p), second

    # -- evaluation: at one point, shape (n,), or a stack of them, (N, n) ----

    def _points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n or not np.isfinite(x).all():
            raise InputError(f"expected a finite point in R^{self.n} or a stack of them")
        if not x.size:
            raise InputError(f"expected at least one point in R^{self.n}, got an empty stack")
        return x

    def _where(self, x: np.ndarray, index) -> str:
        """Names the point (and member) at the flat ``index`` of values over ``x``."""
        k, members = x.ndim - 1, () if self.members is None else (len(self.members[1]),)
        i = () if index is None else np.unravel_index(index, x.shape[:k] + members)
        member = f"{self.members[0]} = {self.members[1][i[k]]:.15g}, " if members else ""
        return f"field {self.name} at {member}x = {np.array2string(x[i[:k]], precision=6)}"

    def _spd(self, x: np.ndarray, q: np.ndarray, values) -> SpdMatrix:
        """The values at ``x`` (envelope exponent ``q``) as an SpdMatrix; not finite or
        off the cone, the error names the point, and says so when e^{-q} underflows there."""
        try:
            return SpdMatrix(values)
        except InputError as exc:
            bad = ~np.isfinite(values).all(axis=(-2, -1))
            raise InputError(f"{self._where(x, _first(bad))}: {exc}") from None
        except NotPositiveError as exc:
            index, where, q_i = exc.index, self._where(x, exc.index), np.ravel(q)[exc.index or 0]
            if np.exp(-q_i) < np.finfo(float).tiny:
                raise _UnderflowError(
                    f"{where}: the weight underflows to 0 (e^-q with q = {q_i:.4g})", index
                ) from None
            if self.members is not None:  # named by its member: its own message, not its index
                try:
                    SpdMatrix(values.reshape((-1,) + values.shape[-2:])[index])
                except NotPositiveError as own:
                    exc = own
            raise NotPositiveError(f"{where}: {exc}", index) from None

    def value(self, x) -> np.ndarray:
        """Evaluate at ``x``; raises NotPositiveError off the SPD cone."""
        return self._value(x).entries

    def _value(self, x) -> SpdMatrix:
        """The values at ``x`` as one validated SpdMatrix (a stack for a stack of points)."""
        x = self._points(x)
        q = poly_eval(self._q, x)
        return self._spd(x, q, np.exp(-q)[..., None, None] * poly_eval(self._p, x))

    # -- jets ----------------------------------------------------------------

    def jet(self, x) -> Jet2:
        x = self._points(x)
        if self.jet_mode == "finite_difference":
            stencil = []

            def values(points):
                stencil.append(self._value(points))
                return stencil[0].entries

            d1, d2 = _checked_differences(values, x, self.h, self.richardson, _FD_STEP_NAME)
            if self.members is not None:  # the derivative axes go behind the member axis
                d1, d2 = d1.swapaxes(-4, -3), np.moveaxis(d2, -3, -5)
            # the validated stencil holds P points per centre, the centre first: its
            # value is a node of that stack, not validated again
            stack = stencil[0]
            value = stack[:: stack.entries.shape[0] // len(x)] if x.ndim == 2 else stack[0]
            return Jet2(value=value, d1=d1, d2=d2)
        n = self.n
        q_parts, p_parts, second = self._jet_terms

        def parts(polys):  # C-contiguous, points first, then any member axis, then K
            rows = poly_rows(polys, x)  # (K, [M], shape, N)
            front = (-1, 0) if self.members is None else (-1, 1, 0)
            rows = rows.transpose(*front, *range(len(front) - 1, rows.ndim - 1))
            return np.ascontiguousarray(rows).reshape(x.shape[:-1] + rows.shape[1:])

        q = parts(q_parts)[..., None, None]  # (..., K, 1, 1)
        p = parts(p_parts)  # (..., K, d, d)
        env = np.exp(-q[..., 0, :, :])
        p0, q1, p1 = p[..., 0, :, :], q[..., 1 : n + 1, :, :], p[..., 1 : n + 1, :, :]
        q2, p2 = q[..., second, :, :], p[..., second, :, :]
        # d2[j, k] = e^{-q}(P_jk - (q_j P_k + q_k P_j) + (q_j q_k - q_jk) P), exactly
        # symmetric in (j, k) since the paired products are added commutatively;
        # an overflow is the InputError below, not a floating-point warning
        qj, qk = q1[..., :, None, :, :], q1[..., None, :, :, :]
        pj, pk = p1[..., :, None, :, :], p1[..., None, :, :, :]
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = env[..., None, :, :] * (p1 - q1 * p0[..., None, :, :])
            d2 = env[..., None, None, :, :] * (
                p2 - (qj * pk + qk * pj) + (qj * qk - q2) * p0[..., None, None, :, :]
            )
        value = self._spd(x, q[..., 0, 0, 0], env * p0)
        if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
            bad = ~(np.isfinite(d1).all(axis=(-3, -2, -1))
                    & np.isfinite(d2).all(axis=(-4, -3, -2, -1)))
            index = int(np.argmax(bad)) if bad.ndim else None  # the first point (and member)
            raise InputError(f"{self._where(x, index)}: the jet has derivatives that are not "
                             "finite")
        return Jet2(value=value, d1=d1, d2=d2)

    # -- derived fields -------------------------------------------------------

    def with_jet_mode(
        self, jet_mode: str, h: float = DEFAULT_FD_STEP, richardson: bool = True
    ) -> "MatrixField":
        return self._derived(self._q, self._p, self.name, jet_mode=jet_mode, h=h,
                             richardson=richardson)


def conjugate_field(field: MatrixField, p) -> MatrixField:
    """Congruence of the field by an orthogonal matrix: x -> P^T g(x) P."""
    p = np.asarray(p, dtype=float)
    if p.shape != (field.d, field.d):
        raise InputError("conjugating matrix has wrong shape")
    if np.abs(p.T @ p - np.eye(field.d)).max() > 1e-12:
        raise InputError("conjugating matrix is not orthogonal")
    rotated = p.T @ field._p.coeffs @ p
    symmetric = Poly(field._p.exps, 0.5 * (rotated + rotated.swapaxes(-1, -2)))
    return field._derived(field._q, symmetric, f"{field.name}~")


def restrict_field(field: MatrixField, t) -> MatrixField:
    """Freeze the leading coordinates at ``t``; returns a field in y alone.

    ``t`` is a number or a finite 1-D vector shorter than n.  Frozen coefficients
    that are not finite (powers of t that overflow) are an InputError naming the
    field and t, raised without a floating-point warning.
    """
    try:
        vec = np.atleast_1d(np.asarray(t, dtype=float))
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.ndim != 1 or not np.isfinite(vec).all():
        raise InputError(f"{field.name}: t must be a finite 1-D vector, got {t!r}")
    if vec.shape[0] >= field.n:
        raise InputError("cannot freeze all coordinates of the field")
    with np.errstate(over="ignore", invalid="ignore"):
        q = poly_substitute_prefix(field._q, vec)
        p = poly_substitute_prefix(field._p, vec)
    try:
        return field._derived(q, p, f"{field.name}|t")
    except InputError as exc:
        raise InputError(f"{field.name} at t = {vec.tolist()}: {exc}") from None


# -- builtins -----------------------------------------------------------------

#: Fixed perturbation direction used by the perturbed_gaussian_spd fixture.
PERTURBATION_DIRECTION = np.array([[0.3, 0.1], [0.1, -0.2]])
_E11, _E22, _E12 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
_ID2 = np.eye(2)

#: The parameters each builtin reads; those taking ``A`` also take its entries a11, a12, ...
BUILTIN_PARAMS = {
    "gaussian_scalar": ("n",),
    "gaussian_times_spd": ("n", "d", "A"),
    "raufi_printed": ("s",),
    "raufi_corrected": ("s",),
    "gaussian_cross_spd": ("c", "d", "A"),
    "perturbed_gaussian_spd": ("eps",),
    "double_well_scalar": (),
}


def _whole_number(key: str, value, least: int | None = None) -> int:
    """``value`` as an int if it is a whole number such as 64 or 64.0, not a bool or a
    string, and at least ``least`` when one is given; else an InputError naming ``key``."""
    try:
        whole = float(value).is_integer() and not isinstance(value, (bool, np.bool_, str, bytes))
    except (TypeError, ValueError):
        whole = False
    if not whole or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{key} must be a whole number{bound}, got {value!r}")
    return int(value)


def _sq_norm_terms(n: int, factor: float) -> list:
    return [(factor, tuple(2 if i == j else 0 for i in range(n))) for j in range(n)]


_ENTRY = re.compile("a[0-9][0-9]")

#: The parameters that set a builtin's shape; as an array they take one value.
SHAPE_PARAMS = ("n", "d")


def _member_axis(params: dict):
    """``(name, values)`` of the one parameter given as an array (or a list or tuple) of
    values, or None.

    More than one array, an array that is not 1-D or is empty, or an array of
    more than one n or d is an InputError (``A`` is a matrix, not an array of values).
    """
    arrays = [key for key, val in params.items()
              if key != "A" and isinstance(val, (np.ndarray, list, tuple))]
    if not arrays:
        return None
    if len(arrays) > 1:
        raise InputError(f"only one parameter may take an array of values, got {arrays}")
    key = arrays[0]
    values = np.array(params[key], dtype=float)
    if values.ndim != 1 or not values.size:
        raise InputError(f"parameter {key!r} must be a number or a 1-D array of numbers")
    if key in SHAPE_PARAMS and values.size > 1:
        raise InputError(f"{key} sets the field's shape: give one value at a time")
    return key, values


def _spd_from_params(params: dict, lead: tuple, n: int) -> np.ndarray:
    """``A`` of an SPD-envelope builtin of n variables, or Id_d (d = 2) with the entries
    a11, a12, ... (behind the member axis ``lead`` when an entry is an array of values);
    a d over the budget (``_within_budget``) is a BudgetError before Id_d is built."""
    if params.get("A") is not None:
        a = np.asarray(params["A"], dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            shown = np.asarray(params["A"]).tolist()
            raise InputError(f"parameter 'A' must be a square matrix, got {shown!r} "
                             "(give its entries as a11, a12, ...)")
        return a
    d = _whole_number("d", params.get("d", 2), 1)
    _within_budget(n, d)
    a = np.empty(lead + (d, d))
    a[...] = np.eye(d)
    for key, val in params.items():
        if _ENTRY.fullmatch(key):
            i, j = int(key[1]) - 1, int(key[2]) - 1
            if not (0 <= i < d and 0 <= j < d):
                raise InputError(f"matrix entry {key!r} out of range for d={d}")
            a[..., i, j] = a[..., j, i] = val
    return a


def _raufi_terms(s: np.ndarray, corrected: bool) -> list:
    # g = Id_2 - [[s x1^2 + x2^2, x1 x2], [x1 x2, (2,2) entry]],
    # with the (2,2) entry s x1^2 + x2^2 as printed, or x1^2 + s x2^2 corrected;
    # s is a 0-d array or an array of values, each member by the same arithmetic
    s = s[..., None, None]
    sq1, sq2 = (s * _E11 + _E22, _E11 + s * _E22) if corrected else (s * _ID2, _ID2)
    return [((0, 0), _ID2), ((2, 0), -sq1), ((0, 2), -sq2), ((1, 1), -_E12)]


def builtin_field(name: str, params: dict | None = None, **jet_kwargs) -> MatrixField:
    """Construct one of the shipped fields by name.

    Matrix parameters of the SPD-envelope builtins are passed entrywise as
    ``a11``, ``a12``, ... in the params map (identity by default).  A key the
    builtin does not read (see ``BUILTIN_PARAMS``) is an InputError.

    One parameter may be a 1-D array of values: the result is then one stacked
    field with a member per value (see :class:`MatrixField`), member k built by
    the arithmetic of the number ``values[k]``, so its values and jets equal,
    bit for bit, those of the field built from that number.  An array of n or d
    holds one value, since they set the shape.
    """
    params = dict(params or {})
    if name not in BUILTIN_PARAMS:
        raise InputError(f"unknown builtin field {name!r}")
    accepted = BUILTIN_PARAMS[name]
    for key in params:
        if key not in accepted and not ("A" in accepted and _ENTRY.fullmatch(key)):
            takes = ", ".join(accepted + (("a11", "a12", "...") if "A" in accepted else ()))
            raise InputError(f"builtin field {name} has no parameter {key!r} (it takes "
                             f"{takes or 'none'})")
    members, lead = _member_axis(params), ()
    if members is not None:
        key, values = members
        if key in SHAPE_PARAMS:
            params[key] = float(values[0])
        else:
            params[key], lead = values, values.shape
    field = partial(MatrixField, name=name, members=members, **jet_kwargs)

    def number(key, default):
        return np.asarray(params.get(key, default), dtype=float)

    if name == "gaussian_scalar":
        n = _whole_number("n", params.get("n", 1), 1)
        _within_budget(n, 1)
        return field(n, 1, _sq_norm_terms(n, 0.5), [((0,) * n, np.eye(1))])
    if name == "gaussian_times_spd":
        n = _whole_number("n", params.get("n", 1), 1)
        a = _spd_from_params(params, lead, n)
        return field(n, a.shape[-1], _sq_norm_terms(n, 1.0), [((0,) * n, a)])
    if name in ("raufi_printed", "raufi_corrected"):
        terms = _raufi_terms(number("s", 0.0), corrected=(name == "raufi_corrected"))
        return field(2, 2, [], terms)
    if name == "gaussian_cross_spd":
        # exp(-(x1^2 + x2^2 + c x1 x2)) * A, non-product in (t, y) for c != 0
        a = _spd_from_params(params, lead, 2)
        q = _sq_norm_terms(2, 1.0) + [(number("c", 0.5), (1, 1))]
        return field(2, a.shape[-1], q, [((0, 0), a)])
    if name == "perturbed_gaussian_spd":
        # exp(-|x|^2) * (Id + eps (x1 + x2) B): integrable, N-log-concave for
        # small eps, with a genuinely nonconstant matrix direction.
        eps_b = number("eps", 0.02)[..., None, None] * PERTURBATION_DIRECTION
        p = [((0, 0), np.eye(2)), ((1, 0), eps_b), ((0, 1), eps_b)]
        return field(2, 2, _sq_norm_terms(2, 1.0), p)
    # double_well_scalar, exp(-((x1^2 - 1)^2 + x2^2)): integrable but not
    # log-concave near 0.
    q = [(1.0, (4, 0)), (-2.0, (2, 0)), (1.0, (0, 0)), (1.0, (0, 2))]
    return field(2, 1, q, [((0, 0), np.eye(1))])


def _term_list(monomials) -> list:
    """A JSON list of ``[coeff, [deg_1, ..., deg_n]]`` as a (coeff, degs) term list.
    The degrees are kept as written, for the field to check (``poly_degrees``):
    2.7 is not truncated to 2."""
    try:
        return [(float(c), tuple(degs)) for c, degs in monomials]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed monomial list {monomials!r}") from exc


def _entry_terms(d: int, entries: dict) -> list:
    """Upper-triangle entry polynomials as (degs, coeff (E_ij + E_ji)) pairs (E_ii on the
    diagonal), one per monomial: the field collects them."""
    if not isinstance(entries, dict):
        raise InputError("field key 'entries' must be an object keyed \"i,j\", got "
                         f"{type(entries).__name__}")
    terms = []
    for key, monomials in entries.items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s) - 1, int(j_s) - 1
        except ValueError as exc:
            raise InputError(f"malformed entry key {key!r}") from exc
        if not (0 <= i <= j < d):
            raise InputError(f"entry key {key!r} out of range (need i <= j <= d)")
        e = np.zeros((d, d))
        e[i, j] = e[j, i] = 1.0
        terms += [(degs, coeff * e) for coeff, degs in _term_list(monomials)]
    return terms


def polynomial_field(n: int, d: int, entries: dict, **jet_kwargs) -> MatrixField:
    """Field whose entries are polynomials, given per upper-triangle entry.

    ``entries`` maps "i,j" (1-based, i <= j) to a list of
    ``[coeff, [deg_1, ..., deg_n]]`` monomials.
    """
    _within_budget(n, d)
    return MatrixField(n, d, [], _entry_terms(d, entries), name="polynomial", **jet_kwargs)


def polynomial_field_from_json(path_or_obj, **jet_kwargs) -> MatrixField:
    """Load a polynomial field from the JSON schema used by the CLI.

    Keys: ``n``, ``d``, ``entries`` (as for :func:`polynomial_field`) and an
    optional scalar envelope ``q`` in the same monomial format.
    """
    if isinstance(path_or_obj, (str, bytes)):
        with open(path_or_obj) as fh:
            obj = json.load(fh)
    else:
        obj = path_or_obj
    if not isinstance(obj, dict):
        raise InputError("field JSON must be an object with keys n, d and entries, got "
                         f"{type(obj).__name__}")
    try:
        n, d = _whole_number("n", obj["n"], 1), _whole_number("d", obj["d"], 1)
        _within_budget(n, d)
        q = _term_list(obj.get("q", []))
        return MatrixField(n, d, q, _entry_terms(d, obj["entries"]), name="polynomial",
                           **jet_kwargs)
    except KeyError as exc:
        raise InputError(f"field JSON is missing key {exc}") from exc
