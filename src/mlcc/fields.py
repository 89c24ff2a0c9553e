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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._poly import poly_diff, poly_eval, poly_substitute_prefix
from .errors import InputError
from .metric import SpdMatrix

#: Default central-difference step for finite-difference jets.
DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of a matrix field at a point.

    ``value`` is the SPD value, ``d1[j]`` the first partials, ``d2[j][k]``
    the second partials (symmetrized in (j, k) on assembly).
    """

    value: SpdMatrix
    d1: np.ndarray  # (n, d, d)
    d2: np.ndarray  # (n, n, d, d)

    @property
    def n(self) -> int:
        return self.d1.shape[0]

    @property
    def d(self) -> int:
        return self.value.dim


def central_differences(fn, x, h: float, richardson: bool = False, second: bool = True):
    """Central differences of ``fn`` at ``x``: ``(value, d1, d2)``.

    ``d1[j]`` and ``d2[j, k]`` approximate the first and second partials to
    O(h^2); ``richardson`` combines the steps h and h/2 to O(h^4).  ``fn``
    runs once at the centre, then at x +- step e_j and, for the mixed
    partials, at x +- step e_j +- step e_k.  With ``second=False`` only the
    first differences are formed (value and d2 are None, the centre is not
    evaluated).  Every caller's SPD or shape checks run inside ``fn``.
    """
    n = x.shape[0]
    value = fn(x) if second else None

    def at(step):
        e = step * np.eye(n)
        plus = [fn(x + e[j]) for j in range(n)]
        minus = [fn(x - e[j]) for j in range(n)]
        d1 = np.stack([(plus[j] - minus[j]) / (2.0 * step) for j in range(n)])
        if not second:
            return d1, None
        d2 = np.empty((n,) + d1.shape)
        for j in range(n):
            d2[j, j] = (plus[j] - 2.0 * value + minus[j]) / step**2
            for k in range(j + 1, n):
                d2[j, k] = d2[k, j] = (
                    fn(x + e[j] + e[k])
                    - fn(x + e[j] - e[k])
                    - fn(x - e[j] + e[k])
                    + fn(x - e[j] - e[k])
                ) / (4.0 * step**2)
        return d1, d2

    d1, d2 = at(h)
    if richardson:
        d1_half, d2_half = at(h / 2.0)
        d1 = (4.0 * d1_half - d1) / 3.0
        if second:
            d2 = (4.0 * d2_half - d2) / 3.0
    return value, d1, d2


class MatrixField:
    """A map x -> exp(-q(x)) * P(x) into the d x d symmetric matrices.

    q and P are term lists of :mod:`mlcc._poly` (P with read-only matrix
    coefficients); ``p_terms`` are given as ``(degs, matrix)`` pairs.
    Positivity is enforced per evaluation: querying a point where the value
    is not positive definite raises :class:`NotPositiveError`.  Jets come
    either from exact differentiation of the closed form or from central
    finite differences (optionally Richardson extrapolated).
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
    ):
        if n < 1 or d < 1:
            raise InputError("field dimensions must be positive")
        if jet_mode not in ("exact", "finite_difference"):
            raise InputError(f"unknown jet mode {jet_mode!r}")
        self.n = n
        self.d = d
        self.name = name
        self.jet_mode = jet_mode
        self.h = float(h)
        self.richardson = bool(richardson)
        self._q = [(float(c), tuple(degs)) for c, degs in q_terms]
        self._p = []
        for degs, coeff in list(p_terms) or [((0,) * n, np.zeros((d, d)))]:
            a = np.array(coeff, dtype=float)
            if a.shape != (d, d):
                raise InputError("matrix coefficient has wrong shape")
            if np.abs(a - a.T).max() > 0.0:
                raise InputError("matrix coefficients must be symmetric")
            a.setflags(write=False)
            self._p.append((a, tuple(degs)))
        if any(len(degs) != n for _, degs in self._q):
            raise InputError("scalar polynomial degree tuples must have length n")
        if any(len(degs) != n for _, degs in self._p):
            raise InputError("matrix polynomial degree tuples must have length n")

    def _derived(self, n: int, q, p, name: str, **jet) -> "MatrixField":
        """A field from (coeff, degs) term lists, keeping the jet settings."""
        jet = {"jet_mode": self.jet_mode, "h": self.h, "richardson": self.richardson, **jet}
        return MatrixField(n, self.d, q, [(degs, c) for c, degs in p], name=name, **jet)

    @cached_property
    def _partials(self):
        """Term lists of the partials d_j and d_j d_k (k >= j) of q and P, derived once."""
        q1 = [poly_diff(self._q, j) for j in range(self.n)]
        p1 = [poly_diff(self._p, j) for j in range(self.n)]
        q2 = {(j, k): poly_diff(q1[j], k) for j in range(self.n) for k in range(j, self.n)}
        p2 = {(j, k): poly_diff(p1[j], k) for j in range(self.n) for k in range(j, self.n)}
        return q1, p1, q2, p2

    # -- plain evaluation ---------------------------------------------------

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,) or not np.isfinite(x).all():
            raise InputError(f"expected a finite point in R^{self.n}")
        return x

    def raw_value(self, x) -> np.ndarray:
        """Value without the positivity check (symmetric by construction)."""
        x = self._point(x)
        return math.exp(-poly_eval(self._q, x)) * poly_eval(self._p, x)

    def value(self, x) -> np.ndarray:
        """Evaluate at ``x``; raises NotPositiveError off the SPD cone."""
        return SpdMatrix(self.raw_value(x)).entries

    # -- jets ----------------------------------------------------------------

    def jet(self, x) -> Jet2:
        x = self._point(x)
        if self.jet_mode == "finite_difference":
            value, d1, d2 = central_differences(self.value, x, self.h, self.richardson)
            return Jet2(value=SpdMatrix(value), d1=d1, d2=d2)
        n = self.n
        q1, p1, q2, p2 = self._partials
        env = math.exp(-poly_eval(self._q, x))
        p0 = poly_eval(self._p, x)
        qj = [poly_eval(q, x) for q in q1]
        pj = [poly_eval(p, x) for p in p1]
        d1 = np.stack([env * (pj[j] - qj[j] * p0) for j in range(n)])
        d2 = np.empty((n, n, self.d, self.d))
        for j in range(n):
            for k in range(j, n):
                d2[j, k] = d2[k, j] = env * (
                    poly_eval(p2[j, k], x)
                    - qj[j] * pj[k]
                    - qj[k] * pj[j]
                    + (qj[j] * qj[k] - poly_eval(q2[j, k], x)) * p0
                )
        return Jet2(value=SpdMatrix(env * p0), d1=d1, d2=d2)

    # -- derived fields -------------------------------------------------------

    def with_jet_mode(
        self, jet_mode: str, h: float = DEFAULT_FD_STEP, richardson: bool = True
    ) -> "MatrixField":
        return self._derived(
            self.n, self._q, self._p, self.name, jet_mode=jet_mode, h=h, richardson=richardson
        )


def conjugate_field(field: MatrixField, p) -> MatrixField:
    """Congruence of the field by an orthogonal matrix: x -> P^T g(x) P."""
    p = np.asarray(p, dtype=float)
    if p.shape != (field.d, field.d):
        raise InputError("conjugating matrix has wrong shape")
    if np.abs(p.T @ p - np.eye(field.d)).max() > 1e-12:
        raise InputError("conjugating matrix is not orthogonal")
    terms = []
    for coeff, degs in field._p:
        rotated = p.T @ coeff @ p
        terms.append((0.5 * (rotated + rotated.T), degs))
    return field._derived(field.n, field._q, terms, f"{field.name}~")


def restrict_field(field: MatrixField, t) -> MatrixField:
    """Freeze the leading coordinates at ``t``; returns a field in y alone."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[0] >= field.n:
        raise InputError("cannot freeze all coordinates of the field")
    q = poly_substitute_prefix(field._q, t)
    p = poly_substitute_prefix(field._p, t)
    return field._derived(field.n - t.shape[0], q, p, f"{field.name}|t")


# -- builtins -----------------------------------------------------------------

#: Fixed perturbation direction used by the perturbed_gaussian_spd fixture.
PERTURBATION_DIRECTION = np.array([[0.3, 0.1], [0.1, -0.2]])

BUILTIN_NAMES = (
    "gaussian_scalar",
    "gaussian_times_spd",
    "raufi_printed",
    "raufi_corrected",
    "polynomial",
    "gaussian_cross_spd",
    "perturbed_gaussian_spd",
    "double_well_scalar",
)


def _sq_norm_terms(n: int, factor: float) -> list:
    return [(factor, tuple(2 if i == j else 0 for i in range(n))) for j in range(n)]


def _spd_from_params(d: int, params: dict) -> np.ndarray:
    a = np.eye(d)
    for key, val in params.items():
        if key.startswith("a") and len(key) == 3 and key[1:].isdigit():
            i, j = int(key[1]) - 1, int(key[2]) - 1
            if not (0 <= i < d and 0 <= j < d):
                raise InputError(f"matrix entry {key!r} out of range for d={d}")
            a[i, j] = a[j, i] = float(val)
    return a


def _raufi_terms(s: float, corrected: bool) -> list:
    # g = Id_2 - [[s x1^2 + x2^2, x1 x2], [x1 x2, (2,2) entry]],
    # with the (2,2) entry s x1^2 + x2^2 as printed, or x1^2 + s x2^2 corrected.
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    e12 = np.array([[0.0, 1.0], [1.0, 0.0]])
    if corrected:
        sq1 = s * e11 + e22
        sq2 = e11 + s * e22
    else:
        sq1 = s * (e11 + e22)
        sq2 = e11 + e22
    return [
        ((0, 0), np.eye(2)),
        ((2, 0), -sq1),
        ((0, 2), -sq2),
        ((1, 1), -e12),
    ]


def builtin_field(name: str, params: dict | None = None, **jet_kwargs) -> MatrixField:
    """Construct one of the shipped fields by name.

    Matrix parameters of the SPD-envelope builtins are passed entrywise as
    ``a11``, ``a12``, ... in the params map (identity by default).
    """
    params = dict(params or {})
    if name == "gaussian_scalar":
        n = int(params.get("n", 1))
        return MatrixField(
            n, 1, _sq_norm_terms(n, 0.5), [((0,) * n, np.eye(1))], name=name, **jet_kwargs
        )
    if name == "gaussian_times_spd":
        n = int(params.get("n", 1))
        a = params.get("A")
        if a is None:
            d = int(params.get("d", 2))
            a = _spd_from_params(d, params)
        a = np.asarray(a, dtype=float)
        return MatrixField(
            n, a.shape[0], _sq_norm_terms(n, 1.0), [((0,) * n, a)], name=name, **jet_kwargs
        )
    if name in ("raufi_printed", "raufi_corrected"):
        s = float(params.get("s", 0.0))
        terms = _raufi_terms(s, corrected=(name == "raufi_corrected"))
        return MatrixField(2, 2, [], terms, name=name, **jet_kwargs)
    if name == "polynomial":
        return polynomial_field(
            int(params["n"]), int(params["d"]), params["entries"], **jet_kwargs
        )
    if name == "gaussian_cross_spd":
        # exp(-(x1^2 + x2^2 + c x1 x2)) * A, non-product in (t, y) for c != 0
        c = float(params.get("c", 0.5))
        a = params.get("A")
        if a is None:
            d = int(params.get("d", 2))
            a = _spd_from_params(d, params)
        a = np.asarray(a, dtype=float)
        q = _sq_norm_terms(2, 1.0) + [(c, (1, 1))]
        return MatrixField(2, a.shape[0], q, [((0, 0), a)], name=name, **jet_kwargs)
    if name == "perturbed_gaussian_spd":
        # exp(-|x|^2) * (Id + eps (x1 + x2) B): integrable, N-log-concave for
        # small eps, with a genuinely nonconstant matrix direction.
        eps = float(params.get("eps", 0.02))
        b = PERTURBATION_DIRECTION
        p = [((0, 0), np.eye(2)), ((1, 0), eps * b), ((0, 1), eps * b)]
        return MatrixField(2, 2, _sq_norm_terms(2, 1.0), p, name=name, **jet_kwargs)
    if name == "double_well_scalar":
        # exp(-((x1^2 - 1)^2 + x2^2)): integrable but not log-concave near 0.
        q = [(1.0, (4, 0)), (-2.0, (2, 0)), (1.0, (0, 0)), (1.0, (0, 2))]
        return MatrixField(2, 1, q, [((0, 0), np.eye(1))], name=name, **jet_kwargs)
    raise InputError(f"unknown builtin field {name!r}")


def _term_list(monomials, n: int) -> list:
    """A JSON list of ``[coeff, [deg_1, ..., deg_n]]`` as a (coeff, degs) term list."""
    try:
        terms = [(float(c), tuple(int(t) for t in degs)) for c, degs in monomials]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed monomial list {monomials!r}") from exc
    for _, degs in terms:
        if len(degs) != n:
            raise InputError(f"degree tuple {degs} has wrong length")
    return terms


def _entry_terms(n: int, d: int, entries: dict) -> list:
    """Upper-triangle entry polynomials as (degs, symmetric matrix) pairs."""
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for key, monomials in entries.items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s) - 1, int(j_s) - 1
        except ValueError as exc:
            raise InputError(f"malformed entry key {key!r}") from exc
        if not (0 <= i <= j < d):
            raise InputError(f"entry key {key!r} out of range (need i <= j <= d)")
        for coeff, degs in _term_list(monomials, n):
            base = terms.setdefault(degs, np.zeros((d, d)))
            base[i, j] += coeff
            if i != j:
                base[j, i] += coeff
    return list(terms.items())


def polynomial_field(n: int, d: int, entries: dict, **jet_kwargs) -> MatrixField:
    """Field whose entries are polynomials, given per upper-triangle entry.

    ``entries`` maps "i,j" (1-based, i <= j) to a list of
    ``[coeff, [deg_1, ..., deg_n]]`` monomials.
    """
    return MatrixField(n, d, [], _entry_terms(n, d, entries), name="polynomial", **jet_kwargs)


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
    try:
        n, d = int(obj["n"]), int(obj["d"])
        q = _term_list(obj.get("q", []), n)
        return MatrixField(n, d, q, _entry_terms(n, d, obj["entries"]), name="polynomial",
                           **jet_kwargs)
    except KeyError as exc:
        raise InputError(f"field JSON is missing key {exc}") from exc
