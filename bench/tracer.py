"""Binding-aware span tracer for the benchmark's traced run.

Several ``mlcc`` modules import functions by name (``curvature_matrix`` is
bound in ``quadrature``, ``inequalities`` and ``cli``; ``poly_eval`` in
``fields`` and ``quadrature``; ``pairwise_sum`` in ``inequalities``), so
patching only the defining module would miss calls.  The tracer replaces
every binding of a target it can find in the ``mlcc`` package and checks
afterwards that none of the originals is still reachable there.

Each wrapped call records one span: target index, start, end (ns from
``time.perf_counter_ns``), parent span and the op id set by the caller.
Spans stay in memory until :meth:`Tracer.dump`.  Self time is the span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (metric name, module, attribute path).  A dotted attribute path names a
# method, patched once on its class; a plain name is a function, patched at
# every module that binds it.
TARGETS = (
    ("cli.run", "mlcc.cli", "run"),
    ("inequalities.bl_gap", "mlcc.inequalities", "bl_gap"),
    ("inequalities.prekopa_check", "mlcc.inequalities", "prekopa_check"),
    ("inequalities.theta_alpha_decomposed", "mlcc.inequalities", "theta_alpha_decomposed"),
    ("inequalities.marginal_theta_fd", "mlcc.inequalities", "marginal_theta_fd"),
    ("quadrature.build_rule", "mlcc.quadrature", "build_rule"),
    ("quadrature.integrate_field", "mlcc.quadrature", "integrate_field"),
    ("quadrature.variance_functional", "mlcc.quadrature", "variance_functional"),
    ("quadrature.pairwise_sum", "mlcc.quadrature", "pairwise_sum"),
    ("quadrature.DirichletEvaluator.init", "mlcc.quadrature", "DirichletEvaluator.__init__"),
    ("quadrature.DirichletEvaluator.energy", "mlcc.quadrature", "DirichletEvaluator.energy"),
    ("quadrature.VectorFieldFn.value", "mlcc.quadrature", "VectorFieldFn.value"),
    ("quadrature.VectorFieldFn.grad", "mlcc.quadrature", "VectorFieldFn.grad"),
    ("curvature.curvature_matrix", "mlcc.curvature", "curvature_matrix"),
    ("curvature.curvature_from_jet", "mlcc.curvature", "curvature_from_jet"),
    ("curvature.nakano_verdict", "mlcc.curvature", "nakano_verdict"),
    ("curvature.griffiths_min_gap", "mlcc.curvature", "griffiths_min_gap"),
    ("curvature.block_split", "mlcc.curvature", "block_split"),
    ("curvature.schur_gap", "mlcc.curvature", "schur_gap"),
    ("metric.SpdMatrix.init", "mlcc.metric", "SpdMatrix.__init__"),
    ("metric.SpdMatrix.sqrt_and_invsqrt", "mlcc.metric", "SpdMatrix.sqrt_and_invsqrt"),
    ("metric.PolarOperator.init", "mlcc.metric", "PolarOperator.__init__"),
    ("metric.PolarOperator.value", "mlcc.metric", "PolarOperator.value"),
    ("fields.builtin_field", "mlcc.fields", "builtin_field"),
    ("fields.restrict_field", "mlcc.fields", "restrict_field"),
    ("fields.jet", "mlcc.fields", "MatrixField.jet"),
    ("fields.value", "mlcc.fields", "MatrixField.value"),
    # metric names start with a letter, so the _poly layer reports as "poly"
    ("poly.poly_eval", "mlcc._poly", "poly_eval"),
    ("poly.poly_diff", "mlcc._poly", "poly_diff"),
    ("poly.poly_substitute_prefix", "mlcc._poly", "poly_substitute_prefix"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.solve", "numpy.linalg", "solve"),
)

NAMES = tuple(t[0] for t in TARGETS)
LAYERS = ("cli", "inequalities", "quadrature", "curvature", "metric", "fields", "poly", "linalg")


class TracerError(RuntimeError):
    """The tracer could not wrap every binding of its targets."""


def _binding_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mlcc" or name.startswith("mlcc."))]


def _classes_of(modules):
    seen = {}
    for m in modules:
        for v in vars(m).values():
            if isinstance(v, type) and (v.__module__ or "").startswith("mlcc"):
                seen[id(v)] = v
    return list(seen.values())


class Tracer:
    """Wraps the targets on :meth:`install`, restores them on :meth:`uninstall`."""

    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.op_id = -1
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack = []
        self._undo = []  # (owner, attribute, original)
        self._originals = []
        self.missing = []  # targets the package no longer defines; they read 0 calls

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, idx, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> None:
        modules = _binding_modules()
        for idx, (name, modname, path) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                original = None if cls is None else vars(cls).get(attr)
                if original is None:
                    self.missing.append(name)
                    continue
                self._set(cls, attr, self._wrap(idx, original), original)
                self._originals.append(original)
                continue
            original = getattr(owner, path, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, original)
            for m in [owner] + [m for m in modules if m is not owner]:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper, original)
            self._originals.append(original)
        self.self_check()

    def _set(self, owner, attr, new, original) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def self_check(self) -> None:
        """Fail if any module or class of the package still binds an original."""
        modules = _binding_modules()
        holders = modules + _classes_of(modules) + [sys.modules["numpy.linalg"]]
        originals = {id(o) for o in self._originals}
        missed = [
            f"{getattr(h, '__name__', h)}.{name}"
            for h in holders
            for name, value in vars(h).items()
            if id(value) in originals
        ]
        if missed:
            raise TracerError("unwrapped bindings: " + ", ".join(sorted(missed)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """``{name: (calls, self seconds)}`` for every target."""
        return {
            name: (self.calls[i], self.self_ns[i] * 1e-9) for i, name in enumerate(NAMES)
        }

    def dump(self, path) -> None:
        """Write the recorded spans as a NumPy ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )
