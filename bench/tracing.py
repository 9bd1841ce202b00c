"""Layer instrumentation installed from outside the package.

Two passes, never combined, so that counting does not inflate self times:

* ``SpanRecorder`` wraps each layer boundary and records one span per call:
  (instance id, name, start, end, parent).  A span's self time is its
  duration minus the durations of its direct children (calls are nested,
  single-threaded).
* ``CallCounter`` wraps the same boundaries plus the hottest leaves (``Fq``
  ops, ``LaurentSeries.coeff``, ``SeriesMatrix.entry``) and only counts.

Several modules import public functions by name (``approx`` holds
``nullspace``, ``matvec_affine`` ...; ``transference`` and ``runner`` hold
``profile``; ``generators`` and ``limsup`` hold ``witness_error_degs``), so a
wrapper is rebound in every ``ffdioph`` module namespace that holds the
original object, and instrumentation refuses to start while a module, a
module-level class or a module-level container still holds one.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

NEG_INF = float("-inf")

# (module, attribute or Class.attribute, span name)
SPAN_BOUNDARIES = (
    ("ffdioph.runner", "run_config", "runner.run_config"),
    ("ffdioph.runner", "report_json_bytes", "runner.report_json_bytes"),
    ("ffdioph.config", "ExperimentConfig.from_dict", "config.from_dict"),
    ("ffdioph.exponents", "profile", "exponents.profile"),
    ("ffdioph.approx", "best_error", "approx.best_error"),
    ("ffdioph.approx", "best_error_mult", "approx.best_error_mult"),
    ("ffdioph.approx", "witness_error_degs", "approx.witness_error_degs"),
    ("ffdioph.linalg", "nullspace", "linalg.nullspace"),
    ("ffdioph.linalg", "solve_affine", "linalg.solve_affine"),
    ("ffdioph.matrix", "matvec_affine", "matrix.matvec_affine"),
    ("ffdioph.series", "LaurentSeries.__mul__", "series.mul"),
    ("ffdioph.series", "LaurentSeries.__add__", "series.add"),
    ("ffdioph.series", "LaurentSeries.split_parts", "series.split_parts"),
    ("ffdioph.series", "LaurentSeries.inverse", "series.inverse"),
    ("ffdioph.limsup", "prop_forward_check", "limsup.prop_forward_check"),
    ("ffdioph.limsup", "prop_backward_check", "limsup.prop_backward_check"),
    ("ffdioph.limsup", "intersection_check", "limsup.intersection_check"),
    ("ffdioph.limsup", "cell_plane_identity_check", "limsup.cell_plane_identity_check"),
    ("ffdioph.generators", "random_series", "generators.random_series"),
    ("ffdioph.generators", "generate_matrix", "generators.generate_matrix"),
    ("ffdioph.generators", "generate_theta", "generators.generate_theta"),
    ("ffdioph.generators", "plant_witness", "generators.plant_witness"),
    ("ffdioph.generators", "plant_membership_pair", "generators.plant_membership_pair"),
    ("ffdioph.generators", "solve_matrix_for_residual", "generators.solve_matrix_for_residual"),
)

# counted only, in the counting pass
LEAF_BOUNDARIES = (
    ("ffdioph.field", "Fq.__init__", "field.Fq_init"),
    ("ffdioph.field", "Fq.add", "field.add"),
    ("ffdioph.field", "Fq.neg", "field.neg"),
    ("ffdioph.field", "Fq.sub", "field.sub"),
    ("ffdioph.field", "Fq.mul", "field.mul"),
    ("ffdioph.field", "Fq.inv", "field.inv"),
    ("ffdioph.series", "LaurentSeries.coeff", "series.coeff"),
    ("ffdioph.matrix", "SeriesMatrix.entry", "matrix.entry"),
)

FIELD_OPS = ("field.add", "field.neg", "field.sub", "field.mul", "field.inv")


class _Patcher:
    """Replaces boundary callables and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._set(cls, name, raw, new)
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        holders = [
            (mod, key)
            for mod in _package_modules()
            for key, value in vars(mod).items()
            if value is original
        ]
        for mod, key in holders:
            self._set(mod, key, original, wrapper)

    def _set(self, target, name, old, new) -> None:
        setattr(target, name, new)
        self._undo.append((target, name, old))

    def check_rebound(self) -> None:
        """Fail if a package namespace, or a class or container in one,
        still holds an unwrapped boundary function."""
        originals = {
            id(old): name
            for target, name, old in self._undo
            if not isinstance(target, type)
        }
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    inner = list(vars(value).values())
                elif isinstance(value, dict):
                    inner = list(value.values())
                elif isinstance(value, (list, tuple)):
                    inner = list(value)
                else:
                    inner = []
                for held in [value] + inner:
                    if id(held) in originals:
                        raise RuntimeError(
                            f"{mod.__name__}.{key} still holds the unwrapped "
                            f"{originals[id(held)]}"
                        )

    def restore(self) -> None:
        for target, name, old in reversed(self._undo):
            setattr(target, name, old)
        self._undo.clear()


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ffdioph" or name.startswith("ffdioph."))
    ]


class _Instrumentation:
    """Context manager: install wrappers on enter, restore on exit."""

    boundaries: tuple = ()

    def __enter__(self):
        self._patcher = _Patcher()
        try:
            for module_name, attr, name in self.boundaries:
                self._patcher.patch(
                    module_name, attr, lambda fn, name=name: self.wrap(name, fn)
                )
            self._patcher.check_rebound()
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


# ---------------------------------------------------------------------------
# span pass
# ---------------------------------------------------------------------------


class SpanRecorder(_Instrumentation):
    boundaries = SPAN_BOUNDARIES

    def __init__(self):
        self.instance = -1
        # [instance, name, start, end, parent index]; kept until take()
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self.instance, name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                span = spans[index]
                span[2] = start
                span[3] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> dict[str, list]:
        """{span name: [calls, self seconds]} for the spans recorded since
        the last call, which are then dropped."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (_, name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - children
        self.spans.clear()
        return dict(out)


# ---------------------------------------------------------------------------
# counting pass
# ---------------------------------------------------------------------------


def _add_digits(a, b) -> int:
    """Digit positions LaurentSeries.__add__ visits for a + b."""
    known = [s for s in (a, b) if s.coeffs]
    if not known:
        return 0
    floor = max(a.floor, b.floor)
    lo = floor if floor != NEG_INF else min(s.top - len(s.coeffs) + 1 for s in known)
    return max(s.top for s in known) - lo + 1


def _theta_key(theta):
    return None if theta is None else tuple(theta)


class CallCounter(_Instrumentation):
    boundaries = SPAN_BOUNDARIES + LEAF_BOUNDARIES

    def __init__(self):
        self.instance = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._best_error_keys: set = set()
        self._profile_keys: set = set()
        self._best_error_depth = 0
        self._mult_frames: list[list[int]] = []  # [rows m, split_parts calls]

    def take(self) -> None:
        """Close the current instance: distinct keys count per instance."""
        self.counts["approx.best_error.distinct"] += len(self._best_error_keys)
        self.counts["exponents.profile.distinct"] += len(self._profile_keys)
        self._best_error_keys.clear()
        self._profile_keys.clear()

    def wrap(self, name: str, fn):
        counts = self.counts
        key = name.replace(".", "_")
        enter = getattr(self, "_enter_" + key, None)
        leave = getattr(self, "_leave_" + key, None)
        if enter is None and leave is None:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                if enter is not None:
                    enter(*args, **kwargs)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    if leave is not None:
                        leave(result)

        wrapper.__wrapped__ = fn
        return wrapper

    # _enter_<name> gets the boundary's arguments; _leave_<name> gets its
    # result, or None when it raised

    def _enter_series_mul(self, a, b):
        self.counts["series.mul.digit_pairs"] += len(a.coeffs) * len(b.coeffs)

    def _enter_series_add(self, a, b):
        self.counts["series.add.digits"] += _add_digits(a, b)

    def _enter_series_split_parts(self, s):
        if self._mult_frames:
            self._mult_frames[-1][1] += 1

    def _enter_approx_best_error(self, Y, theta, T, method="kernel"):
        self._best_error_depth += 1
        self._best_error_keys.add((Y.rows, _theta_key(theta), (T - 1) // Y.n))

    def _leave_approx_best_error(self, result):
        self._best_error_depth -= 1

    def _enter_approx_best_error_mult(self, Y, theta, T):
        self._mult_frames.append([Y.m, 0])

    def _leave_approx_best_error_mult(self, result):
        m, splits = self._mult_frames.pop()
        self.counts["approx.mult.candidates"] += splits // m

    def _enter_exponents_profile(self, Y, theta, T_max, kind="standard", method="kernel"):
        self._profile_keys.add((Y.rows, _theta_key(theta), T_max, kind, method))

    def _linalg(self, rows, ncols):
        self.counts["linalg.cells"] += len(rows) * ncols
        if self._best_error_depth:
            self.counts["linalg.under_best_error"] += 1

    def _enter_linalg_nullspace(self, field, rows, ncols):
        self._linalg(rows, ncols)

    def _leave_linalg_nullspace(self, basis):
        if basis:
            self.counts["linalg.feasible"] += 1

    def _enter_linalg_solve_affine(self, field, rows, rhs, ncols):
        self._linalg(rows, ncols)

    def _leave_linalg_solve_affine(self, result):
        if result is not None and result[0] is not None:
            self.counts["linalg.feasible"] += 1
