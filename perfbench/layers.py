"""Per-layer tracing from outside the program.

While installed, a ``Tracer`` replaces each public function and method of
the modules of ``src/tropstab`` (and the operators of ``Fraction``) with a
wrapper that records a span: the call's duration, minus the part covered
by spans it caused, is the self time of the callee's layer.  Selected
calls also feed counters and inclusive timers.  The wrappers live only in
the benchmark; uninstalling puts every original object back.
"""

from __future__ import annotations

import fractions
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("fields", "matrices", "tropical", "apartment", "compactification",
          "symplectic", "sampling", "weights", "feasibility", "suites",
          "serialize", "cli")

#: Class dunders that are not operations of the layer.
SKIP = {"__new__", "__init_subclass__", "__setattr__", "__delattr__",
        "__getattribute__", "__class_getitem__", "__reduce__", "__copy__",
        "__deepcopy__"}

ELEM_OPS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv"}

SAMPLER_DRAWS = {"random_monomial", "random_torus", "random_sl_integral", "random_sl",
                 "random_sl_nonintegral", "random_stabilizing", "random_sp_torus",
                 "random_sp_monomial", "random_sp_integral", "random_sp",
                 "random_ray_stabilizing", "random_sp_ray_adapted",
                 "random_block_triangular"}


SELF_TIMES = LAYERS + ("fractions",)
COUNTERS = ("fields.elem_ops", "fields.coercions", "fields.spec_compares",
            "fractions.created", "matrices.products", "matrices.inverses",
            "matrices.determinants", "symplectic.form_checks",
            "tropical.predicate_calls", "apartment.calls", "compactification.calls",
            "sampling.draws", "weights.cone_tests", "feasibility.calls",
            "serialize.calls")
TIMERS = ("matrices.product_s", "matrices.inverse_s", "matrices.det_s",
          "symplectic.form_check_s", "tropical.tropicalize_s", "sampling.s",
          "weights.cone_test_s", "weights.schur_s", "weights.kostka_s",
          "feasibility.s", "serialize.s")


def _role(layer, owner, name):
    """(counter, inclusive timer) fed by a call; either may be None."""
    key = f"{owner}.{name}" if owner else name
    if layer == "fields":
        if name in ELEM_OPS:
            return "fields.elem_ops", None
        if key == "FieldSpec.element":
            return "fields.coercions", None
    if layer == "fractions" and name == "__new__":
        return "fractions.created", None
    if layer == "matrices":
        return {"FieldMatrix.__mul__": ("matrices.products", "matrices.product_s"),
                "FieldMatrix.inverse": ("matrices.inverses", "matrices.inverse_s"),
                "FieldMatrix.determinant": ("matrices.determinants", "matrices.det_s"),
                }.get(key, (None, None))
    if layer == "symplectic" and name == "is_symplectic":
        return "symplectic.form_checks", "symplectic.form_check_s"
    if layer == "tropical":
        if name in ("stabilizes_tropically", "valuation_inequality_oracle"):
            return "tropical.predicate_calls", None
        if name == "tropicalize":
            return None, "tropical.tropicalize_s"
    if layer in ("apartment", "compactification", "serialize", "feasibility"):
        return f"{layer}.calls", {"serialize": "serialize.s",
                                  "feasibility": "feasibility.s"}.get(layer)
    if layer == "sampling":
        return ("sampling.draws" if name in SAMPLER_DRAWS else None), "sampling.s"
    if layer == "weights":
        if key in ("Cone.contains", "normal_cone_member"):
            return "weights.cone_tests", "weights.cone_test_s"
        if name.startswith("schur_eval"):
            return None, "weights.schur_s"
        if name == "kostka_number":
            return None, "weights.kostka_s"
    return None, None


class Tracer:
    """Install with ``with tracer:``; totals accumulate over every use."""

    def __init__(self):
        self.self_s = dict.fromkeys(SELF_TIMES, 0.0)
        self.inclusive = dict.fromkeys(TIMERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = self._plan()

    def _span(self, fn, layer, count, incl):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        depth, inclusive = self._depth, self.inclusive
        computes_det = count == "matrices.determinants"

        def traced(*args, **kwargs):
            if count and not (computes_det and args[0]._det is not None):
                counts[count] += 1
            if incl:
                depth[incl] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if incl:
                    depth[incl] -= 1
                    if not depth[incl]:
                        inclusive[incl] += elapsed

        return traced

    def _counted(self, fn, count):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return counted

    def _plan(self):
        """(owner, attribute, original, replacement) for every wrapped callable."""
        plan = []
        modules = {f"tropstab.{layer}": sys.modules[f"tropstab.{layer}"] for layer in LAYERS}
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tropstab" or name.startswith("tropstab."))]
        for layer, (modname, mod) in zip(LAYERS, modules.items()):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname \
                        and not name.startswith("_"):
                    wrapper = self._span(obj, layer, *_role(layer, None, name))
                    plan.extend((h, attr, obj, wrapper) for h in holders
                                for attr, val in vars(h).items() if val is obj)
                elif inspect.isclass(obj) and obj.__module__ == modname \
                        and not issubclass(obj, BaseException):
                    plan.extend(self._class_plan(obj, layer))
        plan.extend(self._class_plan(fractions.Fraction, "fractions"))
        return plan

    def _class_plan(self, cls, layer):
        plan = []
        for name, raw in vars(cls).items():
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder:
                continue
            if name in SKIP and not (name == "__new__" and layer == "fractions"):
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            if cls.__name__ == "FieldSpec" and name == "__eq__":
                wrapper = self._counted(fn, "fields.spec_compares")
            else:
                wrapper = self._span(fn, layer, *_role(layer, cls.__name__, name))
            plan.append((cls, name, raw, kind(wrapper) if kind else wrapper))
        return plan

    def __enter__(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        return False
