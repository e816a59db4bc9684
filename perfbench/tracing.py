"""Per-layer trace taken from outside the library.

Each listed public function is wrapped, and the wrapper is swapped into
every ``icis`` module namespace that holds the original object.  ``cli``
imports names directly and internal calls go through module globals, so
both kinds of call are caught.  Spans (name, start, end, parent span,
problem id, extra) are kept in memory and turned into per-layer metrics
when the run ends.  ``own_s`` adds up the seconds spent in the wrappers
outside the wrapped calls: the tracer's own cost.  ``orders`` has no public call boundary: its cost
shows in ``basis`` self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

# (module, attribute): the layer boundaries that are traced
TARGETS = [
    ("problem", "parse_problem"),
    ("cli", "run_problem"),
    ("germs", "hypersurface_milnor"),
    ("germs", "icis_milnor"),
    ("germs", "function_on_icis_milnor"),
    ("germs", "discriminant"),
    ("families", "critical_locus_report"),
    ("families", "converges_to_origin"),
    ("families", "greuel_conditions"),
    ("families", "splitting_check"),
    ("families", "conservation_check"),
    ("families", "radical_implies_axis_check"),
    ("families", "zero_fiber_forces_origin_check"),
    ("ideals", "IdealPresentation.basis"),
    ("ideals", "elimination_ideal"),
    ("ideals", "radical_membership"),
    ("ideals", "distinct_point_count"),
    ("ideals", "univariate_eliminant"),
    ("ideals", "maximal_minors"),
    ("basis", "complete_basis"),
    ("basis", "colength"),
    ("basis", "normal_form"),
    ("poly", "gcd"),
    ("poly", "squarefree_part"),
]

ORDER_KINDS = ("negdegrevlex", "grevlex", "block", "lex")
FRACTION_OPS = ("_add", "_sub", "_mul", "_div")

NAME, START, END, PARENT, PROBLEM, EXTRA = range(6)


def _coeff_bits(sb):
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for g in sb.generators for c in g.terms.values()), default=0)


def _basis_extra(bound, result):
    out = {"kind": bound.arguments["order"].kind}
    if result is not None:  # None when the call was cut off by the cap
        out.update(steps=result.steps_used, bits=_coeff_bits(result))
    return out


def _report_key(bound, result):
    fam = bound.arguments["fam"]
    return {"key": repr((str(fam.F), [str(p) for p in fam.Phi or ()],
                         Fraction(bound.arguments["t0"])))}


def _certificate_key(bound, result):
    a = bound.arguments
    return {"key": repr(([str(g) for g in a["parametric_ideal"].generators],
                         a["param"], list(a["x_vars"])))}


EXTRAS = {
    "basis.complete_basis": _basis_extra,
    "families.critical_locus_report": _report_key,
    "families.converges_to_origin": _certificate_key,
}


class Tracer:
    """Installs the wrappers; ``spans`` holds one list per call."""

    def __init__(self):
        self.spans = []
        self.problem = None
        self.own_s = 0.0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            span = [name, None, None, stack[-1] if stack else -1, self.problem, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if extra:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[EXTRA] = extra(bound, result)
                self.own_s += span[START] - enter + time.perf_counter() - span[END]

        return wrapper

    def install(self):
        import icis.cli  # noqa: F401  (loads every icis module)

        modules = [m for n, m in sys.modules.items() if n == "icis" or n.startswith("icis.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"icis.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{mod_name}.{attr}", original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def layer_metrics(spans):
    """Per-layer counts and seconds from a list of spans."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    distinct = {}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", dur - child_s[i])
        extra = s[EXTRA] or {}
        if "key" in extra:
            distinct.setdefault(name, set()).add((s[PROBLEM], extra["key"]))
        if name == "basis.complete_basis":
            kind = extra["kind"]
            add(f"{name}.calls.{kind}", 1)
            add(f"{name}.self_s.{kind}", dur - child_s[i])
            add(f"{name}.steps.{kind}", extra.get("steps", 0))
            m["basis.peak_coeff_bits"] = max(m.get("basis.peak_coeff_bits", 0), extra.get("bits", 0))
        if name == "ideals.IdealPresentation.basis":
            # a cache hit completes no basis of its own
            add(f"{name}.hits", 0 if child_s[i] else 1)
    for name, keys in distinct.items():
        m[f"{name}.distinct"] = len(keys)
    return m


def profile_counts(stats):
    """Fraction arithmetic and math.gcd call counts from a pstats table."""
    ops = new = gcds = 0
    for (filename, _, func), (_, ncalls, *_rest) in stats.items():
        if filename.endswith("fractions.py"):
            if func in FRACTION_OPS:
                ops += ncalls
            elif func == "__new__":
                new += ncalls
        elif func == "<built-in method math.gcd>":
            gcds += ncalls
    return {"poly.fraction_ops": ops, "poly.fraction_new": new, "poly.math_gcd_calls": gcds}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [("problem.parse_problem.calls", "count"), ("problem.parse_problem.s", "s"),
           ("cli.run_problem.self_s", "s")]
    for f in ("hypersurface_milnor", "icis_milnor", "function_on_icis_milnor", "discriminant"):
        out += [(f"germs.{f}.calls", "count"), (f"germs.{f}.s", "s")]
    for f in ("critical_locus_report", "converges_to_origin"):
        out += [(f"families.{f}.calls", "count"), (f"families.{f}.distinct", "count"),
                (f"families.{f}.s", "s")]
    for f in ("greuel_conditions", "splitting_check", "conservation_check",
              "radical_implies_axis_check", "zero_fiber_forces_origin_check"):
        out.append((f"families.{f}.s", "s"))
    out += [("ideals.IdealPresentation.basis.calls", "count"),
            ("ideals.IdealPresentation.basis.hits", "count")]
    for f in ("elimination_ideal", "radical_membership", "distinct_point_count",
              "univariate_eliminant", "maximal_minors"):
        out += [(f"ideals.{f}.calls", "count"), (f"ideals.{f}.s", "s")]
    for kind in ORDER_KINDS:
        out += [(f"basis.complete_basis.calls.{kind}", "count"),
                (f"basis.complete_basis.self_s.{kind}", "s"),
                (f"basis.complete_basis.steps.{kind}", "count")]
    out += [("basis.peak_coeff_bits", "bits"), ("basis.colength.s", "s"),
            ("basis.normal_form.calls", "count"), ("poly.gcd.calls", "count"),
            ("poly.gcd.s", "s"), ("poly.squarefree_part.s", "s"),
            ("poly.fraction_ops", "count"), ("poly.fraction_new", "count"),
            ("poly.math_gcd_calls", "count"), ("trace_overhead", "ratio")]
    return out
