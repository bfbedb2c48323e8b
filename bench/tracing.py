"""Spans around the package's public functions, patched in from outside.

Each traced function is replaced, for the length of a ``with patched(...)``
block, by a wrapper that records one span: name, start, end and the index
of the enclosing span.  Every binding of the function is replaced (the
defining module, each ``from .x import f`` copy in other package modules,
the package namespace, ``verify.CHECKS``), so calls between modules are
caught too.  Classes are never wrapped, because ``isinstance`` needs them.

Spans stay in flat arrays while tracing and are written out once, at the
end.  A span's self time is its duration minus the durations of its
direct children; one thread runs everything, so children never overlap.
"""

import json
import math
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

from workloads import groups_of, ref_ladder

# (layer, function): the layer is the package module the function lives in.
TARGETS = (
    ("verify", "run_all"),
    ("pricing", "evaluate_revenue"),
    ("pricing", "geometric_enum_approx"),
    ("pricing", "opt_udp_bruteforce"),
    ("pricing", "opt_smp_bruteforce"),
    ("pricing", "uniform_price_approx"),
    ("pricing", "approximation_scheme"),
    ("ratlp", "maximize"),
    ("reduction", "reduce_full"),
    ("reduction", "extract_semi_induced_matching"),
    ("csp_fglss", "max_sat_bruteforce"),
    ("csp_fglss", "gap_amplify"),
    ("csp_fglss", "fglss_build"),
    ("csp_fglss", "disperser_replace"),
    ("disperser", "verify_disperser"),
    ("disperser", "check_disperser_lemma"),
    ("disperser", "random_disperser"),
    ("graphs", "max_independent_set_bruteforce"),
    ("graphs", "max_induced_matching_bruteforce"),
    ("graphs", "max_semi_induced_matching_bruteforce"),
    ("graphs", "balanced_bipartite_independence_bruteforce"),
    ("matching_solvers", "exact_bipartite_induced_matching"),
    ("matching_solvers", "approx_induced_matching_bipartite"),
)

LAYERS = ("cli", "verify", "pricing", "ratlp", "reduction", "csp_fglss", "disperser",
          "graphs", "matching_solvers")


# Work each call must do, computed from its arguments (not counted by the
# program): (counter name, function of the call's arguments).
WORK = {
    "pricing.geometric_enum_approx": (
        "vectors", lambda inst, rule, alpha:
            len(ref_ladder(groups_of(inst), inst.item_count, Fraction(alpha))) ** inst.item_count),
    "pricing.opt_udp_bruteforce": (
        "vectors", lambda inst: (len({g.budget for g in inst.groups}) + 1) ** inst.item_count),
    "pricing.opt_smp_bruteforce": ("subsets", lambda inst: 2 ** len(inst.groups) - 1),
    "csp_fglss.max_sat_bruteforce": ("assignments", lambda csp: 2 ** csp.num_vars),
    "disperser.verify_disperser": (
        "subsets", lambda g, gamma: math.comb(g.left_count,
                                              math.ceil(Fraction(gamma) * g.left_count))),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.work = {}
        self.refused = dict.fromkeys(LAYERS, 0)
        self._stack = [-1]
        self._wrappers = {}

    def wrap(self, name: str, fn):
        """The span-recording stand-in for fn, made once per name."""
        if name not in self._wrappers:
            self._wrappers[name] = self._make_wrapper(name, fn)
        return self._wrappers[name]

    def _make_wrapper(self, name: str, fn):
        from matchprice.errors import CapExceeded

        name_id = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        work_name, work_of = WORK.get(name, (None, None))
        stack = self._stack
        name_append = self.name_of.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(end)
            name_append(name_id)
            parent_append(stack[-1])
            end_append(0)
            stack.append(index)
            start_append(now())
            try:
                result = fn(*args, **kwargs)
            except CapExceeded as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.refused[layer] += 1
                raise
            finally:
                end[index] = now()
                stack.pop()
            if work_of is not None:
                key = f"{name}.{work_name}"
                self.work[key] = self.work.get(key, 0) + work_of(*args, **kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, name_id in enumerate(self.name_of):
            entry = out[self.names[name_id]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child_ns[i]) / 1e9
        return out

    def write(self, path) -> None:
        spans = [
            [self.names[n], s, e, p]
            for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans},
                      handle, separators=(",", ":"))


@contextmanager
def patched(tracer: Tracer, extra_modules=()):
    """Replace every binding of each target (and of each verify check) by a span wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "matchprice" or name.startswith("matchprice.")]
    modules += list(extra_modules)
    replaced = []
    try:
        for layer, fname in TARGETS:
            original = getattr(sys.modules[f"matchprice.{layer}"], fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        checks = sys.modules["matchprice.verify"].CHECKS
        for key, fn in list(checks.items()):
            checks[key] = tracer.wrap(f"verify.check.{key}", fn)
            replaced.append((checks, key, fn))
        yield tracer
    finally:
        for namespace, key, original in reversed(replaced):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
