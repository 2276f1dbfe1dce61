"""Runtime spans and counters around the layer functions of chowline.

``Tracer.install`` replaces every binding of each traced function: the
module attribute where it is defined, every module that imported it by
value, and class attributes, including aliases such as
``__rmul__ = __mul__``.  Bindings are found by identity, so a name bound
in a module that the table below does not mention is wrapped as well.

Spans live in memory as parallel arrays (name, start, end, parent, case)
and are written out by ``Tracer.write_spans`` after the pass.  A layer's
self time is its span's duration minus the time covered by its direct
child spans; everything runs on one thread, so children never overlap.
"""

import importlib
import json
import sys
import time
from array import array

# Traced function -> (module, qualified name) of its definition.
FUNCTIONS = {
    "poly.mul": ("chowline.poly", "Poly.__mul__"),
    "poly.add": ("chowline.poly", "Poly.__add__"),
    "poly.apply_to": ("chowline.poly", "PowerSeries.apply_to"),
    "symfun.series_invert": ("chowline.symfun", "series_invert"),
    "symfun.to_chern_basis": ("chowline.symfun", "to_chern_basis"),
    "symfun.elem_sym": ("chowline.symfun", "elem_sym"),
    "chern_ring.segre_class": ("chowline.chern_ring", "segre_class"),
    "chern_ring.chern_from_segre": ("chowline.chern_ring", "chern_from_segre"),
    "charclass.evaluate_class_in_ring": ("chowline.charclass", "evaluate_class_in_ring"),
    "pushforward.tower_init": ("chowline.pushforward", "Tower.__init__"),
    "pushforward.towerclass_mul": ("chowline.pushforward", "TowerClass.__mul__"),
    "pushforward.from_poly": ("chowline.pushforward", "Tower.from_poly"),
    "pushforward.push_level": ("chowline.pushforward", "push_level"),
    "pushforward.integrate": ("chowline.pushforward", "integrate"),
    "dcoh.deligne_pairing_degree": ("chowline.dcoh", "deligne_pairing_degree"),
    "dcoh.pairing_degree_by_pushforward": ("chowline.dcoh", "pairing_degree_by_pushforward"),
    "picard.smith_normal_form": ("chowline.picard", "smith_normal_form"),
    "picard.picardify": ("chowline.picard", "picardify"),
    "cli.parse": ("chowline.cli", "parse"),
    "cli.series_report": ("chowline.cli", "series_report"),
    "cli.emit": ("chowline.cli", "emit"),
}

# Bindings that must exist; a refactor that drops one should update this
# table rather than silently lose the counts behind it.
EXPECTED_BINDINGS = {
    "poly.mul": {"Poly.__mul__", "Poly.__rmul__"},
    "poly.add": {"Poly.__add__", "Poly.__radd__"},
    "symfun.series_invert": {"chowline.symfun", "chowline.charclass",
                             "chowline.chern_ring"},
    "symfun.to_chern_basis": {"chowline.symfun", "chowline.chern_ring"},
    "pushforward.towerclass_mul": {"TowerClass.__mul__", "TowerClass.__rmul__"},
    "pushforward.integrate": {"chowline.pushforward", "chowline.dcoh"},
    "charclass.evaluate_class_in_ring": {"chowline.charclass",
                                         "chowline.pushforward"},
}

WORKLOADS = ("classes-dense", "towers-pairing", "cli-requests")

# Which layer functions each workload must call (1) and must not call (0);
# None leaves the count unasserted.  Order follows WORKLOADS.
PREDICTED = {
    "poly.mul": (1, 1, 1),
    "poly.add": (1, 1, 1),
    "poly.apply_to": (1, 1, 1),
    # The grr integrand inverts the trivial line of the relative tangent
    # bundle, so towers-pairing makes a few trivial inversions.
    "symfun.series_invert": (1, None, 1),
    "symfun.to_chern_basis": (0, 0, 1),
    "symfun.elem_sym": (1, 0, 1),
    "chern_ring.segre_class": (1, 0, 1),
    "chern_ring.chern_from_segre": (1, 0, 0),
    "charclass.evaluate_class_in_ring": (1, 1, 1),
    "pushforward.tower_init": (0, 1, 1),
    "pushforward.towerclass_mul": (0, 1, 1),
    "pushforward.from_poly": (0, 1, 1),
    "pushforward.push_level": (0, 1, 1),
    "pushforward.integrate": (0, 1, 1),
    "dcoh.deligne_pairing_degree": (0, 1, 1),
    "dcoh.pairing_degree_by_pushforward": (0, 1, 1),
    "picard.smith_normal_form": (0, 0, 1),
    "picard.picardify": (0, 0, 1),
    "cli.parse": (0, 0, 1),
    "cli.series_report": (0, 0, 1),
    "cli.emit": (0, 0, 1),
}

# Metrics that are counts of work and must repeat exactly for one seed.
EXTRA_COUNTS = ("poly.mul.term_pairs", "poly.mul.out_terms", "poly.peak_terms",
                "picard.smith_normal_form.max_dim",
                "picard.smith_normal_form.max_entry_bits")


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "poly.mul.term_pairs": "count",
        "poly.mul.out_terms": "count",
        "poly.mul.yield": "ratio",
        "poly.peak_terms": "count",
        "picard.smith_normal_form.max_dim": "count",
        "picard.smith_normal_form.max_entry_bits": "bits",
        "trace.overhead_s": "s",
    })
    return units


def exact_count_names():
    return [f"{name}.calls" for name in FUNCTIONS] + list(EXTRA_COUNTS)


class Tracer:
    """Spans and counters of one pass.  Wrappers record only while
    ``active`` is set, which ``enabled`` tracers do around each case."""

    def __init__(self, enabled=False):
        self.names = list(FUNCTIONS)
        self.enabled = enabled
        self.active = False
        self.case = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.term_pairs = 0
        self.out_terms = 0
        self.peak_terms = 0
        self.snf_max_dim = 0
        self.snf_max_bits = 0
        self.bindings = {name: set() for name in FUNCTIONS}
        self._restore = []

    # -- installation ----------------------------------------------------------

    def install(self):
        originals = {}
        for index, (name, (module, qualname)) in enumerate(FUNCTIONS.items()):
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            originals[id(obj)] = (index, name, obj)
        wrappers = {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chowline" or n.startswith("chowline.")]
        for module in modules:
            self._wrap_namespace(module, module.__name__, originals, wrappers)
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_namespace(value, value.__name__, originals, wrappers)
        for name, expected in EXPECTED_BINDINGS.items():
            missing = expected - self.bindings[name]
            if missing:
                raise RuntimeError(f"{name}: no binding found at {sorted(missing)}")
        for name, found in self.bindings.items():
            if not found:
                raise RuntimeError(f"{name}: the traced function was not found")

    def _wrap_namespace(self, namespace, label, originals, wrappers):
        for attr, value in list(vars(namespace).items()):
            entry = originals.get(id(value))
            if entry is None or entry[2] is not value:
                continue
            index, name, func = entry
            if id(func) not in wrappers:
                wrappers[id(func)] = self._wrapper(index, name, func)
            setattr(namespace, attr, wrappers[id(func)])
            self._restore.append((namespace, attr, func))
            site = f"{label}.{attr}" if isinstance(namespace, type) else label
            self.bindings[name].add(site)

    def uninstall(self):
        for namespace, attr, func in reversed(self._restore):
            setattr(namespace, attr, func)
        self._restore = []

    def _wrapper(self, index, name, func):
        tracer = self
        clock = time.perf_counter
        names, parents, cases = self.span_name, self.span_parent, self.span_case
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def enter():
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            cases.append(tracer.case)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            return span

        def leave(span):
            ends[span] = clock()
            stack.pop()

        if name == "poly.mul":
            def wrapped(a, b):
                if not tracer.active:
                    return func(a, b)
                span = enter()
                try:
                    out = func(a, b)
                finally:
                    leave(span)
                terms = getattr(b, "terms", None)
                tracer.term_pairs += len(a.terms) * (1 if terms is None else len(terms))
                tracer.out_terms += len(out.terms)
                if len(out.terms) > tracer.peak_terms:
                    tracer.peak_terms = len(out.terms)
                return out
        elif name == "poly.add":
            def wrapped(a, b):
                if not tracer.active:
                    return func(a, b)
                span = enter()
                try:
                    out = func(a, b)
                finally:
                    leave(span)
                if len(out.terms) > tracer.peak_terms:
                    tracer.peak_terms = len(out.terms)
                return out
        elif name == "picard.smith_normal_form":
            def wrapped(matrix):
                if not tracer.active:
                    return func(matrix)
                span = enter()
                try:
                    out = func(matrix)
                finally:
                    leave(span)
                _, U, V = out
                tracer.snf_max_dim = max(tracer.snf_max_dim, len(U), len(V))
                bits = max((abs(x).bit_length() for M in (U, V)
                            for row in M for x in row), default=0)
                tracer.snf_max_bits = max(tracer.snf_max_bits, bits)
                return out
        else:
            def wrapped(*args, **kwargs):
                if not tracer.active:
                    return func(*args, **kwargs)
                span = enter()
                try:
                    return func(*args, **kwargs)
                finally:
                    leave(span)
        wrapped.__name__ = getattr(func, "__name__", name)
        wrapped.__wrapped__ = func
        return wrapped

    # -- results -----------------------------------------------------------------

    def metrics(self):
        """Per-layer calls and self time, plus the work counters."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out["poly.mul.term_pairs"] = self.term_pairs
        out["poly.mul.out_terms"] = self.out_terms
        out["poly.mul.yield"] = (self.out_terms / self.term_pairs
                                 if self.term_pairs else 0.0)
        out["poly.peak_terms"] = self.peak_terms
        out["picard.smith_normal_form.max_dim"] = self.snf_max_dim
        out["picard.smith_normal_form.max_entry_bits"] = self.snf_max_bits
        return out

    def write_spans(self, path):
        """Write the spans as JSON lines: name, start, end, parent, case."""
        with open(path, "w") as handle:
            for i in range(len(self.span_name)):
                handle.write(json.dumps([
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_case[i]]))
                handle.write("\n")


def check_predictions(workload, metrics):
    """Messages for every counter that contradicts the prediction table."""
    column = WORKLOADS.index(workload)
    problems = []
    for name, row in PREDICTED.items():
        want = row[column]
        calls = metrics[f"{name}.calls"]
        if want == 1 and calls == 0:
            problems.append(f"{name} predicted in use on {workload}, 0 calls")
        if want == 0 and calls != 0:
            problems.append(f"{name} predicted unused on {workload}, {calls} calls")
    return problems
