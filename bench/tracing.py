"""Per-layer work counters and self time, recorded from outside the package.

``Tracer.install()`` replaces the public functions and methods of each
package module with wrappers that keep a stack of layers.  On every entry
and exit the time since the last event is charged to the layer on top of
the stack, so each layer's total is its self time: time spent in its own
code, not in the layers it calls.  Work done by a function that is not
wrapped is charged to the nearest wrapped caller.  Hooks that compute
counters run after the callee's clock stops, and their cost is charged to
a separate ``trace`` bucket.

Per-call layers (scalars, superpoly, operators) are aggregated, never
recorded one span per call: a (2,1) job makes millions of such calls.
Spans are kept only at the job, suite-group (``check_*``) and
``op_eq_on_basis`` boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from fractions import Fraction

_ONE_DEN = {0: 1}

# (module, owner class or None, attribute names) per layer.  Only names
# that cross a layer boundary or carry a counter are wrapped.
TARGETS = {
    "scalars": [
        ("scalars", "RingElem", ("__add__", "__sub__", "__neg__", "__mul__",
                                 "__truediv__", "__pow__", "__eq__",
                                 "eval_q1", "render")),
        ("scalars", None, ("qpow", "qnum", "qfactorial")),
    ],
    "superpoly": [
        ("superpoly", None, ("mul_coord", "grassmann_remove", "mono_dec",
                             "mono_exp", "poly_add_term", "poly_add",
                             "poly_sub", "poly_scale", "poly_eq",
                             "mono_render", "poly_render")),
    ],
    "operators": [
        ("operators", "OpExpr", ("apply_monomial", "scale", "__add__",
                                 "parity", "render")),
        ("operators", "SumOp", ("apply_monomial", "scale", "parity")),
        ("operators", "ProductOp", ("apply_monomial", "scale", "parity")),
        ("operators", "Operator", ("apply", "compose", "__add__", "power")),
        ("operators", None, ("graded_commutator", "op_eq_on_basis")),
    ],
    "algebra": [
        ("algebra", None, ("build_root_data", "build_quantum",
                           "build_classical", "build_xminus",
                           "q_exponential", "check_linform_identities")),
        ("algebra", "GeneratorSet", ("t_inv",)),
    ],
    "grammar": [
        ("grammar", None, ("parse_linform", "parse_opexpr")),
    ],
    "verify": [
        ("verify", None, ("run_full", "check_cartan_relations", "check_serre",
                          "check_aux", "check_weight_conjugation",
                          "check_heisenberg", "check_highest_weight")),
    ],
    "cli": [
        ("cli", None, ("main",)),
    ],
}

# Functions whose calls are only counted, by counter name.
COUNTED = {name: "superpoly.%s_calls" % name
           for name in ("mul_coord", "grassmann_remove", "mono_dec")}

# Plain dicts with every key present: a ``Counter`` update costs several
# times more, and the wrappers make millions of them per job.
COUNTERS = ("scalars.results", "scalars.mul_calls", "scalars.add_calls",
            "scalars.neg_calls", "scalars.nonunit_den",
            "scalars.general_den", "scalars.fraction_coeff",
            "superpoly.mul_coord_calls", "superpoly.grassmann_remove_calls",
            "superpoly.mono_dec_calls", "superpoly.poly_add_term_calls",
            "superpoly.poly_add_term_cancels", "operators.apply_calls",
            "operators.apply_repeats", "operators.basis_probes",
            "operators.eq_calls", "operators.eq_early_exits")
PEAKS = ("scalars.num_terms", "operators.poly_terms")

SPAN_FUNCS = {"op_eq_on_basis", "check_cartan_relations", "check_serre",
              "check_aux", "check_weight_conjugation", "check_heisenberg",
              "check_highest_weight"}


class Tracer:
    """Layer self time, work counters and coarse spans for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = ["bench"]
        self.mark = [self.clock()]
        self.self_s = dict.fromkeys(("bench", "trace", *TARGETS), 0.0)
        self.count = dict.fromkeys(COUNTERS, 0)
        self.peak = dict.fromkeys(PEAKS, 0)
        self.spans = []          # [name, start, end, parent index]
        self._open = []          # indices of open spans
        self._patches = []       # (owner, name, original)
        self._seen = set()       # (node id, monomial) applied in this job
        self._alive = {}         # keeps nodes alive so ids are not reused
        self._den_kind = {}      # frozen denominator -> not a power of s
        self.missing = []        # targets the package does not define

    # -- spans --------------------------------------------------------------

    def _span_open(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def _span_close(self):
        self.spans[self._open.pop()][2] = self.clock()

    @contextlib.contextmanager
    def job(self):
        """A span around one job; also starts a fresh repeat window."""
        self._seen.clear()
        self._alive.clear()
        self._span_open("job")
        try:
            yield
        finally:
            self._span_close()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        stack, mark, clock = self.stack, self.mark, self.clock
        acc = self.self_s
        hook = getattr(self, "_after_" + name.strip("_"), None)
        counter = COUNTED.get(name)
        count = self.count
        if name in SPAN_FUNCS:
            tracer = self

            def wrapper(*args, **kwargs):
                now = clock()
                acc[stack[-1]] += now - mark[0]
                stack.append(layer)
                tracer._span_open(name)
                mark[0] = now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    acc[layer] += now - mark[0]
                    stack.pop()
                    tracer._span_close()
                    mark[0] = now
                if hook is not None:
                    hook(layer, args, result)
                return result
        elif hook is not None:
            def wrapper(*args, **kwargs):
                now = clock()
                acc[stack[-1]] += now - mark[0]
                stack.append(layer)
                mark[0] = now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    acc[layer] += now - mark[0]
                    stack.pop()
                    mark[0] = now
                hook(layer, args, result)
                now = clock()
                acc["trace"] += now - mark[0]
                mark[0] = now
                return result
        else:
            def wrapper(*args, **kwargs):
                now = clock()
                acc[stack[-1]] += now - mark[0]
                stack.append(layer)
                mark[0] = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    acc[layer] += now - mark[0]
                    stack.pop()
                    mark[0] = now
                    if counter is not None:
                        count[counter] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; rebind names other modules imported.

        A target the package no longer defines is skipped and listed in
        ``missing``, so its counters read 0 instead of the run failing.
        """
        mods = {m: importlib.import_module("qsuperalg." + m)
                for m in ("scalars", "superpoly", "operators", "algebra",
                          "grammar", "verify", "cli")}
        mods["package"] = importlib.import_module("qsuperalg")
        for layer, groups in TARGETS.items():
            for mod, owner, names in groups:
                for name in names:
                    where = mods[mod] if owner is None \
                        else getattr(mods[mod], owner, None)
                    if where is None or name not in vars(where):
                        self.missing.append("%s.%s" % (owner or mod, name))
                        continue
                    fn = vars(where)[name]
                    w = self._wrap(layer, name, fn)
                    if owner is not None:
                        self._patches.append((where, name, fn))
                        setattr(where, name, w)
                        continue
                    for other in mods.values():
                        for attr, val in list(vars(other).items()):
                            if val is fn:
                                self._patches.append((other, attr, fn))
                                setattr(other, attr, w)
        gen = getattr(mods["operators"], "basis_monomials", None)
        if gen is None:
            self.missing.append("operators.basis_monomials")
            return
        count = self.count

        def basis_monomials(*args, **kwargs):
            for mono in gen(*args, **kwargs):
                count["operators.basis_probes"] += 1
                yield mono

        self._patches.append((mods["operators"], "basis_monomials", gen))
        mods["operators"].basis_monomials = basis_monomials

    def uninstall(self):
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()
        now = self.clock()
        self.self_s[self.stack[-1]] += now - self.mark[0]
        self.mark[0] = now

    # -- counter hooks (run after the callee's clock stops) -----------------

    def _scalar_result(self, r):
        c = self.count
        c["scalars.results"] += 1
        n = len(r.num)
        if n > self.peak["scalars.num_terms"]:
            self.peak["scalars.num_terms"] = n
        den = r.den
        if den != _ONE_DEN:
            key = tuple(sorted(den.items()))
            kind = self._den_kind.get(key)
            if kind is None:
                kind = self._den_kind[key] = r.denom_pow is None
            c["scalars.nonunit_den"] += 1
            c["scalars.general_den"] += kind
        if Fraction in set(map(type, r.num.values())) \
                or Fraction in set(map(type, den.values())):
            c["scalars.fraction_coeff"] += 1

    def _after_mul(self, layer, args, result):
        self.count["scalars.mul_calls"] += 1
        self._scalar_result(result)

    def _after_add(self, layer, args, result):
        if layer == "scalars":
            self.count["scalars.add_calls"] += 1
            self._scalar_result(result)

    def _after_neg(self, layer, args, result):
        self.count["scalars.neg_calls"] += 1
        self._scalar_result(result)

    def _after_poly_add_term(self, layer, args, result):
        self.count["superpoly.poly_add_term_calls"] += 1
        poly, mono, coeff = args
        if mono not in poly and not coeff.is_zero():
            self.count["superpoly.poly_add_term_cancels"] += 1

    def _after_apply_monomial(self, layer, args, result):
        c = self.count
        c["operators.apply_calls"] += 1
        node, mono = args[0], args[1]
        key = (id(node), mono)
        if key in self._seen:
            c["operators.apply_repeats"] += 1
        else:
            self._seen.add(key)
            self._alive[id(node)] = node
        if len(result) > self.peak["operators.poly_terms"]:
            self.peak["operators.poly_terms"] = len(result)

    def _after_op_eq_on_basis(self, layer, args, result):
        self.count["operators.eq_calls"] += 1
        if not result[0]:
            self.count["operators.eq_early_exits"] += 1

    # -- report -------------------------------------------------------------

    def summary(self):
        """Counters, per-layer self seconds, a span table, missing targets."""
        table = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for k, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[k]
        return {"count": dict(self.count), "peak": dict(self.peak),
                "self_s": dict(self.self_s), "spans": table,
                "missing": self.missing}
