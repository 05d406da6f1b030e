"""Span tracer that wraps the public entry points of each banachlim layer.

The wrappers live entirely in the benchmark: nothing inside ``src/`` is
edited.  Because the package uses ``from .space import norm_eval``-style
imports, each wrapper is rebound in every ``banachlim.*`` module namespace
that holds the same function object; class entry points are wrapped on the
class.  Every wrapped call records one span (name, start, end, parent span,
job id) in memory; counters derived from call arguments or results are kept
next to the spans.  ``Tracer.uninstall`` restores the original objects, so
untraced runs execute the program exactly as shipped.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict


_LP_KIND = {"1": "l1", "2": "l2", "inf": "linf"}


def _norm_kind(args, kwargs):
    spec = (args[0] if args else kwargs["space"]).spec
    return _LP_KIND[spec.p] if spec.kind == "lp" else spec.kind


def _lp_cells(args, kwargs):
    c, A = args[0], args[1]
    return len(A) * len(c)


def _mat_vec_mults(args, kwargs):
    A, x = args[0], args[1]
    return len(A) * len(x)


def _mat_mul_mults(args, kwargs):
    A, B = args[0], args[1]
    return len(A) * len(B) * (len(B[0]) if B else 0)


# (module, attribute, span name, counters).  A counter is
# (name suffix, source, fn): source "args" calls fn(args, kwargs), "result"
# calls fn(result); a suffix ending in "." gets fn's value appended as a key
# and counts 1.  Class entry points are given as "Class.method".
TARGETS = [
    ("simplex", "LinearProgram.solve", "simplex.solve",
     [("infeasible", "result", lambda r: int(r[0] == "infeasible"))]),
    ("space", "norm_eval", "space.norm_eval",
     [("calls.", "args", _norm_kind)]),
    ("space", "ball_extreme_points", "space.extreme_points",
     [("points", "result", len)]),
    ("space", "hpoly_space", "space.build", []),
    ("space", "vpoly_space", "space.build", []),
    ("linmap", "operator_norm", "linmap.operator_norm", []),
    ("linmap", "min_norm_preimage", "linmap.min_norm_preimage", []),
    ("linmap", "is_quotient_map", "linmap.verdict", []),
    ("linmap", "is_isometric_embedding", "linmap.verdict", []),
    ("linalg", "mat_vec", "linalg.mat_vec",
     [("mults", "args", _mat_vec_mults)]),
    ("linalg", "rank", "linalg.elim", []),
    ("linalg", "solve", "linalg.elim", []),
    ("linalg", "nullspace", "linalg.elim", []),
    ("linalg", "inverse", "linalg.elim", []),
    ("linalg", "column_space_basis", "linalg.elim", []),
    ("linalg", "is_psd", "linalg.elim", []),
    ("systems", "compatible_from_tail", "systems.compatible_from_tail",
     [("stages", "result", lambda cv: len(cv.stages))]),
    ("systems", "CompatibleVector.__post_init__",
     "systems.compatible_vector", []),
    ("systems", "stage_norms", "systems.stage_norms", []),
    ("systems", "SubspaceGenerator.__init__", "systems.generator", []),
    ("curves", "scale_gap", "curves.scale_gap", []),
    ("curves", "difference_quotient", "curves.difference_quotient", []),
    ("determining", "eps_determining_search", "determining.search",
     [("evaluations", "result", lambda r: r.evaluations)]),
    ("determining", "eps_determining_certify", "determining.certify",
     [("points", "result", lambda r: r.points_checked),
      ("refinements", "result", lambda r: r.refinements)]),
    ("determining", "verify_pair", "determining.verify_pair",
     [("hits", "result", lambda r: int(r is not None))]),
    ("determining", "dp_diagnostic", "determining.diagnostics", []),
    ("determining", "anp_diagnostic", "determining.diagnostics", []),
    ("determining", "equivalence_witness", "determining.diagnostics", []),
    ("scalar", "sqrt_bracket", "scalar.sqrt_bracket", []),
    ("scalar", "parse_scalar", "scalar.io", []),
    ("scalar", "format_scalar", "scalar.io", []),
    ("cli", "main", "cli.main",
     [("exit.", "result", lambda code: code)]),
]

# Counters kept without a span: they sit inside a spanned call whose self
# time they would otherwise split.
COUNT_ONLY = [
    ("simplex", "solve_standard", "simplex.solve.cells", _lp_cells),
    ("linalg", "mat_mul", "linalg.mat_mul.mults", _mat_mul_mults),
]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self._restore = []

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, name, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            for suffix, source, get in counters:
                if source == "args":
                    _bump(counts, name, suffix, get(args, kwargs))
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None,
                    self.job]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            counts[name + ".calls"] += 1
            for suffix, source, get in counters:
                if source == "result":
                    _bump(counts, name, suffix, get(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key, get):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += get(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, attr, name, counters in TARGETS:
            self._wrap(module, attr,
                       functools.partial(self._span_wrapper, name=name,
                                         counters=counters))
        for module, attr, key, get in COUNT_ONLY:
            self._wrap(module, attr,
                       functools.partial(self._count_wrapper, key=key,
                                         get=get))

    def _wrap(self, module, attr, make):
        owner = importlib.import_module("banachlim." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, make(original))
            self._restore.append((cls, meth, original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "banachlim"
                                     or name.startswith("banachlim.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
                    self._restore.append((other, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Seconds per span name, each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals


def _bump(counts, name, suffix, value):
    if suffix.endswith("."):
        counts[f"{name}.{suffix}{value}"] += 1
    else:
        counts[f"{name}.{suffix}"] += value
