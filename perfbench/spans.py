"""Spans and counts around calls into invsys, for the traced run only.

The tracer replaces every module binding of a traced public function (and a
few class attributes) with a wrapper that records a span: name, parent span,
start and end.  Spans stay in memory; self time is a span's duration minus
the durations of its direct children, which nest inside it because the
program is single-threaded.  Nothing under src/ changes, and uninstall()
puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from invsys.errors import UnboundedQuotientError

# (module, function) pairs whose every module-level binding gets a span.
FUNCTIONS = (
    ("groebner", "buchberger"),
    ("groebner", "is_regular"),
    ("groebner", "ideal_colon"),
    ("groebner", "ideal_intersect"),
    ("groebner", "artinian_bound"),
    ("groebner", "hilbert_data"),
    ("limitsys", "check_z_regularity"),
    ("limitsys", "artinian_reduction"),
    ("limitsys", "dual_tower"),
    ("limitsys", "section_lift"),
    ("limitsys", "verify_lis"),
    ("limitsys", "reconstruct"),
    ("duality", "perp_ideal"),
    ("duality", "perp_module"),
    ("duality", "minimal_cogenerators"),
    ("duality", "socle_basis"),
    ("linalg", "solve_in_span"),
    ("linalg", "intersect_spans"),
    ("linalg", "nullspace"),
    ("rees", "rees_dimension_check"),
    ("rees", "socle_product_check"),
    ("io", "parse_ideal_file"),
    ("io", "load_limit_system"),
    ("io", "render_lis_file"),
)

# (module, class, attribute, span name); Echelon.insert runs far too often
# for a span, so it is only counted.
METHODS = (
    ("groebner", "Ideal", "equals", "groebner.Ideal.equals"),
    ("groebner", "ArtinianQuotient", "__init__", "groebner.ArtinianQuotient"),
)
COUNTED = (("linalg", "Echelon", "insert", "linalg.Echelon.insert"),)


def _observe_result(name, result, args, exc, counts):
    """Counts that need the arguments or the result of a traced call."""
    if exc is not None:
        if name == "groebner.ArtinianQuotient" and isinstance(exc, UnboundedQuotientError):
            counts["groebner.ArtinianQuotient.unbounded"] += 1
        return
    if name == "groebner.buchberger":
        counts["groebner.buchberger.basis_len"] += len(result)
    elif name == "groebner.ArtinianQuotient":
        counts["groebner.ArtinianQuotient.std_monomials"] += len(args[0].std)
    elif name == "duality.perp_ideal":
        counts["duality.perp_ideal.dim"] += result.dim
    elif name == "limitsys.dual_tower":
        counts["limitsys.dual_tower.stages"] += len(result.modules)
    elif name == "limitsys.verify_lis":
        counts["limitsys.verify_lis.checks"] += len(result.checks)
    elif name == "limitsys.reconstruct":
        counts["limitsys.reconstruct.stage"] += result.stage
    elif name == "io.render_lis_file":
        counts["io.lis_bytes"] += len(result.encode())
    elif name == "io.load_limit_system":
        counts["io.lis_bytes"] += len(args[0].encode())


class Tracer:
    """In-memory span recorder; records only while `active` is true."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._undo = []

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        """fn(*args) inside a root span, with recording switched on."""
        self.active = True
        idx = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(idx)
            self.active = False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(idx)
                _observe_result(name, None, args, exc, tracer.counts)
                raise
            tracer._exit(idx)
            _observe_result(name, result, args, None, tracer.counts)
            return result

        return traced

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every binding named in FUNCTIONS, METHODS and COUNTED."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "invsys" or n.startswith("invsys.")]
        for modname, attr in FUNCTIONS:
            original = getattr(sys.modules[f"invsys.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for modname, cls, attr, name in METHODS:
            owner = getattr(sys.modules[f"invsys.{modname}"], cls)
            self._set(owner, attr, self._wrap(name, vars(owner)[attr]))
        for modname, cls, attr, name in COUNTED:
            owner = getattr(sys.modules[f"invsys.{modname}"], cls)
            self._set(owner, attr, self._count(name, vars(owner)[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self, first=0):
        """Self time per span name over the spans recorded from index first."""
        out = Counter()
        spans = self.spans
        for name, parent, start, end in spans[first:]:
            dur = end - start
            out[name] += dur
            if parent >= first:
                out[spans[parent][0]] -= dur
        return out
