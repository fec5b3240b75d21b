"""Spans and counters recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper at every
place it is bound: its home module, every `iwalab` module that imported it
by name (`from .kernels import bareiss_det`), and the class for methods.
Each call records a span (id, parent id, task, name, start, end, size) in
memory; a layer's self time is its span minus the spans of its children.
Kernel wrappers also add exact work counts derived from their arguments.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (span name, module, attribute path); methods are "Class.method".
TRACED = [
    ("kernels.smith_exponents", "iwalab.kernels", "smith_exponents"),
    ("kernels.det_mod", "iwalab.kernels", "det_mod"),
    ("kernels.charpoly_mod", "iwalab.kernels", "charpoly_mod"),
    ("kernels.bareiss_det", "iwalab.kernels", "bareiss_det"),
    ("padic.smith_form_raw", "iwalab.padic", "smith_form_raw"),
    ("series.weierstrass_prepare", "iwalab.series", "weierstrass_prepare"),
    ("series.twist_series", "iwalab.series", "twist_series"),
    ("series.det_mult_mod_omega", "iwalab.series", "det_mult_mod_omega"),
    ("gamma.series_matrix_det", "iwalab.gamma", "series_matrix_det"),
    ("exactint.poly_mat_det", "iwalab.exactint", "poly_mat_det"),
    ("exactint.sylvester_resultant", "iwalab.exactint", "sylvester_resultant"),
    ("exactint.gamma_h0_is_infinite", "iwalab.exactint", "gamma_h0_is_infinite"),
    ("gamma.euler_direct", "iwalab.gamma", "GammaModule.euler_direct"),
    ("gamma.euler_analytic", "iwalab.gamma", "GammaModule.euler_analytic"),
    ("gamma.find_twist", "iwalab.gamma", "find_twist"),
    ("crossed.euler_reduced", "iwalab.crossed", "CrossedModule.euler_reduced"),
    ("crossed.euler_akashi", "iwalab.crossed", "CrossedModule.euler_akashi"),
    ("crossed.group_ring_oracle", "iwalab.crossed", "CrossedModule.group_ring_oracle"),
    ("crossed.akashi_series", "iwalab.crossed", "CrossedModule.akashi_series"),
    ("crossed.find_twist_crossed", "iwalab.crossed", "find_twist_crossed"),
    ("problems.parse_problem", "iwalab.problems", "parse_problem"),
    ("problems.build_module", "iwalab.problems", "ProblemFile.build_module"),
    ("workbench.run", "iwalab.workbench", "run"),
    ("cli.main", "iwalab.cli", "main"),
]

KERNELS = ("smith_exponents", "det_mod", "charpoly_mod", "bareiss_det")


def _site_name(obj, attr):
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}.{attr}"
    return f"{obj.__name__}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self.counts = defaultdict(int)
        self.binding_sites = defaultdict(list)
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name, fn):
        kernel = name.split(".", 1)[1] if name.startswith("kernels.") else None
        saturation = name == "padic.smith_form_raw"
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = self._kernel_counts(kernel, args) if kernel else None
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.task, name, t0, t1, size))
            if saturation:
                counts["padic.smith_form_raw.saturated"] += result.has_at_least_n
            return result

        return traced

    def _kernel_counts(self, kernel, args):
        rows = args[0]
        n = len(rows)
        c = self.counts
        key = f"kernels.{kernel}"
        if kernel == "bareiss_det":
            bits = max((abs(v).bit_length() for row in rows for v in row), default=0)
            c[key + ".max_bits"] = max(c[key + ".max_bits"], bits)
            width = math.ceil(bits / 8)
        elif kernel == "charpoly_mod":
            width = math.ceil(math.log2(args[1]) / 8)
        else:
            width = math.ceil(args[2] * math.log2(args[1]) / 8)
        c[key + ".rank_max"] = max(c[key + ".rank_max"], n)
        c[key + ".cell_ops"] += n**4 if kernel == "charpoly_mod" else n**3
        c[key + ".residue_bytes"] += n * n * width
        return n

    def install(self):
        """Wrap every traced function at every binding site in loaded iwalab modules."""
        modules = [m for k, m in sys.modules.items() if k == "iwalab" or k.startswith("iwalab.")]
        for name, modname, attr in TRACED:
            owner = sys.modules[modname]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fname)
            wrapper = self._wrapper(name, original)
            sites = [(owner, fname)] if cls_path else []
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is original:
                        sites.append((mod, k))
            for obj, k in sites:
                self._restore.append((obj, k, original))
                setattr(obj, k, wrapper)
                self.binding_sites[name].append(_site_name(obj, k))

    def uninstall(self):
        for obj, k, original in reversed(self._restore):
            setattr(obj, k, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self, task_seconds: float, overhead: float, escalations: int):
        """Per-layer metrics over the recorded spans (self time = span minus children).

        `task_seconds` is the traced pass's total task time; `overhead` is that
        time over the untraced pass's (both scaled), minus 1.
        """
        child = defaultdict(float)
        for sid, parent, _task, _name, t0, t1, _size in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        covered = 0.0
        by_rank = defaultdict(lambda: [0, 0.0])
        for sid, parent, _task, name, t0, t1, size in self.spans:
            own = (t1 - t0) - child[sid]
            calls[name] += 1
            self_s[name] += own
            if parent is None:
                covered += t1 - t0
            if size is not None:
                cell = by_rank[(name, size)]
                cell[0] += 1
                cell[1] += own
        m = {}
        for name, _mod, _attr in TRACED:
            if name == "problems.build_module":
                continue
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
        c = self.counts
        for k in KERNELS:
            key = f"kernels.{k}"
            m[f"{key}.rank_max"] = (c[key + ".rank_max"], "rows")
            m[f"{key}.cell_ops"] = (c[key + ".cell_ops"], "count")
            m[f"{key}.residue_bytes"] = (c[key + ".residue_bytes"], "B")
        m["kernels.bareiss_det.max_bits"] = (c["kernels.bareiss_det.max_bits"], "bit")
        sf = calls["padic.smith_form_raw"]
        m["padic.smith_form_raw.saturated_ratio"] = (
            c["padic.smith_form_raw.saturated"] / sf if sf else 0.0,
            "ratio",
        )
        ak = calls["crossed.akashi_series"]
        m["crossed.akashi_series.hit_ratio"] = (
            1 - calls["kernels.charpoly_mod"] / ak if ak else 0.0,
            "ratio",
        )
        m["workbench.escalations"] = (escalations, "count")
        m["workbench.module_builds"] = (calls["problems.build_module"], "count")
        m["trace.covered_share"] = (covered / task_seconds, "ratio")
        m["trace.overhead_share"] = (overhead, "ratio")
        ranks = {
            f"{name}@{size}": {"calls": v[0], "self_s": v[1]}
            for (name, size), v in sorted(by_rank.items())
        }
        return m, ranks

    def span_records(self):
        for sid, parent, task, name, t0, t1, size in self.spans:
            yield {"id": sid, "parent": parent, "task": task, "name": name,
                   "start": t0, "end": t1, "size": size}
