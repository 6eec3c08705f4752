"""Spans around fuzzydea's public functions, and the per-layer metrics.

The program is not changed: ``Tracer.install`` rebinds each traced name
in every module that looks it up (``from ... import`` copies a name into
the caller's module), and ``uninstall`` puts the originals back.  Spans
are kept in memory as [name, start, end, parent, extra] and written out
when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  The module is the one whose global is
# rebound, i.e. the caller's module, not the one that defines the name.
TRACED = (
    ("cli", "load_dataset_path", "dataio.load"),
    ("cli", "write_report", "dataio.render"),
    ("cli", "alphacut_scores", "alphacut.scores"),
    ("cli", "modal_reduce", "alphacut.reduce"),
    ("cli", "ccr_efficiency", "ccr.efficiency"),
    ("cli", "evaluate_all", "mofdea.evaluate_all"),
    ("cli", "z_star", "mofdea.z_star"),
    ("alphacut", "alphacut_reduce", "alphacut.reduce"),
    ("alphacut", "pessimistic_reduce", "alphacut.reduce"),
    ("alphacut", "ccr_efficiency", "ccr.efficiency"),
    ("mofdea", "solve_mo", "mofdea.solve_mo"),
    ("mofdea", "z_star", "mofdea.z_star"),
    ("mofdea", "reduced_data", "mofdea.reduce"),
    ("mofdea", "ccr_efficiency", "ccr.efficiency"),
    ("ccr", "LpProblem", "linprog.problem"),
    ("ccr", "solve", "linprog.solve"),
    ("linprog", "default_pivot_loop", "speedups.kernel"),
)

MO_SOLVE = ("mofdea.evaluate_all", "mofdea.solve_mo", "mofdea.z_star")


def _kernel_extra(args, out):
    rows, cols = args[0].shape
    return (rows, cols, out[1])


EXTRA = {
    "speedups.kernel": _kernel_extra,
    "dataio.render": lambda args, out: len(out.encode("utf-8")),
    "mofdea.solve_mo": lambda args, out: out.iterations,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, out)
            return out

        return traced

    def install(self, modules):
        """Rebind every TRACED name; modules maps short names to modules."""
        for mod_name, attr, span in TRACED:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def layer_metrics(spans, wall_s):
    """Per-layer times and counts of one traced round whose wall time is wall_s."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    kernels_of = defaultdict(list)  # solve span -> its kernel spans, in order
    in_mo = [False] * n  # span runs under a solve_mo span
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_mo[i] = in_mo[parent] or spans[parent][0] == "mofdea.solve_mo"
        if name == "speedups.kernel":
            kernels_of[parent].append(i)

    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]
        calls[s[0]] += 1

    # Every CCR LP has its "=" normalisation row, so it runs phase 1; a
    # solve with two kernel calls ran phase 1 first, one with a single
    # call went straight to phase 2.
    phase_s = [0.0, 0.0, 0.0]
    pivots = [0, 0, 0]
    flops = 0
    for ks in kernels_of.values():
        for k, i in enumerate(ks):
            phase = 1 if (len(ks) == 2 and k == 0) else 2
            rows, cols, iters = spans[i][4]
            phase_s[phase] += dur[i]
            pivots[phase] += iters
            flops += 2 * rows * cols * iters

    lps = calls["linprog.solve"]
    mo_scores = calls["mofdea.solve_mo"]
    mo_lps = sum(1 for i, s in enumerate(spans) if s[0] == "linprog.solve" and in_mo[i])
    kernel_s = phase_s[1] + phase_s[2]
    return {
        "cli.main_self_s": (self_s["cli.main"], "s"),
        "cli.calls": (calls["cli.main"], "count"),
        "dataio.load_s": (total["dataio.load"], "s"),
        "dataio.load_calls": (calls["dataio.load"], "count"),
        "dataio.render_s": (total["dataio.render"], "s"),
        "dataio.render_bytes": (
            sum(s[4] for s in spans if s[0] == "dataio.render"), "B"),
        "alphacut.reduce_s": (total["alphacut.reduce"], "s"),
        "alphacut.reduce_calls": (calls["alphacut.reduce"], "count"),
        "alphacut.scores_self_s": (self_s["alphacut.scores"], "s"),
        "mofdea.reduce_s": (total["mofdea.reduce"], "s"),
        "mofdea.reduce_calls": (calls["mofdea.reduce"], "count"),
        "mofdea.solve_self_s": (sum(self_s[k] for k in MO_SOLVE), "s"),
        "mofdea.lps_per_score": (mo_lps / mo_scores if mo_scores else 0.0, "count"),
        "mofdea.bisect_iters": (
            sum(s[4] for s in spans if s[0] == "mofdea.solve_mo"), "count"),
        "ccr.assembly_self_s": (self_s["ccr.efficiency"], "s"),
        "ccr.calls": (calls["ccr.efficiency"], "count"),
        "linprog.problem_s": (total["linprog.problem"], "s"),
        "linprog.solve_self_s": (self_s["linprog.solve"], "s"),
        "linprog.lps": (lps, "count"),
        "speedups.phase1_s": (phase_s[1], "s"),
        "speedups.phase2_s": (phase_s[2], "s"),
        "speedups.phase1_pivots": (pivots[1], "count"),
        "speedups.phase2_pivots": (pivots[2], "count"),
        "speedups.pivots_per_lp": ((pivots[1] + pivots[2]) / lps if lps else 0.0, "count"),
        "speedups.computed_flops": (flops, "flop"),
        "speedups.flops_per_s": (flops / kernel_s if kernel_s else 0.0, "flop/s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.self_sum_s": (sum(self_s.values()), "s"),
    }
