"""Run one workload's rounds; record outputs, call times and peak memory.

This is the process whose peak resident memory the benchmark reports,
so it imports fuzzydea and numpy and never scipy.  When the plan runs
the command line as fresh processes, the peak is that of the largest
child instead, and this process does not import fuzzydea at all.

Usage: python3 worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time

from tracing import Tracer, layer_metrics


class Program:
    """fuzzydea's entry points, called in-process or as a fresh process."""

    def __init__(self, in_process):
        self.in_process = in_process
        if not in_process:
            return
        from fuzzydea import alphacut, ccr, cli, dataio, linprog, mofdea

        self.modules = {"cli": cli, "alphacut": alphacut, "mofdea": mofdea,
                        "ccr": ccr, "linprog": linprog}
        self.policies = {p.value: p for p in ccr.SelfPolicy}
        self._bind(cli.main, dataio.load_dataset_path, alphacut.alphacut_scores)

    def _bind(self, main, load, scores):
        self.main, self.load, self.scores = main, load, scores

    def trace(self):
        """Route every later call through spans; returns the Tracer."""
        tracer = Tracer()
        tracer.install(self.modules)
        self._untraced = (self.main, self.load, self.scores)
        self._bind(tracer.wrap("cli.main", self.main),
                   tracer.wrap("dataio.load", self.load),
                   tracer.wrap("alphacut.scores", self.scores))
        return tracer

    def untrace(self, tracer):
        tracer.uninstall()
        self._bind(*self._untraced)

    def cli(self, argv):
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "fuzzydea", *argv],
                                  capture_output=True)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.main(argv)
        return rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def peak_rss_kb(in_process):
    """Peak resident memory of this process, or of its largest child.

    ru_maxrss of a process also counts what its parent held when it was
    forked, so this process reads its own address space's high-water
    mark instead.  Its children are forked while it is still small.
    """
    if not in_process:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(program, ops):
    """One pass over ops; returns per-op (output, exit code, call seconds)."""
    clock = time.perf_counter
    results = []
    data = None
    for op in ops:
        kind = op["kind"]
        if kind == "cli":
            t0 = clock()
            rc, out, err = program.cli(op["argv"])
            dt = clock() - t0
            results.append((out, rc, dt, err))
        elif kind == "load":
            data = program.load(op["path"])
            results.append((b"", 0, None, b""))
        elif kind == "alphacut":
            t0 = clock()
            scores = program.scores(data, op["alpha"], program.policies[op["policy"]])
            dt = clock() - t0
            out = json.dumps([[s.dmu, s.score] for s in scores]).encode("utf-8")
            results.append((out, 0, dt, b""))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return results


def main():
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    ops, seconds, traced = plan["ops"], plan["seconds"], plan["trace"]
    # cli-fixtures times fresh processes; its traced run calls cli.main
    # in-process so that spans can be taken.
    program = Program(in_process=traced or not plan["processes"])

    clock = time.perf_counter
    rounds = []
    first = None
    start = clock()
    while True:
        t0 = clock()
        res = run_round(program, ops)
        wall = clock() - t0
        if first is None:
            first = res
        rounds.append({
            "wall_s": wall,
            "call_s": [r[2] for r in res if r[2] is not None],
            "digests": [hashlib.sha256(r[0]).hexdigest() for r in res],
            "exit_codes": [r[1] for r in res],
        })
        # whole rounds until the run length is reached
        if clock() - start >= seconds:
            break

    trace = None
    if traced:
        tracer = program.trace()
        t0 = clock()
        res = run_round(program, ops)
        wall = clock() - t0
        program.untrace(tracer)
        untraced = sorted(r["wall_s"] for r in rounds)[len(rounds) // 2]
        metrics = layer_metrics(tracer.spans, wall)
        metrics["trace.overhead_s"] = (wall - untraced, "s")
        trace = {
            "metrics": metrics,
            "digests": [hashlib.sha256(r[0]).hexdigest() for r in res],
            "spans": tracer.spans,
        }

    result = {
        "peak_rss_kb": peak_rss_kb(program.in_process),
        "rounds": rounds,
        "outputs": [r[0].decode("utf-8") for r in first],
        "stderr": [r[3].decode("utf-8", "replace") for r in first],
        "trace": trace,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
