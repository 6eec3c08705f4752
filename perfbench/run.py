#!/usr/bin/env python3
"""fuzzydea's benchmark: run one workload, check its outputs, print metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload cli-fixtures|mo-small-sets|alpha-large \
      --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A result file (and with
--trace 1 a span file) is written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 8
DEADLINE_S = 170.0  # every run ends well within 180 s

SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import fuzzydea\n"
    "print(time.perf_counter() - t, fuzzydea.BACKEND, sys.modules['numpy'].__version__,"
    " fuzzydea.__file__)\n"
)


def child_env():
    """One BLAS thread, a fixed hash seed, and only this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build(env):
    """Build the package in place once per checkout (the compiled kernel if it can)."""
    stamp = OUT / "build.stamp"
    if stamp.exists():
        return
    with open(OUT / "build.log", "wb") as log:
        proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                              cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=800)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {proc.returncode}); see {OUT / 'build.log'}")
    stamp.write_text("built\n")


def measure_setup(env, repeats):
    """Wall and import times of fresh interpreters until `import fuzzydea` returns."""
    walls, imports, info = [], [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: cannot import fuzzydea from {ROOT / 'src'}:\n{proc.stderr}")
        import_s, backend, numpy_version, path = proc.stdout.split()
        info = {"backend": backend, "numpy": numpy_version, "fuzzydea_file": path}
        walls.append(wall)
        imports.append(float(import_s))
    if not Path(info["fuzzydea_file"]).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: fuzzydea was imported from {info['fuzzydea_file']}")
    return walls, imports, info


def run_worker(plan_path, result_path, env, timeout):
    """The worker in its own session, so a timeout can stop its children too."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(result_path)], cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: worker exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc != 0:
        sys.exit(f"perfbench: worker failed with exit code {rc}")
    with open(result_path) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "fuzzydea" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fuzzydea sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    build(env)
    measure_setup(env, 1)  # warms the bytecode cache; not counted
    # Half the set-up samples are taken before the worker and half after,
    # so that one slow spell of a shared machine weighs less.
    walls, imports, info = measure_setup(env, SETUP_REPEATS // 2)

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        datasets, ops = inputs.make_plan(args.workload, ROOT, args.seed, work)
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps({
            "ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
            "processes": args.workload == "cli-fixtures",
        }))
        budget = DEADLINE_S - (time.perf_counter() - started) - 20.0
        res = run_worker(plan_path, result_path, env, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    more = measure_setup(env, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s = statistics.median(walls + more[0])
    import_s = statistics.median(imports + more[1])

    # scipy is imported only now, after the worker has ended
    import checks
    from verify import verify

    ref = checks.Reference(datasets)
    outcome = verify(args.workload, ops, res, ref)
    rounds = res["rounds"]
    n_rounds = len(rounds) + (1 if args.trace else 0)
    attempted = outcome.scores * n_rounds
    failed = len(outcome.failures) * n_rounds
    correct = not outcome.errors

    if args.trace:
        metrics = {"setup.import_s": (import_s, "s"), **res["trace"]["metrics"]}
    else:
        # Medians over rounds and calls: a shared machine has slow spells
        # of several seconds, which a median outlasts and a mean does not.
        round_s = statistics.median(r["wall_s"] for r in rounds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "scores_per_s": (outcome.scores / round_s, "1/s"),
            "call_p50_s": (statistics.median(c for r in rounds for c in r["call_s"]), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    environment = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), **info,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment, "rounds": rounds, "metrics": metrics,
        "scores_per_round": outcome.scores, "failures": outcome.failures,
        "errors": outcome.errors,
    }, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(res["trace"]["spans"]) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  backend {info['backend']}  "
          f"python {environment['python']}  numpy {info['numpy']}  nproc {environment['nproc']}")
    print(f"rounds {len(rounds)}  scores/round {outcome.scores}  "
          f"failed/round {len(outcome.failures)}  errors {len(outcome.errors)}")
    for err in outcome.errors[:20]:
        print(f"ERROR {err}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
