"""Desk-case benchmark for hydropinn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kih --seed 1 --seconds 55 --trace 0

Workloads: kih, dnn (see BENCHMARK.json), or `all` to run both in turn. The package is imported from the checkout's `src/`;
nothing needs installing. Child processes run with BLAS pinned to one
thread.

Output: an environment record line, one line per metric (name, value,
unit), and as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 1` the metrics are the per-layer
ones from a traced run, and the spans are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("kih", "dnn")
TIME_LIMIT_S = 170.0  # a whole invocation of one workload
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(root: Path, args: list, deadline: float):
    """Run worker.py; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--root", str(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the time limit") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(root: Path, bench: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work_base = BENCH_DIR / ".work"
    work_base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_base))
    try:
        common = ["--work", str(work), "--seed", str(seed)]
        environment = run_child(root, ["prepare", *common], deadline)
        measure = ["measure", *common, "--workload", workload,
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            measure += ["--spans-out", str(out_dir / f"spans-{workload}-seed{seed}.json")]
        result = run_child(root, measure, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = result["metrics"]
    declared = bench["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    problems = list(result["problems"])
    if set(values) != names:
        problems.append(f"metrics not produced: {sorted(names - set(values))}; "
                        f"undeclared: {sorted(set(values) - names)}")
    environment.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                       nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                       platform=platform.platform(), git_commit=git_commit(root),
                       operations=result["operations"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    return {"environment": environment, "problems": problems,
            "correct": not problems and result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def report(res: dict) -> None:
    print(json.dumps({"environment": res["environment"]}))
    for p in res["problems"]:
        print(f"problem: {p}")
    for name, m in res["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"operations failed/attempted: {res['failed']}/{res['attempted']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hydropinn desk-case benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its worker (subprocess.run does
    # so when the wait is interrupted by an exception)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    needed = [root / "src" / "hydropinn" / "__init__.py", root / "BENCHMARK.json",
              *(root / "configs" / f for f in ("desk_scenario.json", "kih.json", "dnn.json"))]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a hydropinn checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(root, bench, w, args.seed, args.seconds,
                                      bool(args.trace))
            if len(workloads) > 1:
                print(f"== workload {w}")
                report(results[w])
                print(json.dumps({k: results[w][k]
                                  for k in ("correct", "attempted", "failed", "metrics")}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(workloads) == 1:
        res = results[workloads[0]]
        report(res)
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
