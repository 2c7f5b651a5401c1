"""Benchmark of the dicke-qfi pipeline: one workload per run, from a checkout's root.

    python3 benchmarks/run.py --workload sweep_superradiant --seed 0 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all       # every workload, one summary table

The run measures set-up time as the median over fresh interpreters importing
``dicke_qfi.cli``, half of them before the passes and half after.  The passes
run in one child process (worker.py) with BLAS pinned to one thread, which
calls ``dicke_qfi.cli.main`` in-process for repeated passes of the workload.
Every pass's output is checked (checks.py), and the last stdout line is the
JSON result.  With ``--trace 1`` the metrics are the per-layer numbers of a
traced pass instead.  Results and spans are kept under ``.bench_build/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_output  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: end-to-end metrics with units; failed_frac is reported from attempted/failed
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MiB"),
)
#: the pin every child runs under: OpenBLAS threads contend on these tiny
#: matrices (sweep_small_n at 201 steps: 3.6-4.7 s pinned, 16-19 s unpinned)
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: imports timed for setup_s, half before the passes and half after, so that
#: the median spans the run rather than one moment of a drifting machine
SETUP_REPEATS = 6
#: a run must end within 180 s; the child is stopped well before
CHILD_TIMEOUT_S = 150
WORK_DIR = ROOT / ".bench_build"


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def time_imports(repeats: int) -> list[float]:
    """Seconds for each of ``repeats`` fresh interpreters to import dicke_qfi.cli,
    numpy and scipy included."""
    code = ("import time; t = time.perf_counter(); import dicke_qfi.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times


def run_worker(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run the child on one workload in ``workdir``, where it leaves its outputs; its result."""
    job = {"root": str(ROOT), "argv": workload.argv(seed), "ext": workload.fmt,
           "seconds": seconds, "trace": trace}
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                   env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "git_sha": git_sha()}


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict | None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run: set-up time, the child's passes, and every output checked.

    ``reference`` is the workload's reference entry, used at the default seed.
    """
    # the first import is not timed: it writes the bytecode caches
    imports = [] if trace else time_imports(1 + setup_repeats // 2)[1:]
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = WORK_DIR / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        child = run_worker(workload, seed, seconds, trace, workdir)
        ref = reference if seed == DEFAULT_SEED else None
        attempted = failed = 0
        problems: list[str] = []
        checked: dict[str, tuple] = {}
        for record in child["passes"]:
            outcome = checked.get(record["sha256"])
            if outcome is None:
                outcome = check_output(workdir / record["output"], workload, seed, ref)
                checked[record["sha256"]] = outcome
            attempted += outcome[0]
            # exit code 4 leaves failed points in the output; any other error fails them all
            failed += outcome[0] if record["rc"] not in (0, 4) else outcome[1]
            problems += [f"exit code {record['rc']}"] if record["rc"] else []
            problems += outcome[2]
        spans = workdir / "spans.jsonl"
        if spans.exists():
            shutil.move(spans, results / f"{workload.name}-seed{seed}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {name: {"value": child["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        imports += time_imports(setup_repeats - len(imports))
        rate = statistics.median(workload.points / p["wall_s"] for p in child["passes"])
        metrics = {
            "setup_s": {"value": statistics.median(imports), "unit": "s"},
            "points_per_s": {"value": rate, "unit": "points/s"},
            "peak_rss_mb": {"value": child["peak_rss_kb"] / 1024, "unit": "MiB"},
        }
    result = {
        "correct": failed == 0 and all(p["rc"] == 0 for p in child["passes"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": workload.argv(seed), "passes": child["passes"],
        "env": {**machine(), **child["env"]}, "problems": problems[:50], **result,
    }
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    """Human-readable lines: environment, problems, each metric with its unit."""
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['passes'])} passes, {record['attempted']} points, "
          f"{record['failed']} failed")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {record['failed'] / record['attempted']:.6g} 1")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dicke_qfi" / "cli.py").is_file():
        print(f"run.py: no dicke_qfi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        started = time.perf_counter()
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              reference.get(name))
        print_record(record)
        print(f"run took {time.perf_counter() - started:.1f} s")
        records.append(record)

    if len(records) == 1:
        result = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
