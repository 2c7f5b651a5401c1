"""Benchmark child process: runs one workload's CLI passes in-process.

Started by run.py with BLAS pinned to one thread and ``src`` on the path;
its only argument is a job file.  Without tracing it repeats the pass while
another pass of the same length still fits in the job's seconds.  With
tracing it runs one untraced pass and one traced pass, so that their
difference is the tracing overhead.  It writes a result file beside the job.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: bounds disk use on tiny workloads, where a pass takes milliseconds
MAX_PASSES = 50


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its C API."""
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        return threads
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                threads[Path(lib_path).name] = func()
                break
    return threads


def _environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_pin": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(),
    }


def main(job_path: str) -> int:
    job_file = Path(job_path)
    job = json.loads(job_file.read_text(encoding="utf-8"))
    workdir = job_file.parent
    src = Path(job["root"]) / "src"

    import dicke_qfi.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        print(f"worker: imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    passes = []
    first_sha = None
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k == 1
        out = workdir / f"pass{k}.{job['ext']}"
        argv = [*job["argv"], "--out", str(out)]
        if traced:
            tracer.install()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            rc = cli.main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        record = {"wall_s": wall, "cpu_s": cpu, "rc": rc, "traced": traced, "output": out.name,
                  "bytes": 0, "sha256": None}
        if out.exists():
            record["bytes"] = out.stat().st_size
            record["sha256"] = _sha256(out)
            if first_sha is None:
                first_sha = record["sha256"]
            elif record["sha256"] == first_sha:
                out.unlink()  # identical to pass 0, whose check covers it
        passes.append(record)
        if tracer is not None:
            if k == 1:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed + max(p["wall_s"] for p in passes) > job["seconds"] or len(passes) >= MAX_PASSES:
            break

    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(),
    }
    if tracer is not None:
        untraced, traced = passes
        result["per_layer"] = tracer.metrics(traced["bytes"], traced["wall_s"] - untraced["wall_s"])
        tracer.write(workdir / "spans.jsonl")
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
