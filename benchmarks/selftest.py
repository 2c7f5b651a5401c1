"""Self-test of the benchmark on tiny workloads; takes about 15 s.

    python3 benchmarks/selftest.py

Checks that BENCHMARK.json lists the metrics the code reports, that a run
prints every end-to-end and per-layer metric with its unit, that a corrupted
reference value makes failed_frac > 0, that the tracer undoes its patches
and tolerates missing names, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import run
import tracer
from checks import reference_entry
from workloads import DEFAULT_SEED, Workload

TINY = (
    Workload("tiny_sweep_csv", "sweep", (2,), 0.0, 1.0, 3, "csv"),
    Workload("tiny_sweep_json", "sweep", (1, 2), 0.0, 3.0, 3, "json"),
    Workload("tiny_husimi", "husimi", (2,), 0.0, 0.6, 2, "csv", grid_points=21),
)

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def printed_metrics(record: dict) -> tuple[dict, dict]:
    """(metric name -> unit) from the human lines, and the JSON result line."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.print_record(record)
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    lines = buffer.getvalue().splitlines()
    units = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            units[parts[0]] = parts[2]
    return units, json.loads(lines[-1])


def make_reference(workload: Workload) -> dict:
    workdir = run.WORK_DIR / "work" / f"selftest-{workload.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        child = run.run_worker(workload, DEFAULT_SEED, 0.0, False, workdir)
        return reference_entry(workdir / child["passes"][0]["output"], workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def corrupt(reference: dict) -> dict:
    """The reference with one observable of the second point off by 1%."""
    bad = copy.deepcopy(reference)
    column = 2  # first value after lambda and n_atoms
    bad["rows"][1][column] *= 1.01
    return bad


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER),
           "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload that workloads.WORKLOADS lacks")


def test_workload(workload: Workload) -> None:
    reference = make_reference(workload)
    record = run.run_workload(workload, DEFAULT_SEED, 0.5, False, reference, setup_repeats=1)
    units, result = printed_metrics(record)
    expect(result["correct"] and result["failed"] == 0,
           f"{workload.name}: clean run failed: {record['problems'][:3]}")
    for name, unit in [*run.END_TO_END, ("failed_frac", "1")]:
        expect(units.get(name) == unit, f"{workload.name}: {name} not printed with unit {unit}")
    expect(set(result["metrics"]) == {n for n, _ in run.END_TO_END},
           f"{workload.name}: JSON metrics are not the end-to-end set")
    expect(all(m["value"] > 0 for m in result["metrics"].values()),
           f"{workload.name}: an end-to-end metric is not positive")

    record = run.run_workload(workload, DEFAULT_SEED, 0.5, False, corrupt(reference),
                              setup_repeats=1)
    units, result = printed_metrics(record)
    expect(result["failed"] > 0 and not result["correct"],
           f"{workload.name}: corrupted reference went unnoticed")
    expect(units.get("failed_frac") == "1" and record["failed"] / record["attempted"] > 0,
           f"{workload.name}: failed_frac is not > 0 with a corrupted reference")

    record = run.run_workload(workload, 7, 0.5, True, None)
    units, result = printed_metrics(record)
    expect(result["correct"], f"{workload.name}: seed 7 failed: {record['problems'][:3]}")
    for name, unit in tracer.PER_LAYER:
        expect(units.get(name) == unit, f"{workload.name}: {name} not printed with unit {unit}")
    expect(set(result["metrics"]) == {n for n, _ in tracer.PER_LAYER},
           f"{workload.name}: JSON metrics are not the per-layer set")
    expect(result["metrics"]["solver.ground_state.calls"]["value"] > 0,
           f"{workload.name}: traced run saw no ground_state calls")


def test_tracer_patches() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import scipy.linalg
    from dicke_qfi import cli, metrology

    originals = (cli.converge_cutoff, metrology.spectral_decompose, scipy.linalg.eigh)
    saved_layers = tracer.LAYERS
    tracer.LAYERS = (*saved_layers, "no_such_layer")
    spans = tracer.Tracer()
    try:
        spans.install()
        expect(cli.converge_cutoff is not originals[0], "cli.converge_cutoff not wrapped")
        expect(metrology.spectral_decompose is not originals[1],
               "metrology.spectral_decompose not wrapped")
        out = run.WORK_DIR / "selftest-trace.csv"
        cli.main(["sweep", "--n-atoms", "2", "--lambda-steps", "2", "--out", str(out)])
        out.unlink()
    finally:
        spans.uninstall()
        tracer.LAYERS = saved_layers
    expect((cli.converge_cutoff, metrology.spectral_decompose, scipy.linalg.eigh) == originals,
           "tracer left a patch in place")
    names = {s[0] for s in spans.spans}
    expect({"cli.main", "solver.ground_state", "solver.eigh", "states.eigh"} <= names,
           f"missing spans, saw {sorted(names)}")
    points = {tuple(s[4]) for s in spans.spans if s[0] == "solver.ground_state"}
    expect(points == {(2, 0.0), (2, 1.0)}, f"ground_state point ids {points}")
    empty = tracer.Tracer().metrics(0, 0.0)
    expect(all(v == 0 for v in empty.values()), "metrics without spans are not all zero")


def test_refuses_without_sources() -> None:
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "husimi_grid", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "run.py did not refuse a directory without the sources")


def main() -> int:
    test_benchmark_json()
    for workload in TINY:
        test_workload(workload)
    test_tracer_patches()
    test_refuses_without_sources()
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
