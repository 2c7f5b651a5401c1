import concurrent.futures
import functools
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from qfi_reference import (
    BasisIndexer,
    build_spin_ops,
    even_indices,
    parity_signs_from_scratch,
    product_vector,
)

import dicke_qfi.cli
import dicke_qfi.model
import dicke_qfi.solver
import dicke_qfi.states
from dicke_qfi.cli import (
    FORMATS,
    HUSIMI_COLUMNS,
    MAX_ATOMS,
    MAX_GRID_POINTS,
    MAX_WORKERS,
    PARAMETER_MAX,
    PARAMETER_MIN,
    SWEEP_COLUMNS,
    SweepConfig,
    compute_husimi_grids,
    compute_sweep_records,
    format_value,
    main,
    run_scaling,
    run_thermo,
    write_table,
)
from dicke_qfi.model import ModelParams
from dicke_qfi.solver import initial_cutoff, solve, solve_bytes

SMALL_SWEEP = [
    "--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "0.4",
    "--lambda-steps", "5", "--tol", "1e-8",
]


def sweep_config(**settings):
    """A sweep configuration at tol 1e-10, as compute_sweep_records takes it."""
    return SweepConfig(mode="sweep", tol=1e-10, **settings)


def sweep_record(params, config):
    """One point's sweep row, solved alone as the configuration asks, keyed by column."""
    [[record]] = compute_sweep_records([solve(params, config.tol, config.fock_cutoff)], config)
    return dict(zip(SWEEP_COLUMNS, record))


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footer = [line for line in lines if line.startswith("#")]
    return header, rows, footer


def test_sweep_csv_header_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", *SMALL_SWEEP, "--out", str(out1)]) == 0
    assert main(["sweep", *SMALL_SWEEP, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows, footer = read_csv_rows(out1)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 5
    assert footer and footer[-1].startswith("# meta ")
    assert "version=" in footer[-1]


def test_sweep_decoupled_row_values(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", *SMALL_SWEEP, "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    first = dict(zip(header, rows[0]))
    assert float(first["lambda"]) == 0.0
    assert float(first["F_B"]) == 0.0
    assert math.isnan(float(first["F_B_scaled"]))
    assert abs(float(first["F_A"]) - 2.0) < 1e-12
    assert abs(float(first["xi2"]) - 1.0) < 1e-12
    assert abs(float(first["quad_var_scaled"]) - 1.0) < 1e-12
    assert abs(float(first["parity_expect"]) - 1.0) < 1e-10


@pytest.mark.parametrize("mode", ["sweep", "thermo"])
@pytest.mark.parametrize("steps", ["1", "2"])
def test_negative_zero_coupling_reads_zero_at_any_step_count(mode, steps, tmp_path):
    # the grid is np.linspace's, which starts at lambda-min + 0.0 for one step
    # as for two, so a lambda-min of -0.0 reads 0.0 in either
    out = tmp_path / "s.csv"
    assert main([mode, "--n-atoms", "1", "--lambda-min", "-0.0", "--lambda-steps", steps,
                 "--out", str(out)]) == 0
    _, rows, _ = read_csv_rows(out)
    assert rows[0][0] == "0.0"


def test_sweep_json_payload(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sweep", *SMALL_SWEEP, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["version"]
    assert len(payload["rows"]) == 5
    assert payload["rows"][0]["F_B_scaled"] is None  # undefined at lambda = 0
    assert payload["rows"][1]["F_A_scaled"] < 1.0


def test_sweep_workers_match_serial(tmp_path):
    serial, parallel = tmp_path / "serial.csv", tmp_path / "par.csv"
    args = ["sweep", "--n-atoms", "1", "--n-atoms", "2", "--lambda-min", "0",
            "--lambda-max", "0.3", "--lambda-steps", "3", "--tol", "1e-8"]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_workers_match_serial_revisited_cutoffs(tmp_path):
    # 25 couplings share a few first cutoffs per N, and the pool hands points
    # of both N to each process, which sees them out of order
    serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
    args = ["sweep", "--n-atoms", "1", "--n-atoms", "2", "--lambda-min", "0",
            "--lambda-max", "3", "--lambda-steps", "25", "--format", "json"]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    cutoffs = [row["n_cutoff"] for row in json.loads(serial.read_text())["rows"]]
    assert len(set(cutoffs)) < len(cutoffs)


@pytest.mark.parametrize("mode,fmt", [("husimi", "csv"), ("husimi", "json"),
                                      ("convergence", "csv")])
def test_point_modes_workers_match_serial(mode, fmt, tmp_path):
    # husimi and convergence hand their points to the same pool as sweep
    serial, parallel = tmp_path / f"serial.{fmt}", tmp_path / f"par.{fmt}"
    args = [mode, "--n-atoms", "1", "--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "1",
            "--lambda-steps", "3", "--grid-points", "11", "--format", fmt]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("args,message", [
    # N = 1000 at lambda = 2 is refused at its first cutoff, beside a solved N = 2
    (["sweep", "--n-atoms", "2", "--n-atoms", "1000", "--lambda-min", "2", "--lambda-max", "2",
      "--lambda-steps", "1", "--format", "json"],
     "dicke-qfi: lambda=2.0 N=1000 failed: n_cutoff=5168 at N=1000 needs 10824363640 bytes, "
     "past the memory budget of 2147483648 bytes"),
    # from cutoff 5, lambda = 1 (N = 2) is solved at 5, 10 and 20 and refused at 40
    (["convergence", "--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "1",
      "--lambda-steps", "2", "--fock-cutoff", "5", "--format", "json"],
     "dicke-qfi: lambda=1.0 N=2 failed: n_cutoff=40 at N=2 needs {held} bytes, "
     "past the memory budget of {budget} bytes"),
], ids=["sweep-refused", "convergence-after-doublings"])
def test_failed_point_crosses_the_pool(args, message, tmp_path, capsys, monkeypatch):
    # a worker sends a failed point back as its SolverError, with its cutoff, steps and
    # class, and this process writes its row and names it: bytes, stderr and exit
    # code are those of one process
    held = solve_bytes(ModelParams(1.0, 1.0, 1.0, 2), 40)
    if args[0] == "convergence":
        # forked workers inherit the patched budget
        monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", held - 1)
    budget = dicke_qfi.solver.MEMORY_BUDGET
    pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        pool, mp_context=multiprocessing.get_context("fork")))
    outputs, errors = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.json"
        assert main([*args, "--workers", workers, "--out", str(out)]) == 4
        outputs.append(out.read_bytes())
        errors.append(capsys.readouterr().err)
    assert outputs[0] == outputs[1]
    assert errors == [message.format(held=held, budget=budget) + "\n"] * 2
    if args[0] == "convergence":
        rows = json.loads(outputs[0])["rows"]
        assert [(row["lambda"], row["n_cutoff"]) for row in rows] == [
            (0.0, 5), (1.0, 5), (1.0, 10), (1.0, 20)]


def test_pool_has_at_most_one_process_per_point(tmp_path, monkeypatch):
    # a pool starts all of its processes at its first task, so it is sized to
    # the points, and one point is solved in the calling process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for mode in ("sweep", "husimi", "convergence"):
        for steps in ("1", "3"):
            assert main([mode, "--n-atoms", "2", "--lambda-steps", steps, "--grid-points", "11",
                         "--workers", str(MAX_WORKERS), "--out", str(tmp_path / "out")]) == 0
    assert sizes == [3, 3, 3]


def test_sweep_flags_unconverged_point(tmp_path, monkeypatch):
    # the first cutoff, 102, is past a budget that holds cutoff 32
    budget = solve_bytes(ModelParams(1.0, 1.0, 2.0, 6), 32)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
    out = tmp_path / "f.csv"
    code = main(["sweep", "--n-atoms", "6", "--lambda-min", "2.0", "--lambda-max",
                 "2.0", "--lambda-steps", "1", "--out", str(out)])
    assert code == 4
    header, rows, footer = read_csv_rows(out)
    record = dict(zip(header, rows[0]))
    assert math.isnan(float(record["ground_energy"]))
    assert any("failed_points" in line for line in footer)


def test_sweep_start_above_hard_cap_is_a_failed_row(tmp_path):
    # the first cutoff, about 1e13, is refused before anything is allocated
    out = tmp_path / "cap.csv"
    code = main(["sweep", "--n-atoms", "1000", "--lambda-min", "1e5", "--lambda-max",
                 "1e5", "--lambda-steps", "1", "--out", str(out)])
    assert code == 4
    header, rows, footer = read_csv_rows(out)
    record = dict(zip(header, rows[0]))
    assert int(record["n_cutoff"]) == initial_cutoff(ModelParams(1.0, 1.0, 1e5, 1000))
    assert all(math.isnan(float(record[col])) for col in SWEEP_COLUMNS[3:])
    assert "failed_points=[[100000.0, 1000]]" in footer[-1]


def test_fixed_cutoff_override(tmp_path):
    out = tmp_path / "fixed.csv"
    assert main(["sweep", "--n-atoms", "2", "--lambda-min", "0.2", "--lambda-max",
                 "0.2", "--lambda-steps", "1", "--fock-cutoff", "25",
                 "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    assert int(dict(zip(header, rows[0]))["n_cutoff"]) == 25


def test_thermo_rows(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thermo", "--lambda-min", "0", "--lambda-max", "1",
                 "--lambda-steps", "3", "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    at = {float(r[0]): dict(zip(header, r)) for r in rows}
    assert abs(float(at[0.0]["xi2"]) - 1.0) < 1e-12
    assert float(at[0.0]["F_B_scaled"]) == 0.0
    assert abs(float(at[0.5]["F_A_per_N"]) - math.sqrt(2)) < 1e-9
    assert abs(float(at[0.5]["F_B_scaled"]) - math.sqrt(2)) < 1e-9
    assert at[0.5]["critical"] == "1"
    assert float(at[1.0]["mu"]) == 0.25


@pytest.mark.parametrize("lam", ["1e-200", "5e-324"])
def test_thermo_weak_coupling_underflows_to_zero(lam, tmp_path):
    # F_B_scaled is lam^2 times a finite ratio: 0.0 once lam^2 underflows,
    # where a ZeroDivisionError once ended the run with exit 1
    out = tmp_path / "t.csv"
    assert main(["thermo", "--lambda-min", lam, "--lambda-max", lam,
                 "--lambda-steps", "1", "--out", str(out)]) == 0
    header, [row], _ = read_csv_rows(out)
    assert dict(zip(header, row))["F_B_scaled"] == "0.0"


def test_thermo_fa_monotone_above_threshold(tmp_path):
    out = tmp_path / "mono.csv"
    assert main(["thermo", "--lambda-min", "0.55", "--lambda-max", "3.0",
                 "--lambda-steps", "200", "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    fa = np.array([float(dict(zip(header, r))["F_A_per_N"]) for r in rows])
    assert np.all(np.diff(fa) < 0)


def test_husimi_rejects_coarse_grid(tmp_path):
    code = main(["husimi", "--n-atoms", "2", "--lambda-steps", "1",
                 "--grid-points", "5", "--out", str(tmp_path / "h.json")])
    assert code == 2


def test_husimi_json_decoupled(tmp_path):
    # N = 2060 is past the overflow of sqrt(binom(N, N/2)), which once made
    # every atomic cell NaN and the JSON writer refuse the grid (exit 2)
    for n_atoms in (4, 2060):
        out = tmp_path / f"h{n_atoms}.json"
        assert main(["husimi", "--n-atoms", str(n_atoms), "--lambda-min", "0",
                     "--lambda-steps", "1", "--grid-points", "21", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        grid = payload["grids"][0]
        assert grid["atoms"]["q_max"] == pytest.approx(1.0, abs=1e-12)
        q = np.array(grid["atoms"]["q"])
        theta = np.array(grid["atoms"]["theta"])
        assert np.allclose(q, (np.cos(theta / 2) ** (2 * n_atoms))[:, None], atol=1e-12)
        assert np.allclose(np.array(grid["atoms"]["q_normalized"]), q, atol=1e-12)
        field_q = np.array(grid["field"]["q"])
        assert field_q.shape == (21, 21)
        assert field_q.max() == pytest.approx(1.0, abs=1e-9)


def test_husimi_csv_long_form(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["husimi", "--n-atoms", "2", "--lambda-min", "0.2", "--lambda-steps",
                 "1", "--grid-points", "11", "--out", str(out)]) == 0
    header, rows, footer = read_csv_rows(out)
    assert header == ["lambda", "n_atoms", "subsystem", "x", "y", "q", "q_norm"]
    subsystems = {r[2] for r in rows}
    assert subsystems == {"atoms", "field"}
    assert len(rows) == 2 * 11 * 11
    assert any("q_max_atoms" in line for line in footer)


def _as_lists(value):
    """A grid as run_husimi once held it: every array a nested float list."""
    if isinstance(value, list):
        return [_as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _write_husimi_lists(stream, grids, meta, fmt):
    """Reference writer over a whole list of list-held grids, as write_husimi once wrote them."""
    if fmt == "json":
        for grid in grids:
            atoms = grid["atoms"]
            atoms["q_normalized"] = [[q / atoms["q_max"] for q in row] for row in atoms["q"]]
        json.dump({"meta": meta, "grids": grids}, stream, indent=2, sort_keys=True,
                  allow_nan=False)
        stream.write("\n")
        return
    stream.write(",".join(HUSIMI_COLUMNS) + "\n")
    maxima = {}
    for grid in grids:
        lam, n = grid["lambda"], grid["n_atoms"]
        for subsystem, x_axis, y_axis in (("atoms", "theta", "phi"),
                                          ("field", "re_alpha", "im_alpha")):
            sub = grid[subsystem]
            maxima[f"q_max_{subsystem}_N{n}_lambda{format_value(lam)}"] = sub["q_max"]
            for i, x in enumerate(sub[x_axis]):
                for jj, y in enumerate(sub[y_axis]):
                    q = sub["q"][i][jj]
                    stream.write(",".join(format_value(v) for v in (
                        lam, n, subsystem, x, y, q, q / sub["q_max"])) + "\n")
    stream.write("# meta " + " ".join(
        f"{k}={format_value(v)}" for k, v in sorted({**meta, **maxima}.items())
        if v is not None) + "\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_husimi_array_grids_write_list_bytes(fmt, tmp_path):
    # the streamed grids, written as they are solved, against one list of all of
    # them, each formed from its point alone
    config = SweepConfig(mode="husimi", n_atoms=(1, 2), lambda_min=0.0, lambda_max=1.0,
                         lambda_steps=3, grid_points=11)
    grids = [grid for params in config.points()
             for [grid] in compute_husimi_grids([solve(params, config.tol)], config)]
    assert all(isinstance(g["atoms"]["q"], np.ndarray) for g in grids)
    reference = io.StringIO()
    _write_husimi_lists(reference, _as_lists(grids), config.meta(), fmt)
    out = tmp_path / f"h.{fmt}"
    for workers in ("1", "2"):
        assert main(["husimi", "--n-atoms", "1", "--n-atoms", "2", "--lambda-min", "0",
                     "--lambda-max", "1", "--lambda-steps", "3", "--grid-points", "11",
                     "--format", fmt, "--workers", workers, "--out", str(out)]) == 0
        assert out.read_text() == reference.getvalue()


def test_husimi_memory_does_not_hold_lists(tmp_path, monkeypatch):
    # repeated points at one coupling, one stack whose Schmidt decompositions
    # are all formed before the first grid starts: each grid is written and
    # dropped before the next point's grid is formed, so as each later grid
    # starts the traced memory lies less than half of one point's float64
    # grids (8 bytes a cell) above where it lay as the first one started; a
    # grid held while the next is formed adds all of them.  Global peaks moved by 100 KB from
    # run to run, so the grids' starts are compared, not the peak.
    points = 81
    array_bytes = 8 * 2 * points**2  # q of the atoms and q of the field
    real = dicke_qfi.cli._husimi_grid

    def traced(*args):
        starts.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(dicke_qfi.cli, "_husimi_grid", traced)
    for fmt in ("csv", "json"):
        starts = []
        tracemalloc.start()
        try:
            assert main(["husimi", "--n-atoms", "2", "--lambda-min", "0.5", "--lambda-max",
                         "0.5", "--lambda-steps", "6", "--grid-points", str(points),
                         "--format", fmt, "--out", str(tmp_path / f"h.{fmt}")]) == 0
        finally:
            tracemalloc.stop()
        assert len(starts) == 6, fmt
        assert max(starts[1:]) - starts[0] < array_bytes / 2, fmt


def test_csv_sweep_writes_rows_before_the_last_stack_is_solved(monkeypatch):
    # a run forms its rows as the writer takes them: N = 1's stack of three
    # points is on the stream before N = 2's stack is solved, and the header
    # before either
    out = io.StringIO()
    lines_at_solve = []
    real = dicke_qfi.solver.ground_states

    def traced(*args):
        lines_at_solve.append(out.getvalue().count("\n"))
        return real(*args)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(dicke_qfi.solver, "ground_states", traced)
    assert main(["sweep", "--n-atoms", "1", "--n-atoms", "2", "--lambda-steps", "3",
                 "--fock-cutoff", "10"]) == 0
    assert lines_at_solve == [1, 4]
    assert out.getvalue().count("\n") == 8  # the header, six rows and the meta footer


def _write_table_json_dump(stream, columns, rows, meta):
    """Reference JSON table writer: one payload of row dicts through json.dump."""
    def plain(value):
        if isinstance(value, (np.integer, np.floating)):
            value = value.item()
        return None if isinstance(value, float) and not math.isfinite(value) else value

    payload = {"meta": meta,
               "rows": [{col: plain(v) for col, v in zip(columns, row)} for row in rows]}
    json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")


@pytest.mark.parametrize("args", [
    ["sweep", "--n-atoms", "1", "--n-atoms", "2", "--lambda-max", "3", "--lambda-steps", "7"],
    ["convergence", "--n-atoms", "2", "--n-atoms", "6", "--lambda-steps", "4"],
    ["thermo", "--lambda-max", "2", "--lambda-steps", "9"],
    ["scaling"],
], ids=["sweep", "convergence", "thermo", "scaling"])
def test_write_table_json_matches_json_dump(args, tmp_path, monkeypatch):
    calls = []
    real = dicke_qfi.cli.write_table

    def recording(stream, columns, rows, meta, fmt):
        rows = list(rows)
        calls.append((columns, rows, meta))
        real(stream, columns, rows, meta, fmt)

    monkeypatch.setattr(dicke_qfi.cli, "write_table", recording)
    out = tmp_path / "t.json"
    assert main([*args, "--format", "json", "--out", str(out)]) in (0, 4)
    [(columns, rows, meta)] = calls
    reference = io.StringIO()
    _write_table_json_dump(reference, columns, rows, meta())
    assert out.read_text() == reference.getvalue()


@pytest.mark.parametrize("rows", [
    [],
    [(0.1, 3, "below", math.nan, None),
     (-0.0, np.int64(7), "above", math.inf, np.float64(2.5e-300)),
     (np.float64(-math.inf), True, 'say "hi"\n', np.float64(math.nan), 1e16),
     (np.float32(0.5), np.int32(-2), "", -1.0e-7, 123456789012345678901234567890)],
], ids=["empty", "edge-values"])
def test_write_table_json_values_match_json_dump(rows):
    columns = ("x", "n", "side", "B", "a")  # written in sorted-key order: B, a, n, side, x
    meta = {"mode": "scaling", "n_atoms": [1, 2], "fock_cutoff": None, "tol": 1e-10,
            "failed_points": [[0.5, 2]]}
    written, reference = io.StringIO(), io.StringIO()
    write_table(written, columns, rows, lambda: meta, "json")
    _write_table_json_dump(reference, columns, rows, meta)
    assert written.getvalue() == reference.getvalue()


def fresh_runs(*argvs: list[str]) -> tuple[list[int], list[str]]:
    """``main`` on each argv in turn in one fresh interpreter: the exit codes, and the
    modules it loaded that no run needs: scipy's linalg package or extension, its sparse
    and special subpackages, and the process pool."""
    code = ("import json, sys, dicke_qfi.cli; "
            f"codes = [dicke_qfi.cli.main(argv) for argv in {list(argvs)!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m == '_flapack' or "
            "m.startswith(('scipy.special', 'scipy.sparse', 'scipy.linalg', "
            "'concurrent.futures.process')))]))")
    src = str(Path(dicke_qfi.cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    return tuple(json.loads(done.stdout))


def test_blas_thread_count_moves_sweep_values_by_rounding_only():
    # output bytes are reproducible at a fixed BLAS thread count only: between 1
    # and 2 OpenBLAS threads 7 cells of this sweep moved, by at most 2.2e-16
    # relative, while the grid, the cutoffs and meta stayed as they were
    argv = ["sweep", "--n-atoms", "60", "--lambda-max", "2", "--lambda-steps", "11",
            "--format", "json"]
    src = str(Path(dicke_qfi.cli.__file__).resolve().parents[1])
    one, two = (json.loads(subprocess.run(
        [sys.executable, "-m", "dicke_qfi.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
             "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
        timeout=120, check=True).stdout) for threads in ("1", "2"))
    assert one["meta"] == two["meta"]
    assert len(one["rows"]) == len(two["rows"]) == 11
    for row_one, row_two in zip(one["rows"], two["rows"]):
        assert row_one.keys() == row_two.keys() == set(SWEEP_COLUMNS)
        for column in ("lambda", "n_atoms", "n_cutoff"):
            assert row_one[column] == row_two[column]
        for column in SWEEP_COLUMNS[3:]:
            a, b = row_one[column], row_two[column]
            if a is None:  # F_B_scaled at lambda = 0, NaN in every run
                assert b is None, column
            else:
                assert abs(a - b) <= 1e-14 * abs(a), column


def test_sweeps_at_other_frequencies_in_one_process_write_fresh_bytes(tmp_path):
    # the block diagonal is kept per (N, capacity, omega, omega0) across stacks
    # and runs: sweeps of one N at two frequency pairs, run in turn in this
    # process as the benchmark worker runs main, each write the bytes of a run
    # in a fresh interpreter
    for i, (omega, omega0) in enumerate([("1", "1"), ("0.5", "2"), ("1", "1"), ("2", "0.5")]):
        argv = ["sweep", "--omega", omega, "--omega0", omega0, "--n-atoms", "2",
                "--lambda-max", "2", "--lambda-steps", "9", "--format", "json"]
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert main([*argv, "--out", str(here)]) == 0
        assert fresh_runs([*argv, "--out", str(fresh)]) == ([0], [])
        assert here.read_bytes() == fresh.read_bytes()


def test_banded_sweep_loads_no_scipy_linalg_special_sparse_or_pool(tmp_path):
    # every process, each --workers child included, pays for what the CLI imports;
    # the solver loads scipy's LAPACK extension without scipy.linalg's package
    # init, and a one-process run starts no pool
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--n-atoms", "2", "--n-atoms", "20", "--lambda-steps", "3", "--out", str(out)]
    assert fresh_runs(argv) == ([0], [])
    assert len(read_csv_rows(out)[1]) == 6


def test_cli_import_runs_no_scipy_init():
    # the solver finds scipy's LAPACK extension through the spec of the scipy
    # package, which runs none of its code; scipy's init imports its test
    # utilities, tempfile, subprocess and shutil, 10-23 ms of the CLI's import
    code = ("import json, sys, dicke_qfi.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(dicke_qfi.cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert json.loads(done.stdout) == []


def test_refused_point_loads_no_scipy_linalg_special_sparse_or_pool(tmp_path):
    # N = 150 at lambda = 0.5 and 1 is banded; N = 1000 at lambda = 2 is refused at
    # its first cutoff, 5168, whose band would hold 5.0 memory budgets, before
    # anything is allocated for it, and imports nothing either
    banded, refused = tmp_path / "banded.csv", tmp_path / "refused.csv"
    assert fresh_runs(
        ["sweep", "--n-atoms", "150", "--lambda-min", "0.5", "--lambda-max", "1",
         "--lambda-steps", "2", "--out", str(banded)],
        ["sweep", "--n-atoms", "1000", "--lambda-min", "2", "--lambda-max", "2",
         "--lambda-steps", "1", "--out", str(refused)]) == ([0, 4], [])
    _, rows, _ = read_csv_rows(banded)
    assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row)
    _, [row], footer = read_csv_rows(refused)
    assert row[:3] == ["2.0", "1000", "5168"] and all(math.isnan(float(v)) for v in row[3:])
    assert "failed_points=[[2.0, 1000]]" in footer[0]


def test_scaling_report(tmp_path):
    out = tmp_path / "sc.csv"
    assert main(["scaling", "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    assert header == ["side", "eps1_amplitude", "dfa_amplitude", "dfb_amplitude"]
    assert [r[0] for r in rows] == ["below", "above"]
    below, above = ([float(v) for v in row[1:]] for row in rows)
    sqrt2 = math.sqrt(2)
    assert_allclose(below, [sqrt2, 1 / sqrt2, (11 - 4 * sqrt2) / sqrt2], rtol=1e-14)
    assert_allclose(above, [2.0, -1.0, -1.0], rtol=1e-14)


def test_convergence_decoupled_single_row(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["convergence", "--n-atoms", "3", "--lambda-min", "0",
                 "--lambda-steps", "1", "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    assert len(rows) == 1
    record = dict(zip(header, rows[0]))
    assert record["n_cutoff"] == "20"
    assert float(record["tail_population"]) == 0.0


def test_convergence_trajectory_energies_monotone(tmp_path):
    # from its first cutoff the point is accepted in one row; from cutoff 5 each
    # doubling lowers the energy, the spaces being nested
    out = tmp_path / "c2.csv"
    args = ["convergence", "--n-atoms", "4", "--lambda-min", "1.0", "--lambda-steps", "1",
            "--tol", "1e-10", "--out", str(out)]
    assert main(args) == 0
    header, rows, _ = read_csv_rows(out)
    assert [row[2:4] for row in rows] == [["0", str(initial_cutoff(ModelParams(1.0, 1.0, 1.0, 4)))]]
    assert main([*args, "--fock-cutoff", "5"]) == 0
    header, rows, _ = read_csv_rows(out)
    energies = [float(dict(zip(header, r))["energy"]) for r in rows]
    assert len(energies) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("n_atoms,lambda_max,steps", [((1, 2), 3.0, 801), ((20,), 1.0, 21),
                                                   ((100,), 2.0, 21)])
def test_convergence_one_row_per_point(n_atoms, lambda_max, steps, tmp_path):
    # on the sweep grids every point is accepted at its first cutoff: one row each
    out = tmp_path / "c.csv"
    config = SweepConfig("convergence", lambda_max=lambda_max, lambda_steps=steps,
                         n_atoms=n_atoms)
    flags = [arg for n in n_atoms for arg in ("--n-atoms", str(n))]
    assert main(["convergence", *flags, "--lambda-max", str(lambda_max),
                 "--lambda-steps", str(steps), "--out", str(out)]) == 0
    _, rows, _ = read_csv_rows(out)
    assert [row[:4] for row in rows] == [
        [repr(params.lam), str(params.n_atoms), "0", str(initial_cutoff(params))]
        for params in config.points()]


def test_convergence_fock_cutoff_starts_trajectory(tmp_path):
    # --fock-cutoff C is the first cutoff of the trajectory, not ignored
    out = tmp_path / "c7.csv"
    assert main(["convergence", "--n-atoms", "2", "--lambda-min", "1", "--lambda-max", "1",
                 "--lambda-steps", "1", "--fock-cutoff", "7", "--out", str(out)]) == 0
    header, rows, footer = read_csv_rows(out)
    cutoffs = [int(dict(zip(header, row))["n_cutoff"]) for row in rows]
    assert cutoffs[0] == 7
    assert cutoffs == [7 * 2**i for i in range(len(cutoffs))] and len(cutoffs) >= 2
    assert "fock_cutoff=7" in footer[0]


def test_convergence_hard_cap_partial_output(tmp_path, monkeypatch):
    # under a budget that holds cutoff 100, lambda = 2 started at 60 is not accepted
    # there (it starts at 93 by default) and its doubling to 120 is past the budget:
    # it fails with the row of its one solve, while lambda = 0 is accepted at 60
    budget = solve_bytes(ModelParams(1.0, 1.0, 2.0, 6), 100)
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
    out = tmp_path / "cap.csv"
    code = main(["convergence", "--n-atoms", "6", "--lambda-min", "0.0", "--lambda-max", "2.0",
                 "--lambda-steps", "2", "--fock-cutoff", "60", "--out", str(out)])
    assert code == 4
    _, rows, footer = read_csv_rows(out)
    assert [row[:4] for row in rows] == [["0.0", "6", "0", "60"], ["2.0", "6", "0", "60"]]
    assert "failed_points=[[2.0, 6]]" in footer[0]


@pytest.mark.parametrize("mode", ["sweep", "husimi", "convergence"])
def test_fock_cutoff_past_budget_for_the_largest_n(mode, tmp_path, capsys, monkeypatch):
    # cutoff 40000 fits N = 2 but not N = 400 at lambda > 0, so the
    # run is an invalid argument before FILE is opened; at lambda = 0 alone it fits
    args = ["--lambda-max", "1", "--lambda-steps", "2", "--fock-cutoff", "40000"]
    for n_atoms, fits in ((2, True), (400, False)):
        params = ModelParams(1.0, 1.0, 1.0, n_atoms)
        assert (solve_bytes(params, 40000) <= dicke_qfi.solver.MEMORY_BUDGET) == fits
    SweepConfig(mode=mode, n_atoms=(2,), lambda_max=1.0, lambda_steps=2, fock_cutoff=40000)
    SweepConfig(mode=mode, n_atoms=(2, 400), lambda_steps=1, fock_cutoff=40000)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert main([mode, "--n-atoms", "2", "--n-atoms", "400", *args, "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"
    err = capsys.readouterr().err
    assert "invalid argument: fock-cutoff 40000: n_cutoff=40000 at N=400 needs" in err
    assert "past the memory budget" in err


def test_schmidt_runs_fit_the_budget(monkeypatch):
    # eight states of one padded shape, whose Schmidt steps together hold 8/3 of
    # the budget, are decomposed in runs of 3, 3 and 2, each row with the bits it
    # has alone; tracemalloc's peak of the sweep rows stays within the budget
    # (0.8 to 0.9 of it measured), where one run of all eight peaked at 2.2
    config = sweep_config(fock_cutoff=3000)
    states = dicke_qfi.solver.solve_stack(
        [ModelParams(1.0, 1.0, float(lam), 2) for lam in np.linspace(0.3, 2.5, 8)],
        fock_cutoff=3000)
    alone = [row for gs in states for row in compute_sweep_records([gs], config)]
    budget = 3 * dicke_qfi.states.schmidt_bytes(states[0])
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
    runs = []
    schmidt_stack = dicke_qfi.states.schmidt_stack
    monkeypatch.setattr(dicke_qfi.states, "schmidt_stack",
                        lambda run: runs.append(len(run)) or schmidt_stack(run))
    tracemalloc.start()
    try:
        rows = list(compute_sweep_records(states, config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runs == [3, 3, 2]
    assert peak <= budget
    assert rows == alone


def test_invalid_grid_exit_code():
    assert main(["sweep", "--lambda-min", "1.0", "--lambda-max", "0.0"]) == 2
    assert main(["sweep", "--lambda-steps", "0"]) == 2
    assert main(["sweep", "--tol", "-1"]) == 2


@pytest.mark.parametrize("mode,flag,value", [
    ("sweep", "--fock-cutoff", "0"),
    ("convergence", "--fock-cutoff", "0"),
    # past the memory budget at every N: the block has more positions than
    # the budget has floats
    *((mode, "--fock-cutoff", str(dicke_qfi.solver.MEMORY_BUDGET // 8))
      for mode in ("sweep", "husimi", "convergence")),
    ("husimi", "--grid-points", "5"),
    # a grid this fine would not fit in memory
    ("husimi", "--grid-points", "1000000000000"),
    ("husimi", "--grid-points", str(MAX_GRID_POINTS + 1)),
    *((mode, "--workers", str(MAX_WORKERS + 1)) for mode in ("sweep", "husimi", "convergence")),
    ("sweep", "--omega", "-1"),
    ("husimi", "--omega0", "0"),
    ("convergence", "--lambda-min", "-0.5"),
    ("thermo", "--omega", "-1"),
    ("scaling", "--omega", "0"),
    # a grid this long would not fit in memory; it is rejected before it is made
    *((mode, "--lambda-steps", "1000000000000")
      for mode in ("sweep", "husimi", "thermo", "scaling", "convergence")),
    # outside the box of N, omega, omega0 and lambda, which once failed late
    ("sweep", "--n-atoms", "1000000000000000000000"),
    ("sweep", "--n-atoms", str(10**43)),
    ("husimi", "--n-atoms", str(MAX_ATOMS + 1)),
    ("sweep", "--omega", "1e-200"),
    ("husimi", "--omega", "1e-200"),
    ("convergence", "--omega0", "1e-200"),
    ("sweep", "--lambda-max", "1e200"),
    ("husimi", "--lambda-max", "1e200"),
    ("scaling", "--omega", "1e-300"),
    ("thermo", "--omega", "1e300"),
    ("thermo", "--omega0", str(2 * PARAMETER_MAX)),
])
def test_invalid_argument_keeps_output_file(mode, flag, value, tmp_path, capsys, monkeypatch):
    # rejected while the configuration is resolved, before FILE is opened or
    # any process is started
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert main([mode, "--n-atoms", "2", "--lambda-steps", "1", flag, value,
                 "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert "invalid argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # a config file with no atom number once emptied FILE and exited 2
    ["sweep", "--config", "{empty}"],
    ["convergence", "--config", "{empty}"],
    ["sweep", "--lambda-min", "1e200", "--lambda-max", "1e200", "--lambda-steps", "1"],
    ["husimi", "--lambda-min", "1e200", "--lambda-max", "1e200", "--lambda-steps", "1"],
    ["thermo", "--omega", "1e300", "--omega0", "1e300", "--lambda-max", "1e300",
     "--lambda-steps", "3"],
], ids=["sweep-empty-n-atoms", "convergence-empty-n-atoms", "sweep-lambda", "husimi-lambda",
        "thermo-omega-lambda"])
def test_out_of_range_run_keeps_output_file(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    empty = tmp_path / "empty.cfg"
    empty.write_text("n-atoms =\n")
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert main([arg.format(empty=empty) for arg in argv] + ["--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert "invalid argument" in capsys.readouterr().err


def test_unknown_mode_is_refused_before_its_output_is_opened(tmp_path):
    # main's parser refuses it first; a configuration built in code is refused
    # as it is made, where the run once emptied FILE before naming the mode
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    with pytest.raises(ValueError, match="unknown mode nosuch"):
        SweepConfig(mode="nosuch", out=str(out))
    assert out.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--omega", "--omega0", "--lambda-min", "--lambda-max", "--tol"])
def test_non_finite_argument_exit_code(flag, value, capsys):
    assert main(["thermo", f"{flag}={value}", "--out", "-"]) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


def test_banded_failure_exit_code(tmp_path, monkeypatch):
    dpbtrf = dicke_qfi.solver.lapack.dpbtrf
    monkeypatch.setattr(dicke_qfi.solver.lapack, "dpbtrf",
                        lambda ab, **kwargs: (dpbtrf(ab, **kwargs)[0], 1))
    check_failed_sweep(tmp_path, "1", ["600", "600"])


def check_failed_sweep(tmp_path, n_atoms, cutoffs, fixed=True):
    """Sweep N = ``n_atoms`` at lambda = 0.4 and 0.5, at the fixed cutoff ``cutoffs[0]``
    or converged, and check that the points failed at their ``cutoffs``."""
    out = tmp_path / "x.csv"
    fock_cutoff = ["--fock-cutoff", cutoffs[0]] if fixed else []
    code = main(["sweep", "--n-atoms", n_atoms, "--lambda-min", "0.4", "--lambda-max", "0.5",
                 "--lambda-steps", "2", *fock_cutoff, "--out", str(out)])
    assert code == 4
    # each failed point is a NaN row, and the sweep still writes every row and the footer
    header, rows, footer = read_csv_rows(out)
    assert tuple(header) == SWEEP_COLUMNS
    assert [row[:3] for row in rows] == [["0.4", n_atoms, cutoffs[0]],
                                         ["0.5", n_atoms, cutoffs[1]]]
    assert all(math.isnan(float(v)) for row in rows for v in row[3:])
    assert len(footer) == 1
    assert f"failed_points=[[0.4, {n_atoms}], [0.5, {n_atoms}]]" in footer[0]


def test_failed_point_is_named_on_stderr(tmp_path, capsys, monkeypatch):
    # the points start at cutoffs 26 and 28, and the solve at 26 is one byte past
    # the budget: each is refused, and stderr says which point failed and why
    points = [ModelParams(1.0, 1.0, lam, 2) for lam in (0.4, 0.5)]
    first = [initial_cutoff(params) for params in points]
    held = [solve_bytes(params, n_cutoff) for params, n_cutoff in zip(points, first)]
    budget = held[0] - 1
    monkeypatch.setattr(dicke_qfi.solver, "MEMORY_BUDGET", budget)
    check_failed_sweep(tmp_path, "2", [str(n_cutoff) for n_cutoff in first], fixed=False)
    assert capsys.readouterr().err.splitlines() == [
        f"dicke-qfi: lambda={params.lam} N=2 failed: n_cutoff={n_cutoff} "
        f"at N=2 needs {nbytes} bytes, past the memory budget of {budget} bytes"
        for params, n_cutoff, nbytes in zip(points, first, held)]


def test_solver_failure_mid_doubling(tmp_path, fail_solves_above):
    # at tol 1e-30 lambda = 0 is still accepted at cutoff 20, being exact, while
    # lambda = 1 (N = 2) is not accepted at its first cutoff, 37, and fails at its
    # first doubling
    start = initial_cutoff(ModelParams(1.0, 1.0, 1.0, 2))
    fail_solves_above(start)
    args = ["--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "1", "--lambda-steps", "2",
            "--tol", "1e-30"]
    out = tmp_path / "s.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 4
    header, rows, footer = read_csv_rows(out)
    assert rows[0][:3] == ["0.0", "2", "20"] and not math.isnan(float(rows[0][3]))
    assert rows[1][:3] == ["1.0", "2", str(2 * start)]
    assert all(math.isnan(float(v)) for v in rows[1][3:])
    assert "failed_points=[[1.0, 2]]" in footer[0]
    # the convergence report keeps both trajectories up to the failing solve
    out = tmp_path / "c.csv"
    assert main(["convergence", *args, "--out", str(out)]) == 4
    _, rows, footer = read_csv_rows(out)
    assert [row[:4] for row in rows] == [["0.0", "2", "0", "20"], ["1.0", "2", "0", str(start)]]
    assert "failed_points=[[1.0, 2]]" in footer[0]


def test_out_of_memory_around_the_solver_fails_its_stack(tmp_path, monkeypatch):
    # a MemoryError while the solver forms N = 3's records fails those points at
    # their first cutoffs, 29 and 31; N = 2's rows keep the bytes of an unpatched run
    args = ["sweep", "--n-atoms", "2", "--n-atoms", "3", "--lambda-min", "0.4",
            "--lambda-max", "0.5", "--lambda-steps", "2"]
    expected, out = tmp_path / "expected.csv", tmp_path / "out.csv"
    assert main([*args, "--out", str(expected)]) == 0
    tail = dicke_qfi.solver.tail_population

    def out_of_memory(vector, n_atoms, n_cutoff):
        if n_atoms == 3:
            raise MemoryError("no room for the tail")
        return tail(vector, n_atoms, n_cutoff)

    monkeypatch.setattr(dicke_qfi.solver, "tail_population", out_of_memory)
    assert main([*args, "--out", str(out)]) == 4
    _, rows, footer = read_csv_rows(out)
    _, expected_rows, _ = read_csv_rows(expected)
    assert rows[:2] == expected_rows[:2]
    assert [row[:3] for row in rows[2:]] == [["0.4", "3", "29"], ["0.5", "3", "31"]]
    assert all(math.isnan(float(v)) for row in rows[2:] for v in row[3:])
    assert "failed_points=[[0.4, 3], [0.5, 3]]" in footer[0]


def test_out_of_memory_while_a_record_is_formed_fails_its_point_alone(
        tmp_path, capsys, monkeypatch):
    # from cutoff 5, lambda = 1 (N = 2) is solved at 5, 10, 20 and 40; a MemoryError
    # while its record is formed at 20 fails it there, after the rows of 5 and 10,
    # which a retry at its first cutoff once lost, and lambda = 0 keeps its bytes
    args = ["--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "1", "--lambda-steps", "2"]
    converge = ["convergence", *args, "--fock-cutoff", "5"]
    sweep = ["sweep", *args, "--fock-cutoff", "20"]
    expected = {mode: tmp_path / f"expected-{mode}.csv" for mode in ("convergence", "sweep")}
    assert main([*converge, "--out", str(expected["convergence"])]) == 0
    assert main([*sweep, "--out", str(expected["sweep"])]) == 0
    capsys.readouterr()
    leakage = dicke_qfi.solver.leakage

    def out_of_memory(vector, params, n_cutoff):
        if params.lam == 1.0 and n_cutoff == 20:
            raise MemoryError("no room for the leakage")
        return leakage(vector, params, n_cutoff)

    monkeypatch.setattr(dicke_qfi.solver, "leakage", out_of_memory)
    out = tmp_path / "c.csv"
    assert main([*converge, "--out", str(out)]) == 4
    _, rows, footer = read_csv_rows(out)
    _, expected_rows, _ = read_csv_rows(expected["convergence"])
    assert [row[:4] for row in expected_rows] == [
        ["0.0", "2", "0", "5"], *(["1.0", "2", str(i), str(5 << i)] for i in range(4))]
    assert rows == expected_rows[:3]
    assert "failed_points=[[1.0, 2]]" in footer[0]
    # the sweep's NaN row names the cutoff whose record failed
    out = tmp_path / "s.csv"
    assert main([*sweep, "--out", str(out)]) == 4
    _, rows, footer = read_csv_rows(out)
    _, expected_rows, _ = read_csv_rows(expected["sweep"])
    assert rows[0] == expected_rows[0]
    assert rows[1][:3] == ["1.0", "2", "20"]
    assert all(math.isnan(float(v)) for v in rows[1][3:])
    assert "failed_points=[[1.0, 2]]" in footer[0]
    assert capsys.readouterr().err.splitlines() == [
        "dicke-qfi: lambda=1.0 N=2 failed: out of memory at n_cutoff=20: no room for the leakage"
    ] * 2


@pytest.mark.parametrize("fmt", FORMATS)
def test_failed_sweep_rows_have_the_header_width(fmt, tmp_path, fail_solves_above):
    # lambda = 0 is accepted at cutoff 20 and the others fail at their first cutoffs
    fail_solves_above(20)
    out = tmp_path / f"s.{fmt}"
    assert main(["sweep", "--n-atoms", "2", "--lambda-steps", "3", "--format", fmt,
                 "--out", str(out)]) == 4
    if fmt == "csv":
        header, rows, _ = read_csv_rows(out)
        assert tuple(header) == SWEEP_COLUMNS and len(rows) == 3
        assert all(len(row) == len(header) for row in rows)
        failed = [row for row in rows if math.isnan(float(row[3]))]
    else:
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3
        assert all(sorted(row) == sorted(SWEEP_COLUMNS) for row in rows)
        failed = [row for row in rows if row["ground_energy"] is None]
    assert len(failed) == 2


def test_husimi_skips_failed_point(tmp_path, fail_solves_above):
    # lambda = 0 is accepted at cutoff 20; lambda = 1 (N = 2) fails at its first
    # cutoff, 37
    fail_solves_above(initial_cutoff(ModelParams(1.0, 1.0, 1.0, 2)) - 1)
    args = ["husimi", "--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "1",
            "--lambda-steps", "2", "--grid-points", "11"]
    out = tmp_path / "h.json"
    assert main([*args, "--format", "json", "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert [(g["lambda"], g["n_atoms"]) for g in payload["grids"]] == [(0.0, 2)]
    assert payload["meta"]["failed_points"] == [[1.0, 2]]
    out = tmp_path / "h.csv"
    assert main([*args, "--out", str(out)]) == 4
    _, rows, footer = read_csv_rows(out)
    assert len(rows) == 2 * 11 * 11 and {row[0] for row in rows} == {"0.0"}
    assert "failed_points=[[1.0, 2]]" in footer[0]


def test_allocation_failure_is_a_failed_point(tmp_path, monkeypatch):
    # a basis too large for memory fails its point, as a solver failure does; the
    # point is coupled, as at lam = 0 the exact state is formed without the basis
    def out_of_memory(n_atoms, n_cutoff):
        raise MemoryError(f"no room for the basis of N = {n_atoms}")

    monkeypatch.setattr(dicke_qfi.model, "_units", out_of_memory)
    out = tmp_path / "m.csv"
    argv = ["sweep", "--n-atoms", "3", "--lambda-min", "0.1", "--lambda-steps", "1"]
    assert main([*argv, "--out", str(out)]) == 4
    header, rows, footer = read_csv_rows(out)
    assert rows[0][:3] == ["0.1", "3", "22"]
    assert all(math.isnan(float(v)) for v in rows[0][3:])
    assert "failed_points=[[0.1, 3]]" in footer[0]


def test_failed_schmidt_step_fails_its_point_alone(tmp_path, monkeypatch):
    # the SVD fails on any batch that holds one marked grid: that run's points
    # are decomposed again one at a time, the marked one alone gets a NaN row
    # (with the cutoff it was solved at), and every other row keeps its bytes
    argv = ["sweep", "--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "0.6",
            "--lambda-steps", "7", "--tol", "1e-10"]
    assert main([*argv, "--out", str(tmp_path / "plain.csv")]) == 0
    marked_state = solve(ModelParams(1.0, 1.0, 0.3, 2), 1e-10)
    (marked,) = dicke_qfi.model.amplitude_grids(2, [marked_state.vector], [marked_state.n_cutoff])
    real = np.linalg.svd
    batches = []

    def fail_on_marked(a, *args, **kwargs):
        batches.append(len(a))
        if any(np.array_equal(grid, marked) for grid in a):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_on_marked)
    assert main([*argv, "--out", str(tmp_path / "failed.csv")]) == 4
    assert max(batches) > 1 and batches.count(1) >= 2
    header, plain, _ = read_csv_rows(tmp_path / "plain.csv")
    _, failed, footer = read_csv_rows(tmp_path / "failed.csv")
    lams = [row[0] for row in plain]
    assert [row[0] for row in failed] == lams
    i = lams.index("0.3")
    assert failed[i][:3] == ["0.3", "2", str(marked_state.n_cutoff)]
    assert all(math.isnan(float(v)) for v in failed[i][3:])
    assert failed[:i] + failed[i + 1:] == plain[:i] + plain[i + 1:]
    assert "failed_points=[[0.3, 2]]" in footer[0]


def test_husimi_kernel_allocation_failure_skips_point(tmp_path, monkeypatch):
    real = dicke_qfi.cli.husimi_atoms

    def out_of_memory_at_n3(atoms, theta, phi):
        if atoms.dim == 4:
            raise MemoryError("no room for the N = 3 amplitudes")
        return real(atoms, theta, phi)

    monkeypatch.setattr(dicke_qfi.cli, "husimi_atoms", out_of_memory_at_n3)
    out = tmp_path / "h.json"
    assert main(["husimi", "--n-atoms", "2", "--n-atoms", "3", "--lambda-steps", "1",
                 "--grid-points", "11", "--format", "json", "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert [(g["lambda"], g["n_atoms"]) for g in payload["grids"]] == [(0.0, 2)]
    assert payload["meta"]["failed_points"] == [[0.0, 3]]


def test_field_side_builds_no_dense_operator(tmp_path):
    # one dense float64 field operator at cutoff 600 takes 2.9 MB; the point's
    # traced peak stays below a quarter of that, so no field observable builds one
    tracemalloc.start()
    try:
        record = sweep_record(ModelParams(1.0, 1.0, 0.5, 2), sweep_config(fock_cutoff=600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["n_cutoff"] == 600
    assert all(math.isfinite(v) for v in record.values())
    assert peak < 8 * 601**2 / 4
    out = tmp_path / "h.json"
    assert main(["husimi", "--n-atoms", "2", "--lambda-min", "0.5", "--lambda-steps", "1",
                 "--fock-cutoff", "600", "--grid-points", "11", "--format", "json",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["grids"]) == 1


def test_sweep_point_builds_no_dense_spin_operator():
    # the dense spin matrices are test oracles: no module of the package holds a builder
    for name, module in list(sys.modules.items()):
        if name == "dicke_qfi" or name.startswith("dicke_qfi."):
            assert not hasattr(module, "build_spin_ops"), name
            assert not any(value is build_spin_ops for value in vars(module).values()), name
    for n_atoms, lam in ((1, 0.5), (6, 1.5), (20, 1.0)):
        record = sweep_record(ModelParams(1.0, 1.0, lam, n_atoms), sweep_config())
        assert all(math.isfinite(v) for v in record.values())


@pytest.mark.parametrize("n_atoms,lam", [(2, 3.0), (6, 1.5), (20, 2.0)])
def test_sweep_point_allocates_no_dense_block(n_atoms, lam):
    # a point's traced peak stays below half of one dense float64 copy of its
    # final even block (dim 188, 375 and 3413 here), which a dense eigensolve needs
    tracemalloc.start()
    try:
        record = sweep_record(ModelParams(1.0, 1.0, lam, n_atoms), sweep_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(record["ground_energy"])
    dim = even_indices(BasisIndexer(record["n_cutoff"], n_atoms)).size
    assert peak < 8 * dim**2 / 2


def test_io_error_exit_code(tmp_path):
    code = main(["sweep", *SMALL_SWEEP, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "omega0 = 2.0\n"
        "lambda-steps = 2\n"
        "n-atoms = 1, 2\n"
        "tol: 1e-8\n"
        "# comment line\n"
    )
    out = tmp_path / "cfg.json"
    assert main(["sweep", "--config", str(cfg), "--omega0", "3.0", "--lambda-max",
                 "0.2", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["omega0"] == 3.0  # flag wins over file
    assert payload["meta"]["lambda_steps"] == 2
    assert payload["meta"]["n_atoms"] == [1, 2]
    assert payload["meta"]["tol"] == 1e-8


def test_config_file_line_without_separator(tmp_path, capsys):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("omega0 = 2.0\nn-atoms 50\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("omega0 = 2.0\nn_atom = 50\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "n_atom" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# one non-default value per setting: its flags, its config-file text, the value
# it resolves to, and file text its parser rejects (None where any text parses)
SETTING_VALUES = {
    "omega": (["--omega", "2.5"], "2.5", 2.5, "fast"),
    "omega0": (["--omega0", "0.5"], "0.5", 0.5, "1,5"),
    "lambda_min": (["--lambda-min", "0.25"], "0.25", 0.25, "x"),
    "lambda_max": (["--lambda-max", "2"], "2", 2.0, "two"),
    "lambda_steps": (["--lambda-steps", "3"], "3", 3, "3.0"),
    "n_atoms": (["--n-atoms", "1", "--n-atoms", "3"], "1, 3", (1, 3), "1, three"),
    "tol": (["--tol", "1e-8"], "1e-8", 1e-8, "tight"),
    "fock_cutoff": (["--fock-cutoff", "7"], "7", 7, "7.5"),
    "grid_points": (["--grid-points", "15"], "15", 15, "many"),
    "out": (["--out", "run.csv"], "run.csv", "run.csv", None),
    "format": (["--format", "json"], "json", "json", None),
    "workers": (["--workers", "2"], "2", 2, "two"),
}


@pytest.mark.parametrize("mode", ["sweep", "husimi", "thermo", "scaling", "convergence"])
@pytest.mark.parametrize("name", [f.name for f in fields(SweepConfig) if f.name != "mode"])
def test_every_setting_resolves_from_flag_and_file(name, mode, tmp_path, monkeypatch, capsys):
    flag_args, text, value, malformed = SETTING_VALUES[name]
    expected = SweepConfig(mode=mode, **{name: value})
    assert expected != SweepConfig(mode=mode)
    resolved = []
    monkeypatch.setattr(dicke_qfi.cli, "_dispatch", lambda config: resolved.append(config) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name.replace('_', '-')} = {text}\n")
    assert main([mode, *flag_args]) == 0
    assert main([mode, "--config", str(cfg)]) == 0
    assert resolved == [expected, expected]
    if malformed is not None:
        # file values are parsed as the file is read, so a flag does not mask a bad one
        cfg.write_text(f"{name} = {malformed}\n")
        assert main([mode, "--config", str(cfg), *flag_args]) == 2
        assert f"{cfg}:1: {name}:" in capsys.readouterr().err


def test_format_value_round_trip():
    assert format_value(0.1) == "0.1"
    assert format_value(1 / 3) == repr(1 / 3)
    assert format_value(float("nan")) == "nan"
    assert format_value(True) == "1"
    assert format_value(7) == "7"


def test_compute_sweep_record_consistency():
    record = sweep_record(ModelParams(1.0, 1.0, 0.54, 6), sweep_config())
    assert all(math.isfinite(v) for v in record.values())
    assert record["F_A"] > 0 and record["F_B"] > 0
    assert abs(record["parity_expect"] - 1.0) < 1e-8
    assert record["xi2"] < 1.0
    assert record["discarded_mass_A"] < 1e-10
    assert record["discarded_mass_B"] < 1e-10


@pytest.mark.parametrize("n_atoms,lam", [(1, 0.8), (2, 0.3), (3, 1.2), (20, 0.6)])
def test_parity_expect_is_the_signed_sum(n_atoms, lam):
    # the squared norm of the even amplitudes equals sum (-1)^(n+m+j) |psi|^2 over
    # the product basis, up to the rounding of the sums: every odd entry is 0
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    record = sweep_record(params, sweep_config())
    gs = dicke_qfi.solver.solve(params, 1e-10)
    signs = parity_signs_from_scratch(BasisIndexer(gs.n_cutoff, gs.params.n_atoms))
    signed = float(np.sum(signs * product_vector(gs) ** 2))
    assert abs(record["parity_expect"] - signed) <= 1e-15


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(mode="sweep", lambda_steps=0)
    with pytest.raises(ValueError):
        SweepConfig(mode="sweep", n_atoms=(0,))
    with pytest.raises(ValueError):
        SweepConfig(mode="sweep", format="yaml")


@pytest.mark.parametrize("omega,omega0", [(w, w0) for w in (PARAMETER_MIN, PARAMETER_MAX)
                                          for w0 in (PARAMETER_MIN, PARAMETER_MAX)])
@pytest.mark.parametrize("mode", ["sweep", "husimi", "thermo", "scaling", "convergence"])
def test_parameter_box_corners_run_in_every_mode(mode, omega, omega0, tmp_path):
    # lambda at 0, exactly at lambda_cr and at the top of the box: a point may
    # fail (exit 4), but no corner raises or is rejected.  N = MAX_ATOMS at the
    # top coupling starts past the memory budget, so it fails before it allocates
    lcr = math.sqrt(omega * omega0) / 2
    out = tmp_path / "out.txt"
    for lambda_min, lambda_max, steps, n_atoms in ((0.0, PARAMETER_MAX, 2, 1), (lcr, lcr, 1, 1),
                                                   (PARAMETER_MAX, PARAMETER_MAX, 1, MAX_ATOMS)):
        argv = [mode, "--omega", repr(omega), "--omega0", repr(omega0),
                "--lambda-min", repr(lambda_min), "--lambda-max", repr(lambda_max),
                "--lambda-steps", str(steps), "--n-atoms", str(n_atoms), "--grid-points", "11",
                "--out", str(out)]
        assert main(argv) in ((0,) if mode in ("thermo", "scaling") else (0, 4))
    if mode == "thermo":
        for lam in (0.0, lcr, PARAMETER_MAX):
            config = SweepConfig(mode="thermo", omega=omega, omega0=omega0, lambda_min=lam,
                                 lambda_max=lam, lambda_steps=1)
            rows, failed = run_thermo(config)
            assert all(math.isfinite(v) for v in rows[0]) and failed == []
            assert initial_cutoff(ModelParams(omega, omega0, lam, MAX_ATOMS)) >= 20
    if mode == "scaling":
        config = SweepConfig(mode="scaling", omega=omega, omega0=omega0)
        rows, failed = run_scaling(config)
        for _, *amplitudes in rows:
            assert all(math.isfinite(v) and v != 0 for v in amplitudes)
        assert failed == []
