import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg
from qfi_reference import build_spin_ops, parity_signs_from_scratch

import dicke_qfi.cli
import dicke_qfi.model
import dicke_qfi.solver
from dicke_qfi.cli import (
    HUSIMI_COLUMNS,
    MAX_ATOMS,
    MAX_GRID_POINTS,
    MAX_WORKERS,
    PARAMETER_MAX,
    PARAMETER_MIN,
    SWEEP_COLUMNS,
    SweepConfig,
    compute_husimi_grid,
    compute_sweep_record,
    format_value,
    main,
    run_thermo,
    write_table,
)
from dicke_qfi.model import BasisIndexer, ModelParams, even_sector
from dicke_qfi.solver import BANDED_MAX_ATOMS, initial_cutoff

SMALL_SWEEP = [
    "--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "0.4",
    "--lambda-steps", "5", "--tol", "1e-8",
]


def sweep_config(**settings):
    """A sweep configuration at tol 1e-10, as compute_sweep_record takes it."""
    return SweepConfig(mode="sweep", tol=1e-10, **settings)


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
    # of both N to each process, whose own skeleton cache sees them out of order
    serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
    args = ["sweep", "--n-atoms", "1", "--n-atoms", "2", "--lambda-min", "0",
            "--lambda-max", "3", "--lambda-steps", "25", "--format", "json"]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    cutoffs = [row["n_cutoff"] for row in json.loads(serial.read_text())["rows"]]
    assert len(set(cutoffs)) < len(cutoffs)


def test_sweep_workers_match_serial_warm_lanczos(tmp_path):
    # N = 101 is more than the banded solver takes, so every point's doubled
    # solve is warm-started Lanczos (even block dim 2091 to 7803)
    assert 101 > BANDED_MAX_ATOMS
    serial, parallel = tmp_path / "serial.csv", tmp_path / "par.csv"
    args = ["sweep", "--n-atoms", "101", "--lambda-min", "0.1", "--lambda-max", "0.5",
            "--lambda-steps", "3"]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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

    monkeypatch.setattr(dicke_qfi.cli, "ProcessPoolExecutor", SerialPool)
    for mode in ("sweep", "husimi", "convergence"):
        for steps in ("1", "3"):
            assert main([mode, "--n-atoms", "2", "--lambda-steps", steps, "--grid-points", "11",
                         "--workers", str(MAX_WORKERS), "--out", str(tmp_path / "out")]) == 0
    assert sizes == [3, 3, 3]


def test_sweep_flags_unconverged_point(tmp_path, monkeypatch):
    monkeypatch.setattr(dicke_qfi.solver, "HARD_CAP", 32)
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
    assert at[0.5]["guard_band"] == "1"
    assert float(at[1.0]["mu"]) == 0.25


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
    out = tmp_path / "h.json"
    assert main(["husimi", "--n-atoms", "4", "--lambda-min", "0", "--lambda-steps",
                 "1", "--grid-points", "21", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    grid = payload["grids"][0]
    assert grid["atoms"]["q_max"] == pytest.approx(1.0, abs=1e-12)
    q = np.array(grid["atoms"]["q"])
    theta = np.array(grid["atoms"]["theta"])
    assert np.allclose(q, (np.cos(theta / 2) ** 8)[:, None], atol=1e-12)
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
    # the streamed grids, written as they are solved, against one list of all of them
    config = SweepConfig(mode="husimi", n_atoms=(1, 2), lambda_min=0.0, lambda_max=1.0,
                         lambda_steps=3, grid_points=11)
    grids = [compute_husimi_grid(params, config) for params in config.points()]
    assert all(isinstance(g["atoms"]["q"], np.ndarray) for g in grids)
    reference = io.StringIO()
    _write_husimi_lists(reference, _as_lists(grids), config.meta(), fmt)
    out = tmp_path / f"h.{fmt}"
    for workers in ("1", "2"):
        assert main(["husimi", "--n-atoms", "1", "--n-atoms", "2", "--lambda-min", "0",
                     "--lambda-max", "1", "--lambda-steps", "3", "--grid-points", "11",
                     "--format", fmt, "--workers", workers, "--out", str(out)]) == 0
        assert out.read_text() == reference.getvalue()


def test_husimi_memory_does_not_hold_lists(tmp_path):
    # repeated points at one coupling: each grid is written and dropped before
    # the next point is solved, so six points peak less than half of one
    # point's float64 grids (8 bytes a cell) above one point; a grid held
    # while the next is solved adds all of them
    points = 81
    array_bytes = 8 * 2 * points**2  # q of the atoms and q of the field
    for fmt in ("csv", "json"):
        peaks = []
        for steps in (1, 6):
            tracemalloc.start()
            try:
                assert main(["husimi", "--n-atoms", "2", "--lambda-min", "0.5", "--lambda-max",
                             "0.5", "--lambda-steps", str(steps), "--grid-points", str(points),
                             "--format", fmt, "--out", str(tmp_path / f"h.{fmt}")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < array_bytes / 2, fmt


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
    ["scaling", "--omega", "1000"],  # a NaN fit, written as null
], ids=["sweep", "convergence", "thermo", "scaling", "scaling-nan"])
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
    _write_table_json_dump(reference, columns, rows, meta)
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
    write_table(written, columns, rows, meta, "json")
    _write_table_json_dump(reference, columns, rows, meta)
    assert written.getvalue() == reference.getvalue()


def test_import_loads_neither_scipy_special_nor_sparse():
    # every process, each --workers child included, pays for what the CLI imports
    code = ("import sys, dicke_qfi.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'special'], ['scipy', 'sparse'])))")
    src = str(Path(dicke_qfi.cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_scaling_report(tmp_path):
    out = tmp_path / "sc.csv"
    assert main(["scaling", "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    assert [r[0] for r in rows] == ["below", "above"]
    for row in rows:
        record = dict(zip(header, row))
        assert abs(float(record["eps1_exponent"]) - 0.5) < 0.02
        assert abs(float(record["dfa_exponent"]) + 0.5) < 0.03
        assert record["low_confidence"] == "0"


def test_scaling_non_finite_fit_exit_code(tmp_path):
    out = tmp_path / "sc_nan.csv"
    assert main(["scaling", "--omega", "1000", "--out", str(out)]) == 4
    header, rows, _ = read_csv_rows(out)
    above = dict(zip(header, rows[1]))
    assert above["dfb_exponent"] == "nan"
    assert above["low_confidence"] == "1"


def test_scaling_low_confidence_exit_code(tmp_path, monkeypatch):
    import dicke_qfi.thermo

    monkeypatch.setattr(dicke_qfi.thermo, "RESIDUAL_THRESHOLD", 1e-9)
    out = tmp_path / "sc_low.csv"
    assert main(["scaling", "--out", str(out)]) == 4
    header, rows, _ = read_csv_rows(out)
    assert all(dict(zip(header, r))["low_confidence"] == "1" for r in rows)


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
    out = tmp_path / "c2.csv"
    assert main(["convergence", "--n-atoms", "4", "--lambda-min", "1.0",
                 "--lambda-steps", "1", "--tol", "1e-10", "--out", str(out)]) == 0
    header, rows, _ = read_csv_rows(out)
    energies = [float(dict(zip(header, r))["energy"]) for r in rows]
    assert len(energies) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_convergence_fock_cutoff_starts_trajectory(tmp_path):
    # --fock-cutoff C is the first cutoff of the doubling, not ignored
    out = tmp_path / "c7.csv"
    assert main(["convergence", "--n-atoms", "2", "--lambda-min", "1", "--lambda-max", "1",
                 "--lambda-steps", "1", "--fock-cutoff", "7", "--out", str(out)]) == 0
    header, rows, footer = read_csv_rows(out)
    cutoffs = [int(dict(zip(header, row))["n_cutoff"]) for row in rows]
    assert cutoffs[0] == 7
    assert cutoffs == [7 * 2**i for i in range(len(cutoffs))] and len(cutoffs) >= 2
    assert "fock_cutoff=7" in footer[0]


def test_convergence_hard_cap_partial_output(tmp_path, monkeypatch):
    # the trajectory starts at 74, under the cap, and its doubling to 148 trips it
    monkeypatch.setattr(dicke_qfi.solver, "HARD_CAP", 100)
    out = tmp_path / "cap.csv"
    code = main(["convergence", "--n-atoms", "6", "--lambda-min", "2.0",
                 "--lambda-max", "2.0", "--lambda-steps", "1", "--out", str(out)])
    assert code == 4
    _, rows, footer = read_csv_rows(out)
    assert rows  # partial trajectory still written
    assert "failed_points=[[2.0, 6]]" in footer[0]


def test_invalid_grid_exit_code():
    assert main(["sweep", "--lambda-min", "1.0", "--lambda-max", "0.0"]) == 2
    assert main(["sweep", "--lambda-steps", "0"]) == 2
    assert main(["sweep", "--tol", "-1"]) == 2


@pytest.mark.parametrize("mode,flag,value", [
    ("sweep", "--fock-cutoff", "0"),
    ("convergence", "--fock-cutoff", "0"),
    ("sweep", "--fock-cutoff", str(dicke_qfi.solver.HARD_CAP + 1)),
    ("husimi", "--fock-cutoff", str(dicke_qfi.solver.HARD_CAP + 1)),
    ("convergence", "--fock-cutoff", str(dicke_qfi.solver.HARD_CAP + 1)),
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
    monkeypatch.setattr(dicke_qfi.cli, "ProcessPoolExecutor", None)
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
    monkeypatch.setattr(dicke_qfi.cli, "ProcessPoolExecutor", None)
    empty = tmp_path / "empty.cfg"
    empty.write_text("n-atoms =\n")
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert main([arg.format(empty=empty) for arg in argv] + ["--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert "invalid argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--omega", "--omega0", "--lambda-min", "--lambda-max", "--tol"])
def test_non_finite_argument_exit_code(flag, value, capsys):
    assert main(["thermo", f"{flag}={value}", "--out", "-"]) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0))),
    scipy.sparse.linalg.ArpackError(-9999),
])
def test_lanczos_failure_exit_code(error, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    # N = 101 is more than the banded solver takes, so its blocks go to Lanczos
    assert 101 > BANDED_MAX_ATOMS
    check_failed_sweep(tmp_path, "101", "10")


def test_banded_failure_exit_code(tmp_path, monkeypatch):
    dpbtrf = scipy.linalg.lapack.dpbtrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                        lambda ab, **kwargs: (dpbtrf(ab, **kwargs)[0], 1))
    check_failed_sweep(tmp_path, "1", "600")


def check_failed_sweep(tmp_path, n_atoms, fock_cutoff):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--n-atoms", n_atoms, "--lambda-min", "0.4", "--lambda-max", "0.5",
                 "--lambda-steps", "2", "--fock-cutoff", fock_cutoff, "--out", str(out)])
    assert code == 4
    # each failed point is a NaN row, and the sweep still writes every row and the footer
    header, rows, footer = read_csv_rows(out)
    assert tuple(header) == SWEEP_COLUMNS
    assert [row[:3] for row in rows] == [["0.4", n_atoms, fock_cutoff],
                                         ["0.5", n_atoms, fock_cutoff]]
    assert all(math.isnan(float(v)) for row in rows for v in row[3:])
    assert len(footer) == 1
    assert f"failed_points=[[0.4, {n_atoms}], [0.5, {n_atoms}]]" in footer[0]


def test_solver_failure_mid_doubling(tmp_path, fail_solves_above):
    # lambda = 0 is accepted at cutoff 20; lambda = 1 (N = 2) fails at its first doubling
    start = initial_cutoff(ModelParams(1.0, 1.0, 1.0, 2))
    fail_solves_above(start)
    args = ["--n-atoms", "2", "--lambda-min", "0", "--lambda-max", "1", "--lambda-steps", "2"]
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


def test_husimi_skips_failed_point(tmp_path, fail_solves_above):
    # lambda = 0 is accepted at cutoff 20; lambda = 1 (N = 2) fails at its first doubling
    fail_solves_above(initial_cutoff(ModelParams(1.0, 1.0, 1.0, 2)))
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
    # a basis too large for memory fails its point, as a solver failure does
    def out_of_memory(indexer):
        raise MemoryError(f"no room for the basis of N = {indexer.n_atoms}")

    monkeypatch.setattr(dicke_qfi.model, "_skeletons", {})
    monkeypatch.setattr(dicke_qfi.model, "_build_skeleton", out_of_memory)
    out = tmp_path / "m.csv"
    assert main(["sweep", "--n-atoms", "3", "--lambda-steps", "1", "--out", str(out)]) == 4
    header, rows, footer = read_csv_rows(out)
    assert rows[0][:3] == ["0.0", "3", "20"]
    assert all(math.isnan(float(v)) for v in rows[0][3:])
    assert "failed_points=[[0.0, 3]]" in footer[0]


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
        record = compute_sweep_record(ModelParams(1.0, 1.0, 0.5, 2), sweep_config(fock_cutoff=600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.n_cutoff == 600
    assert all(math.isfinite(v) for v in record)
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
        record = compute_sweep_record(ModelParams(1.0, 1.0, lam, n_atoms), sweep_config())
        assert all(math.isfinite(v) for v in record)


@pytest.mark.parametrize("n_atoms,lam", [(2, 3.0), (6, 1.5), (20, 2.0)])
def test_sweep_point_allocates_no_dense_block(n_atoms, lam):
    # a point's traced peak stays below half of one dense float64 copy of its
    # final even block (dim 188, 375 and 3413 here), which a dense eigensolve needs
    tracemalloc.start()
    try:
        record = compute_sweep_record(ModelParams(1.0, 1.0, lam, n_atoms), sweep_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(record.ground_energy)
    dim = even_sector(BasisIndexer(record.n_cutoff, n_atoms)).index.size
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
    record = compute_sweep_record(ModelParams(1.0, 1.0, 0.54, 6), sweep_config())
    assert all(math.isfinite(v) for v in record)
    assert record.f_a > 0 and record.f_b > 0
    assert abs(record.parity_expect - 1.0) < 1e-8
    assert record.xi2 < 1.0
    assert record.discarded_mass_a < 1e-10
    assert record.discarded_mass_b < 1e-10


@pytest.mark.parametrize("n_atoms,lam", [(1, 0.8), (2, 0.3), (3, 1.2), (20, 0.6)])
def test_parity_expect_is_the_signed_sum(n_atoms, lam):
    # the squared norm equals sum (-1)^(n+m+j) |psi|^2 bit for bit: every odd entry is 0
    params = ModelParams(1.0, 1.0, lam, n_atoms)
    record = compute_sweep_record(params, sweep_config())
    gs = dicke_qfi.solver.solve(params, 1e-10)
    signed = float(np.sum(parity_signs_from_scratch(gs.indexer) * np.abs(gs.vector) ** 2))
    assert record.parity_expect == signed


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
    # top coupling starts above the hard cap, so it fails before it allocates
    lcr = math.sqrt(omega * omega0) / 2
    out = tmp_path / "out.txt"
    for lambda_min, lambda_max, steps, n_atoms in ((0.0, PARAMETER_MAX, 2, 1), (lcr, lcr, 1, 1),
                                                   (PARAMETER_MAX, PARAMETER_MAX, 1, MAX_ATOMS)):
        argv = [mode, "--omega", repr(omega), "--omega0", repr(omega0),
                "--lambda-min", repr(lambda_min), "--lambda-max", repr(lambda_max),
                "--lambda-steps", str(steps), "--n-atoms", str(n_atoms), "--grid-points", "11",
                "--out", str(out)]
        assert main(argv) in ((0,) if mode == "thermo" else (0, 4))
    if mode == "thermo":
        for lam in (0.0, lcr, PARAMETER_MAX):
            config = SweepConfig(mode="thermo", omega=omega, omega0=omega0, lambda_min=lam,
                                 lambda_max=lam, lambda_steps=1)
            assert all(math.isfinite(v) for v in run_thermo(config)[0])
            assert initial_cutoff(ModelParams(omega, omega0, lam, MAX_ATOMS)) >= 20
