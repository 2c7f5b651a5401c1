"""Correctness checks on the CLI's output files.

Every point is checked against invariants at every seed; at the default seed
it is also compared with the checked-in reference (reference.json, made by
make_reference.py).  A point that fails any check, or did not converge,
counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, Workload

#: reference comparison |out - ref| <= RTOL*|ref| + ATOL; 1e4 x the solver tol
RTOL = 1e-6
ATOL = 1e-9
#: eigenvalues at or below this weight are dropped from a spectrum
#: (states.DEFAULT_WEIGHT_FLOOR), so a discarded mass may round below 0 by
#: about 1e-16 but never by the floor itself
WEIGHT_FLOOR = 1e-12
PARITY_TOL = 1e-9
#: Husimi masses are quadratures of Q over the default grids, which hold
#: the distribution; measured within 1e-4 of 1 at the default seed
MASS_TOL = 1e-2
ATOM_GRID_POINTS = 181
FIELD_GRID_POINTS = 201

#: sweep columns compared with the reference; n_cutoff may legitimately change
SWEEP_REFERENCE_COLUMNS = (
    "ground_energy", "nbar", "F_B", "F_B_scaled", "F_A", "F_A_scaled", "xi2",
    "quad_var_scaled", "parity_expect", "discarded_mass_A", "discarded_mass_B",
)
HUSIMI_REFERENCE_COLUMNS = ("q_max", "mass")


def _float(value) -> float:
    return math.nan if value is None else float(value)


def _close(value: float, ref: float) -> bool:
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def _same_lambda(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# reading

def read_sweep(path: Path, fmt: str) -> tuple[list[dict], set]:
    """Rows as dicts of floats, and the (N, lambda) pairs in meta.failed_points."""
    failed: set = set()
    if fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = [{k: _float(v) for k, v in row.items()} for row in payload["rows"]]
        failed = {(int(n), float(lam)) for lam, n in payload["meta"].get("failed_points", [])}
        return rows, failed
    rows = []
    with open(path, encoding="utf-8") as handle:
        columns = handle.readline().rstrip("\n").split(",")
        for line in handle:
            if line.startswith("#"):
                continue
            rows.append(dict(zip(columns, map(float, line.rstrip("\n").split(",")))))
    return rows, failed


def read_husimi(path: Path) -> dict:
    """Per (N, lambda, subsystem) grid: rows, max q, max q_norm, bounds, mass, footer q_max.

    Streams the file: on husimi_grid it is about 100 MB.
    """
    grids: dict = {}
    footer: dict = {}
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        for line in handle:
            if line.startswith("#"):
                for token in line.split():
                    if token.startswith("q_max_"):
                        key, _, value = token.partition("=")
                        footer[key] = float(value)
                continue
            lam, n, sub, x, y, q, q_norm = line.split(",")
            key = (int(n), lam, sub)
            g = grids.get(key)
            if g is None:
                g = grids[key] = {"rows": 0, "q_max": -math.inf, "q_min": math.inf,
                                  "q_norm_max": -math.inf, "sum": 0.0,
                                  "x": set(), "y": set()}
            fq = float(q)
            g["rows"] += 1
            g["q_max"] = max(g["q_max"], fq)
            g["q_min"] = min(g["q_min"], fq)
            g["q_norm_max"] = max(g["q_norm_max"], float(q_norm))
            fx = float(x)
            # the atomic measure is sin(theta) dtheta dphi; the field's is d^2 alpha
            g["sum"] += fq * math.sin(fx) if sub == "atoms" else fq
            g["x"].add(fx)
            g["y"].add(float(y))
    out = {}
    for (n, lam, sub), g in grids.items():
        xs, ys = sorted(g.pop("x")), sorted(g.pop("y"))
        total = g.pop("sum")
        if len(xs) < 2 or len(ys) < 2:
            mass = math.nan
        elif sub == "atoms":
            d_theta = (xs[-1] - xs[0]) / (len(xs) - 1)
            d_phi = 2 * math.pi / len(ys)  # phi axis excludes its endpoint
            mass = (n + 1) / (4 * math.pi) * total * d_theta * d_phi
        else:
            mass = total * (xs[-1] - xs[0]) / (len(xs) - 1) * (ys[-1] - ys[0]) / (len(ys) - 1) / math.pi
        g["mass"] = mass
        g["footer_q_max"] = footer.get(f"q_max_{sub}_N{n}_lambda{lam}", math.nan)
        out[(n, float(lam), sub)] = g
    return out


# ---------------------------------------------------------------------------
# checking

def sweep_problems(row: dict, n: int, lam: float, ref: dict | None) -> list[str]:
    """Reasons one sweep row fails; empty when it passes."""
    problems = []
    if row.get("n_atoms") != n or not _same_lambda(row.get("lambda", math.nan), lam):
        return [f"row is ({row.get('n_atoms')}, {row.get('lambda')}), expected ({n}, {lam})"]
    if not math.isfinite(row["ground_energy"]):
        return ["not converged"]
    if abs(row["parity_expect"] - 1.0) > PARITY_TOL:
        problems.append(f"parity_expect {row['parity_expect']}")
    for col in ("discarded_mass_A", "discarded_mass_B"):
        if not row[col] >= -WEIGHT_FLOOR:
            problems.append(f"{col} {row[col]}")
    if not 0.0 <= row["F_A"] <= n * n * (1 + 1e-12):
        problems.append(f"F_A {row['F_A']} outside [0, N^2]")
    if not row["F_B"] >= 0.0:
        problems.append(f"F_B {row['F_B']} < 0")
    if ref is not None:
        for col in SWEEP_REFERENCE_COLUMNS:
            if not _close(row[col], _float(ref[col])):
                problems.append(f"{col} {row[col]} != reference {ref[col]}")
    return problems


def husimi_problems(grid: dict | None, cells: int, ref: dict | None) -> list[str]:
    if grid is None:
        return ["grid missing"]
    problems = []
    if grid["rows"] != cells:
        problems.append(f"{grid['rows']} cells, expected {cells}")
    if grid["q_min"] < -1e-12 or grid["q_max"] > 1 + 1e-12:
        problems.append(f"Q outside [0, 1]: [{grid['q_min']}, {grid['q_max']}]")
    if abs(grid["q_norm_max"] - 1.0) > 1e-12:
        problems.append(f"max q_norm {grid['q_norm_max']}")
    if grid["footer_q_max"] != grid["q_max"]:
        problems.append(f"footer q_max {grid['footer_q_max']} != grid max {grid['q_max']}")
    if not abs(grid["mass"] - 1.0) <= MASS_TOL:
        problems.append(f"mass {grid['mass']}")
    if ref is not None:
        for col in HUSIMI_REFERENCE_COLUMNS:
            if not _close(grid[col], _float(ref[col])):
                problems.append(f"{col} {grid[col]} != reference {ref[col]}")
    return problems


def check_output(path: Path, workload: Workload, seed: int, reference: dict | None):
    """(attempted, failed, problems) for one pass's output file.

    ``reference`` is this workload's entry of reference.json, or None to check
    invariants only.  A missing or unreadable file fails every point.
    """
    expected = [(n, lam) for n in workload.n_atoms for lam in workload.lambdas(seed)]
    refs = [None] * len(expected)
    if reference is not None:
        cols = reference["columns"]
        refs = [dict(zip(cols, r)) for r in reference["rows"]]
        if len(refs) != len(expected):
            raise ValueError(f"reference for {workload.name} has {len(refs)} points, "
                             f"expected {len(expected)}")
    try:
        if workload.mode == "sweep":
            rows, failed_points = read_sweep(path, workload.fmt)
        else:
            grids = read_husimi(path)
    except (OSError, ValueError, KeyError) as exc:
        return len(expected), len(expected), [f"unreadable output: {exc}"]

    problems = []
    failed = 0
    for i, (n, lam) in enumerate(expected):
        ref = refs[i]
        if workload.mode == "sweep":
            if i >= len(rows):
                reasons = ["row missing"]
            else:
                reasons = sweep_problems(rows[i], n, lam, ref)
                if (n, rows[i]["lambda"]) in failed_points:
                    reasons.append("listed in meta.failed_points")
        else:
            reasons = []
            atoms = workload.grid_points or ATOM_GRID_POINTS
            field = workload.grid_points or FIELD_GRID_POINTS
            for sub, cells in (("atoms", atoms * atoms), ("field", field * field)):
                sub_ref = None if ref is None else {
                    c: ref[f"{sub}_{c}"] for c in HUSIMI_REFERENCE_COLUMNS}
                grid = _find_grid(grids, n, lam, sub)
                reasons += [f"{sub}: {r}" for r in husimi_problems(grid, cells, sub_ref)]
        if reasons:
            failed += 1
            problems.append(f"N={n} lambda={lam!r}: " + "; ".join(reasons))
    if workload.mode == "sweep" and len(rows) > len(expected):
        problems.append(f"{len(rows) - len(expected)} unexpected extra rows")
    return len(expected), failed, problems


def _find_grid(grids: dict, n: int, lam: float, sub: str):
    for (gn, glam, gsub), grid in grids.items():
        if gn == n and gsub == sub and _same_lambda(glam, lam):
            return grid
    return None


def reference_entry(path: Path, workload: Workload) -> dict:
    """The compact reference of one default-seed output: observables to 8 digits."""
    def short(v: float):
        return None if math.isnan(v) else float(f"{v:.8g}")

    if workload.mode == "sweep":
        rows, _ = read_sweep(path, workload.fmt)
        columns = ["lambda", "n_atoms", *SWEEP_REFERENCE_COLUMNS]
        return {"columns": columns,
                "rows": [[short(r["lambda"]), int(r["n_atoms"]), *(short(r[c]) for c in columns[2:])]
                         for r in rows]}
    grids = read_husimi(path)
    columns = ["lambda", "n_atoms", "atoms_q_max", "atoms_mass", "field_q_max", "field_mass"]
    rows = []
    for n in workload.n_atoms:
        for lam in workload.lambdas(DEFAULT_SEED):
            atoms, field = (_find_grid(grids, n, lam, s) for s in ("atoms", "field"))
            rows.append([short(lam), n, short(atoms["q_max"]), short(atoms["mass"]),
                         short(field["q_max"]), short(field["mass"])])
    return {"columns": columns, "rows": rows}
