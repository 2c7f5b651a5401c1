"""Command-line driver: coupling sweeps, Husimi grids, thermodynamic-limit
curves, critical-scaling probe, and cutoff-convergence reports.

Output is deterministic: floats are serialized in shortest round-trip
decimal form, columns and row order are fixed, and identical configs
produce byte-identical files.  Exit codes: 0 success, 2 invalid argument,
3 I/O error, 4 convergence failure or low-confidence fit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import SolverError
from .metrology import (
    ATOM_GRID_POINTS,
    FIELD_GRID_POINTS,
    default_atom_grid,
    default_field_grid,
    husimi_atoms,
    husimi_field,
    mean_number,
    qfi_atoms,
    qfi_field,
    quadrature_variance,
    spin_squeezing_xi2,
)
from .model import ModelParams, parity_signs
from .solver import DEFAULT_TOL, converge_cutoff, solve
from .states import schmidt_decompose
from .thermo import (
    GUARD_BAND_REL,
    critical_scaling_probe,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    quad_variance_thermo,
    thermo_point,
    xi2_thermo,
)

SWEEP_COLUMNS = (
    "lambda", "n_atoms", "n_cutoff", "ground_energy", "nbar",
    "F_B", "F_B_scaled", "F_A", "F_A_scaled", "xi2",
    "quad_var_scaled", "parity_expect", "discarded_mass_A", "discarded_mass_B",
)

THERMO_COLUMNS = (
    "lambda", "mu", "eps1", "eps2", "xi2", "F_A_per_N",
    "quad_var_scaled", "F_B_scaled", "nbar_per_N", "guard_band",
)

HUSIMI_COLUMNS = ("lambda", "n_atoms", "subsystem", "x", "y", "q", "q_norm")

CONVERGENCE_COLUMNS = ("lambda", "n_atoms", "step", "n_cutoff", "energy", "tail_population")

_DEFAULTS = {
    "omega": 1.0,
    "omega0": 1.0,
    "lambda_min": 0.0,
    "lambda_max": 1.0,
    "lambda_steps": 101,
    "n_atoms": [2, 6, 10, 20],
    "tol": DEFAULT_TOL,
    "fock_cutoff": None,
    "grid_points": None,
    "out": "-",
    "format": "csv",
    "workers": 1,
}


@dataclass(frozen=True)
class SweepConfig:
    """Resolved run configuration shared by all subcommands."""

    mode: str
    omega: float = 1.0
    omega0: float = 1.0
    lambda_min: float = 0.0
    lambda_max: float = 1.0
    lambda_steps: int = 101
    n_atoms_list: tuple[int, ...] = (2, 6, 10, 20)
    tol: float = DEFAULT_TOL
    fock_cutoff: int | None = None
    grid_points: int | None = None
    output_path: str = "-"
    output_format: str = "csv"
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("omega", "omega0", "lambda_min", "lambda_max", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.replace('_', '-')} must be finite")
        if self.omega <= 0 or self.omega0 <= 0:
            raise ValueError("omega and omega0 must be positive")
        if self.lambda_min < 0:
            raise ValueError("lambda-min must be non-negative")
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda-min must not exceed lambda-max")
        if self.lambda_steps < 1:
            raise ValueError("lambda-steps must be >= 1")
        if any(n < 1 for n in self.n_atoms_list):
            raise ValueError("every n-atoms value must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.fock_cutoff is not None and self.fock_cutoff < 1:
            raise ValueError("fock-cutoff must be >= 1")
        if self.grid_points is not None and self.grid_points < 11:
            raise ValueError("husimi grids need at least 11 points per axis")
        if self.output_format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def lambda_grid(self) -> np.ndarray:
        if self.lambda_steps == 1:
            return np.array([self.lambda_min])
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps)

    def meta(self) -> dict:
        return {
            "version": __version__,
            "mode": self.mode,
            "omega": self.omega,
            "omega0": self.omega0,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "lambda_steps": self.lambda_steps,
            "n_atoms": list(self.n_atoms_list),
            "tol": self.tol,
            "fock_cutoff": self.fock_cutoff,
            "grid_points": self.grid_points,
        }


@dataclass(frozen=True)
class SweepRecord:
    """One row of a finite-N sweep; field order matches SWEEP_COLUMNS."""

    lam: float
    n_atoms: int
    n_cutoff: int
    ground_energy: float
    nbar: float
    f_b: float
    f_b_scaled: float
    f_a: float
    f_a_scaled: float
    xi2: float
    quad_var_scaled: float
    parity_expect: float
    discarded_mass_a: float
    discarded_mass_b: float
    converged: bool = field(default=True, compare=False)

    def row(self) -> tuple:
        return (
            self.lam, self.n_atoms, self.n_cutoff, self.ground_energy, self.nbar,
            self.f_b, self.f_b_scaled, self.f_a, self.f_a_scaled, self.xi2,
            self.quad_var_scaled, self.parity_expect,
            self.discarded_mass_a, self.discarded_mass_b,
        )


def compute_sweep_record(
    omega: float,
    omega0: float,
    lam: float,
    n_atoms: int,
    tol: float,
    fock_cutoff: int | None = None,
) -> SweepRecord:
    """Solve one (N, lambda) point and evaluate every sweep observable."""
    params = ModelParams(omega, omega0, lam, n_atoms)
    try:
        gs = solve(params, tol, fock_cutoff)
    except SolverError as exc:  # ConvergenceError included; n_cutoff is the last one tried
        return SweepRecord(lam, n_atoms, exc.n_cutoff, *[math.nan] * 11, converged=False)

    field, atoms = schmidt_decompose(gs)
    fb = qfi_field(field)
    fa = qfi_atoms(atoms)
    parity = float(np.sum(parity_signs(gs.indexer) * np.abs(gs.vector) ** 2))
    return SweepRecord(
        lam=lam,
        n_atoms=n_atoms,
        n_cutoff=gs.n_cutoff,
        ground_energy=gs.energy,
        nbar=mean_number(field),
        f_b=fb.value,
        f_b_scaled=fb.scaled,
        f_a=fa.value,
        f_a_scaled=fa.scaled,
        xi2=spin_squeezing_xi2(atoms).xi2,
        quad_var_scaled=4.0 * quadrature_variance(field, math.pi / 2),
        parity_expect=parity,
        discarded_mass_a=atoms.discarded_mass,
        discarded_mass_b=field.discarded_mass,
    )


def _sweep_task(task: tuple) -> SweepRecord:
    return compute_sweep_record(*task)


def run_sweep(config: SweepConfig) -> tuple[list[SweepRecord], int]:
    """All (N, lambda) records in deterministic order plus the exit code."""
    tasks = [
        (config.omega, config.omega0, float(lam), n, config.tol, config.fock_cutoff)
        for n in config.n_atoms_list
        for lam in config.lambda_grid()
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_sweep_task, tasks))
    else:
        records = [_sweep_task(t) for t in tasks]
    failures = [r for r in records if not r.converged]
    return records, (4 if failures else 0)


def run_thermo(config: SweepConfig) -> list[tuple]:
    """Thermodynamic-limit rows over the lambda grid (N-independent)."""
    rows = []
    for lam in config.lambda_grid():
        pt = thermo_point(config.omega, config.omega0, float(lam))
        fb = qfi_field_scaled_limit(pt)
        guard = abs(pt.lam - pt.lambda_cr) < GUARD_BAND_REL * pt.lambda_cr
        rows.append((
            float(lam), pt.mu, pt.eps1, pt.eps2, xi2_thermo(pt),
            qfi_atoms_thermo(pt, 1.0), 4.0 * quad_variance_thermo(pt), fb,
            pt.beta_s2_per_n, int(guard),
        ))
    return rows


def run_husimi(config: SweepConfig) -> tuple[list[dict], list[list]]:
    """Husimi grids of both subsystems for each (N, lambda), and the failed points.

    Axes and grids are float64 arrays; a Python float list costs about four
    times the memory.  A point whose solve fails is skipped and listed as
    [lambda, N].
    """
    points = config.grid_points
    atoms_points = points if points is not None else ATOM_GRID_POINTS
    field_points = points if points is not None else FIELD_GRID_POINTS
    grids = []
    failed = []
    for n in config.n_atoms_list:
        for lam in config.lambda_grid():
            params = ModelParams(config.omega, config.omega0, float(lam), n)
            try:
                gs = solve(params, config.tol, config.fock_cutoff)
            except SolverError:  # ConvergenceError included
                failed.append([float(lam), n])
                continue
            field, atoms = schmidt_decompose(gs)
            theta, phi = default_atom_grid(atoms_points)
            q_a = husimi_atoms(atoms, theta, phi)
            q_a_max = float(q_a.max())
            re_axis, im_axis, alpha = default_field_grid(mean_number(field), field_points)
            q_b = husimi_field(field, alpha)
            grids.append({
                "lambda": float(lam),
                "n_atoms": n,
                "atoms": {
                    "theta": theta,
                    "phi": phi,
                    "q": q_a,
                    "q_max": q_a_max,
                    "q_normalized": q_a / q_a_max,
                },
                "field": {
                    "re_alpha": re_axis,
                    "im_alpha": im_axis,
                    "q": q_b,
                    "q_max": float(q_b.max()),
                },
            })
    return grids, failed


def run_scaling(config: SweepConfig) -> tuple[list, int]:
    """Fit critical exponents on both sides of lambda_cr."""
    probes = [
        critical_scaling_probe(config.omega, config.omega0, side)
        for side in ("below", "above")
    ]
    code = 4 if any(p.low_confidence for p in probes) else 0
    return probes, code


def run_convergence(config: SweepConfig) -> tuple[list[tuple], int]:
    """Cutoff-doubling trajectories for every (N, lambda); partial rows on failure.

    ``fock_cutoff``, when given, is the first cutoff of each trajectory.
    """
    rows: list[tuple] = []
    code = 0
    for n in config.n_atoms_list:
        for lam in config.lambda_grid():
            params = ModelParams(config.omega, config.omega0, float(lam), n)
            try:
                _, gs = converge_cutoff(params, config.tol, n_start=config.fock_cutoff)
                steps = gs.convergence.steps
            except SolverError as exc:  # ConvergenceError included
                steps = exc.steps
                code = 4
            for i, step in enumerate(steps):
                rows.append((float(lam), n, i, step.n_cutoff, step.energy,
                             step.tail_population))
    return rows, code


# ---------------------------------------------------------------------------
# serialization

def format_value(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _meta_footer(meta: dict) -> str:
    parts = [f"{k}={format_value(v)}" for k, v in sorted(meta.items()) if v is not None]
    return "# meta " + " ".join(parts)


def write_table(stream, columns, rows, meta: dict, fmt: str) -> None:
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(format_value(v) for v in row) + "\n")
        stream.write(_meta_footer(meta) + "\n")
    else:
        payload = {
            "meta": meta,
            "rows": [
                {col: _json_safe(v if not isinstance(v, (np.integer, np.floating))
                                 else v.item())
                 for col, v in zip(columns, row)}
                for row in rows
            ],
        }
        json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
        stream.write("\n")


def write_husimi(stream, grids: list[dict], meta: dict, fmt: str) -> None:
    """Write ``run_husimi`` grids; each array becomes a list only while it is written."""
    if fmt == "json":
        json.dump({"meta": meta, "grids": grids}, stream, indent=2, sort_keys=True,
                  allow_nan=False, default=lambda array: array.tolist())
        stream.write("\n")
        return
    stream.write(",".join(HUSIMI_COLUMNS) + "\n")
    maxima = {}
    for grid in grids:
        lam, n = grid["lambda"], grid["n_atoms"]
        for subsystem, x_axis, y_axis in (("atoms", "theta", "phi"),
                                          ("field", "re_alpha", "im_alpha")):
            sub = grid[subsystem]
            q_max = sub["q_max"]
            maxima[f"q_max_{subsystem}_N{n}_lambda{format_value(lam)}"] = q_max
            ys = sub[y_axis].tolist()
            for x, q_row in zip(sub[x_axis].tolist(), sub["q"].tolist()):
                for y, q in zip(ys, q_row):
                    stream.write(",".join(format_value(v) for v in
                                          (lam, n, subsystem, x, y, q, q / q_max)) + "\n")
    stream.write(_meta_footer({**meta, **maxima}) + "\n")


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


# ---------------------------------------------------------------------------
# argument handling

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-qfi",
        description="Ground-state QFI, squeezing, and Husimi diagnostics of the Dicke model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, blurb in (
        ("sweep", "finite-N observables over a coupling grid"),
        ("husimi", "quasi-probability grids for both subsystems"),
        ("thermo", "thermodynamic-limit curves over a coupling grid"),
        ("scaling", "critical-exponent probe on both sides of lambda_cr"),
        ("convergence", "Fock-cutoff doubling trajectories"),
    ):
        p = sub.add_parser(mode, help=blurb)
        p.add_argument("--config", help="key = value file; explicit flags override it")
        p.add_argument("--omega", type=float)
        p.add_argument("--omega0", type=float)
        p.add_argument("--lambda-min", dest="lambda_min", type=float)
        p.add_argument("--lambda-max", dest="lambda_max", type=float)
        p.add_argument("--lambda-steps", dest="lambda_steps", type=int)
        p.add_argument("--n-atoms", dest="n_atoms", type=int, action="append",
                       help="repeatable; defaults to 2 6 10 20")
        p.add_argument("--tol", type=float)
        p.add_argument("--fock-cutoff", dest="fock_cutoff", type=int,
                       help="fixed cutoff, disables automatic convergence; "
                            "in convergence, the first cutoff of the doubling")
        p.add_argument("--grid-points", dest="grid_points", type=int,
                       help="points per Husimi grid axis (>= 11)")
        p.add_argument("--out", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--workers", type=int)
    return parser


def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` file; '#' starts a comment.

    A line may also read ``key: value``; a line holding both separators
    splits at the first ``=``.  Keys are the long flag names (``-`` or
    ``_``); any other key is rejected.  List values are comma or space
    separated.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            elif ":" in line:
                key, _, val = line.partition(":")
            else:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip().replace("-", "_")
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
            values[key] = val.strip()
    return values


def _coerce(key: str, raw):
    if isinstance(raw, str):
        if key in ("omega", "omega0", "lambda_min", "lambda_max", "tol"):
            return float(raw)
        if key in ("lambda_steps", "fock_cutoff", "grid_points", "workers"):
            return int(raw)
        if key == "n_atoms":
            return [int(tok) for tok in raw.replace(",", " ").split()]
    return raw


def resolve_config(args: argparse.Namespace) -> SweepConfig:
    """Merge CLI flags over an optional config file over built-in defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, default in _DEFAULTS.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_values:
            resolved[key] = _coerce(key, file_values[key])
        else:
            resolved[key] = default
    return SweepConfig(
        mode=args.mode,
        omega=resolved["omega"],
        omega0=resolved["omega0"],
        lambda_min=resolved["lambda_min"],
        lambda_max=resolved["lambda_max"],
        lambda_steps=resolved["lambda_steps"],
        n_atoms_list=tuple(resolved["n_atoms"]),
        tol=resolved["tol"],
        fock_cutoff=resolved["fock_cutoff"],
        grid_points=resolved["grid_points"],
        output_path=resolved["out"],
        output_format=resolved["format"],
        workers=resolved["workers"],
    )


def _dispatch(config: SweepConfig) -> int:
    stream, close = _open_output(config.output_path)
    try:
        if config.mode == "sweep":
            records, code = run_sweep(config)
            meta = config.meta()
            failed = [[r.lam, r.n_atoms] for r in records if not r.converged]
            if failed:
                meta["failed_points"] = failed
            write_table(stream, SWEEP_COLUMNS, [r.row() for r in records], meta,
                        config.output_format)
            return code
        if config.mode == "thermo":
            write_table(stream, THERMO_COLUMNS, run_thermo(config), config.meta(),
                        config.output_format)
            return 0
        if config.mode == "husimi":
            grids, failed = run_husimi(config)
            meta = config.meta()
            if failed:
                meta["failed_points"] = failed
            write_husimi(stream, grids, meta, config.output_format)
            return 4 if failed else 0
        if config.mode == "scaling":
            probes, code = run_scaling(config)
            columns = ("side", "eps1_exponent", "dfa_exponent", "dfb_exponent",
                       "eps1_residual", "dfa_residual", "dfb_residual", "low_confidence")
            rows = [
                (p.side, p.eps1_exponent, p.dfa_exponent, p.dfb_exponent,
                 p.eps1_residual, p.dfa_residual, p.dfb_residual, int(p.low_confidence))
                for p in probes
            ]
            write_table(stream, columns, rows, config.meta(), config.output_format)
            return code
        if config.mode == "convergence":
            rows, code = run_convergence(config)
            write_table(stream, CONVERGENCE_COLUMNS, rows, config.meta(),
                        config.output_format)
            return code
        raise ValueError(f"unknown mode {config.mode}")
    finally:
        if close:
            stream.close()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return _dispatch(config)
    except ValueError as exc:
        print(f"dicke-qfi: invalid argument: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dicke-qfi: i/o error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:  # ConvergenceError included
        print(f"dicke-qfi: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
