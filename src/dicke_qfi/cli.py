"""Command-line driver: coupling sweeps, Husimi grids, thermodynamic-limit
curves, critical-scaling probe, and cutoff-convergence reports.

Output is deterministic: floats are serialized in shortest round-trip
decimal form, columns and row order are fixed, and identical configs
produce byte-identical files.  Exit codes: 0 success, 2 invalid argument,
3 I/O error, 4 a failed (N, lambda) point or a low-confidence fit.
``map_points`` solves the points of ``sweep``, ``husimi`` and ``convergence``
and yields their results in output order; ``husimi`` writes each point's
grids as they come, so a run holds one point's grids at a time.  The JSON
writers give the bytes of json.dump(indent=2, sort_keys=True) without
building the document: table rows are formatted from repr, one write per
row, and ``meta`` is written after the Husimi grids, once the failed
points are known.

``SweepConfig`` is the single declaration of the settings: each of its
fields gives a setting's name, default, text parser and help, and the flags,
the config-file keys and the meta record are all derived from its fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import __version__, solver
from .errors import SolverError
from .metrology import (
    ATOM_GRID_POINTS,
    FIELD_GRID_POINTS,
    default_atom_grid,
    default_field_grid,
    husimi_atoms,
    husimi_field,
    mean_number,
    sweep_observables,
)
from .model import ModelParams
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

FORMATS = ("csv", "json")

#: most couplings a grid may hold: at 10^6 the grid alone is 8 MB and a
#: thermo run's rows some hundreds of MB, and no curve needs a finer one
MAX_LAMBDA_STEPS = 10**6

#: most points per Husimi grid axis, about 10x the defaults: the atom grid is
#: built whole, (P, P, N + 1) complex values, 1.3 GiB at P = 2001 and N = 20
MAX_GRID_POINTS = 2001

#: most worker processes, each an interpreter with its own solver memory
MAX_WORKERS = 64

#: most atoms per point: each Fock level holds N + 1 basis states, so at 10^6
#: a point at the smallest first cutoff, 20, already spans 2.1e7 of them
MAX_ATOMS = 10**6

#: the box that omega, omega0 and lambda-max lie in (lambda-min may be 0): on
#: it every thermodynamic-limit closed form and every first cutoff is finite
PARAMETER_MIN = 1e-6
PARAMETER_MAX = 1e6
_BOX = f"{PARAMETER_MIN:g} to {PARAMETER_MAX:g}"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _setting(default, parse, help: str, **flag):
    """A SweepConfig field that is also a CLI setting.

    ``parse`` reads the value from config-file text, and from the flag unless
    ``flag`` overrides it; ``flag`` holds any further argparse keywords.
    """
    shown = " ".join(map(str, default)) if isinstance(default, tuple) else default
    flag = {"type": parse, "help": f"{help} (default: {shown})", **flag}
    return field(default=default, metadata={"parse": parse, "flag": flag})


@dataclass(frozen=True)
class SweepConfig:
    """Resolved run configuration shared by all subcommands.

    Every field but ``mode`` is a setting, named as its config-file key and
    as its flag (``lambda_min`` is ``--lambda-min``).
    """

    mode: str
    omega: float = _setting(1.0, float, f"boson frequency, {_BOX}")
    omega0: float = _setting(1.0, float, f"atomic level splitting, {_BOX}")
    lambda_min: float = _setting(0.0, float, "first coupling of the grid, at least 0")
    lambda_max: float = _setting(1.0, float, f"last coupling of the grid, up to {PARAMETER_MAX:g}")
    lambda_steps: int = _setting(101, int, f"couplings in the grid, at most {MAX_LAMBDA_STEPS}")
    n_atoms: tuple[int, ...] = _setting((2, 6, 10, 20), _int_list,
                                        f"atom number, 1 to {MAX_ATOMS}, repeatable",
                                        type=int, action="append")
    tol: float = _setting(DEFAULT_TOL, float, "convergence tolerance")
    fock_cutoff: int | None = _setting(
        None, int, "fixed Fock cutoff, converged per point if unset; in convergence, "
                   "the first cutoff of the doubling")
    grid_points: int | None = _setting(
        None, int, f"points per Husimi grid axis, 11 to {MAX_GRID_POINTS}, {ATOM_GRID_POINTS} "
                   f"(atoms) and {FIELD_GRID_POINTS} (field) if unset")
    out: str = _setting("-", str, "output path, '-' for stdout")
    format: str = _setting("csv", str, "output format", choices=FORMATS)
    workers: int = _setting(1, int, f"worker processes for the points, at most {MAX_WORKERS}")

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_atoms", tuple(self.n_atoms))  # argparse appends to a list
        for name in ("omega", "omega0", "lambda_min", "lambda_max", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.replace('_', '-')} must be finite")
        if not all(PARAMETER_MIN <= v <= PARAMETER_MAX for v in (self.omega, self.omega0)):
            raise ValueError(f"omega and omega0 must be between {PARAMETER_MIN:g} "
                             f"and {PARAMETER_MAX:g}")
        if self.lambda_min < 0:
            raise ValueError("lambda-min must be non-negative")
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda-min must not exceed lambda-max")
        if self.lambda_max > PARAMETER_MAX:
            raise ValueError(f"lambda-max must be at most {PARAMETER_MAX:g}")
        if not 1 <= self.lambda_steps <= MAX_LAMBDA_STEPS:
            raise ValueError(f"lambda-steps must be between 1 and {MAX_LAMBDA_STEPS}")
        if not self.n_atoms:
            raise ValueError("n-atoms needs at least one value")
        if not all(1 <= n <= MAX_ATOMS for n in self.n_atoms):
            raise ValueError(f"every n-atoms value must be between 1 and {MAX_ATOMS}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        # read through the module, so that a patched solver.HARD_CAP governs it too
        if self.fock_cutoff is not None and not 1 <= self.fock_cutoff <= solver.HARD_CAP:
            raise ValueError(f"fock-cutoff must be between 1 and {solver.HARD_CAP}")
        if self.grid_points is not None and not 11 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"husimi grids need 11 to {MAX_GRID_POINTS} points per axis")
        if self.format not in FORMATS:
            raise ValueError("format must be csv or json")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")

    def lambda_grid(self) -> np.ndarray:
        if self.lambda_steps == 1:
            return np.array([self.lambda_min])
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps)

    def points(self) -> list[ModelParams]:
        """Every (N, lambda) point in output order: N outer, lambda inner."""
        return [ModelParams(self.omega, self.omega0, float(lam), n)
                for n in self.n_atoms for lam in self.lambda_grid()]

    def meta(self) -> dict:
        """The version and every setting that shapes the results, n_atoms as a list."""
        meta = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("out", "format", "workers")}
        return {**meta, "n_atoms": list(self.n_atoms), "version": __version__}


_SETTINGS = {f.name: f for f in fields(SweepConfig) if f.name != "mode"}


class SweepRecord(NamedTuple):
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


def map_points(config: SweepConfig, point, failure, failed: list) -> Iterator:
    """Yield ``point(params, config)`` at every (N, lambda) point, in output order.

    A point that raises SolverError or MemoryError yields ``failure(params, exc)``
    instead, and [lambda, N] is appended to ``failed`` before it is yielded.
    Serially each point is solved when its result is asked for, and no
    result is held while the next point is solved, so a consumer that
    writes and drops each result holds one point's at a time.  A pool takes
    all points at once and yields them in order; results that finish before
    they are asked for wait in this process.  Workers get at most one point
    each; a result depends on its point alone, so not on the worker count.
    """
    points = config.points()
    workers = min(config.workers, len(points))
    tasks = (repeat(point), repeat(failure), points, repeat(config))
    if workers == 1:
        yield from _in_order(map(_attempt, *tasks), points, failed)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from _in_order(pool.map(_attempt, *tasks), points, failed)


def _in_order(outcomes, points: list[ModelParams], failed: list) -> Iterator:
    """The results of ``_attempt`` outcomes, one per point, noting the failed points."""
    for params in points:
        result, solved = next(outcomes)
        if not solved:
            failed.append([params.lam, params.n_atoms])
        yield result
        del result  # not held while the next point is solved


def _attempt(point, failure, params: ModelParams, config: SweepConfig) -> tuple[object, bool]:
    """One point's result, or its failure's, and whether it was solved."""
    try:
        return point(params, config), True
    except SolverError as exc:  # ConvergenceError included
        return failure(params, exc), False
    except MemoryError as exc:  # the solver maps its own; this covers the observables
        return failure(params, SolverError(f"out of memory: {exc}")), False


def compute_sweep_record(params: ModelParams, config: SweepConfig) -> SweepRecord:
    """Solve one (N, lambda) point and evaluate every sweep observable."""
    gs = solve(params, config.tol, config.fock_cutoff)
    field, atoms = schmidt_decompose(gs)
    obs = sweep_observables(field, atoms)
    return SweepRecord(
        lam=params.lam,
        n_atoms=params.n_atoms,
        n_cutoff=gs.n_cutoff,
        ground_energy=gs.energy,
        nbar=obs.nbar,
        f_b=obs.f_b.value,
        f_b_scaled=obs.f_b.scaled,
        f_a=obs.f_a.value,
        f_a_scaled=obs.f_a.scaled,
        xi2=obs.xi2,
        quad_var_scaled=4.0 * obs.quad_var,
        # <P>: the state lives in the even sector, so P acts on it as 1
        parity_expect=float(np.sum(np.abs(gs.vector) ** 2)),
        discarded_mass_a=atoms.discarded_mass,
        discarded_mass_b=field.discarded_mass,
    )


def _failed_sweep_record(params: ModelParams, exc: SolverError) -> SweepRecord:
    """A failed point's NaN row; its n_cutoff is the last cutoff tried."""
    return SweepRecord(params.lam, params.n_atoms, exc.n_cutoff, *[math.nan] * 11)


def run_sweep(config: SweepConfig) -> tuple[list[SweepRecord], list[list]]:
    """Every (N, lambda) record in output order, NaN where a point failed, and the failed points."""
    failed: list[list] = []
    return list(map_points(config, compute_sweep_record, _failed_sweep_record, failed)), failed


def compute_husimi_grid(params: ModelParams, config: SweepConfig) -> dict:
    """Husimi grids of both subsystems at one point, as float64 arrays (4x smaller than lists).

    The atoms' ``q_normalized`` is not stored: ``write_husimi`` forms q / q_max
    as it writes.
    """
    points = config.grid_points
    gs = solve(params, config.tol, config.fock_cutoff)
    field, atoms = schmidt_decompose(gs)
    theta, phi = default_atom_grid(ATOM_GRID_POINTS if points is None else points)
    q_a = husimi_atoms(atoms, theta, phi)
    re_axis, im_axis, alpha = default_field_grid(
        mean_number(field), FIELD_GRID_POINTS if points is None else points)
    q_b = husimi_field(field, alpha)
    return {
        "lambda": params.lam,
        "n_atoms": params.n_atoms,
        "atoms": {
            "theta": theta,
            "phi": phi,
            "q": q_a,
            "q_max": float(q_a.max()),
        },
        "field": {
            "re_alpha": re_axis,
            "im_alpha": im_axis,
            "q": q_b,
            "q_max": float(q_b.max()),
        },
    }


def _skipped(params: ModelParams, exc: SolverError) -> None:
    """A failed Husimi point leaves no grid."""


def run_husimi(config: SweepConfig) -> tuple[Iterator[dict], list[list]]:
    """The grids of every (N, lambda) point but the failed ones, and the failed points.

    The grids are solved as they are taken, in output order, and the failed
    points are complete once the grids are.
    """
    failed: list[list] = []
    # filter, unlike a generator expression, keeps no reference to the last grid
    return filter(None, map_points(config, compute_husimi_grid, _skipped, failed)), failed


def compute_trajectory(params: ModelParams, config: SweepConfig) -> list[tuple]:
    """The cutoff-doubling rows of one point; ``fock_cutoff``, when given, is its first cutoff."""
    _, gs = converge_cutoff(params, config.tol, n_start=config.fock_cutoff)
    return _trajectory_rows(params, gs.convergence)


def _trajectory_rows(params: ModelParams, solved) -> list[tuple]:
    """Rows of ``solved.steps``: a converged point's ConvergenceInfo, or a failed
    point's SolverError, whose steps end before the failing solve.
    """
    return [(params.lam, params.n_atoms, i, step.n_cutoff, step.energy, step.tail_population)
            for i, step in enumerate(solved.steps)]


def run_convergence(config: SweepConfig) -> tuple[list[tuple], list[list]]:
    """Every point's cutoff-doubling rows in output order, and the failed points."""
    failed: list[list] = []
    trajectories = map_points(config, compute_trajectory, _trajectory_rows, failed)
    return [row for rows in trajectories for row in rows], failed


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


def run_scaling(config: SweepConfig) -> tuple[list, int]:
    """Fit critical exponents on both sides of lambda_cr."""
    probes = [
        critical_scaling_probe(config.omega, config.omega0, side)
        for side in ("below", "above")
    ]
    code = 4 if any(p.low_confidence for p in probes) else 0
    return probes, code


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


def _json_value(value) -> str:
    """One table value as json.dump writes it, after numpy scalars become Python ones
    and NaN and +-inf become None."""
    if isinstance(value, float):  # np.float64 included, whose own repr names its type
        return float.__repr__(value) if math.isfinite(value) else "null"
    if type(value) is int:  # what json.dumps would give, without its encoder
        return int.__repr__(value)
    if isinstance(value, (np.integer, np.floating)):
        return _json_value(value.item())
    return json.dumps(value)


def _json_member(value) -> str:
    """``value`` as json.dump(indent=2, sort_keys=True) writes it as a member of the top object."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")


def _meta_footer(meta: dict) -> str:
    parts = [f"{k}={format_value(v)}" for k, v in sorted(meta.items()) if v is not None]
    return "# meta " + " ".join(parts)


def write_table(stream, columns, rows: Iterable, meta: dict, fmt: str) -> None:
    """Write ``rows`` with one ``write`` per row, as CSV with a meta footer or as JSON.

    The JSON is the bytes of json.dump(indent=2, sort_keys=True) over
    {"meta", "rows"}, each row an object of its columns, but no row object
    is built and no row goes through json's indenting encoder.
    """
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(format_value(v) for v in row) + "\n")
        stream.write(_meta_footer(meta) + "\n")
        return
    # a row is an object at depth 2, its members in sorted-key order
    order = sorted(range(len(columns)), key=columns.__getitem__)
    members = ",\n".join(f"      {json.dumps(columns[i]).replace('%', '%%')}: %s" for i in order)
    row_text = f"    {{\n{members}\n    }}"
    stream.write(f'{{\n  "meta": {_json_member(meta)},\n  "rows": [')
    separator = "\n"
    for row in rows:
        stream.write(separator + row_text % tuple([_json_value(row[i]) for i in order]))
        separator = ",\n"
    stream.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def write_husimi(stream, grids: Iterable[dict], meta: Callable[[], dict], fmt: str) -> None:
    """Write ``run_husimi`` grids as they are taken, each array a list only while it is written.

    ``meta()`` is called once the grids are exhausted, as both formats write it
    last, so it may hold the failed points.  JSON is the bytes of
    json.dump(indent=2, sort_keys=True) over {"grids", "meta"}, and the atoms'
    q_normalized is formed as it is written.
    """
    if fmt == "json":
        encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False,
                                   default=lambda array: array.tolist())
        stream.write('{\n  "grids": [')
        separator = "\n"
        for grid in grids:
            atoms = grid["atoms"]
            grid = {**grid, "atoms": {**atoms, "q_normalized": atoms["q"] / atoms["q_max"]}}
            stream.write(f"{separator}    ")
            # a grid is an object at depth 2: every line after its first 4 more spaces in
            stream.writelines(chunk.replace("\n", "\n    ") for chunk in encoder.iterencode(grid))
            separator = ",\n"
            del grid, atoms  # not held while the next point is solved
        stream.write("]" if separator == "\n" else "\n  ]")
        stream.write(f',\n  "meta": {_json_member(meta())}\n}}\n')
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
            # leading cells once per row and y once per axis: a cell costs two reprs
            head = f"{format_value(lam)},{format_value(n)},{subsystem},"
            ys = [format_value(y) for y in sub[y_axis].tolist()]
            for x, q_row in zip(sub[x_axis].tolist(), sub["q"].tolist()):
                row = f"{head}{format_value(x)},"
                stream.writelines(f"{row}{y},{q!r},{q / q_max!r}\n" for y, q in zip(ys, q_row))
        del grid, sub  # not held while the next point is solved
    stream.write(_meta_footer({**meta(), **maxima}) + "\n")


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
        # a flag that is not given stays out of the namespace, so the file or
        # the default applies
        p = sub.add_parser(mode, help=blurb, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key = value file; explicit flags override it")
        for name, setting in _SETTINGS.items():
            p.add_argument("--" + name.replace("_", "-"), **setting.metadata["flag"])
    return parser


def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` file into setting values; '#' starts a comment.

    A line may also read ``key: value``; a line holding both separators
    splits at the first ``=``.  Keys are the long flag names (``-`` or
    ``_``); any other key, or a value its setting cannot parse, is rejected.
    List values are comma or space separated.
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
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
            try:
                values[key] = _SETTINGS[key].metadata["parse"](val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> SweepConfig:
    """Merge the flags given over an optional config file over the field defaults."""
    flags = vars(args).copy()
    mode, path = flags.pop("mode"), flags.pop("config", None)
    resolved = load_config_file(path) if path else {}
    resolved.update(flags)
    return SweepConfig(mode=mode, **resolved)


def _dispatch(config: SweepConfig) -> int:
    stream, close = _open_output(config.out)
    meta, fmt = config.meta(), config.format
    try:
        if config.mode == "thermo":
            write_table(stream, THERMO_COLUMNS, run_thermo(config), meta, fmt)
            return 0
        if config.mode == "scaling":
            probes, code = run_scaling(config)
            columns = ("side", "eps1_exponent", "dfa_exponent", "dfb_exponent",
                       "eps1_residual", "dfa_residual", "dfb_residual", "low_confidence")
            rows = [
                (p.side, p.eps1_exponent, p.dfa_exponent, p.dfb_exponent,
                 p.eps1_residual, p.dfa_residual, p.dfb_residual, int(p.low_confidence))
                for p in probes
            ]
            write_table(stream, columns, rows, meta, fmt)
            return code
        run = {"sweep": run_sweep, "husimi": run_husimi, "convergence": run_convergence}
        if config.mode not in run:
            raise ValueError(f"unknown mode {config.mode}")
        results, failed = run[config.mode](config)

        def final_meta() -> dict:
            """The meta record, once ``results`` are taken and ``failed`` is complete."""
            return {**meta, "failed_points": failed} if failed else meta

        if config.mode == "husimi":
            write_husimi(stream, results, final_meta, fmt)
        else:
            columns = SWEEP_COLUMNS if config.mode == "sweep" else CONVERGENCE_COLUMNS
            write_table(stream, columns, results, final_meta(), fmt)
        return 4 if failed else 0
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


if __name__ == "__main__":
    sys.exit(main())
