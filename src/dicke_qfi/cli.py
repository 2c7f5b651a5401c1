"""Command-line driver: coupling sweeps, Husimi grids, thermodynamic-limit
curves, their critical amplitudes, and cutoff-convergence reports.

Output is deterministic: floats are serialized in shortest round-trip
decimal form, columns and row order are fixed, and identical configs
produce byte-identical files at a fixed BLAS thread count (threaded BLAS
may move a last digit).  Exit codes: 0 success, 2 invalid argument,
3 I/O error, 4 a failed (N, lambda) point, each named on stderr with its
reason.
``sweep``, ``husimi`` and ``convergence`` share one run, ``run_points``:
their points are solved in stacks, each point gives a list of items, and a
failed point gives its NaN row, no grid, or the rows of its completed solves.
Every run gives its items as the writer takes them and its failed points,
complete once they are taken; every writer calls ``meta()`` last, so a CSV
table is written as its points finish, and a JSON table holds its rows until
its meta is written.  The JSON writers give the bytes of
json.dump(indent=2, sort_keys=True) without building the document.

``SweepConfig`` is the single declaration of the settings: each of its
fields gives a setting's name, default, text parser and help, and the flags,
the config-file keys and the meta record are all derived from its fields.
``MODES`` is the single declaration of the modes, each with its help line,
its run, its columns and its writer, so one ``_dispatch`` path serves them all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack
from dataclasses import astuple, dataclass, field, fields
from itertools import chain, repeat

import numpy as np

from . import __version__, solver
from .errors import SolverError
from .metrology import (
    ATOM_GRID_POINTS,
    FIELD_GRID_POINTS,
    SWEEP_OBSERVABLES,
    default_atom_grid,
    default_field_grid,
    husimi_atoms,
    husimi_field,
    mean_number,
    sweep_observables,
)
from .model import ModelParams
from .solver import DEFAULT_TOL, GroundState, converge_stack, solve_stack
from .states import SpectralDecomposition, schmidt_runs
from .thermo import (
    critical_amplitudes,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    quad_variance_thermo,
    thermo_point,
    xi2_thermo,
)

SWEEP_COLUMNS = (
    "lambda", "n_atoms", "n_cutoff", "ground_energy", *SWEEP_OBSERVABLES,
    "parity_expect", "discarded_mass_A", "discarded_mass_B",
)

THERMO_COLUMNS = (
    "lambda", "mu", "eps1", "eps2", "xi2", "F_A_per_N",
    "quad_var_scaled", "F_B_scaled", "nbar_per_N", "critical",
)

SCALING_COLUMNS = ("side", "eps1_amplitude", "dfa_amplitude", "dfb_amplitude")

HUSIMI_COLUMNS = ("lambda", "n_atoms", "subsystem", "x", "y", "q", "q_norm")

CONVERGENCE_COLUMNS = ("lambda", "n_atoms", "step", "n_cutoff", "energy", "tail_population")

FORMATS = ("csv", "json")

#: most couplings a grid may hold: at 10^6 the grid alone is 8 MB and a
#: thermo run's rows some hundreds of MB, and no curve needs a finer one
MAX_LAMBDA_STEPS = 10**6

#: most points per Husimi grid axis, about 10x the defaults.  The kernels work
#: in chunks, but the field's P x P grids, both Q arrays and the writers' lists
#: are whole: one N = 20 point at P = 2001 peaks at 275 MiB (CSV), 305 (JSON)
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
    """Resolved run configuration shared by all modes.

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
        None, int, "fixed Fock cutoff, certified per point if unset; in convergence, "
                   "the first cutoff of each point's trajectory")
    grid_points: int | None = _setting(
        None, int, f"points per Husimi grid axis, 11 to {MAX_GRID_POINTS}, {ATOM_GRID_POINTS} "
                   f"(atoms) and {FIELD_GRID_POINTS} (field) if unset")
    out: str = _setting("-", str, "output path, '-' for stdout")
    format: str = _setting("csv", str, "output format", choices=FORMATS)
    workers: int = _setting(1, int, f"worker processes for the points, at most {MAX_WORKERS}")

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_atoms", tuple(self.n_atoms))  # argparse appends to a list
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode}")
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
        if self.fock_cutoff is not None:
            if self.fock_cutoff < 1:
                raise ValueError("fock-cutoff must be at least 1")
            # a solve's bytes grow with N, and a point at lambda > 0 holds more than
            # one at lambda = 0, so the largest N at the largest coupling stands
            # for every point
            lam = self.lambda_max if self.lambda_steps > 1 else self.lambda_min
            largest = ModelParams(self.omega, self.omega0, lam, max(self.n_atoms))
            try:
                solver.checked_bytes(largest, self.fock_cutoff)
            except SolverError as exc:
                raise ValueError(f"fock-cutoff {self.fock_cutoff}: {exc}") from None
        if self.grid_points is not None and not 11 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"husimi grids need 11 to {MAX_GRID_POINTS} points per axis")
        if self.format not in FORMATS:
            raise ValueError("format must be csv or json")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")

    def lambda_grid(self) -> np.ndarray:
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


def run_points(config: SweepConfig, solve, point, failure) -> tuple[Iterator, list[list]]:
    """``map_points``' items, formed as they are taken, and the failed points, which are
    complete once the items are taken."""
    failed: list[list] = []
    return map_points(config, solve, point, failure, failed), failed


def map_points(config: SweepConfig, solve, point, failure, failed: list) -> Iterator:
    """Yield the items of every (N, lambda) point's ground state, in output order.

    The points are cut into stacks by ``solver.stacks``, and
    ``solve(stack, config.tol, config.fock_cutoff)`` gives each point of a
    stack its GroundState or the SolverError it failed with, a MemoryError
    included.  ``point(states, config)`` yields a list of items for each of
    a stack's solved states, in order.  A point whose solve failed, or whose
    list raised SolverError or MemoryError alone (``_one_at_a_time``), gives
    the list ``failure(params, exc)``, once [lambda, N] is appended to
    ``failed`` and a line naming the point and the error is printed to
    stderr.  Serially each stack is solved when its first item is asked for,
    and a point's list is dropped before the next point's is formed, so a
    ``point`` that forms its lists one at a time, as ``compute_husimi_grids``
    does, and a consumer that writes and drops each item hold one point's
    items at a time.  A pool takes all stacks at once, each at most
    ceil(points / workers) points, so that every process gets work, each
    failure sent back as its SolverError; lists that finish before they are
    asked for wait in this process.  A point's items depend on the point
    alone, so not on the stacks or the worker count.
    """
    points = config.points()
    workers = min(config.workers, len(points))
    stacked = solver.stacks(points, config.fock_cutoff, -(-len(points) // workers))
    workers = min(workers, len(stacked))
    tasks = (repeat(solve), repeat(point), stacked, repeat(config))
    with ExitStack() as resources:
        if workers == 1:
            outcomes = chain.from_iterable(map(_attempt, *tasks))
        else:
            # imported here: a one-process run never starts a pool, and the
            # import costs every process 16-25 ms
            from concurrent.futures import ProcessPoolExecutor

            pool = resources.enter_context(ProcessPoolExecutor(max_workers=workers))
            outcomes = chain.from_iterable(pool.map(_attempt_all, *tasks))
        for params in points:
            items = next(outcomes)
            if isinstance(items, SolverError):
                failed.append([params.lam, params.n_atoms])
                print(f"dicke-qfi: lambda={params.lam} N={params.n_atoms} failed: {items}",
                      file=sys.stderr)
                items = failure(params, items)
            yield from items
            del items  # not held while the next point is solved


def _attempt(solve, point, stack: list[ModelParams], config: SweepConfig) -> Iterator:
    """Each point's list of items, or the SolverError that failed it, formed as it is taken."""
    states = solve(stack, config.tol, config.fock_cutoff)
    results = _one_at_a_time(point, [gs for gs in states if not isinstance(gs, SolverError)],
                             config)
    for gs in states:
        yield gs if isinstance(gs, SolverError) else next(results)


def _one_at_a_time(point, states: list[GroundState], config: SweepConfig) -> Iterator:
    """``point(states, config)``'s list of items for each of ``states``, in order, or
    the SolverError that failed it.

    When ``point`` raises SolverError or MemoryError, the states it has not
    yet given a list for are taken again one at a time, so only a state
    whose list fails alone gets an error: at its cutoff, with its steps and
    its own solve last.  The others get the bits they would have had.
    """
    done = 0
    try:
        for result in point(states, config):
            yield result
            del result  # not held while the next result is formed
            done += 1
        return
    except (SolverError, MemoryError):
        pass
    for gs in states[done:]:
        try:
            (result,) = point([gs], config)
        except (SolverError, MemoryError) as exc:
            result = SolverError(f"{type(exc).__name__}: {exc}", gs.n_cutoff,
                                 (*gs.steps, gs.step))
        yield result
        del result


def _attempt_all(solve, point, stack: list[ModelParams], config: SweepConfig) -> list:
    """``_attempt`` of a stack in a worker, every outcome formed, to be sent back."""
    return list(_attempt(solve, point, stack, config))


def compute_sweep_records(states: list[GroundState], config: SweepConfig) -> Iterator[list]:
    """A list of the one sweep row, its SWEEP_COLUMNS values, of each solved point, in order.

    Each ``states.schmidt_runs`` run's observables are formed in one batched pass,
    when its first row is asked for: ``sweep_observables`` gives one array per
    ``metrology.SWEEP_OBSERVABLES`` name, in that order.  The field and the
    atoms share one discarded mass, the weight the Schmidt step drops.
    """
    for run, field, atoms in schmidt_runs(states):
        observed = zip(*(column.tolist() for column in sweep_observables(field, atoms)))
        for gs, values, mass in zip(run, observed, field.discarded_mass.tolist()):
            # parity_expect is <P>: the state lives in the even sector, so P acts on it as 1
            yield [(gs.params.lam, gs.params.n_atoms, gs.n_cutoff, gs.energy, *values,
                    float(gs.vector @ gs.vector), mass, mass)]


def _failed_sweep_record(params: ModelParams, exc: SolverError) -> list[tuple]:
    """A failed point's NaN row; its n_cutoff is that of the solve that failed or was refused."""
    return [(params.lam, params.n_atoms, exc.n_cutoff, *[math.nan] * (len(SWEEP_COLUMNS) - 3))]


def run_sweep(config: SweepConfig) -> tuple[Iterator[tuple], list[list]]:
    """Every (N, lambda) record in output order, NaN where a point failed, and the failed points."""
    return run_points(config, solve_stack, compute_sweep_records, _failed_sweep_record)


def compute_husimi_grids(states: list[GroundState], config: SweepConfig) -> Iterator[list]:
    """A list of the one dict of both subsystems' float64 Husimi grids of each solved point.

    Each point's grids are formed from its ``states.schmidt_runs`` run when
    they are asked for, so one point's grids are held at a time.
    """
    points = config.grid_points
    atom_axes = default_atom_grid(ATOM_GRID_POINTS if points is None else points)
    field_points = FIELD_GRID_POINTS if points is None else points
    for run, field, atoms in schmidt_runs(states):
        for i, gs in enumerate(run):
            state = field[i]
            field_axes = default_field_grid(mean_number(state), field_points)
            yield [_husimi_grid(gs.params, state, atoms[i], atom_axes, field_axes)]


def _husimi_grid(params: ModelParams, field: SpectralDecomposition, atoms: SpectralDecomposition,
                 atom_axes: tuple, field_axes: tuple) -> dict:
    """Husimi grids of one point's reduced states on the given (theta, phi) and
    (re_alpha, im_alpha, alpha) axes.

    A function of its own so that its Q arrays die as it returns: as locals of
    the generator ``compute_husimi_grids`` they would hold one point's grids
    while the next point's form (``test_husimi_memory_does_not_hold_lists``).
    Arrays take a quarter of the memory of lists.  The atoms'
    ``q_normalized`` is not stored: ``write_husimi`` forms q / q_max as it
    writes.
    """
    theta, phi = atom_axes
    re_axis, im_axis, alpha = field_axes
    q_a = husimi_atoms(atoms, theta, phi)
    q_b = husimi_field(field, alpha)
    return {"lambda": params.lam, "n_atoms": params.n_atoms,
            "atoms": {"theta": theta, "phi": phi, "q": q_a, "q_max": float(q_a.max())},
            "field": {"re_alpha": re_axis, "im_alpha": im_axis, "q": q_b,
                      "q_max": float(q_b.max())}}


def run_husimi(config: SweepConfig) -> tuple[Iterator[dict], list[list]]:
    """The grids of every (N, lambda) point but the failed ones, and the failed points."""
    return run_points(config, solve_stack, compute_husimi_grids, lambda params, exc: [])


def compute_trajectories(states: list[GroundState], config: SweepConfig) -> Iterator[list[tuple]]:
    """The cutoff-trajectory rows of each converged point, in order: one per solve."""
    return (_trajectory_rows(gs.params, gs) for gs in states)


def _trajectory_rows(params: ModelParams, solved: GroundState | SolverError) -> list[tuple]:
    """Rows of a point's solves: a converged state's rejected ``steps`` and its own
    ``step``, or a failed point's SolverError ``steps``, which end before the failing solve.
    """
    steps = solved.steps if isinstance(solved, SolverError) else (*solved.steps, solved.step)
    return [(params.lam, params.n_atoms, i, step.n_cutoff, step.energy, step.tail_population)
            for i, step in enumerate(steps)]


def run_convergence(config: SweepConfig) -> tuple[Iterator[tuple], list[list]]:
    """Every point's cutoff-trajectory rows in output order, from its first cutoff
    ``fock_cutoff`` when given, and the failed points, each with its completed solves."""
    return run_points(config, converge_stack, compute_trajectories, _trajectory_rows)


def run_thermo(config: SweepConfig) -> tuple[list[tuple], list[list]]:
    """Thermodynamic-limit rows over the lambda grid (N-independent); no point fails."""
    rows = []
    for lam in config.lambda_grid():
        pt = thermo_point(config.omega, config.omega0, float(lam))
        rows.append((
            float(lam), pt.mu, pt.eps1, pt.eps2, xi2_thermo(pt),
            qfi_atoms_thermo(pt, 1.0), 4.0 * quad_variance_thermo(pt),
            qfi_field_scaled_limit(pt), pt.beta_s2_per_n, int(pt.critical),
        ))
    return rows, []


def run_scaling(config: SweepConfig) -> tuple[list[tuple], list[list]]:
    """The critical amplitudes below and above lambda_cr, one row per side; no point fails."""
    return [astuple(critical_amplitudes(config.omega, config.omega0, side))
            for side in ("below", "above")], []


#: each mode's help line, the name of its run, which gives its items and its failed points,
#: its columns, and the name of its writer
MODES = {
    "sweep": ("finite-N observables over a coupling grid",
              "run_sweep", SWEEP_COLUMNS, "write_table"),
    "husimi": ("quasi-probability grids for both subsystems",
               "run_husimi", HUSIMI_COLUMNS, "write_husimi"),
    "thermo": ("thermodynamic-limit curves over a coupling grid",
               "run_thermo", THERMO_COLUMNS, "write_table"),
    "scaling": ("critical amplitudes on both sides of lambda_cr",
                "run_scaling", SCALING_COLUMNS, "write_table"),
    "convergence": ("Fock-cutoff trajectories, one row per solve: a single row for a point "
                    "whose tail and leakage pass --tol at its first cutoff",
                    "run_convergence", CONVERGENCE_COLUMNS, "write_table"),
}


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


def write_table(stream, columns, rows: Iterable, meta: Callable[[], dict], fmt: str) -> None:
    """Write ``rows`` with one ``write`` per row, as CSV with a meta footer or as JSON.

    ``meta()`` is called once the rows are taken, so it may hold the failed
    points: JSON writes it first, so it holds every row.  The JSON is the
    bytes of json.dump(indent=2, sort_keys=True) over {"meta", "rows"}, each
    row an object of its columns, but no row object is built and no row goes
    through json's indenting encoder.
    """
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(format_value(v) for v in row) + "\n")
        stream.write(_meta_footer(meta()) + "\n")
        return
    rows = list(rows)
    # a row is an object at depth 2, its members in sorted-key order
    order = sorted(range(len(columns)), key=columns.__getitem__)
    members = ",\n".join(f"      {json.dumps(columns[i]).replace('%', '%%')}: %s" for i in order)
    row_text = f"    {{\n{members}\n    }}"
    stream.write(f'{{\n  "meta": {_json_member(meta())},\n  "rows": [')
    separator = "\n"
    for row in rows:
        stream.write(separator + row_text % tuple([_json_value(row[i]) for i in order]))
        separator = ",\n"
    stream.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def write_husimi(stream, columns, grids: Iterable[dict], meta: Callable[[], dict],
                 fmt: str) -> None:
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
    stream.write(",".join(columns) + "\n")
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
    # a flag not given stays out of the namespace, so the file or the default applies
    parser = argparse.ArgumentParser(
        prog="dicke-qfi",
        description="Ground-state QFI, squeezing, and Husimi diagnostics of the Dicke model.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("mode", choices=MODES,
                        help="; ".join(f"{mode}: {blurb}" for mode, (blurb, *_) in MODES.items()))
    parser.add_argument("--config", help="key = value file; explicit flags override it")
    for name, setting in _SETTINGS.items():
        parser.add_argument("--" + name.replace("_", "-"), **setting.metadata["flag"])
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
    _, run, columns, write = MODES[config.mode]
    stream, close = _open_output(config.out)
    try:
        # looked up by name as the run starts, so a function replaced since import is called
        results, failed = globals()[run](config)

        def meta() -> dict:
            """The meta record, once ``results`` are taken and ``failed`` is complete."""
            return {**config.meta(), "failed_points": failed} if failed else config.meta()

        globals()[write](stream, columns, results, meta, config.format)
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
