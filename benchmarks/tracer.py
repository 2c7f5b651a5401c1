"""Span tracer that wraps the package's public functions from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
``scipy.linalg.eigh``, by a timing wrapper in every module that holds it, so
calls made through ``from .x import f`` names are seen too.  ``uninstall``
puts every original back.  Spans stay in memory until the run writes them.

A span is ``[name, start, end, parent, point, attrs]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``point`` the (N, lambda)
the work belongs to.  A call whose arguments name a point (a ``params``
argument, or ``lam`` and ``n_atoms``) sets the current point; it stays set
for the sibling calls that follow, and a call that named none restores the
point it started with when it returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

PACKAGE = "dicke_qfi"
LAYERS = ("model", "solver", "states", "metrology", "thermo", "cli")

# Called once per serialized value, 7M times on husimi_grid; the write_table
# and write_husimi spans already hold its time.
UNTRACED = frozenset({"cli.format_value"})

# Attributes read from a return value; a later signature change gives None.
RESULT_ATTRS = {
    "model.build_hamiltonian_block": lambda r: {"dim": int(r.shape[0])},
    "solver.converge_cutoff": lambda r: {"n_cutoff": int(r[0])},
    "metrology.husimi_field": lambda r: {"cells": int(r.size)},
    "metrology.husimi_atoms": lambda r: {"cells": int(r.size)},
}

#: per-layer metrics of the traced pass, with units, in report order
PER_LAYER = (
    ("layer.model.s", "s"),
    ("layer.solver.s", "s"),
    ("layer.states.s", "s"),
    ("layer.metrology.s", "s"),
    ("layer.thermo.s", "s"),
    ("layer.cli.s", "s"),
    ("model.build_hamiltonian_block.calls", "count"),
    ("model.build_hamiltonian_block.s", "s"),
    ("model.block_dim.max", "count"),
    ("model.block_bytes.max", "B"),
    ("solver.converge_cutoff.calls", "count"),
    ("solver.converge_cutoff.s", "s"),
    ("solver.ground_state.calls", "count"),
    ("solver.ground_state.s", "s"),
    ("solver.ground_state.self_s", "s"),
    ("solver.eigh.s", "s"),
    ("solver.solves_per_point", "solves/point"),
    ("solver.final_cutoff.sum", "count"),
    ("states.partial_trace_atoms.calls", "count"),
    ("states.partial_trace_atoms.s", "s"),
    ("states.partial_trace_field.calls", "count"),
    ("states.partial_trace_field.s", "s"),
    ("states.spectral_decompose.calls", "count"),
    ("states.spectral_decompose.s", "s"),
    ("states.eigh.s", "s"),
    ("metrology.qfi_field.s", "s"),
    ("metrology.qfi_atoms.s", "s"),
    ("metrology.qfi_mixed.calls", "count"),
    ("metrology.qfi_mixed.s", "s"),
    ("metrology.quadrature_variance.calls", "count"),
    ("metrology.quadrature_variance.s", "s"),
    ("metrology.spin_squeezing_xi2.s", "s"),
    ("metrology.husimi_field.s", "s"),
    ("metrology.husimi_atoms.s", "s"),
    ("metrology.husimi_cells", "count"),
    ("cli.compute_sweep_record.self_s", "s"),
    ("cli.compute_sweep_record.p50_s", "s"),
    ("cli.compute_sweep_record.p90_s", "s"),
    ("cli.compute_sweep_record.samples", "count"),
    ("cli.run_husimi.self_s", "s"),
    ("cli.write_table.s", "s"),
    ("cli.write_husimi.s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_s", "s"),
)


def _params_point(params):
    try:
        return [int(params.n_atoms), float(params.lam)]
    except (AttributeError, TypeError, ValueError):
        return None


def _point_getter(fn):
    """Function of (args, kwargs) giving the (N, lambda) a call names, or None."""
    names = list(inspect.signature(fn).parameters)

    def arg(args, kwargs, name):
        i = names.index(name)
        return args[i] if i < len(args) else kwargs.get(name)

    if "params" in names:
        return lambda a, k: _params_point(arg(a, k, "params"))
    if "lam" in names and "n_atoms" in names:
        return lambda a, k: [int(arg(a, k, "n_atoms")), float(arg(a, k, "lam"))]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.point = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import scipy.linalg

        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a layer that no longer exists reports zero calls
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._replace(fn, self._wrap(name, fn))
        self._replace(scipy.linalg.eigh, self._wrap_eigh(scipy.linalg.eigh), scipy.linalg)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _replace(self, original, wrapper, *extra_modules) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in [*modules, *extra_modules]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    # -- spans -------------------------------------------------------------

    def _span(self, name, point, fn, args, kwargs):
        """Run fn inside a span; returns (span index, result)."""
        saved = self.point
        if point is not None:
            self.point = point
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.point, None])
        self._stack.append(index)
        try:
            return index, fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            if point is None:
                self.point = saved

    def _wrap(self, name, fn):
        point_of = _point_getter(fn)
        attrs_of = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            point = point_of(args, kwargs) if point_of else None
            index, result = self._span(name, point, fn, args, kwargs)
            if attrs_of is not None:
                try:
                    self.spans[index][5] = attrs_of(result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            return result

        return wrapper

    def _wrap_eigh(self, fn):
        """eigh spans are named after the caller's layer: solver.eigh, states.eigh."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self.spans[self._stack[-1]][0].split(".")[0] if self._stack else "other"
            return self._span(f"{layer}.eigh", None, fn, args, kwargs)[1]

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, point, attrs) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start - self._t0,
                          "end": end - self._t0, "parent": parent, "point": point}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")

    # -- metrics -----------------------------------------------------------

    def metrics(self, output_bytes: int, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric; names with no spans read 0."""
        durations: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        attrs: dict[str, list[dict]] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        points = set()
        for i, (name, start, end, _, point, extra) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            if extra:
                attrs.setdefault(name, []).append(extra)
            if point is not None:
                points.add(tuple(point))

        def attr_values(name, key):
            return [a[key] for a in attrs.get(name, ()) if key in a]

        dims = attr_values("model.build_hamiltonian_block", "dim")
        solves = len(durations.get("solver.ground_state", ()))
        special = {
            "model.block_dim.max": max(dims, default=0),
            # computed from the dimension, not measured: one dense float64 block
            "model.block_bytes.max": 8 * max(dims, default=0) ** 2,
            "solver.solves_per_point": solves / len(points) if points else 0.0,
            "solver.final_cutoff.sum": sum(attr_values("solver.converge_cutoff", "n_cutoff")),
            "metrology.husimi_cells": sum(attr_values("metrology.husimi_field", "cells"))
            + sum(attr_values("metrology.husimi_atoms", "cells")),
            "cli.output_bytes": output_bytes,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for metric, _ in PER_LAYER:
            if metric in special:
                out[metric] = special[metric]
                continue
            prefix, stat = metric.rsplit(".", 1)
            if prefix.startswith("layer."):
                layer = prefix.split(".", 1)[1]
                out[metric] = sum(v for n, v in self_s.items() if n.split(".")[0] == layer)
                continue
            values = durations.get(prefix, [])
            if stat == "calls":
                out[metric] = len(values)
            elif stat == "s":
                out[metric] = sum(values)
            elif stat == "self_s":
                out[metric] = self_s.get(prefix, 0.0)
            elif stat == "samples":
                out[metric] = len(values)
            elif stat in ("p50_s", "p90_s"):
                out[metric] = _nearest_rank(values, 0.5 if stat == "p50_s" else 0.9)
            else:
                raise ValueError(f"no rule for per-layer metric {metric}")
        return out


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
