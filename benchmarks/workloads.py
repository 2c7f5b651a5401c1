"""Benchmark workloads: the `dicke-qfi` invocations that users run, and their seeded grids.

Each workload is one CLI invocation at the tolerance users run (1e-10).  The
seed moves the lower end of the coupling grid up by a sub-step offset and
keeps the count and the upper end.  The upper end stays fixed because the
work concentrates there: on ``sweep_superradiant`` the last couplings hold
the largest dense blocks, and shifting the whole grid by up to one step
changes a pass from 16 s to 23 s (2 cores, OpenBLAS 0.3.31, one thread),
which would swamp the benchmark's bounds.  Seed 0 gives the stated grid,
which the checked-in reference was made from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sweep" or "husimi"
    n_atoms: tuple[int, ...]
    lambda_min: float
    lambda_max: float
    lambda_steps: int
    fmt: str  # "csv" or "json"
    grid_points: int | None = None

    @property
    def points(self) -> int:
        """(N, lambda) points in one pass."""
        return len(self.n_atoms) * self.lambda_steps

    def grid(self, seed: int) -> tuple[float, float]:
        """(lambda_min, lambda_max) handed to the CLI for this seed."""
        if seed == DEFAULT_SEED or self.lambda_steps == 1:
            return self.lambda_min, self.lambda_max
        step = (self.lambda_max - self.lambda_min) / (self.lambda_steps - 1)
        offset = random.Random(seed).random()
        return self.lambda_min + offset * step, self.lambda_max

    def lambdas(self, seed: int) -> list[float]:
        """The coupling grid the CLI should produce (numpy linspace up to rounding)."""
        lo, hi = self.grid(seed)
        if self.lambda_steps == 1:
            return [lo]
        step = (hi - lo) / (self.lambda_steps - 1)
        return [lo + i * step for i in range(self.lambda_steps)]

    def argv(self, seed: int) -> list[str]:
        """CLI arguments without ``--out``."""
        lo, hi = self.grid(seed)
        argv = [self.mode]
        for n in self.n_atoms:
            argv += ["--n-atoms", str(n)]
        argv += [
            "--lambda-min", repr(lo),
            "--lambda-max", repr(hi),
            "--lambda-steps", str(self.lambda_steps),
            "--tol", repr(TOL),
            "--format", self.fmt,
        ]
        if self.grid_points is not None:
            argv += ["--grid-points", str(self.grid_points)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # solver-bound: dense eigh of the even block up to dim 3581, peak RSS ~310 MB
        Workload("sweep_superradiant", "sweep", (20,), 0.0, 1.0, 21, "csv"),
        # observable-bound: thousands of small states, spectra, QFI and squeezing
        Workload("sweep_small_n", "sweep", (1, 2), 0.0, 3.0, 801, "json"),
        # serialization and Husimi kernels; bypasses both sweep hot paths.  Not in
        # BENCHMARK.json: its throughput drifts too much on a shared host (README)
        Workload("husimi_grid", "husimi", (6, 20), 0.0, 0.6, 7, "csv"),
    )
}
