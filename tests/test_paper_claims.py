"""The paper's finite-N claims, pinned at small N, at omega = 1.

F_A > N witnesses entanglement among the atoms (Pezze and Smerzi, PRL
102, 100401 (2009)); the atomic QFI passes that classical limit near
lambda_cr only from a threshold atom number on, which depends on
omega0.  Below it the atoms can be spin squeezed (xi2 < 1) with no QFI
gain.  The field's F_B / (4 nbar) passes its classical limit 1 at every
N.  The margin 1e-9 on F_A / N lies above rounding: at N = 2, lambda = 0,
F_A is 2.0000000000000004.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_qfi.cli import SWEEP_COLUMNS, SweepConfig, run_sweep
from dicke_qfi.metrology import qfi_atoms, qfi_field, spin_variance
from dicke_qfi.model import ModelParams
from dicke_qfi.solver import solve
from dicke_qfi.states import schmidt_decompose
from dicke_qfi.thermo import (
    nbar_thermo,
    qfi_field_scaled_limit,
    quad_variance_thermo,
    thermo_point,
)

MARGIN = 1e-9


@functools.cache
def _sweep(omega0: float, n_max: int, lambda_max: float, steps: int) -> dict:
    """Each N = 1..n_max's sweep records over ``steps`` couplings in [0, lambda_max], keyed
    by column."""
    config = SweepConfig(mode="sweep", omega0=omega0, lambda_max=lambda_max,
                         lambda_steps=steps, n_atoms=tuple(range(1, n_max + 1)))
    records, failed = run_sweep(config)
    rows = [dict(zip(SWEEP_COLUMNS, record)) for record in records]
    assert failed == []  # complete once the records are taken
    return {n: [r for r in rows if r["n_atoms"] == n] for n in config.n_atoms}


def _threshold_sweep(omega0: float, n_max: int) -> dict:
    """201 couplings in [0, 2 lambda_cr]."""
    return _sweep(omega0, n_max, math.sqrt(omega0), 201)


@pytest.mark.parametrize("omega0,threshold,peak,at", [
    (0.5, 3, 1.0246, 0.265), (1.0, 4, 1.0060, 0.290), (2.0, 6, 1.0010, 0.311)])
def test_atomic_qfi_passes_n_from_a_threshold_atom_number(omega0, threshold, peak, at):
    by_n = _threshold_sweep(omega0, threshold)
    for n, records in by_n.items():
        fa = np.array([r["F_A_scaled"] for r in records])
        if n < threshold:
            assert fa.max() <= 1.0 + MARGIN, n
    fa = np.array([r["F_A_scaled"] for r in by_n[threshold]])
    assert fa.max() > 1.0 + MARGIN
    assert abs(fa.max() - peak) < 1e-4
    assert abs(by_n[threshold][int(np.argmax(fa))]["lambda"] - at) < 1e-3


@pytest.mark.parametrize("n_atoms,xi2_min", [(2, 0.9269), (3, 0.8961)])
def test_squeezing_without_a_qfi_gain(n_atoms, xi2_min):
    # xi2 < 1 while F_A <= N: F_A = N mu^2 / xi2 holds only as N grows
    records = _threshold_sweep(1.0, 4)[n_atoms]
    assert abs(min(r["xi2"] for r in records) - xi2_min) < 1e-4
    assert max(r["F_A_scaled"] for r in records) <= 1.0 + MARGIN


@pytest.mark.parametrize("omega0,smallest", [(0.5, 1.0161), (1.0, 1.0943), (2.0, 1.2799)])
def test_field_qfi_passes_its_classical_limit_at_every_n(omega0, smallest):
    # 151 couplings in [0, 3]: at omega0 = 0.5 the maxima for N = 1 and 2 lie at
    # lambda = 1.2 and 0.92, past 2 lambda_cr, so the grid reaches past it
    maxima = [max(r["F_B_scaled"] for r in records[1:])  # NaN at lambda = 0, where nbar = 0
              for records in _sweep(omega0, 8, 3.0, 151).values()]
    assert min(maxima) > 1.0
    assert abs(min(maxima) - smallest) < 1e-4


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n_atoms=st.integers(1, 20), lam=st.floats(0.0, 2.0))
def test_qfi_is_bounded_by_four_variances(n_atoms, lam):
    # F <= 4 Var(G), since the QFI is convex and 4 Var(G) for a pure state:
    # G = Jx for the atoms and G = b'b for the field
    field, atoms = schmidt_decompose(solve(ModelParams(1.0, 1.0, lam, n_atoms), 1e-10))
    f_a, f_b = qfi_atoms(atoms).value, qfi_field(field).value
    occupation = (field.weights * np.abs(field.vectors) ** 2).sum(axis=1)  # p(n)
    n = np.arange(field.dim)
    var_number = occupation @ n**2 - (occupation @ n) ** 2
    assert 0.0 <= f_a <= 4.0 * spin_variance(atoms, 0.0) * (1 + 1e-12) + 1e-12
    assert 0.0 <= f_b <= 4.0 * var_number * (1 + 1e-12) + 1e-12


def test_rabi_limit_approaches_the_thermodynamic_field():
    # N = 1 has the superradiant transition too, at the same lambda_cr, as
    # eta = omega0 / omega -> infinity (Hwang, Puebla & Plenio, PRL 115, 180404
    # (2015)): the sweep's field columns approach thermo's at N = 1, and each
    # decade of eta divides every gap by about 10 (9.7 to 11.0 measured from
    # eta = 1e3 on).  eta = 1e5 needs cutoffs up to 116316 (1.5 lambda_cr), blocks
    # of under 1 MiB that a cutoff count of 2^14 once refused
    etas, ratios = (1e2, 1e3, 1e4, 1e5), (0.5, 0.9, 1.1, 1.5)
    gaps = {}
    for eta in etas:
        for ratio in ratios:
            lam = ratio * math.sqrt(eta) / 2
            config = SweepConfig(mode="sweep", omega0=eta, lambda_min=lam, lambda_max=lam,
                                 lambda_steps=1, n_atoms=(1,))
            [row], failed = run_sweep(config)
            assert failed == []
            record = dict(zip(SWEEP_COLUMNS, row))
            pt = thermo_point(1.0, eta, lam)
            limits = (qfi_field_scaled_limit(pt), 4 * quad_variance_thermo(pt), nbar_thermo(pt, 1))
            values = (record["F_B_scaled"], record["quad_var_scaled"], record["nbar"])
            gaps[eta, ratio] = [abs(value - limit) / limit for value, limit in zip(values, limits)]
    for ratio in ratios:
        assert max(gaps[1e5, ratio]) < 2e-4  # at most 1.5e-4 measured
        for eta in (1e3, 1e4):
            for wide, narrow in zip(gaps[eta, ratio], gaps[10 * eta, ratio]):
                assert 8 < wide / narrow < 12
