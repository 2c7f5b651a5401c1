"""Acceptance gate: one test per criterion, in order.

Every test prints one ``ACCEPTANCE <k>: PASS`` line with the measured
numbers once its assertions hold (run ``pytest -s`` to see them; with
plain ``pytest -v`` the per-test PASSED/FAILED column carries the same
verdicts).  The finite-N sweep that several criteria share is computed
once per session.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from qfi_reference import (
    pure_state_qfi,
    qfi_mixed,
    random_density,
    random_hermitian,
    sld_qfi_oracle,
    spectral_decompose,
    ultrastrong_reference,
)
from thermal_oscillator import thermal_oscillator

from dicke_qfi.cli import SWEEP_COLUMNS, SweepConfig, main, run_sweep
from dicke_qfi.metrology import (
    default_atom_grid,
    husimi_atoms,
    qfi_atoms,
    qfi_field,
    quadrature_variance,
    spin_variance,
)
from dicke_qfi.model import ModelParams
from dicke_qfi.solver import solve
from dicke_qfi.states import schmidt_decompose
from dicke_qfi.thermo import (
    critical_amplitudes,
    nbar_thermo,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    qfi_field_thermo,
    quad_variance_thermo,
    thermo_point,
    xi2_thermo,
)

SQRT2 = math.sqrt(2.0)
RESONANT_LCR = 0.5


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def finite_sweep():
    """101-point sweep at N = 2 and N = 20, resonance, tol 1e-10."""
    config = SweepConfig(
        mode="sweep",
        lambda_min=0.0,
        lambda_max=1.0,
        lambda_steps=101,
        n_atoms=(2, 20),
        tol=1e-10,
    )
    start = time.perf_counter()
    records, failed = run_sweep(config)
    # the run is lazy: its failed points are complete once its records are taken
    rows = [dict(zip(SWEEP_COLUMNS, record)) for record in records]
    elapsed = time.perf_counter() - start
    assert failed == []
    by_n = {
        n: [r for r in rows if r["n_atoms"] == n] for n in config.n_atoms
    }
    lams = np.array([r["lambda"] for r in by_n[20]])
    return {
        "lams": lams,
        "records": by_n,
        "elapsed": elapsed,
    }


def test_criterion_01_thermo_values_at_critical_point():
    start = time.perf_counter()
    pt = thermo_point(1.0, 1.0, RESONANT_LCR)
    xi2 = xi2_thermo(pt)
    quad4 = 4.0 * quad_variance_thermo(pt)
    fa_per_n = qfi_atoms_thermo(pt, 1.0)
    fb_scaled = qfi_field_thermo(pt, 1.0).scaled
    elapsed = time.perf_counter() - start
    assert abs(xi2 - 1 / SQRT2) < 1e-9
    assert abs(quad4 - 1 / SQRT2) < 1e-9
    assert abs(fa_per_n - SQRT2) < 1e-9
    assert abs(fb_scaled - SQRT2) < 1e-9
    assert elapsed < 1.0
    _report(1, f"xi2 = 4(dX)^2 = {xi2:.12f}, F_A/N = F_B/(4nbar) = {fa_per_n:.12f} "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_02_squeezing_identity_grid():
    n_atoms = 20
    worst = 0.0
    for lam in np.linspace(0.0, 3.0, 1000):
        pt = thermo_point(1.0, 1.0, float(lam))
        dev = abs(qfi_atoms_thermo(pt, n_atoms) * xi2_thermo(pt) - n_atoms * pt.mu**2)
        worst = max(worst, dev)
    assert worst < 1e-11
    _report(2, f"max |F_A xi2 - N mu^2| = {worst:.2e} over 1000 couplings in [0, 3]")


def test_criterion_03_thermal_oscillator_identity_suite():
    # the identities hold among the thermal-oscillator oracle's own quantities,
    # and the closed forms agree with that oracle
    start = time.perf_counter()
    worst = worst_rel = 0.0
    n_atoms = 20
    normal = (0.05, 0.15, 0.25, 0.35, 0.45)
    superradiant = (0.55, 0.7, 0.9, 1.5, 2.5)
    for lam in normal + superradiant:
        osc = thermal_oscillator(1.0, 1.0, lam)
        e = osc.exp_b_omega
        ratio = (e + 1.0) / (e - 1.0)
        cs2 = (osc.c * osc.s) ** 2
        esum = osc.eps1 + osc.eps2
        detune = osc.omega0**2 / osc.mu**2 - osc.omega**2
        checks = (
            ratio**2 - (1 + (osc.eps1 - osc.eps2) ** 2 * cs2 / (osc.eps1 * osc.eps2)),
            osc.omega_atoms * ratio - (osc.eps1 * osc.s**2 + osc.eps2 * osc.c**2),
            osc.omega_atoms * ratio - (esum / 2 + detune / (2 * esum)),
            osc.omega_field * ratio - (osc.eps1 * osc.c**2 + osc.eps2 * osc.s**2),
            osc.omega_field * ratio - (esum / 2 - detune / (2 * esum)),
        )
        worst = max(worst, max(abs(c) for c in checks))
        pt = thermo_point(1.0, 1.0, lam)
        pairs = (
            (xi2_thermo(pt), osc.xi2),
            (quad_variance_thermo(pt), osc.quad_variance),
            (nbar_thermo(pt, n_atoms), osc.nbar(n_atoms)),
            (qfi_atoms_thermo(pt, n_atoms), osc.qfi_atoms(n_atoms)),
            (qfi_field_thermo(pt, n_atoms).value, osc.qfi_field(n_atoms)),
        )
        worst_rel = max(worst_rel, max(abs(ours / theirs - 1.0) for ours, theirs in pairs))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert worst_rel < 1e-10
    assert elapsed < 1.0
    _report(3, f"identity residuals <= {worst:.2e} at five couplings per phase; "
               f"closed forms within {worst_rel:.2e} of the thermal-oscillator form")


def test_criterion_04_critical_exponents():
    # at resonance: the local exponents of eps1 and of both scaled-QFI
    # derivatives, from mp.diff of the direct forms at 60 digits between
    # delta = 1e-14 and 1e-16 lambda_cr, and the closed-form amplitudes
    # that `scaling` reports as the limits of delta^(-+1/2) times each
    mp = pytest.importorskip("mpmath").mp
    from thermo_reference import thermo_reference

    start = time.perf_counter()
    depths = (1e-14, 1e-16)
    results = {}
    for side, sign in (("below", -1), ("above", 1)):
        amplitudes = critical_amplitudes(1.0, 1.0, side)
        with mp.workdps(60):
            values = []
            for depth in depths:
                delta = depth * mp.mpf(RESONANT_LCR)
                lam = RESONANT_LCR + sign * delta
                values.append((
                    thermo_reference(1.0, 1.0, lam).eps1,
                    mp.diff(lambda x: thermo_reference(1.0, 1.0, x).qfi_atoms_per_n, lam),
                    mp.diff(lambda x: thermo_reference(1.0, 1.0, x).qfi_field_scaled, lam),
                ))
            exponents = [float(mp.log(abs(near / far)) / mp.log(depths[1] / depths[0]))
                         for far, near in zip(*values)]
            scale = mp.sqrt(depths[1] * RESONANT_LCR)
            leading = [float(values[1][0] / scale), float(values[1][1] * scale),
                       float(values[1][2] * scale)]
        assert_allclose(exponents, [0.5, -0.5, -0.5], atol=1e-6)
        assert_allclose(leading, [amplitudes.eps1, amplitudes.dfa, amplitudes.dfb], rtol=1e-6)
        results[side] = exponents
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "gap exponent {:.3f}/{:.3f}, dF_A {:.3f}/{:.3f}, dF_B {:.3f}/{:.3f} "
               "(below/above)".format(
                   results["below"][0], results["above"][0],
                   results["below"][1], results["above"][1],
                   results["below"][2], results["above"][2]))


def test_criterion_05_finite_n_qfi_enhancement(finite_sweep):
    assert finite_sweep["elapsed"] < 120.0
    lams = finite_sweep["lams"]
    n20 = finite_sweep["records"][20]
    fa20 = np.array([r["F_A_scaled"] for r in n20])
    fb20 = np.array([r["F_B_scaled"] for r in n20])
    assert fa20.max() > 1.0
    assert 0.45 <= lams[np.argmax(fa20)] <= 0.65
    fb_valid = np.where(np.isnan(fb20), -np.inf, fb20)
    assert fb_valid.max() > 1.0
    assert 0.45 <= lams[np.argmax(fb_valid)] <= 0.65

    n2 = finite_sweep["records"][2]
    fa2 = np.array([r["F_A_scaled"] for r in n2])
    # the decoupled point sits exactly at the classical limit; beyond it the
    # ratio drops strictly below 1 and keeps falling
    assert fa2[0] <= 1.0 + 1e-12
    assert np.all(fa2[1:] < 1.0)
    assert np.all(np.diff(fa2) < 1e-12)
    _report(5, f"N=20 peaks F_A/N = {fa20.max():.3f} at lambda = {lams[np.argmax(fa20)]:.2f}, "
               f"F_B/(4nbar) = {fb_valid.max():.3f} at {lams[np.argmax(fb_valid)]:.2f}; "
               f"N=2 stays below 1 and decreases (sweep {finite_sweep['elapsed']:.0f} s)")


def test_criterion_06_husimi_maximum_regression():
    start = time.perf_counter()
    theta, phi = default_atom_grid(181)
    maxima = {}
    for lam in (0.0, 0.54, 1.0):
        params = ModelParams(1.0, 1.0, lam, 20)
        gs = solve(params, 1e-10)
        q = husimi_atoms(schmidt_decompose(gs)[1], theta, phi)
        maxima[lam] = float(q.max())
    elapsed = time.perf_counter() - start
    assert abs(maxima[0.0] - 1.0) < 1e-9
    assert abs(maxima[0.54] - 0.557) < 0.005
    assert abs(maxima[1.0] - 0.5) < 0.01
    assert elapsed < 60.0
    _report(6, "Q_A max = {:.4f}, {:.4f}, {:.4f} at lambda = 0, 0.54, 1 "
               "({:.0f} s)".format(maxima[0.0], maxima[0.54], maxima[1.0], elapsed))


def test_criterion_07_squeezing_minima(finite_sweep):
    lams = finite_sweep["lams"]
    n20 = finite_sweep["records"][20]
    for label, curve in (
        ("4(dX_pi/2)^2", np.array([r["quad_var_scaled"] for r in n20])),
        ("xi2", np.array([r["xi2"] for r in n20])),
    ):
        k = int(np.argmin(curve))
        assert 0.45 <= lams[k] <= 0.60, label
        assert curve[k] < 1.0, label
        # returns toward the classical value at the right edge
        assert np.all(np.diff(curve[k:]) > -1e-9), label
        assert abs(curve[-1] - 1.0) < 0.05, label
        assert curve[-1] > curve[k], label
    quad = np.array([r["quad_var_scaled"] for r in n20])
    xi2 = np.array([r["xi2"] for r in n20])
    _report(7, f"minima 4(dX)^2 = {quad.min():.3f} at {lams[np.argmin(quad)]:.2f}, "
               f"xi2 = {xi2.min():.3f} at {lams[np.argmin(xi2)]:.2f}; both rise to ~1 at lambda = 1")


def test_criterion_08_qfi_oracle_equivalence():
    rng = np.random.default_rng(2024)
    dims = [2, 3, 4, 5, 6, 7, 8]
    checked = 0
    for trial in range(200):
        dim = dims[trial % len(dims)]
        rank = dim if trial % 2 == 0 else int(rng.integers(1, dim))
        rho = random_density(rng, dim, rank)
        generator = random_hermitian(rng, dim)
        decomp = spectral_decompose(rho, "boson")
        value = qfi_mixed(decomp, generator).value
        oracle = sld_qfi_oracle(decomp, generator)
        assert abs(value - oracle) <= 1e-8 * max(1.0, abs(oracle))
        checked += 1
    # pure states collapse exactly to 4 * variance
    for trial in range(20):
        dim = dims[trial % len(dims)]
        rho = random_density(rng, dim, 1)
        generator = random_hermitian(rng, dim)
        decomp = spectral_decompose(rho, "boson")
        value = qfi_mixed(decomp, generator).value
        expected = pure_state_qfi(decomp.vectors[:, 0], generator)
        assert abs(value - expected) <= 1e-12 * max(1.0, expected)
    _report(8, f"{checked} random mixed states matched the SLD oracle to 1e-8; "
               "20 pure states matched 4 Var(G) to 1e-12")


def test_criterion_09_ultrastrong_asymptotics(ultrastrong_n6):
    params = ultrastrong_n6["params"]
    atoms, field = ultrastrong_n6["atoms"], ultrastrong_n6["field"]
    ref = ultrastrong_reference(params)
    fa = qfi_atoms(atoms).scaled
    fb = qfi_field(field).scaled
    var_x0 = quadrature_variance(field, 0.0)
    var_jx = spin_variance(atoms, 0.0)
    assert fa < 0.1
    assert 0.8 < fb < 1.2
    assert abs(var_x0 - ref.var_x0) < 0.1 * ref.var_x0
    assert abs(var_jx - ref.var_jx) < 0.1 * ref.var_jx
    _report(9, f"N=6, lambda=2: F_A/N = {fa:.4f}, F_B/(4nbar) = {fb:.4f}, "
               f"(dX_0)^2 = {var_x0:.2f} vs {ref.var_x0:.2f}, "
               f"(dJ_x)^2 = {var_jx:.2f} vs {ref.var_jx:.2f}")


def test_criterion_10_finite_n_tracks_thermodynamic_limit(finite_sweep):
    lams = finite_sweep["lams"]
    n20 = finite_sweep["records"][20]
    window = (lams <= 0.4) | (lams >= 0.7)
    worst = {}
    for label, finite, limit in (
        ("F_A/N", np.array([r["F_A_scaled"] for r in n20]),
         np.array([qfi_atoms_thermo(thermo_point(1.0, 1.0, float(l)), 1.0) for l in lams])),
        ("F_B/(4nbar)", np.array([r["F_B_scaled"] for r in n20]),
         np.array([qfi_field_scaled_limit(thermo_point(1.0, 1.0, float(l))) for l in lams])),
        ("xi2", np.array([r["xi2"] for r in n20]),
         np.array([xi2_thermo(thermo_point(1.0, 1.0, float(l))) for l in lams])),
        ("4(dX)^2", np.array([r["quad_var_scaled"] for r in n20]),
         np.array([4 * quad_variance_thermo(thermo_point(1.0, 1.0, float(l))) for l in lams])),
    ):
        gap = np.abs(finite - limit)[window]
        # the scaled field QFI is undefined at lambda = 0 for finite N
        gap = gap[~np.isnan(gap)]
        assert gap.max() < 0.35, label
        worst[label] = float(gap.max())
    _report(10, "max |finite - limit| away from the critical window: " +
            ", ".join(f"{k} {v:.3f}" for k, v in worst.items()))


def test_criterion_11_sweep_determinism(tmp_path):
    args = [
        "sweep", "--n-atoms", "2", "--n-atoms", "6", "--lambda-min", "0",
        "--lambda-max", "1", "--lambda-steps", "6", "--tol", "1e-8",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main([*args, "--out", str(first)]) == 0
    assert main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(11, f"two identical sweep runs wrote byte-identical CSV "
                f"({first.stat().st_size} bytes)")
