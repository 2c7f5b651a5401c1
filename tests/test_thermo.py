import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dicke_qfi.metrology import QfiResult
from dicke_qfi.model import ModelParams
from dicke_qfi.thermo import (
    _mixing,
    critical_amplitudes,
    nbar_thermo,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    qfi_field_thermo,
    quad_variance_thermo,
    thermo_point,
    xi2_thermo,
)
from qfi_reference import ultrastrong_reference
from thermal_oscillator import thermal_oscillator

SQRT2 = math.sqrt(2.0)


def _coth_ratio(osc):
    """(e^{bO}+1)/(e^{bO}-1) from the oracle's thermal factor."""
    e = osc.exp_b_omega
    return 1.0 if math.isinf(e) else (e + 1.0) / (e - 1.0)


def _oracle_mp(omega, omega0, lam):
    """The thermal-oscillator oracle at 50 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        return thermal_oscillator(omega, omega0, lam, mp)


def test_decoupled_point_resonance():
    pt = thermo_point(1.0, 1.0, 0.0)
    assert pt.mu == 1.0
    assert pt.beta_s2_per_n == 0.0
    assert abs(pt.eps1 + pt.eps2 - 2.0) < 1e-14


def test_critical_point_resonance():
    pt = thermo_point(1.0, 1.0, 0.5)
    assert pt.critical
    assert pt.eps1 == 0.0
    assert abs(pt.eps2 - SQRT2) < 1e-14


def test_mu_superradiant_value():
    assert thermo_point(1.0, 1.0, 1.0).mu == 0.25


def test_decoupled_frequencies_reduce_to_bare():
    # the oracle's oscillators are the bare ones at zero temperature, and the
    # closed forms give their vacuum: xi2 = 4 (dX_{pi/2})^2 = 1, no bosons
    for omega, omega0 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        osc = thermal_oscillator(omega, omega0, 0.0)
        assert abs(osc.omega_atoms - omega0) < 1e-12
        assert abs(osc.omega_field - omega) < 1e-12
        # zero-temperature limit (inf when cos(gamma) rounds to exactly zero)
        assert osc.exp_b_omega > 1e12
        pt = thermo_point(omega, omega0, 0.0)
        assert abs(xi2_thermo(pt) - osc.xi2) < 1e-12
        assert abs(quad_variance_thermo(pt) - osc.quad_variance) < 1e-12
        assert nbar_thermo(pt, 10) == 0.0
        assert qfi_field_thermo(pt, 10).value == 0.0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        thermo_point(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        thermo_point(1.0, 1.0, -0.1)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                thermo_point(*args)
    with pytest.raises(ValueError, match="side"):
        critical_amplitudes(1.0, 1.0, side="sideways")


@pytest.mark.parametrize("omega,omega0", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0),
                                          (math.inf, 1.0), (1.0, math.inf)])
def test_every_coupling_check_rejects_alike(omega, omega0):
    # ModelParams, thermo_point and critical_amplitudes share one check, so each
    # bad (omega, omega0) gets one ValueError message from all of them, where
    # critical_amplitudes once divided by zero at (0, 1), took the square root
    # of a negative at (-1, 1) and returned NaN amplitudes for NaN or inf
    checks = (lambda: ModelParams(omega, omega0, 0.5, 2),
              lambda: thermo_point(omega, omega0, 0.5),
              lambda: critical_amplitudes(omega, omega0, "below"),
              lambda: critical_amplitudes(omega, omega0, "above"))
    messages = set()
    for check in checks:
        with pytest.raises(ValueError) as raised:
            check()
        messages.add(str(raised.value))
    assert len(messages) == 1, messages


def test_xi2_endpoints():
    assert abs(xi2_thermo(thermo_point(1.0, 1.0, 0.0)) - 1.0) < 1e-14
    assert abs(xi2_thermo(thermo_point(1.0, 1.0, 0.5)) - 1 / SQRT2) < 1e-14


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_xi2_consistent_with_thermal_form(lam):
    osc = thermal_oscillator(1.0, 1.0, lam)
    thermal = osc.mu * osc.omega_atoms / osc.omega0 * _coth_ratio(osc)
    assert abs(xi2_thermo(thermo_point(1.0, 1.0, lam)) - thermal) < 1e-12


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_fa_consistent_with_thermal_form(lam):
    osc = thermal_oscillator(1.0, 1.0, lam)
    n = 17
    thermal = n * osc.mu * osc.omega0 / osc.omega_atoms / _coth_ratio(osc)
    assert abs(qfi_atoms_thermo(thermo_point(1.0, 1.0, lam), n) - thermal) < 1e-10 * n


def test_fa_endpoints():
    assert abs(qfi_atoms_thermo(thermo_point(1.0, 1.0, 0.0), 1.0) - 1.0) < 1e-14
    assert abs(qfi_atoms_thermo(thermo_point(1.0, 1.0, 0.5), 1.0) - SQRT2) < 1e-12


def test_fa_xi2_identity_on_grid():
    n = 20
    for lam in np.linspace(0.0, 3.0, 100):
        pt = thermo_point(1.0, 1.0, float(lam))
        assert abs(qfi_atoms_thermo(pt, n) * xi2_thermo(pt) - n * pt.mu**2) < 1e-12 * n


def test_quad_variance_endpoints():
    assert abs(quad_variance_thermo(thermo_point(1.0, 1.0, 0.0)) - 0.25) < 1e-14
    assert abs(4 * quad_variance_thermo(thermo_point(1.0, 1.0, 0.5)) - 1 / SQRT2) < 1e-14


def test_quad_variance_consistent_with_thermal_form():
    osc = thermal_oscillator(1.0, 1.0, 0.3)
    e = osc.exp_b_omega
    thermal = osc.omega_field / (4 * osc.omega) * (e + 1.0) / (e - 1.0)
    assert abs(quad_variance_thermo(thermo_point(1.0, 1.0, 0.3)) - thermal) < 1e-12


def test_nbar_decoupled_and_superradiant():
    assert nbar_thermo(thermo_point(1.0, 1.0, 0.0), 50) == 0.0
    # mean-field part dominates at large N: nbar/N -> (lam/omega)^2 (1 - mu^2)
    pt = thermo_point(1.0, 1.0, 1.0)
    assert abs(nbar_thermo(pt, 1e6) / 1e6 - 0.9375) < 1e-5
    assert math.isinf(nbar_thermo(thermo_point(1.0, 1.0, 0.5), 10))


def test_nbar_matches_thermal_occupation_form():
    # fluctuation part equals Delta_+ * coth(bO/2) - 1/2 with Delta_+ built from Omega
    n = 13
    osc = thermal_oscillator(1.0, 1.0, 0.7)
    ratio = _coth_ratio(osc)
    delta_plus = (osc.omega**2 + osc.omega_field**2) / (4 * osc.omega * osc.omega_field)
    expected = delta_plus * ratio - 0.5 + n * osc.beta_s2_per_n
    assert abs(nbar_thermo(thermo_point(1.0, 1.0, 0.7), n) - expected) < 1e-10


def test_field_qfi_endpoints():
    assert qfi_field_thermo(thermo_point(1.0, 1.0, 0.0), 10).value == 0.0
    pt = thermo_point(1.0, 1.0, 0.5)
    crit = qfi_field_thermo(pt, 10)
    assert pt.critical and isinstance(crit, QfiResult)
    assert abs(crit.scaled - SQRT2) < 1e-12
    assert math.isinf(crit.value)


def test_field_qfi_scaled_at_weak_coupling():
    # in the normal phase the ratio is lambda^2 times a finite one, so it
    # underflows no sooner than its value: value / (4 nbar) gave 0.0 at
    # lambda = 1e-100 and 0/0 = NaN at 1e-200, where the true 2e-400 rounds to 0
    weak = qfi_field_thermo(thermo_point(1.0, 1.0, 1e-100), 10).scaled
    assert abs(weak - 2e-200) <= 1e-14 * 2e-200
    assert qfi_field_thermo(thermo_point(1.0, 1.0, 1e-200), 10).scaled == 0.0
    for lam in (0.1, 0.3, 0.45):
        pt = thermo_point(1.0, 1.0, lam)
        result = qfi_field_thermo(pt, 10)
        direct = result.value / (4.0 * nbar_thermo(pt, 10))
        assert abs(result.scaled - direct) <= 1e-14 * direct


@pytest.mark.parametrize("omega,omega0", [(1.0, 1.0), (2.0, 0.5), (1.0, 2.0)])
def test_scaled_field_qfi_meets_its_critical_value(omega, omega0):
    # the normal-phase form serves every lambda below lambda_cr: its sqrt(delta)
    # extrapolation from 1e-8 lambda_cr below meets the value at lambda_cr, which
    # the superradiant 1/s2 in its place misses by 3.1e-4, 1.1e-3 and 2.5e-4
    lcr = math.sqrt(omega * omega0) / 2
    delta = 1e-8 * lcr
    at_critical = qfi_field_scaled_limit(thermo_point(omega, omega0, lcr))
    for sign in (-1.0, 1.0):
        far = qfi_field_scaled_limit(thermo_point(omega, omega0, lcr + sign * delta))
        near = qfi_field_scaled_limit(thermo_point(omega, omega0, lcr + sign * delta / 4))
        assert abs(2 * near - far - at_critical) <= 1e-5 * at_critical
    assert math.isfinite(qfi_field_thermo(thermo_point(omega, omega0, lcr - delta), 10).value)


def test_field_qfi_classical_limit_at_strong_coupling():
    result = qfi_field_thermo(thermo_point(1.0, 1.0, 2.0), 1e6)
    assert abs(result.scaled - 1.0) < 0.02


def test_field_scaled_limit_matches_large_n():
    for lam in (0.2, 0.35, 0.7, 1.2):
        pt = thermo_point(1.0, 1.0, lam)
        finite = qfi_field_thermo(pt, 1e8).scaled
        assert abs(qfi_field_scaled_limit(pt) - finite) < 1e-6


@pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8])
def test_field_scaled_limit_weak_coupling_resonance(lam):
    # at omega = omega0 = 1 the limit is 2 lam^2 (1 + O(lam^2)); the differences
    # eps - omega and omega^2 - Omega^2 once cancelled to 2.04e-14 at 1e-7 and
    # 9.9e-16 at 1e-8
    value = qfi_field_scaled_limit(thermo_point(1.0, 1.0, lam))
    assert_allclose(value, 2 * lam**2, rtol=max(1e-13, lam**2))


@pytest.mark.parametrize("lam", [1e-20, 1e-100, 1e-150, 1e-200, 5e-324])
@pytest.mark.parametrize("omega,limit", [(1.0, 2.0), (2.0, 0.5)])
def test_field_scaled_limit_keeps_lambda_squared(omega, limit, lam):
    # F_B / (4 nbar) -> 2 lam^2 at resonance and lam^2 / 2 at omega = 2, omega0 = 1,
    # and 0.0 once lam^2 underflows; with lam^2 inside q, q^2 underflowed
    # (1.99998e-160 at 1e-80, 0.0 at 1e-100) and below about 1e-162 the
    # ratio divided by zero
    value = qfi_field_scaled_limit(thermo_point(omega, 1.0, lam))
    assert_allclose(value, limit * lam**2, rtol=1e-13, atol=0.0)


PAIRS = [(2.0, 1.0), (1.0, 2.0), (0.3, 3.0), (1e3, 1e-3), (1e-3, 1.0), (1.0, 1.0), (1e3, 1.0)]
FRACTIONS = [1e-12, 1e-8, 1e-4, 0.1, 0.5, 0.9, 0.999, 1.001, 1.5, 2.0, 10.0]


@pytest.mark.parametrize("omega,omega0", PAIRS)
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_field_scaled_limit_against_mpmath(omega, omega0, fraction):
    # both phases against the thermal-oscillator form at 50 digits: the
    # fluctuation ratio in the normal phase, the displacement term above it;
    # F_B and nbar keep 1e-12 this far from lambda_cr (7.5e-14 at 0.999 and
    # 1.001; at 1 -+ 1e-6 the rounding of lambda_cr alone gives 6.6e-11)
    lam = fraction * math.sqrt(omega * omega0) / 2
    osc = _oracle_mp(omega, omega0, lam)
    pt = thermo_point(omega, omega0, lam)
    assert_allclose(qfi_field_scaled_limit(pt), osc.qfi_field_scaled_limit, rtol=1e-11)
    for n in (1, 1e4):
        assert_allclose(qfi_field_thermo(pt, n).value, osc.qfi_field(n), rtol=1e-12)
        assert_allclose(nbar_thermo(pt, n), osc.nbar(n), rtol=1e-12)


@pytest.mark.parametrize("lam", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3])
def test_mixing_and_thermal_factors_against_mpmath(lam):
    # omega > omega0 puts gamma near pi/2 at weak coupling, where cos(gamma)
    # of the angle keeps only about 1e-16 / lam of its digits (5.7e-5 at 1e-12);
    # the mixing weights and what is built on them keep every digit
    pt = thermo_point(2.0, 1.0, lam)
    osc = _oracle_mp(2.0, 1.0, lam)
    c2, s2 = _mixing(pt.omega, pt.omega0, pt.lam, pt.mu)
    assert_allclose(c2, osc.c**2, rtol=4e-15)
    assert_allclose(s2, osc.s**2, rtol=4e-15)
    for n in (0, 1e4):
        assert_allclose(nbar_thermo(pt, n), osc.nbar(n), rtol=4e-15)
    assert_allclose(qfi_field_thermo(pt, 1).value, osc.qfi_field(1), rtol=1e-14)
    if lam == 1e-12:  # F_B / (4 nbar) -> lam^2 / 2 at omega = 2, omega0 = 1
        assert_allclose(qfi_field_scaled_limit(pt), 5.0e-25, rtol=1e-14)


def test_field_scaled_limit_endpoints():
    assert qfi_field_scaled_limit(thermo_point(1.0, 1.0, 0.0)) == 0.0
    crit = qfi_field_scaled_limit(thermo_point(1.0, 1.0, 0.5))
    assert abs(crit - SQRT2) < 1e-12


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.45, 0.6, 0.9])
def test_appendix_identity_suite(lam):
    # identities among the oracle's own thermal-oscillator quantities
    osc = thermal_oscillator(1.0, 1.0, lam)
    ratio = _coth_ratio(osc)
    cs2 = (osc.c * osc.s) ** 2
    esum = osc.eps1 + osc.eps2
    detune = osc.omega0**2 / osc.mu**2 - osc.omega**2
    # squared thermal ratio against the polariton expression
    assert abs(ratio**2 - (1 + (osc.eps1 - osc.eps2) ** 2 * cs2 / (osc.eps1 * osc.eps2))) < 1e-10
    # atomic-branch identity, both printed forms
    lhs_atoms = osc.omega_atoms * ratio
    assert abs(lhs_atoms - (osc.eps1 * osc.s**2 + osc.eps2 * osc.c**2)) < 1e-10
    assert abs(lhs_atoms - (esum / 2 + detune / (2 * esum))) < 1e-10
    # field-branch identity (c and s interchanged)
    lhs_field = osc.omega_field * ratio
    assert abs(lhs_field - (osc.eps1 * osc.c**2 + osc.eps2 * osc.s**2)) < 1e-10
    assert abs(lhs_field - (esum / 2 - detune / (2 * esum))) < 1e-10
    # occupation form used by the boson number
    assert abs(ratio / osc.omega_field
               - (osc.eps1 * osc.s**2 + osc.eps2 * osc.c**2) / (osc.eps1 * osc.eps2)) < 1e-10


def test_continuity_across_critical_point():
    # each one-sided limit is extrapolated with the known sqrt(delta) leading
    # behavior; both must agree with the value at the critical point itself
    lcr, delta = 0.5, 1e-12

    def one_sided_limit(fn, sign):
        far = fn(thermo_point(1.0, 1.0, lcr + sign * delta))
        near = fn(thermo_point(1.0, 1.0, lcr + sign * delta / 4))
        return 2 * near - far

    for fn in (
        lambda pt: pt.mu,
        xi2_thermo,
        lambda pt: 4 * quad_variance_thermo(pt),
        lambda pt: qfi_atoms_thermo(pt, 1.0),
        qfi_field_scaled_limit,
    ):
        at_critical = fn(thermo_point(1.0, 1.0, lcr))
        below = one_sided_limit(fn, -1.0)
        above = one_sided_limit(fn, +1.0)
        assert abs(below - above) < 1e-8
        assert abs(below - at_critical) < 1e-8
        assert abs(above - at_critical) < 1e-8


def test_limits_far_beyond_threshold():
    pt = thermo_point(1.0, 1.0, 500.0)  # 1000 * lambda_cr
    assert abs(xi2_thermo(pt) - 1.0) < 1e-4
    assert qfi_atoms_thermo(pt, 1.0) < 1e-10
    assert abs(4 * quad_variance_thermo(pt) - 1.0) < 1e-4


def test_fb_quadvar_nbar_ratio_approaches_one():
    pt = thermo_point(1.0, 1.0, 0.8)
    gaps = []
    for n in (1e2, 1e4, 1e6):
        fb = qfi_field_thermo(pt, n).value
        gaps.append(abs(fb * quad_variance_thermo(pt) / nbar_thermo(pt, n) - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_critical_amplitudes_at_resonance():
    # eps1 ~ a delta^(1/2) with a = sqrt(2) below and 2 above; d(F_A/N)/dlambda
    # ~ (1/sqrt(2), -1) delta^(-1/2), d(F_B/(4 nbar))/dlambda ~ ((11 - 4 sqrt(2))/sqrt(2), -1)
    below = critical_amplitudes(1.0, 1.0, "below")
    above = critical_amplitudes(1.0, 1.0, "above")
    assert_allclose([below.eps1, below.dfa, below.dfb],
                    [SQRT2, 1 / SQRT2, (11 - 4 * SQRT2) / SQRT2], rtol=1e-14)
    assert_allclose([above.eps1, above.dfa, above.dfb], [2.0, -1.0, -1.0], rtol=1e-14)
    assert (below.side, above.side) == ("below", "above")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_omega=st.floats(-6, 6), log_omega0=st.floats(-6, 6))
def test_critical_amplitudes_across_lambda_cr(log_omega, log_omega0):
    # above lambda_cr mu falls, and eps1 opens sqrt(2) times as fast: the gap
    # amplitude and the atomic slope amplitude grow by sqrt(2), the slope's sign
    # flips, and every amplitude in the parameter box is finite and nonzero
    omega, omega0 = 10.0**log_omega, 10.0**log_omega0
    below = critical_amplitudes(omega, omega0, "below")
    above = critical_amplitudes(omega, omega0, "above")
    assert_allclose(above.eps1 / below.eps1, SQRT2, rtol=1e-15)
    assert_allclose(above.dfa / below.dfa, -SQRT2, rtol=1e-15)
    for value in (below.eps1, below.dfa, below.dfb, above.eps1, -above.dfa, -above.dfb):
        assert 0 < value < math.inf


@pytest.mark.parametrize("omega,omega0", [(1e-6, 1e6), (1e6, 1e-6), (0.01, 100.0)])
def test_dispersive_critical_point_keeps_every_digit(omega, omega0):
    # at lambda_cr eps1 = 0 and mu = 1, so (dX)^2 = omega/(4 eps2) and xi2 = omega0/eps2;
    # the forms that cancelled returned 0.0 at the first two points
    pt = thermo_point(omega, omega0, math.sqrt(omega * omega0) / 2)
    assert pt.critical
    assert_allclose(quad_variance_thermo(pt), omega / (4 * pt.eps2), rtol=1e-12)
    assert_allclose(xi2_thermo(pt), omega0 / pt.eps2, rtol=1e-12)
    assert math.isfinite(qfi_field_scaled_limit(pt))
    assert math.isfinite(qfi_atoms_thermo(pt, 1.0))


def test_ultrastrong_reference_values():
    ref = ultrastrong_reference(ModelParams(1.0, 1.0, 2.0, 6))
    assert abs(ref.alpha0 - 2 * math.sqrt(6)) < 1e-14
    assert ref.var_jy == 1.5
    assert ref.var_x90 == 0.25
    assert abs(ref.var_x0 - (24.0 + 0.25)) < 1e-12
    assert ref.var_jx == 9.0
    assert ref.qfi_atoms_scaled == 0.0
    assert ref.qfi_field_scaled == 1.0
