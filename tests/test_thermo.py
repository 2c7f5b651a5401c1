import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dicke_qfi.model import ModelParams
from dicke_qfi.thermo import (
    _loglog_slope,
    critical_scaling_probe,
    nbar_thermo,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    qfi_field_thermo,
    quad_variance_thermo,
    thermo_point,
    ultrastrong_reference,
    xi2_thermo,
)

SQRT2 = math.sqrt(2.0)


def _coth_ratio(pt):
    """(e^{bO}+1)/(e^{bO}-1) from the stored thermal factor."""
    e = pt.exp_b_omega_atoms
    return 1.0 if math.isinf(e) else (e + 1.0) / (e - 1.0)


def test_decoupled_point_resonance():
    pt = thermo_point(1.0, 1.0, 0.0)
    assert pt.mu == 1.0
    assert pt.alpha_s2_per_n == 0.0
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
    for omega, omega0 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        pt = thermo_point(omega, omega0, 0.0)
        assert abs(pt.omega_atoms - omega0) < 1e-12
        assert abs(pt.omega_field - omega) < 1e-12
        # zero-temperature limit (inf when cos(gamma) is exactly zero)
        assert pt.exp_b_omega_atoms > 1e12


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        thermo_point(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        thermo_point(1.0, 1.0, -0.1)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                thermo_point(*args)
    with pytest.raises(ValueError):
        critical_scaling_probe(1.0, 1.0, side="sideways")


def test_xi2_endpoints():
    assert abs(xi2_thermo(thermo_point(1.0, 1.0, 0.0)) - 1.0) < 1e-14
    assert abs(xi2_thermo(thermo_point(1.0, 1.0, 0.5)) - 1 / SQRT2) < 1e-14


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_xi2_consistent_with_thermal_form(lam):
    pt = thermo_point(1.0, 1.0, lam)
    thermal = pt.mu * pt.omega_atoms / pt.omega0 * _coth_ratio(pt)
    assert abs(xi2_thermo(pt) - thermal) < 1e-12


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_fa_consistent_with_thermal_form(lam):
    pt = thermo_point(1.0, 1.0, lam)
    n = 17
    thermal = n * pt.mu * pt.omega0 / pt.omega_atoms / _coth_ratio(pt)
    assert abs(qfi_atoms_thermo(pt, n) - thermal) < 1e-10 * n


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
    pt = thermo_point(1.0, 1.0, 0.3)
    e = pt.exp_b_omega_field
    thermal = pt.omega_field / (4 * pt.omega) * (e + 1.0) / (e - 1.0)
    assert abs(quad_variance_thermo(pt) - thermal) < 1e-12


def test_nbar_decoupled_and_superradiant():
    assert nbar_thermo(thermo_point(1.0, 1.0, 0.0), 50) == 0.0
    # mean-field part dominates at large N: nbar/N -> (lam/omega)^2 (1 - mu^2)
    pt = thermo_point(1.0, 1.0, 1.0)
    assert abs(nbar_thermo(pt, 1e6) / 1e6 - 0.9375) < 1e-5
    assert math.isinf(nbar_thermo(thermo_point(1.0, 1.0, 0.5), 10))


def test_nbar_matches_thermal_occupation_form():
    # fluctuation part equals Delta_+ * coth(bO/2) - 1/2 with Delta_+ built from Omega
    n = 13
    pt = thermo_point(1.0, 1.0, 0.7)
    e = pt.exp_b_omega_field
    ratio = (e + 1.0) / (e - 1.0)
    delta_plus = (pt.omega**2 + pt.omega_field**2) / (4 * pt.omega * pt.omega_field)
    expected = delta_plus * ratio - 0.5 + n * pt.beta_s2_per_n
    assert abs(nbar_thermo(pt, n) - expected) < 1e-10


def test_field_qfi_endpoints():
    assert qfi_field_thermo(thermo_point(1.0, 1.0, 0.0), 10).value == 0.0
    crit = qfi_field_thermo(thermo_point(1.0, 1.0, 0.5), 10)
    assert crit.in_guard_band
    assert abs(crit.scaled - SQRT2) < 1e-12
    assert math.isinf(crit.value)


def test_field_qfi_guard_band_flag():
    lcr = 0.5
    inside = qfi_field_thermo(thermo_point(1.0, 1.0, lcr * (1 + 1e-9)), 10)
    outside = qfi_field_thermo(thermo_point(1.0, 1.0, lcr * (1 + 1e-7)), 10)
    assert inside.in_guard_band and not outside.in_guard_band
    assert math.isfinite(outside.scaled)


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


def _field_scaled_limit_mp(omega, omega0, lam):
    """F_B / (4 nbar) in the normal phase at 50 digits, from the plain formulas."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    w, w0, lam = mp.mpf(omega), mp.mpf(omega0), mp.mpf(lam)
    half_gap = mp.sqrt((w**2 - w0**2) ** 2 + 16 * lam**2 * w * w0) / 2
    eps1 = mp.sqrt((w**2 + w0**2) / 2 - half_gap)
    eps2 = mp.sqrt((w**2 + w0**2) / 2 + half_gap)
    gamma = mp.atan2(4 * lam * mp.sqrt(w * w0), w0**2 - w**2) / 2
    c, s = mp.cos(gamma), mp.sin(gamma)
    coth = mp.sqrt(1 + (eps1 - eps2) ** 2 * (c * s) ** 2 / (eps1 * eps2))
    big_o = eps1 * eps2 / (eps1 * s**2 + eps2 * c**2) * coth
    e = (coth + 1) / (coth - 1)  # e^{beta Omega}, from coth(beta Omega / 2)
    f_b = (w**2 - big_o**2) ** 2 / (2 * w**2 * big_o**2) * (e + 1) ** 2 / (e**2 + 1)
    nbar = (s**2 * (eps2 - w) ** 2 / eps2 + c**2 * (eps1 - w) ** 2 / eps1) / (4 * w)
    return float(f_b / (4 * nbar))


@pytest.mark.parametrize("omega,omega0", [(2.0, 1.0), (1.0, 2.0), (0.3, 3.0), (1e3, 1e-3)])
@pytest.mark.parametrize("fraction", [1e-12, 1e-8, 1e-4, 0.1, 0.5, 0.9, 0.999])
def test_field_scaled_limit_against_mpmath(omega, omega0, fraction):
    lam = fraction * math.sqrt(omega * omega0) / 2
    expected = _field_scaled_limit_mp(omega, omega0, lam)
    assert_allclose(qfi_field_scaled_limit(thermo_point(omega, omega0, lam)), expected, rtol=1e-11)


def test_field_scaled_limit_endpoints():
    assert qfi_field_scaled_limit(thermo_point(1.0, 1.0, 0.0)) == 0.0
    crit = qfi_field_scaled_limit(thermo_point(1.0, 1.0, 0.5))
    assert abs(crit - SQRT2) < 1e-12


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.45, 0.6, 0.9])
def test_appendix_identity_suite(lam):
    pt = thermo_point(1.0, 1.0, lam)
    ratio = _coth_ratio(pt)
    cs2 = (pt.c * pt.s) ** 2
    esum = pt.eps1 + pt.eps2
    detune = pt.omega0**2 / pt.mu**2 - pt.omega**2
    # squared thermal ratio against the polariton expression
    assert abs(ratio**2 - (1 + (pt.eps1 - pt.eps2) ** 2 * cs2 / (pt.eps1 * pt.eps2))) < 1e-10
    # atomic-branch identity, both printed forms
    lhs_atoms = pt.omega_atoms * ratio
    assert abs(lhs_atoms - (pt.eps1 * pt.s**2 + pt.eps2 * pt.c**2)) < 1e-10
    assert abs(lhs_atoms - (esum / 2 + detune / (2 * esum))) < 1e-10
    # field-branch identity (c and s interchanged)
    lhs_field = pt.omega_field * ratio
    assert abs(lhs_field - (pt.eps1 * pt.c**2 + pt.eps2 * pt.s**2)) < 1e-10
    assert abs(lhs_field - (esum / 2 - detune / (2 * esum))) < 1e-10
    # occupation form used by the boson number
    assert abs(ratio / pt.omega_field
               - (pt.eps1 * pt.s**2 + pt.eps2 * pt.c**2) / (pt.eps1 * pt.eps2)) < 1e-10


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


def test_scaling_probe_resonance():
    for side in ("below", "above"):
        probe = critical_scaling_probe(1.0, 1.0, side)
        assert abs(probe.eps1_exponent - 0.5) < 0.02
        assert abs(probe.dfa_exponent + 0.5) < 0.03
        assert abs(probe.dfb_exponent + 0.5) < 0.05
        assert not probe.low_confidence


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


def test_scaling_probe_non_finite_fit_is_low_confidence():
    # at omega = 1000 the above-side field-QFI fit is NaN, which max() skipped
    probe = critical_scaling_probe(1000.0, 1.0, "above")
    assert not math.isfinite(probe.dfb_exponent)
    assert probe.low_confidence


def test_loglog_slope_without_a_finite_logarithm_is_nan():
    # a zero or non-finite |y| has no finite logarithm: the fit is NaN, and no
    # RuntimeWarning is raised (the suite turns one into an error)
    x = np.array([1.0, 2.0, 4.0])
    for bad in (0.0, math.nan, math.inf):
        slope, rms = _loglog_slope(x, np.array([1.0, bad, 3.0]))
        assert math.isnan(slope) and math.isnan(rms)
    slope, rms = _loglog_slope(x, -(x**1.5))
    assert abs(slope - 1.5) < 1e-12 and rms < 1e-12


def test_scaling_probe_off_resonance():
    # the gap exponent is universal; at omega0 = 2 the above-side derivative
    # fits carry visible subleading contamination inside the fixed window, so
    # only divergence (negative slope) is asserted there
    for side in ("below", "above"):
        probe = critical_scaling_probe(1.0, 2.0, side)
        assert abs(probe.eps1_exponent - 0.5) < 0.02
        assert probe.dfa_exponent < -0.25
        assert abs(probe.dfb_exponent + 0.5) < 0.06
    below = critical_scaling_probe(1.0, 2.0, "below")
    assert abs(below.dfa_exponent + 0.5) < 0.03


def test_ultrastrong_reference_values():
    ref = ultrastrong_reference(ModelParams(1.0, 1.0, 2.0, 6))
    assert abs(ref.alpha0 - 2 * math.sqrt(6)) < 1e-14
    assert ref.var_jy == 1.5
    assert ref.var_x90 == 0.25
    assert abs(ref.var_x0 - (24.0 + 0.25)) < 1e-12
    assert ref.var_jx == 9.0
    assert ref.qfi_atoms_scaled == 0.0
    assert ref.qfi_field_scaled == 1.0
