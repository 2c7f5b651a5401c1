"""Closed-form thermodynamic-limit observables and the critical-scaling probe.

The large-N solution maps each subsystem onto a harmonic oscillator at an
effective temperature.  With mu = 1 in the normal phase and (lambda_cr /
lambda)^2 above it, the two polariton energies are

    eps_k^2 = [omega^2 + (omega0/mu)^2] / 2
              + (-1)^k/2 * sqrt{ [omega^2 - (omega0/mu)^2]^2
                                 + 16 lambda^2 omega omega0 mu },

and the mixing angle obeys tan(2*gamma) = 4 lambda sqrt(omega0 omega mu)
/ [(omega0/mu)^2 - omega^2].  eps1^2 is evaluated through the exact
difference-of-squares rearrangement, which stays fully accurate arbitrarily
close to the critical coupling; that is what makes the scaling probe's
power-law fits clean.

Primary observables use the intermediate-free closed forms, which are
regular at lambda_cr.  xi2 and the quadrature variance are written as sums
of positive terms through eps1^2 + eps2^2 = omega^2 + (omega0/mu)^2, so no
digit cancels however far omega and omega0 lie apart.  The effective
frequencies Omega and the thermal factor e^{beta*Omega} are
singular/indeterminate exactly at the critical point; they are kept for the
field QFI, the boson number, and identity checks, and a guard band around
lambda_cr switches the scaled field QFI to its finite limit
1 / [4 (dX_{pi/2})^2].  The field QFI and the boson number take
eps_k - omega, omega^2 - Omega_field^2 and the mixing weights c^2, s^2 from
closed forms with no cancelling difference, so they keep every digit as
lambda -> 0, where each of those vanishes.  ``ThermoPoint.c`` and ``s`` are
the square roots of those weights, so Omega and e^{beta*Omega} keep them
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

#: relative half-width of the guard band around lambda_cr for the scaled field QFI
GUARD_BAND_REL = 1e-8

#: central-difference step for the scaling probe, relative to lambda_cr
PROBE_STEP_REL = 1e-9

#: log-spaced window of |lambda - lambda_cr| / lambda_cr scanned by the scaling probe
PROBE_WINDOW = (1e-6, 1e-3)
PROBE_POINTS = 25

#: fit-residual threshold above which a probe result is flagged low-confidence
RESIDUAL_THRESHOLD = 0.1


@dataclass(frozen=True)
class ThermoPoint:
    """All intermediate quantities of the large-N solution at one coupling."""

    omega: float
    omega0: float
    lam: float
    lambda_cr: float
    mu: float
    alpha_s2_per_n: float
    beta_s2_per_n: float
    eps1: float
    eps2: float
    gamma: float
    c: float
    s: float
    omega_atoms: float
    omega_field: float
    exp_b_omega_atoms: float
    exp_b_omega_field: float
    critical: bool


def thermo_point(omega: float, omega0: float, lam: float) -> ThermoPoint:
    """Evaluate order parameters, polariton energies, and thermal factors at one lambda."""
    if not all(math.isfinite(v) for v in (omega, omega0, lam)):
        raise ValueError("omega, omega0 and lam must be finite")
    if omega <= 0 or omega0 <= 0:
        raise ValueError("omega and omega0 must be positive")
    if lam < 0:
        raise ValueError("coupling lam must be non-negative")
    lcr = math.sqrt(omega * omega0) / 2
    mu = 1.0 if lam <= lcr else (lcr / lam) ** 2

    half_sum = (omega**2 + (omega0 / mu) ** 2) / 2
    half_gap = 0.5 * math.hypot(omega**2 - (omega0 / mu) ** 2, 4 * lam * math.sqrt(omega * omega0 * mu))
    # eps1^2 = half_sum - half_gap via the difference of squares; the factored
    # forms keep full relative precision arbitrarily close to lambda_cr
    if lam <= lcr:
        num = 4 * omega * omega0 * (lcr - lam) * (lcr + lam)
    else:
        num = 4 * omega * omega0 * (lam**2 + lcr**2) * (lam - lcr) * (lam + lcr) / lcr**2
    eps1 = math.sqrt(num / (half_sum + half_gap))
    eps2 = math.sqrt(half_sum + half_gap)
    critical = eps1 == 0.0

    two_gamma = math.atan2(4 * lam * math.sqrt(omega * omega0 * mu), (omega0 / mu) ** 2 - omega**2)
    gamma = two_gamma / 2
    # cos(gamma) of the angle near pi/2 has a relative error of about 1e-16 / lam
    c2, s2, *_ = _mixing(omega, omega0, lam, mu)
    c, s = math.sqrt(c2), math.sqrt(s2)

    cs2 = c2 * s2
    diff2 = (eps1 - eps2) ** 2
    if critical:
        # Omega -> 0 and beta*Omega -> 0 at the critical point; the regular
        # closed forms below never touch these limits
        omega_atoms = omega_field = 0.0
        exp_atoms = exp_field = 1.0
    else:
        root = math.sqrt(1.0 + diff2 * cs2 / (eps1 * eps2))
        omega_atoms = eps1 * eps2 / (eps1 * c2 + eps2 * s2) * root
        omega_field = eps1 * eps2 / (eps1 * s2 + eps2 * c2) * root
        exp_atoms = exp_field = _exp_from_cosh_minus_one(
            math.inf if diff2 * cs2 == 0.0 else 2 * eps1 * eps2 / (diff2 * cs2)
        )

    return ThermoPoint(
        omega=omega,
        omega0=omega0,
        lam=lam,
        lambda_cr=lcr,
        mu=mu,
        alpha_s2_per_n=(1.0 - mu) / 2.0,
        beta_s2_per_n=(lam / omega) ** 2 * (1.0 - mu**2),
        eps1=eps1,
        eps2=eps2,
        gamma=gamma,
        c=c,
        s=s,
        omega_atoms=omega_atoms,
        omega_field=omega_field,
        exp_b_omega_atoms=exp_atoms,
        exp_b_omega_field=exp_field,
        critical=critical,
    )


def _exp_from_cosh_minus_one(cm1: float) -> float:
    """e^x from cosh(x) - 1 >= 0 without cancellation: 1 + cm1 + sqrt(cm1*(cm1+2))."""
    if math.isinf(cm1):
        return math.inf
    return 1.0 + cm1 + math.sqrt(cm1 * (cm1 + 2.0))


def _coth_half(pt: ThermoPoint) -> float:
    """(e^{bO} + 1)/(e^{bO} - 1) in the exact eps/gamma form; diverges at lambda_cr."""
    cs2 = (pt.c * pt.s) ** 2
    if pt.eps1 == 0.0:
        return math.inf
    return math.sqrt(1.0 + (pt.eps1 - pt.eps2) ** 2 * cs2 / (pt.eps1 * pt.eps2))


def xi2_thermo(pt: ThermoPoint) -> float:
    """Spin squeezing parameter mu ((omega0/mu)^2 + eps1 eps2) / (omega0 (eps1 + eps2)).

    Intermediate-free and regular at lambda_cr, where eps1 = 0, mu = 1 and
    it is omega0 / eps2.
    """
    return (pt.mu * ((pt.omega0 / pt.mu) ** 2 + pt.eps1 * pt.eps2)
            / (pt.omega0 * (pt.eps1 + pt.eps2)))


def quad_variance_thermo(pt: ThermoPoint) -> float:
    """(dX_{pi/2})^2 = (omega^2 + eps1 eps2) / (4 omega (eps1 + eps2)); regular everywhere."""
    return (pt.omega**2 + pt.eps1 * pt.eps2) / (4 * pt.omega * (pt.eps1 + pt.eps2))


def qfi_atoms_thermo(pt: ThermoPoint, n_atoms: float) -> float:
    """Atomic QFI N*mu^2 / xi^2 (exact squeezing relation, regular at lambda_cr)."""
    return n_atoms * pt.mu**2 / xi2_thermo(pt)


def nbar_thermo(pt: ThermoPoint, n_atoms: float) -> float:
    """Mean boson number: fluctuation part plus the mean-field beta_s^2.

    The fluctuation part diverges with the vanishing polariton gap, so the
    value is +inf exactly at the critical point.
    """
    if pt.critical:
        return math.inf
    c2, s2, shifted1, shifted2, _ = _field_shifts(pt)
    fluct = (s2 * shifted2**2 / pt.eps2 + c2 * shifted1**2 / pt.eps1) / (4 * pt.omega)
    return fluct + n_atoms * pt.beta_s2_per_n


def _mixing(
    omega: float, omega0: float, lam: float, mu: float
) -> tuple[float, float, float, float, float]:
    """(c^2, s^2, eps1^2 - omega^2, eps2^2 - omega^2, q), no digit cancelled.

    With d = omega^2 - (omega0/mu)^2, q = 4 lam^2 omega omega0 mu and the
    half gap h = sqrt(d^2/4 + q): eps1^2 - omega^2 = -d/2 - h,
    eps2^2 - omega^2 = h - d/2, c^2 = (h - d/2) / (2h) and
    s^2 = (h + d/2) / (2h).  Where h and |d|/2 would cancel, h - |d|/2 is
    written as q / (h + |d|/2).  Near lam = 0 the plain differences, and
    cos(gamma) near pi/2, lose the digits of these O(lam) and O(lam^2)
    quantities.
    """
    d = omega**2 - (omega0 / mu) ** 2
    q = 4 * lam**2 * omega * omega0 * mu
    h = 0.5 * math.hypot(d, 4 * lam * math.sqrt(omega * omega0 * mu))
    if h == 0:  # lam = 0 at omega = omega0 / mu: gamma = 0
        return 1.0, 0.0, 0.0, 0.0, 0.0
    near = q / (h + abs(d) / 2) if q else 0.0  # h - |d|/2; 0 when q is, as then h = |d|/2
    far = h + abs(d) / 2
    if d >= 0:
        return near / (2 * h), far / (2 * h), -far, near, q
    return far / (2 * h), near / (2 * h), -near, far, q


def _field_shifts(pt: ThermoPoint) -> tuple[float, float, float, float, float]:
    """(c^2, s^2, eps1 - omega, eps2 - omega, omega^2 - Omega_field^2), no digit cancelled.

    eps - omega is (eps^2 - omega^2) / (eps + omega), from ``_mixing``.
    Omega_field^2 = <p^2>/<x^2> of the field quadratures, and
    omega^2 <x^2> - <p^2> reduces to q / (2 eps1 eps2 (eps1 + eps2)), so
    omega^2 - Omega_field^2 = q / ((eps1 + eps2) (c^2 eps2 + s^2 eps1)).
    """
    c2, s2, square1, square2, q = _mixing(pt.omega, pt.omega0, pt.lam, pt.mu)
    gap = q / ((pt.eps1 + pt.eps2) * (c2 * pt.eps2 + s2 * pt.eps1))
    return c2, s2, square1 / (pt.eps1 + pt.omega), square2 / (pt.eps2 + pt.omega), gap


@dataclass(frozen=True)
class ThermoFieldQfi:
    """Field QFI with its classical-limit ratio and the guard-band flag."""

    value: float
    scaled: float
    in_guard_band: bool


def _field_qfi_terms(pt: ThermoPoint, beta_s2: float) -> tuple[float, float]:
    """The two terms of the field QFI (fluctuation and displacement parts)."""
    big_o = pt.omega_field
    inv = 0.0 if math.isinf(pt.exp_b_omega_field) else 1.0 / pt.exp_b_omega_field
    ratio2 = (1.0 + inv) ** 2 / (1.0 + inv * inv)  # (e+1)^2 / (e^2+1)
    *_, omega2_gap = _field_shifts(pt)  # omega^2 - Omega^2
    t1 = omega2_gap**2 / (2 * pt.omega**2 * big_o**2) * ratio2
    t2 = 4 * pt.omega * beta_s2 / big_o / _coth_half(pt) if beta_s2 > 0 else 0.0
    return t1, t2


def qfi_field_thermo(pt: ThermoPoint, n_atoms: float) -> ThermoFieldQfi:
    """Field QFI at finite N, scaled by 4*nbar.

    Inside the guard band around lambda_cr, where F_B and nbar individually
    diverge, the scaled ratio is evaluated through its finite limit
    1 / [4 (dX_{pi/2})^2] and the flag is set.
    """
    if abs(pt.lam - pt.lambda_cr) < GUARD_BAND_REL * pt.lambda_cr:
        return ThermoFieldQfi(
            value=math.inf,
            scaled=1.0 / (4.0 * quad_variance_thermo(pt)),
            in_guard_band=True,
        )
    t1, t2 = _field_qfi_terms(pt, n_atoms * pt.beta_s2_per_n)
    value = t1 + t2
    nbar = nbar_thermo(pt, n_atoms)
    scaled = value / (4.0 * nbar) if nbar > 0 else math.nan
    return ThermoFieldQfi(value=value, scaled=scaled, in_guard_band=False)


def qfi_field_scaled_limit(pt: ThermoPoint) -> float:
    """N -> infinity limit of F_B / (4*nbar).

    In the normal phase both numerator and denominator are pure fluctuation
    quantities; in the superradiant phase the macroscopic beta_s^2 dominates
    both and the ratio reduces to 1 / [4 (dX_{pi/2})^2].  At lambda = 0 the
    limit is 0.
    """
    if pt.lam == 0.0:
        return 0.0
    if abs(pt.lam - pt.lambda_cr) < GUARD_BAND_REL * pt.lambda_cr or pt.lam > pt.lambda_cr:
        return 1.0 / (4.0 * quad_variance_thermo(pt))
    t1, _ = _field_qfi_terms(pt, 0.0)
    fluct = nbar_thermo(pt, 0.0)
    return t1 / (4.0 * fluct)


@dataclass(frozen=True)
class UltrastrongReference:
    """Mean-field limits of the deep-coupling regime for finite-N comparison."""

    alpha0: float
    qfi_atoms_scaled: float
    qfi_field_scaled: float
    var_jy: float
    var_x90: float
    var_x0: float
    var_jx: float


def ultrastrong_reference(params: ModelParams) -> UltrastrongReference:
    """Deep-coupling asymptotics: each subsystem is a 50:50 mixture of two branches.

    The field settles into coherent states |+-alpha0| with alpha0 =
    lam*sqrt(N)/omega and the atoms into the two extremal Jx eigenstates;
    the branch variances give F_A -> 0 and F_B -> 4*nbar.
    """
    alpha0 = params.lam * math.sqrt(params.n_atoms) / params.omega
    n = params.n_atoms
    return UltrastrongReference(
        alpha0=alpha0,
        qfi_atoms_scaled=0.0,
        qfi_field_scaled=1.0,
        var_jy=n / 4.0,
        var_x90=0.25,
        var_x0=alpha0**2 + 0.25,
        var_jx=n**2 / 4.0,
    )


@dataclass(frozen=True)
class ScalingProbe:
    """Fitted power-law exponents on one side of the critical coupling."""

    side: str
    eps1_exponent: float
    dfa_exponent: float
    dfb_exponent: float
    eps1_residual: float
    dfa_residual: float
    dfb_residual: float
    low_confidence: bool


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log|y| against log x, and the rms residual of the fit.

    Both are NaN when some |y| is 0 or not finite: its logarithm has no
    finite value, and the fit none either.
    """
    abs_y = np.abs(y)
    if not np.all(np.isfinite(abs_y) & (abs_y > 0)):
        return math.nan, math.nan
    lx, ly = np.log(x), np.log(abs_y)
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), rms


def critical_scaling_probe(
    omega: float, omega0: float, side: str = "above"
) -> ScalingProbe:
    """Fit the near-critical power laws of eps1 and the scaled-QFI derivatives.

    The scaled atomic and field QFIs are differentiated by central differences
    with step 1e-9*lambda_cr on a log-spaced grid of distances from lambda_cr,
    then the slopes of log|d/d lambda| against log|lambda - lambda_cr| are
    fitted by least squares; the exponent of eps1 itself is fitted the same
    way.  Residuals above the threshold, or an exponent or residual that is
    not finite, set the low-confidence flag.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    lcr = math.sqrt(omega * omega0) / 2
    sign = 1.0 if side == "above" else -1.0
    deltas = lcr * np.logspace(
        math.log10(PROBE_WINDOW[0]), math.log10(PROBE_WINDOW[1]), PROBE_POINTS
    )
    step = PROBE_STEP_REL * lcr

    def fa(lam: float) -> float:
        pt = thermo_point(omega, omega0, lam)
        return pt.mu**2 / xi2_thermo(pt)

    def fb(lam: float) -> float:
        return qfi_field_scaled_limit(thermo_point(omega, omega0, lam))

    eps1_vals = np.array(
        [thermo_point(omega, omega0, lcr + sign * d).eps1 for d in deltas]
    )
    dfa = np.array(
        [(fa(lcr + sign * d + step) - fa(lcr + sign * d - step)) / (2 * step) for d in deltas]
    )
    dfb = np.array(
        [(fb(lcr + sign * d + step) - fb(lcr + sign * d - step)) / (2 * step) for d in deltas]
    )

    eps1_exp, eps1_res = _loglog_slope(deltas, eps1_vals)
    dfa_exp, dfa_res = _loglog_slope(deltas, dfa)
    dfb_exp, dfb_res = _loglog_slope(deltas, dfb)
    fit = (eps1_exp, dfa_exp, dfb_exp, eps1_res, dfa_res, dfb_res)
    # max() skips a NaN, so a fit that is not finite is checked on its own
    low = (not all(map(math.isfinite, fit))
           or max(eps1_res, dfa_res, dfb_res) > RESIDUAL_THRESHOLD)
    return ScalingProbe(
        side=side,
        eps1_exponent=eps1_exp,
        dfa_exponent=dfa_exp,
        dfb_exponent=dfb_exp,
        eps1_residual=eps1_res,
        dfa_residual=dfa_res,
        dfb_residual=dfb_res,
        low_confidence=low,
    )
