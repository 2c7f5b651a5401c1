"""Closed-form thermodynamic-limit observables and their critical amplitudes.

At large N the ground state is Gaussian in the two normal modes of Emary
and Brandes (PRE 67, 066203 (2003)), and each QFI is set by the reduced
variances.  With mu = 1 in the normal phase and (lambda_cr / lambda)^2
above it, the normal-mode energies are

    eps_k^2 = [omega^2 + (omega0/mu)^2] / 2
              + (-1)^k/2 * sqrt{ [omega^2 - (omega0/mu)^2]^2
                                 + 16 lambda^2 omega omega0 mu }.

eps1^2 is evaluated through the exact difference-of-squares
rearrangement, with lambda_cr^2 - lambda^2 formed as
omega omega0 / 4 - lambda^2 from error-free products, so it stays fully
accurate arbitrarily close to the critical coupling of the float inputs;
the one float lambda_cr = sqrt(omega omega0)/2 stands for that coupling
itself.  Near lambda_cr, eps1 ~ delta^(1/2) with
delta = |lambda - lambda_cr|, and each scaled QFI is a smooth function of
eps1 there, so its derivative diverges as delta^(-1/2) with an amplitude
in closed form (``critical_amplitudes``).

The atoms give F_A = N mu^2 / xi2.  The field's quadrature variances
s1 = 4 (dX_0)^2 and s2 = 4 (dX_{pi/2})^2 (vacuum 1) and its macroscopic
displacement beta_s^2 give the phase QFI of the Gaussian field state,

    F_B = (s1 - s2)^2 / (1 + s1 s2) + 4 N beta_s^2 / s2,

with s1 - s2 = q / (omega eps1 eps2 (eps1 + eps2)) and
q = 4 lambda^2 omega omega0 mu, because
omega^2 (omega0/mu)^2 - eps1^2 eps2^2 = q exactly; so the difference
cancels no digit.  xi2 and s2 are sums of positive terms through
eps1^2 + eps2^2 = omega^2 + (omega0/mu)^2, and so is the boson number, so
no digit cancels however far omega and omega0 lie apart.  lambda^2 is kept
apart from the rest of q: the normal-phase F_B / (4 nbar) is lambda^2
times a finite ratio, which neither underflows before its value does nor
divides by zero at weak coupling.  These forms serve every lambda but
lambda_cr itself, where eps1 = 0, s1 and nbar diverge and the scaled field
QFI is its finite limit 1/s2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrology import QfiResult
from .model import check_couplings


@dataclass(frozen=True)
class ThermoPoint:
    """The large-N solution at one coupling: order parameters and normal-mode energies."""

    omega: float
    omega0: float
    lam: float
    lambda_cr: float
    mu: float
    beta_s2_per_n: float
    eps1: float
    eps2: float
    critical: bool


def thermo_point(omega: float, omega0: float, lam: float) -> ThermoPoint:
    """Evaluate the order parameters and normal-mode energies at one lambda."""
    check_couplings(omega, omega0, lam)
    lcr = math.sqrt(omega * omega0) / 2
    # lambda_cr^2 - lambda^2, exact before its last rounding; its sign is the phase
    # and agrees with lam <= lcr at every float lam but lcr, which is the critical point
    product, product_error = _two_product(omega, omega0)
    square, square_error = _two_product(lam, lam)
    excess = 0.0 if lam == lcr else (product / 4 - square) + (product_error / 4 - square_error)
    mu = 1.0 if excess >= 0 else omega * omega0 / (4 * lam * lam)

    half_sum = (omega**2 + (omega0 / mu) ** 2) / 2
    half_gap = 0.5 * math.hypot(omega**2 - (omega0 / mu) ** 2, 4 * lam * math.sqrt(omega * omega0 * mu))
    # eps1^2 = half_sum - half_gap via the difference of squares: 4 omega omega0
    # (lambda_cr^2 - lambda^2) below lambda_cr, and above it
    # 4 omega omega0 (lambda^2 + lambda_cr^2)(lambda^2 - lambda_cr^2) / lambda_cr^2
    if excess >= 0:
        num = 4 * omega * omega0 * excess
    else:
        num = -16 * (lam * lam + omega * omega0 / 4) * excess
    eps1 = math.sqrt(num / (half_sum + half_gap))
    eps2 = math.sqrt(half_sum + half_gap)
    return ThermoPoint(
        omega=omega,
        omega0=omega0,
        lam=lam,
        lambda_cr=lcr,
        mu=mu,
        # (lam/omega)^2 (1 - mu^2) = -excess (1 + mu) / omega^2 above lambda_cr, without
        # the cancellation of 1 - mu^2 just above it
        beta_s2_per_n=0.0 if excess >= 0 else -excess / omega * (1.0 + mu) / omega,
        eps1=eps1,
        eps2=eps2,
        critical=eps1 == 0.0,
    )


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's TwoProduct: p = fl(a b) and its rounding error e, p + e = a b exactly.

    Each factor is cut by Veltkamp's split into halves of at most 26 bits,
    whose products are exact.  Where a split or p overflows, e is 0.
    """
    halves = []
    for x in (a, b):
        c = 134217729.0 * x  # 2^27 + 1
        high = c - (c - x)
        halves.append((high, x - high))
    (a_high, a_low), (b_high, b_low) = halves
    p = a * b
    e = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    return p, e if math.isfinite(e) else 0.0


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
    return pt.lam**2 * _nbar_fluctuation_per_lam2(pt) + n_atoms * pt.beta_s2_per_n


def _mixing(omega: float, omega0: float, lam: float, mu: float) -> tuple[float, float]:
    """The mixing weights (c^2, s^2) = (cos^2 gamma, sin^2 gamma), no digit cancelled.

    With d = omega^2 - (omega0/mu)^2, q = 4 lam^2 omega omega0 mu and the
    half gap h = sqrt(d^2/4 + q): c^2 = (h - d/2) / (2h) and
    s^2 = (h + d/2) / (2h).  Where h and |d|/2 would cancel, h - |d|/2 is
    written as q / (h + |d|/2), with lam^2 kept apart from the rest of q so
    the weight underflows no sooner than its value.  Near lam = 0 the plain
    difference, and cos(gamma) near pi/2, lose the digits of this O(lam^2)
    weight.
    """
    d = omega**2 - (omega0 / mu) ** 2
    h = 0.5 * math.hypot(d, 4 * lam * math.sqrt(omega * omega0 * mu))
    if h == 0:  # lam = 0 at omega = omega0 / mu: gamma = 0
        return 1.0, 0.0
    far = h + abs(d) / 2
    near = lam * (4 * lam * omega * omega0 * mu / far)  # h - |d|/2
    if d >= 0:
        return near / (2 * h), far / (2 * h)
    return far / (2 * h), near / (2 * h)


def _nbar_fluctuation_per_lam2(pt: ThermoPoint) -> float:
    """The fluctuation part of the boson number over lambda^2, a sum of positive terms.

    Summed over the normal modes, weight times (eps - omega)^2 / (4 omega eps)
    reduces through c^2 s^2 (2h)^2 = (eps2^2 - omega^2)(omega^2 - eps1^2) = q
    to omega0 mu [c^2 / (eps2 (eps2 + omega)^2) + s^2 / (eps1 (eps1 + omega)^2)].
    """
    c2, s2 = _mixing(pt.omega, pt.omega0, pt.lam, pt.mu)
    return pt.omega0 * pt.mu * (c2 / (pt.eps2 * (pt.eps2 + pt.omega) ** 2)
                                + s2 / (pt.eps1 * (pt.eps1 + pt.omega) ** 2))


def _field_variances(pt: ThermoPoint) -> tuple[float, float]:
    """(s2, (s1 - s2) / lambda^2) of the field variances s1 = 4 (dX_0)^2, s2 = 4 (dX_{pi/2})^2.

    s1 - s2 = q / (omega eps1 eps2 (eps1 + eps2)) = 4 lambda^2 omega0 mu /
    (eps1 eps2 (eps1 + eps2)), which diverges at lambda_cr, where eps1 = 0.
    """
    return (4.0 * quad_variance_thermo(pt),
            4.0 * pt.omega0 * pt.mu / (pt.eps1 * pt.eps2 * (pt.eps1 + pt.eps2)))


def qfi_field_thermo(pt: ThermoPoint, n_atoms: float) -> QfiResult:
    """Field QFI (s1 - s2)^2 / (1 + s1 s2) + 4 N beta_s^2 / s2 at finite N, scaled by 4*nbar.

    At lambda_cr, where F_B and nbar individually diverge, the value is
    +inf and the scaled ratio its finite limit 1 / [4 (dX_{pi/2})^2].  In
    the normal phase beta_s = 0, so the ratio does not depend on N and is
    ``qfi_field_scaled_limit``, lambda^2 times a finite ratio, which
    underflows no sooner than its value; at lambda = 0, where nbar = 0, it
    is undefined and reported as NaN.
    """
    if pt.critical:
        return QfiResult(math.inf, qfi_field_scaled_limit(pt))
    s2, gap = _field_variances(pt)
    diff = pt.lam**2 * gap  # s1 - s2
    value = diff**2 / (1.0 + (s2 + diff) * s2) + 4.0 * n_atoms * pt.beta_s2_per_n / s2
    if pt.lam <= pt.lambda_cr:
        scaled = qfi_field_scaled_limit(pt) if pt.lam > 0 else math.nan
    else:
        scaled = value / (4.0 * nbar_thermo(pt, n_atoms))
    return QfiResult(value, scaled)


def qfi_field_scaled_limit(pt: ThermoPoint) -> float:
    """N -> infinity limit of F_B / (4*nbar).

    In the normal phase both numerator and denominator are pure fluctuation
    quantities, and the ratio is lambda^2 times a finite one; in the
    superradiant phase, and at lambda_cr, the macroscopic beta_s^2
    dominates both and the ratio reduces to 1 / [4 (dX_{pi/2})^2].  At
    lambda = 0 the limit is 0.
    """
    if pt.critical or pt.lam > pt.lambda_cr:
        return 1.0 / (4.0 * quad_variance_thermo(pt))
    s2, gap = _field_variances(pt)
    s1 = s2 + pt.lam**2 * gap
    return pt.lam**2 * (gap**2 / ((1.0 + s1 * s2) * 4.0 * _nbar_fluctuation_per_lam2(pt)))


@dataclass(frozen=True)
class CriticalAmplitudes:
    """Leading amplitudes of the critical power laws on one side of lambda_cr.

    With delta = |lambda - lambda_cr|: eps1 ~ ``eps1`` delta^(1/2),
    d(F_A/N)/dlambda ~ ``dfa`` delta^(-1/2) and
    d(F_B/(4 nbar))/dlambda ~ ``dfb`` delta^(-1/2), for F_A/N as
    ``qfi_atoms_thermo(pt, 1)`` and F_B/(4 nbar) as ``qfi_field_scaled_limit``.
    """

    side: str
    eps1: float
    dfa: float
    dfb: float


def critical_amplitudes(omega: float, omega0: float, side: str) -> CriticalAmplitudes:
    """The closed-form leading amplitudes of eps1 and of both scaled-QFI derivatives.

    Each scaled QFI is a smooth function of eps1 at lambda_cr, and
    eps1 ~ a delta^(1/2), so its derivative diverges as dF/deps1 times
    a / (2 delta^(1/2)).  With r = omega/omega0 and R = sqrt(1 + r^2),
    a = sqrt(8 lambda_cr r / (1 + r^2)) below lambda_cr and sqrt(2) times
    that above it; dF_A/deps1 is r^2/omega0 below and -r^2/omega0 above;
    dF_B/deps1 is -1/(r^3 omega0) above and, below,
    P(r) / (omega0 r^3 (R + r)^2) with
    P(r) = 4r^6 + 4r^5 R + 6r^4 + 4r^3 R + 5r^2 + 2rR + 2, the normal-phase
    form's derivative once lambda^2 = (omega^2 omega0^2 - eps1^2 eps2^2) /
    (4 omega omega0) and eps2^2 = omega^2 + omega0^2 - eps1^2 write it in
    eps1.  No term overflows for omega and omega0 in [1e-6, 1e6].
    """
    check_couplings(omega, omega0)
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    r = omega / omega0
    lcr = math.sqrt(omega * omega0) / 2
    eps1 = math.sqrt((16 if side == "above" else 8) * lcr * r / (1 + r * r))
    if side == "above":
        return CriticalAmplitudes(side, eps1, -r * r / omega0 * eps1 / 2,
                                  -eps1 / (2 * r**3 * omega0))
    big_r = math.hypot(1.0, r)
    poly = (4 * r**6 + 4 * r**5 * big_r + 6 * r**4 + 4 * r**3 * big_r
            + 5 * r**2 + 2 * r * big_r + 2)
    return CriticalAmplitudes(side, eps1, r * r / omega0 * eps1 / 2,
                              eps1 / 2 * poly / (omega0 * r**3 * (big_r + r) ** 2))
