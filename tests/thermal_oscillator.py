"""The thermal-oscillator form of the large-N ground state, as an oracle for ``thermo``.

Emary and Brandes (PRE 67, 066203 (2003)) map each subsystem of the
thermodynamic-limit ground state onto a harmonic oscillator at an
effective temperature: frequencies Omega_A and Omega_B, thermal factor
e^{beta Omega} and coth(beta Omega / 2).  This module evaluates that map
from the plain formulas, the mixing angle from its tangent, and from it
xi2, (dX_{pi/2})^2, the boson number and both QFIs.  ``dicke_qfi.thermo``
computes the same quantities from the quadrature variances; the two
routes share no intermediate.

Pass ``math`` for double precision, or ``mpmath.mp`` inside a
``workdps`` block for more digits: the plain differences here cancel
digits near lambda = 0 and lambda_cr, where only the high-precision form
is a reference.  Every value is rounded to a float once.
"""

import math
from typing import NamedTuple


class ThermalOscillator(NamedTuple):
    omega: float
    omega0: float
    mu: float
    beta_s2_per_n: float
    eps1: float
    eps2: float
    c: float
    s: float
    omega_atoms: float
    omega_field: float
    coth: float  # coth(beta Omega / 2), one temperature for both subsystems
    exp_b_omega: float  # e^{beta Omega}, inf at lambda = 0
    xi2: float
    quad_variance: float  # (dX_{pi/2})^2
    nbar_fluctuation: float
    qfi_field_fluctuation: float
    qfi_field_per_n: float  # the displacement term of F_B over N
    qfi_field_scaled_limit: float  # N -> infinity limit of F_B / (4 nbar)

    def qfi_atoms(self, n_atoms: float) -> float:
        return n_atoms * self.mu * self.omega0 / (self.omega_atoms * self.coth)

    def nbar(self, n_atoms: float) -> float:
        return self.nbar_fluctuation + n_atoms * self.beta_s2_per_n

    def qfi_field(self, n_atoms: float) -> float:
        return self.qfi_field_fluctuation + n_atoms * self.qfi_field_per_n


def thermal_oscillator(omega, omega0, lam, m=math) -> ThermalOscillator:
    """The thermal-oscillator quantities at one coupling, evaluated with ``m``'s arithmetic."""
    num = float if m is math else m.mpf
    w, w0, lam = num(omega), num(omega0), num(lam)
    lcr = m.sqrt(w * w0) / 2
    mu = 1 if lam <= lcr else (lcr / lam) ** 2
    wz = w0 / mu
    half_gap = m.sqrt((w**2 - wz**2) ** 2 + 16 * lam**2 * w * w0 * mu) / 2
    eps1 = m.sqrt((w**2 + wz**2) / 2 - half_gap)
    eps2 = m.sqrt((w**2 + wz**2) / 2 + half_gap)
    gamma = m.atan2(4 * lam * m.sqrt(w0 * w * mu), wz**2 - w**2) / 2
    c, s = m.cos(gamma), m.sin(gamma)
    coth = m.sqrt(1 + (eps1 - eps2) ** 2 * (c * s) ** 2 / (eps1 * eps2))
    omega_atoms = eps1 * eps2 / (eps1 * c**2 + eps2 * s**2) * coth
    omega_field = eps1 * eps2 / (eps1 * s**2 + eps2 * c**2) * coth
    e = math.inf if coth == 1 else (coth + 1) / (coth - 1)
    inv = 0 if e == math.inf else 1 / e
    beta_s2_per_n = (lam / w) ** 2 * (1 - mu**2)
    nbar_fluctuation = (w**2 + omega_field**2) / (4 * w * omega_field) * coth - 0.5
    # (e + 1)^2 / (e^2 + 1), written through 1/e so that it is 1 at e = inf
    qfi_field_fluctuation = ((w**2 - omega_field**2) ** 2 / (2 * w**2 * omega_field**2)
                             * (1 + inv) ** 2 / (1 + inv**2))
    qfi_field_per_n = 4 * w * beta_s2_per_n / (omega_field * coth)
    if beta_s2_per_n > 0:
        scaled_limit = qfi_field_per_n / (4 * beta_s2_per_n)
    elif nbar_fluctuation > 0:
        scaled_limit = qfi_field_fluctuation / (4 * nbar_fluctuation)
    else:
        scaled_limit = math.nan
    return ThermalOscillator(*map(float, (
        w, w0, mu, beta_s2_per_n, eps1, eps2, c, s, omega_atoms, omega_field, coth, e,
        mu * omega_atoms * coth / w0, omega_field * coth / (4 * w),
        nbar_fluctuation, qfi_field_fluctuation, qfi_field_per_n, scaled_limit)))
