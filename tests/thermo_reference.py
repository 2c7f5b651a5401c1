"""The large-N ground state from its plain normal-mode formulas, as an mpmath oracle.

The quadratic Hamiltonian of Emary and Brandes (PRE 67, 066203 (2003)),
H = [p_x^2 + omega^2 x^2 + p_y^2 + (omega0/mu)^2 y^2 + 2 g x y] / 2 with
g^2 = 4 lambda^2 omega omega0 mu, has the ground-state covariances
<x x^T> = K^(-1/2) / 2 and <p p^T> = K^(1/2) / 2 of its matrix K, whose
square root is (K + eps1 eps2) / (eps1 + eps2).  From them:

    eps_{1,2}^2 = [omega^2 + wz^2 -+ sqrt((omega^2 - wz^2)^2 + 4 g^2)] / 2,  wz = omega0/mu
    s1 = 4 (dX_0)^2      = omega (wz^2 + eps1 eps2) / (eps1 eps2 (eps1 + eps2))
    s2 = 4 (dX_{pi/2})^2 = (omega^2 + eps1 eps2) / (omega (eps1 + eps2))
    xi2 = (wz^2 + eps1 eps2) / (wz (eps1 + eps2)),  F_A / N = mu^2 / xi2
    nbar / N -> (lambda / omega)^2 (1 - mu^2), the coherent field's share

and F_B / (4 nbar) is (s1 - s2)^2 / ((1 + s1 s2)(s1 + s2 - 2)) below
lambda_cr, where nbar = (s1 + s2)/4 - 1/2, and its N -> infinity limit
1/s2 above it.  These are the direct forms: they cancel digits near
lambda_cr and at weak coupling, which ``dicke_qfi.thermo`` rearranges
away.  Evaluate them inside ``mp.workdps(60)`` or more; every value is an
``mpf`` at the working precision, so ``mp.diff`` can differentiate them.
"""

from typing import NamedTuple

from mpmath import mp


class ThermoReference(NamedTuple):
    mu: object
    eps1: object
    eps2: object
    xi2: object
    quad_variance: object  # (dX_{pi/2})^2
    qfi_atoms_per_n: object  # F_A / N
    qfi_field_scaled: object  # N -> infinity limit of F_B / (4 nbar)
    nbar_per_n: object  # N -> infinity limit of nbar / N


def thermo_reference(omega, omega0, lam) -> ThermoReference:
    """The direct forms at one coupling, at mpmath's working precision; lam != lambda_cr."""
    w, w0, lam = mp.mpf(omega), mp.mpf(omega0), mp.mpf(lam)
    lcr = mp.sqrt(w * w0) / 2
    mu = mp.mpf(1) if lam < lcr else (lcr / lam) ** 2
    wz = w0 / mu
    root = mp.sqrt((w**2 - wz**2) ** 2 + 16 * lam**2 * w * w0 * mu)
    eps1 = mp.sqrt((w**2 + wz**2 - root) / 2)
    eps2 = mp.sqrt((w**2 + wz**2 + root) / 2)
    s1 = w * (wz**2 + eps1 * eps2) / (eps1 * eps2 * (eps1 + eps2))
    s2 = (w**2 + eps1 * eps2) / (w * (eps1 + eps2))
    xi2 = (wz**2 + eps1 * eps2) / (wz * (eps1 + eps2))
    if lam < lcr:
        scaled = (s1 - s2) ** 2 / ((1 + s1 * s2) * (s1 + s2 - 2))
    else:
        scaled = 1 / s2
    nbar_per_n = (lam / w) ** 2 * (1 - mu**2)
    return ThermoReference(mu, eps1, eps2, xi2, s2 / 4, mu**2 / xi2, scaled, nbar_per_n)
