"""``thermo``'s float closed forms and critical amplitudes against the direct forms in mpmath."""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath").mp

from thermo_reference import thermo_reference  # noqa: E402

from dicke_qfi.thermo import (  # noqa: E402
    critical_amplitudes,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    quad_variance_thermo,
    thermo_point,
    xi2_thermo,
)

RATIOS = (1e-3, 1.0, 1e3)  # omega / omega0, at omega0 = 1

#: delta / lambda_cr, each 1e-4 of the last; at omega = 1e-3 the above-side
#: dF_A/dlambda is still 0.4 off its amplitude at 1e-20, and within 1e-6 of it
#: only below about 6e-32
DEPTHS = [10.0**-k for k in range(12, 33, 4)]

COLUMNS = {
    "mu": lambda pt: pt.mu,
    "eps1": lambda pt: pt.eps1,
    "eps2": lambda pt: pt.eps2,
    "xi2": xi2_thermo,
    "quad_variance": quad_variance_thermo,
    "qfi_atoms_per_n": lambda pt: qfi_atoms_thermo(pt, 1.0),
    "qfi_field_scaled": qfi_field_scaled_limit,
}

@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("ratio", RATIOS)
def test_amplitudes_are_the_limits_of_the_exact_derivatives(ratio, side):
    # delta^(1/2) times mp.diff of the direct forms approaches each amplitude,
    # its gap shrinking at least like delta^(1/2) until it reaches the float
    # amplitude's rounding; this is the check of the exponents 1/2 and -1/2
    amplitudes = critical_amplitudes(ratio, 1.0, side)
    expected = (amplitudes.eps1, amplitudes.dfa, amplitudes.dfb)
    sign = 1 if side == "above" else -1
    gaps = []
    with mp.workdps(60):
        lcr = mp.sqrt(mp.mpf(ratio)) / 2
        for depth in DEPTHS:
            delta = depth * lcr
            lam = lcr + sign * delta
            dfa = mp.diff(lambda x: thermo_reference(ratio, 1.0, x).qfi_atoms_per_n, lam)
            dfb = mp.diff(lambda x: thermo_reference(ratio, 1.0, x).qfi_field_scaled, lam)
            leading = (thermo_reference(ratio, 1.0, lam).eps1 / mp.sqrt(delta),
                       mp.sqrt(delta) * dfa, mp.sqrt(delta) * dfb)
            gaps.append([float(abs(value / amplitude - 1))
                         for value, amplitude in zip(leading, expected)])
    for far, near in zip(gaps, gaps[1:]):
        for gap_far, gap_near in zip(far, near):
            assert gap_near <= 1.05 * math.sqrt(1e-4) * gap_far + 1e-15
    assert max(gaps[-1]) < 1e-6


@pytest.mark.parametrize("ratio", RATIOS)
def test_float_closed_forms_match_the_oracle(ratio):
    # at the exact float inputs on a log grid of 1e-12 to 1e-1 lambda_cr on both
    # sides, at 50 digits: lambda_cr^2 - lambda^2 is formed from error-free
    # products, so no rounding of lambda_cr is amplified lambda_cr / delta times
    # near it; worst 7.0e-16 (F_B / (4 nbar) at omega = 1e-3).  nbar / N is 0
    # below lambda_cr, and above it formed from that difference too: worst 2.4e-16,
    # where (lambda / omega)^2 (1 - mu^2) cancelled to 1.3e-5 (omega = 1e-3)
    lcr = math.sqrt(ratio) / 2
    worst = dict.fromkeys([*COLUMNS, "nbar_per_n"], 0.0)
    with mp.workdps(50):
        for fraction in np.logspace(-12, -1, 12):
            for sign in (-1.0, 1.0):
                lam = lcr * (1 + sign * fraction)
                pt = thermo_point(ratio, 1.0, lam)
                exact = thermo_reference(ratio, 1.0, lam)._asdict()
                for name, column in COLUMNS.items():
                    worst[name] = max(worst[name], float(abs(column(pt) / exact[name] - 1)))
                if sign < 0:
                    assert pt.beta_s2_per_n == 0.0
                else:
                    gap = float(abs(pt.beta_s2_per_n / exact["nbar_per_n"] - 1))
                    worst["nbar_per_n"] = max(worst["nbar_per_n"], gap)
    for name, gap in worst.items():
        assert gap <= 1e-12, name
