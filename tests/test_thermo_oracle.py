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

#: the worst relative errors over the grid of the columns that miss 1e-12 at
#: the exact float inputs.  ``thermo_point`` rounds lambda_cr = sqrt(omega omega0)/2,
#: and that one ulp moves eps1^2 by lambda_cr / delta ulps: 3.6e-5 in eps1 at
#: 1e-12 lambda_cr.  Against the omega whose exact lambda_cr is the rounded one,
#: every column keeps 1e-12 (at most 7.1e-16).  At resonance lambda_cr = 1/2 is exact
ROUNDED_CRITICAL_MISSES = {
    (1e-3, "eps1"): 3.6e-5, (1e-3, "quad_variance"): 7.3e-8, (1e-3, "qfi_field_scaled"): 1.0e-7,
    (1e3, "eps1"): 1.2e-5, (1e3, "xi2"): 2.4e-8, (1e3, "qfi_atoms_per_n"): 2.4e-8,
    (1e3, "qfi_field_scaled"): 3.4e-8,
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
    # at the exact float lambda on a log grid of 1e-12 to 1e-1 lambda_cr on both
    # sides, at 50 digits; worst at the exact inputs 6.5e-16 and at resonance 5e-16
    # (F_B / (4 nbar)), apart from ROUNDED_CRITICAL_MISSES
    lcr = math.sqrt(ratio) / 2
    worst = dict.fromkeys(COLUMNS, 0.0)
    worst_at_rounded = dict.fromkeys(COLUMNS, 0.0)
    with mp.workdps(50):
        rounded_omega = 4 * mp.mpf(lcr) ** 2  # its exact lambda_cr is the float lcr
        for fraction in np.logspace(-12, -1, 12):
            for sign in (-1.0, 1.0):
                lam = lcr * (1 + sign * fraction)
                pt = thermo_point(ratio, 1.0, lam)
                exact = thermo_reference(ratio, 1.0, lam)._asdict()
                rounded = thermo_reference(rounded_omega, 1.0, lam)._asdict()
                for name, column in COLUMNS.items():
                    value = column(pt)
                    worst[name] = max(worst[name], float(abs(value / exact[name] - 1)))
                    worst_at_rounded[name] = max(worst_at_rounded[name],
                                                 float(abs(value / rounded[name] - 1)))
    for name in COLUMNS:
        assert worst_at_rounded[name] <= 1e-12, name
        # a miss may reach twice what was seen, for another libm's sqrt and hypot
        miss = ROUNDED_CRITICAL_MISSES.get((ratio, name))
        assert worst[name] <= (1e-12 if miss is None else 2 * miss), name
