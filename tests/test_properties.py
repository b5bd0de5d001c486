"""Property tests of the screw-run fold against the explicit slice recursion.

Each example draws a helical window (corrugation depth, sense of the helix,
taper, length in pitches) and an energy, then checks the folded sweep against
``rgf_smatrix`` and against the invariants it must keep: unitarity,
reciprocity and the kappa -> -kappa mirror.
"""

from collections import Counter

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from qsurf import confinement as cf
from qsurf import operator as op
from qsurf import transport as tr

WELL = cf.TransverseWell(e0=70.0)
VG = -0.25  # cylinder r = 1
KAPPA = 0.5
L_MAX = 4
E1_MAX = 4.5  # threshold-relative top of the drawn energies

windows = st.fixed_dictionaries(
    {
        "eps": st.floats(0.02, 0.2),
        "sign": st.sampled_from([1.0, -1.0]),
        "taper": st.floats(0.0, 1.0),  # in pitches
        "pitches": st.integers(2, 8),
    }
)
energies = st.floats(0.05, E1_MAX - 0.1)  # above the band bottom; l <= 2 open


def window_operator(eps, sign, taper, pitches):
    """The window on the grid the package picks for a sweep up to E1_MAX."""
    prof = cf.helical_profile(eps, 8.0, sign * KAPPA, radius=1.0, ditch_count=2)
    basis = op.ChannelBasis(l_max=L_MAX, radius=1.0)
    return op.assemble_coupled_channel(
        prof,
        WELL,
        basis,
        length=pitches * prof.z_period,
        dz=op.required_dz(E1_MAX + VG, basis, prof, WELL),
        taper=taper * prof.z_period,
    )


def off_threshold(e_rel):
    return min(abs(e_rel - l * l) for l in range(L_MAX + 1)) > 1e-6


@given(window=windows, e_rel=energies)
def test_fold_matches_explicit_recursion(window, e_rel):
    assume(off_threshold(e_rel))
    o = window_operator(**window)
    e1 = e_rel + VG
    folded = tr._smatrices(o, [tr._prepare(o, e1)], Counter())[0]
    explicit = tr.rgf_smatrix(o, e1)
    for name in ("t", "r", "t_reverse", "r_reverse"):
        np.testing.assert_allclose(
            getattr(folded, name), getattr(explicit, name), rtol=0, atol=1e-10
        )
    # the sweep reports exactly the folded S-matrix
    curve = tr.energy_sweep(tr.SweepPlan(op=o, energies=[e1]))
    assert curve.sigma_total[0] == tr.conductance(folded)[0]


@given(window=windows, e_rel=energies)
def test_folded_sweep_unitary_and_reciprocal(window, e_rel):
    assume(off_threshold(e_rel))
    o = window_operator(**window)
    grid = e_rel + VG + np.array([0.0, 0.011, 0.023])
    curve = tr.energy_sweep(tr.SweepPlan(op=o, energies=grid))
    assert curve.failures == []
    assert np.max(curve.unitarity) <= 1e-9
    assert np.max(curve.reciprocity) <= 1e-9


@given(window=windows, e_rel=energies)
def test_folded_sweep_mirror_under_kappa_reversal(window, e_rel):
    # sigma_{l', l}(kappa) = sigma_{-l', -l}(-kappa)
    assume(off_threshold(e_rel))
    mirrored = {**window, "sign": -window["sign"]}
    plan = dict(energies=[e_rel + VG], record_l=2)
    curve = tr.energy_sweep(tr.SweepPlan(op=window_operator(**window), **plan))
    mirror = tr.energy_sweep(tr.SweepPlan(op=window_operator(**mirrored), **plan))
    np.testing.assert_allclose(
        curve.sigma_modes[0], mirror.sigma_modes[0][::-1, ::-1], rtol=0, atol=1e-9
    )
