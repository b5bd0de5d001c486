"""Continuum oracle: the lattice conductance against mode matching.

On an abrupt helical window the continuum-in-z problem of the same truncated
channel basis is solved exactly by mode matching (Szafer & Stone, PRL 62, 300
(1989)).  In the screw frame, phi_l = e^{i l q z} psi_l, the window no longer
depends on z: its coupling is U = V(0), the Fourier couplings at z = 0.  A
window mode phi = c e^{i k z} solves the quadratic eigenproblem

    [(k - l q)^2 + offset_l + U - E] c = 0,

linearized to a 2n x 2n companion matrix (Tisseur & Meerbergen, SIAM Rev. 43,
235 (2001)); in the lab frame it is psi_l = c_l e^{i (k - l q) z}.  The leads
carry e^{+-i k_l z}, k_l = sqrt(E - offset_l) on the principal branch.
Matching psi and psi' at z = 0 and z = L is one 4n x 4n solve per incident
channel.

The oracle reads only ``ChannelBasis.threshold`` and ``fourier_couplings``
from the package, so it shares no solver code with the lattice.  The lattice
is second order in dz, so its distance to the oracle falls by 4 per halving.
"""

import numpy as np
import pytest

from qsurf import confinement as cf
from qsurf import operator as op
from qsurf import transport as tr

WELL = cf.TransverseWell(e0=70.0)
# the default sweep's helix (epsilon 0.1, Omega 8, kappa 1, two ditches) over
# two pitches, in a smaller basis
PROFILE = cf.helical_profile(0.1, 8.0, 1.0, radius=1.0, ditch_count=2)
BASIS = op.ChannelBasis(l_max=4, radius=1.0)
LENGTH = 2.0 * PROFILE.z_period
# threshold-relative energies with one to three open pairs, clear of every
# threshold
E_REL = np.array([0.55, 1.45, 2.35, 3.25, 4.4])
# max |sigma_lattice - sigma_oracle| at dz / 4 over E_REL; measured 2.13e-4
BOUND_DZ4 = 3e-4


def mode_matching(e1: float):
    """Flux-normalized transmission and reflection of the continuum window at
    e1: (t, r), each [outgoing, incident] over the open channels."""
    modes = BASIS.modes
    n = modes.size
    offsets = BASIS.threshold(modes)
    u = op.fourier_couplings(PROFILE, WELL, BASIS, 0.0)
    lq = modes * PROFILE.params["z_wavenumber"] / PROFILE.params["m_d"]
    k0 = np.diag(lq**2 + offsets - e1) + u
    companion = np.block([[np.zeros((n, n)), np.eye(n)], [-k0, 2.0 * np.diag(lq)]])
    kw, vectors = np.linalg.eig(companion)
    c = vectors[:n]  # column m: the screw-frame amplitudes of window mode m
    k_lab = kw[None, :] - lq[:, None]  # lab-frame wavenumber of each component
    # a mode that grows to the right is referenced at z = L, every other one at
    # z = 0, so that no exponential exceeds 1 in modulus inside the window
    grows = kw.imag < 0.0
    at_0 = c * np.where(grows, np.exp(-1j * kw * LENGTH), 1.0)
    at_l = c * np.where(grows, 1.0, np.exp(1j * kw * LENGTH))
    at_l *= np.exp(-1j * lq * LENGTH)[:, None]  # back to the lab frame
    k_lead = np.sqrt((e1 - offsets).astype(complex))
    eye, zero = np.eye(n), np.zeros((n, n))
    # unknowns (r, a, t): the reflected and transmitted amplitudes of every
    # channel and the 2n window-mode amplitudes
    match = np.block(
        [
            [-eye, at_0, zero],  # psi at z = 0
            [1j * np.diag(k_lead), 1j * k_lab * at_0, zero],  # psi' at z = 0
            [zero, at_l, -eye],  # psi at z = L
            [zero, 1j * k_lab * at_l, -1j * np.diag(k_lead)],  # psi' at z = L
        ]
    )
    is_open = e1 > offsets
    rhs = np.zeros((4 * n, n), dtype=complex)
    rhs[np.arange(n), np.arange(n)] = 1.0  # a unit incident wave e^{i k_l z}
    rhs[n + np.arange(n), np.arange(n)] = 1j * k_lead
    x = np.linalg.solve(match, rhs[:, is_open])
    k_open = k_lead[is_open].real
    flux = np.sqrt(k_open[:, None] / k_open[None, :])
    return flux * x[3 * n :][is_open], flux * x[:n][is_open]


def oracle_sigma(energies) -> np.ndarray:
    return np.array([np.sum(np.abs(mode_matching(e)[0]) ** 2) for e in energies])


def test_mode_matching_conserves_flux():
    # the oracle's own check: every incident channel is transmitted or
    # reflected, nothing is lost
    for e in E_REL + BASIS.threshold(0):
        t, r = mode_matching(e)
        flux = np.sum(np.abs(t) ** 2 + np.abs(r) ** 2, axis=0)
        np.testing.assert_allclose(flux, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("solver", ["energy_sweep", "rgf_smatrix"])
def test_lattice_converges_to_mode_matching_at_second_order(solver):
    # energy_sweep folds the screw run and splits the sectors; rgf_smatrix
    # runs the explicit recursion over every slice
    energies = E_REL + BASIS.threshold(0)
    sigma_mm = oracle_sigma(energies)
    dz = op.required_dz(energies.max(), BASIS, PROFILE, WELL)
    errors = []
    for level in range(3):
        lattice = op.assemble_coupled_channel(
            PROFILE, WELL, BASIS, length=LENGTH, dz=dz / 2**level
        )
        assert lattice.screw is not None
        if solver == "energy_sweep":
            sigma = tr.energy_sweep(lattice, energies).sigma_total
        else:
            sigma = [tr.conductance(tr.rgf_smatrix(lattice, e))[0] for e in energies]
        errors.append(np.max(np.abs(sigma - sigma_mm)))
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all(np.abs(ratios - 4.0) <= 0.4), (errors, ratios)
    assert errors[-1] <= BOUND_DZ4, errors
