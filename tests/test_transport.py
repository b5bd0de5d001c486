"""Scattering solver: unitarity, oracles, symmetries, densities, sweeps."""

import multiprocessing
import os
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from qsurf import confinement as cf
from qsurf import operator as op
from qsurf import transport as tr
from qsurf.errors import (
    ClosedChannelError,
    NumericalError,
    ThresholdProximityWarning,
    UndefinedPolarizationError,
)
from qsurf.selftest import dense_smatrix

WELL = cf.TransverseWell(e0=70.0)
VG = -0.25  # cylinder r = 1


def helical_operator(
    eps=0.1,
    omega=8.0,
    kappa=0.5,
    l_max=6,
    pitches=8.0,
    dz=0.04,
    taper_pitches=1.0,
    lead_pad_pitches=0.0,
    include_vg=True,
):
    prof = cf.helical_profile(eps, omega, kappa, radius=1.0, ditch_count=2)
    pitch = prof.z_period
    basis = op.ChannelBasis(l_max=l_max, radius=1.0, include_vg=include_vg)
    return op.assemble_coupled_channel(
        prof,
        WELL,
        basis,
        length=pitches * pitch,
        dz=min(dz, pitch / 20),
        taper=taper_pitches * pitch,
        lead_pad=lead_pad_pitches * pitch,
    )


def homogeneous_operator(l_max=3, include_vg=False, length=3.0, dz=0.05):
    basis = op.ChannelBasis(l_max=l_max, radius=1.0, include_vg=include_vg)
    return op.assemble_coupled_channel(
        cf.homogeneous_profile(), WELL, basis, length=length, dz=dz
    )


# ---------------------------------------------------------------------------
# lead self-energy
# ---------------------------------------------------------------------------


def test_self_energy_open_channel_retarded():
    basis = op.ChannelBasis(l_max=0, include_vg=False)
    dz = 0.05
    leads = op.lead_modes(2.0, basis, dz)
    sigma = tr.lead_self_energy(leads)
    k = leads.k[0].real
    assert sigma[0].imag == pytest.approx(-np.sin(k * dz) / dz**2, rel=1e-12)
    assert sigma[0].imag < 0


def test_self_energy_far_evanescent_decaying():
    basis = op.ChannelBasis(l_max=2, include_vg=False)
    dz = 0.05
    leads = op.lead_modes(0.2, basis, dz)
    sigma = tr.lead_self_energy(leads)
    i2 = basis.index(2)  # far below threshold 4
    kap = leads.k[i2].imag
    assert abs(sigma[i2].imag) < 1e-15
    assert sigma[i2].real == pytest.approx(-np.exp(-kap * dz) / dz**2, rel=1e-12)


def test_self_energy_satisfies_lead_fixed_point():
    # decimation-iteration oracle: surface g from the 1D doubling recursion
    dz = 0.07
    basis = op.ChannelBasis(l_max=2, radius=1.0)
    for e1 in (0.3, 1.7, 3.2):
        leads = op.lead_modes(e1, basis, dz)
        sigma = tr.lead_self_energy(leads)
        t_hop = -1.0 / dz**2
        for i in range(basis.n_modes):
            onsite = 2.0 / dz**2 + leads.offsets[i]
            # scalar renormalization-decimation for the surface GF
            z = e1 + 1e-12j
            eps_s = onsite
            eps_b = onsite
            alpha = t_hop
            for _ in range(60):
                g_b = 1.0 / (z - eps_b)
                eps_s = eps_s + alpha * g_b * alpha
                eps_b = eps_b + 2.0 * alpha * g_b * alpha
                alpha = alpha * g_b * alpha
                if abs(alpha) < 1e-30:
                    break
            g_surface = 1.0 / (z - eps_s)
            assert abs(sigma[i] - t_hop * g_surface * t_hop) < 1e-10


# ---------------------------------------------------------------------------
# S-matrix basics
# ---------------------------------------------------------------------------


def test_homogeneous_perfect_transmission():
    o = homogeneous_operator()
    s = tr.rgf_smatrix(o, 2.0)
    assert list(s.open_modes) == [-1, 0, 1]
    # pure phases on the diagonal, zero off-diagonal and reflection
    np.testing.assert_allclose(np.abs(np.diag(s.t)), 1.0, atol=1e-12)
    off = s.t - np.diag(np.diag(s.t))
    assert np.max(np.abs(off)) < 1e-12
    assert np.max(np.abs(s.r)) < 1e-12
    total, _ = tr.conductance(s)
    assert total == pytest.approx(3.0, abs=1e-10)


def test_zero_open_channels():
    o = homogeneous_operator(include_vg=False)
    s = tr.rgf_smatrix(o, -0.5)
    assert s.n_open == 0
    total, table = tr.conductance(s)
    assert total == 0.0 and table == {}
    with pytest.raises(UndefinedPolarizationError):
        tr.polarization(s)


def test_rgf_equals_dense_inversion():
    rng = np.random.default_rng(21)
    for _ in range(6):
        eps = float(rng.uniform(0.02, 0.2))
        kappa = float(rng.uniform(0.3, 1.5))
        prof = cf.helical_profile(eps, 2.0, kappa, radius=1.0, ditch_count=2)
        basis = op.ChannelBasis(l_max=2, radius=1.0)
        o = op.assemble_coupled_channel(prof, WELL, basis, length=2.0, n_z=55)
        e1 = float(rng.uniform(0.3, 3.5))
        s = tr.rgf_smatrix(o, e1)
        t_d, r_d, tp_d, rp_d, modes_d = dense_smatrix(o, e1)
        sigma_rgf = float(np.sum(np.abs(s.t) ** 2))
        sigma_dense = float(np.sum(np.abs(t_d) ** 2))
        assert abs(sigma_rgf - sigma_dense) < 1e-10
        np.testing.assert_allclose(s.t, t_d, atol=1e-10)
        np.testing.assert_allclose(s.r, r_d, atol=1e-10)


@pytest.mark.parametrize("n_slices", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["homogeneous", "helical"])
def test_smallest_devices_match_dense_inversion(kind, n_slices):
    # a one-slice device, whose first slice is also its last, and the
    # shortest screw runs: 2 and 3 slices on the 4- and 5-slice helical windows
    if kind == "homogeneous":
        prof, include_vg, energies = cf.homogeneous_profile(), False, (0.5, 2.3, 5.5)
    else:
        prof = cf.helical_profile(0.1, 8.0, 0.5, radius=1.0, ditch_count=2)
        include_vg, energies = True, tuple(e + VG for e in (0.4, 1.3, 2.6, 4.2))
    basis = op.ChannelBasis(l_max=3, radius=1.0, include_vg=include_vg)
    o = op.assemble_coupled_channel(
        prof, WELL, basis, length=0.05 * n_slices, n_z=n_slices
    )
    folded = o.screw.stop - o.screw.start if o.screw else 0
    assert folded == (n_slices - 2 if kind == "helical" and n_slices >= 4 else 0)
    for e1 in energies:
        blocks = tr._solve(o, tr._sectors(o), o.lead_mode_set([e1]), Counter())
        for block, dense in zip(blocks, dense_smatrix(o, e1)):
            np.testing.assert_allclose(block[0], dense, rtol=0, atol=1e-12)


def test_helical_mode_preference():
    # co-rotating mode passes preferentially through the helical ditches
    o = helical_operator()
    s = tr.rgf_smatrix(o, 1.3 + VG)
    _, table = tr.conductance(s)
    sig_plus = sum(v for (li, lo), v in table.items() if li == +1)
    sig_minus = sum(v for (li, lo), v in table.items() if li == -1)
    assert sig_plus > sig_minus


def test_homogeneous_degeneracy_is_exact():
    o = homogeneous_operator()
    s = tr.rgf_smatrix(o, 2.3)
    _, table = tr.conductance(s)
    assert table[(1, 1)] == table[(-1, -1)]  # bitwise: decoupled identical chains


def test_mirror_symmetry_kappa_reversal():
    # sigma_{l',l}(kappa) = sigma_{-l',-l}(-kappa)
    op_p = helical_operator(kappa=0.5)
    op_m = helical_operator(kappa=-0.5)
    for e_rel in (1.4, 2.6):
        _, tab_p = tr.conductance(tr.rgf_smatrix(op_p, e_rel + VG))
        _, tab_m = tr.conductance(tr.rgf_smatrix(op_m, e_rel + VG))
        for (li, lo), val in tab_p.items():
            assert val == pytest.approx(tab_m[(-li, -lo)], abs=1e-8)


def test_reciprocity_explicit_recursion():
    # the Hamiltonian is real in (theta, z): t[l_out, l_in] = t'[-l_in, -l_out]
    o = helical_operator(kappa=0.5, taper_pitches=1.0)
    for e_rel in (0.4, 1.3, 2.6, 4.2):
        s = tr.rgf_smatrix(o, e_rel + VG)
        assert s.n_open > 0
        assert s.reciprocity_residual() <= 1e-12


def test_reciprocity_of_folded_sweep():
    o = helical_operator(kappa=0.5, taper_pitches=1.0)
    assert o.screw is not None
    curve = tr.energy_sweep(o, np.linspace(0.3, 4.4, 24) + VG)
    assert curve.failures == []
    assert np.max(curve.reciprocity) <= 1e-9


def test_reciprocity_catches_a_phase_flip_unitarity_misses():
    # homogeneous cylinder: r = 0 and t diagonal, so flipping the sign of one
    # transmission amplitude keeps S exactly unitary
    o = homogeneous_operator()
    s = tr.rgf_smatrix(o, 2.0)
    assert s.reciprocity_residual() <= 1e-12
    t = s.t.copy()
    t[0, 0] *= -1.0
    bad = replace(s, t=t)
    assert bad.unitarity_residual() <= 1e-12
    assert bad.reciprocity_residual() > 1.0


def test_threshold_proximity_flagged():
    # each entry point warns once, attributed to the line that called it
    o = homogeneous_operator(include_vg=False)
    e1 = 1.0 + 1e-12
    with pytest.warns(ThresholdProximityWarning) as smatrix:
        s = tr.rgf_smatrix(o, e1)
    assert s.threshold_flag
    with pytest.warns(ThresholdProximityWarning) as sweep:
        curve = tr.energy_sweep(o, [e1])
    assert curve.threshold_flags[0]
    with pytest.warns(ThresholdProximityWarning) as density:
        tr.scattering_density(o, e1, 0)
    for record in (smatrix, sweep, density):
        assert len(record) == 1
        assert record[0].filename == __file__


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------


def test_polarization_zero_for_homogeneous():
    o = homogeneous_operator()
    for e1 in (1.5, 2.5, 4.5):
        s = tr.rgf_smatrix(o, e1)
        assert tr.polarization(s) == 0.0


def test_polarization_antisymmetric_under_direction_reversal():
    o = helical_operator()
    for e_rel in (1.1, 1.7, 2.6, 3.2):
        s = tr.rgf_smatrix(o, e_rel + VG)
        p_right = tr.polarization(s, side="right")
        p_left = tr.polarization(s, side="left")
        assert abs(p_right + p_left) < 1e-8


def test_polarization_rises_to_maximum_then_decays():
    # sharp rise just above the pair threshold, slow decrease afterwards
    o = helical_operator()
    e_rel = np.array([1.02, 1.1, 1.3, 1.8, 2.4, 3.0, 3.6, 3.9])
    p = np.array([tr.polarization(tr.rgf_smatrix(o, e + VG)) for e in e_rel])
    i_max = int(np.argmax(p))
    assert p[0] < 0.5 * p[i_max]  # rapid rise from the threshold
    assert 0 < i_max < len(p) - 1
    assert p[-1] < p[i_max]  # decays once counter-rotating channels grow
    assert p[i_max] > 0.3


def test_polarization_bounds():
    o = helical_operator()
    for e_rel in (1.2, 2.0, 3.4):
        s = tr.rgf_smatrix(o, e_rel + VG)
        assert abs(tr.polarization(s)) <= 1.0 + 1e-12


def test_polarization_rejects_unknown_side():
    s = tr.rgf_smatrix(homogeneous_operator(), 2.0)
    with pytest.raises(ValueError, match="side"):
        tr.polarization(s, side="rigth")


def test_polarization_rejects_a_pair_below_1():
    s = tr.rgf_smatrix(homogeneous_operator(), 2.0)
    with pytest.raises(ValueError, match="pair must be a positive mode index"):
        tr.polarization(s, pair=0)


@pytest.mark.parametrize("pair", [0, -1])
def test_sweep_rejects_a_pair_below_1(pair):
    # pair = -1 used to flip the sign of P_Lz and pair = 0 to report zeros
    with pytest.raises(ValueError, match="pair must be a positive mode index"):
        tr.energy_sweep(homogeneous_operator(), [2.0], pair=pair)


def test_sweep_rejects_a_negative_record_l():
    with pytest.raises(ValueError, match="record_l must be at least 0, got -1"):
        tr.energy_sweep(homogeneous_operator(), [2.0], record_l=-1)


def test_sweep_rejects_a_closed_operator():
    basis = op.ChannelBasis(l_max=2, radius=1.0)
    closed = op.assemble_coupled_channel(
        cf.homogeneous_profile(), WELL, basis, length=1.0, dz=0.05, closed=True
    )
    with pytest.raises(ValueError, match="closed=False"):
        tr.energy_sweep(closed, [2.0])


# ---------------------------------------------------------------------------
# scattering densities
# ---------------------------------------------------------------------------


def test_density_rejects_unknown_side():
    o = homogeneous_operator(length=2.0)
    with pytest.raises(ValueError, match="side"):
        tr.scattering_density(o, 2.0, l_incident=1, side="Left")


def test_density_homogeneous_is_uniform():
    o = homogeneous_operator(length=2.0)
    d = tr.scattering_density(o, 2.0, l_incident=1, n_theta=48)
    np.testing.assert_allclose(d.density, 1.0 / (2 * np.pi), atol=1e-10)


def test_density_closed_channel_raises_with_threshold():
    o = homogeneous_operator(include_vg=False, length=2.0)
    with pytest.raises(ClosedChannelError, match="threshold"):
        tr.scattering_density(o, 0.5, l_incident=1)


def test_density_mode_outside_basis_names_l_max():
    # not a closed channel: the basis has no mode 99 at all
    o = homogeneous_operator(l_max=6, length=2.0)
    with pytest.raises(ValueError, match=r"mode 99 outside basis \(l_max=6\)"):
        tr.scattering_density(o, 2.0, l_incident=99)


def test_density_closed_channel_raises_before_the_device_solve(monkeypatch):
    # the leads decide that the mode is closed; the device is never solved
    def no_solve(op, leads, mode, side):
        raise AssertionError("the device was solved for a closed mode")

    monkeypatch.setattr(tr, "_scattering_state", no_solve)
    o = homogeneous_operator(include_vg=False, length=2.0)
    with pytest.raises(ClosedChannelError, match=r"threshold 1\b"):
        tr.scattering_density(o, 0.5, l_incident=1)


def test_density_factorisation_failure_raises_numerical_error(monkeypatch):
    # an exactly singular slice-0 block fails the density solve the way it
    # fails rgf_smatrix; dz = 2^-5 makes the forged entry round-trip exactly,
    # and it sits in the incident channel, the one sector the density solves
    o = homogeneous_operator(dz=2**-5, length=2.0)
    forged = forged_self_energy(o, 2.0, "singular_block", channel=o.basis.index(1))
    monkeypatch.setattr(tr, "lead_self_energy", forged)
    with pytest.raises(NumericalError, match="slice 0 inversion failed"):
        tr.scattering_density(o, 2.0, l_incident=1)


def test_density_matches_direct_solve_on_every_slice(monkeypatch):
    # the density runs the slice recursion over every slice of a window that
    # records a screw run, without folding it: psi agrees with one sparse
    # direct solve of the whole device on every slice, for every open mode
    # incident from either side
    def no_fold(*args):
        raise AssertionError("the density folded the screw run")

    monkeypatch.setattr(tr, "_attach_screw_run", no_fold)
    o = helical_operator(lead_pad_pitches=4.0)
    assert o.screw is not None
    e1 = 1.7 + VG
    leads, _ = tr._leads(o, e1)
    idx, psi = sparse_scattering_solution(o, leads)
    n_theta = 32
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    phases = np.exp(1j * np.outer(o.basis.modes, theta)) / np.sqrt(2 * np.pi)
    assert idx.size == 3
    for k, col in enumerate(idx):
        for side, offset in (("left", 0), ("right", idx.size)):
            d = tr.scattering_density(o, e1, o.basis.modes[col], n_theta, side)
            ref = psi[:, :, offset + k] @ phases
            assert np.max(np.abs(d.psi - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("l_incident", [0, 1])
def test_density_solves_the_incident_sector_alone(monkeypatch, l_incident, side):
    # psi is exactly 0 outside the incident mode's sector (l of the other
    # parity, m_d = 2), and inside it agrees with one solve over all modes
    o = helical_operator(lead_pad_pitches=1.0)
    leads, _ = tr._leads(o, 1.7 + VG)
    mode = o.basis.index(l_incident)
    psi = tr._scattering_state(o, leads, mode, side)
    inside = (o.basis.modes - l_incident) % 2 == 0
    assert np.all(psi[:, ~inside] == 0.0)
    # the reference treats all modes as one sector, as rgf_smatrix does
    monkeypatch.setattr(tr, "_sectors", lambda o: [np.arange(o.n_modes)])
    ref = tr._scattering_state(o, leads, mode, side)
    assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_density_mode_contrast_and_ditch_correlation():
    o = helical_operator(lead_pad_pitches=4.0)
    prof = cf.helical_profile(0.1, 8.0, 0.5, radius=1.0, ditch_count=2)
    e1 = 1.7 + VG
    d_plus = tr.scattering_density(o, e1, +1, n_theta=64)
    d_minus = tr.scattering_density(o, e1, -1, n_theta=64)
    z_hi = o.window[1]
    transmitted = d_plus.z > z_hi + 1.0
    assert d_plus.density[transmitted].mean() > 3.0 * d_minus.density[transmitted].mean()
    # the reflected counter-rotating wave forms a standing pattern on the
    # incident side: theta-averaged density oscillates along z there
    incident_side = d_minus.z < -1.0
    rows_minus = d_minus.density[incident_side].mean(axis=1)
    assert rows_minus.max() - rows_minus.min() > 0.3 * rows_minus.mean()
    # density of the passing mode concentrates along the ditch lines
    inside = (d_plus.z > 0.2 * z_hi) & (d_plus.z < 0.8 * z_hi)
    zz, tt = np.meshgrid(d_plus.z[inside], d_plus.theta, indexing="ij")
    indicator = (prof(tt, zz) < 1.0 - 0.5 * prof.epsilon).astype(float)
    corr = np.corrcoef(d_plus.density[inside].ravel(), indicator.ravel())[0, 1]
    assert corr > 0.0


def test_density_row_sums_conserved_in_leads():
    # flux-conservation oracle: theta-integrated density is z-independent in
    # the transmitted lead once evanescent tails have died off
    o = helical_operator(lead_pad_pitches=4.0)
    e1 = 1.7 + VG
    d = tr.scattering_density(o, e1, +1, n_theta=64)
    far = d.z > o.window[1] + 2.5
    rows = d.density[far].sum(axis=1) * (2 * np.pi / 64)
    assert rows.size > 10
    assert np.max(np.abs(rows - rows.mean())) < 1e-6
    # incident from the right, the transmitted lead is the left one
    d_right = tr.scattering_density(o, e1, +1, n_theta=64, side="right")
    far = d_right.z < o.window[0] - 2.5
    rows = d_right.density[far].sum(axis=1) * (2 * np.pi / 64)
    assert rows.size > 10
    assert np.max(np.abs(rows - rows.mean())) < 1e-6
    # homogeneous case: conserved on both sides (no reflected standing wave)
    o2 = homogeneous_operator(length=2.0)
    d2 = tr.scattering_density(o2, 2.0, 0, n_theta=48)
    rows2 = d2.density.sum(axis=1) * (2 * np.pi / 48)
    assert np.max(np.abs(rows2 - rows2.mean())) < 1e-10


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_each_solve_evaluates_lead_modes_once(monkeypatch):
    # a sweep evaluates the lead modes of its whole grid once and hands every
    # energy block its rows; rgf_smatrix and a density map evaluate them once
    calls = []
    real_lead_modes = op.lead_modes

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real_lead_modes(*args, **kwargs)

    monkeypatch.setattr(op, "lead_modes", counted)
    o = helical_operator(pitches=4.0, l_max=4)
    energies = np.linspace(0.4, 3.9, 48) + VG
    curve = tr.energy_sweep(o, energies)
    assert curve.failures == []
    assert set(curve.n_open) == {1, 3} and curve.solver["stacks"] == 2
    assert len(calls) == 1
    solves = {
        "rgf_smatrix": lambda: tr.rgf_smatrix(o, 1.7 + VG),
        "scattering_density": lambda: tr.scattering_density(o, 1.7 + VG, 1),
    }
    for name, solve in solves.items():
        calls.clear()
        solve()
        assert len(calls) == 1, name


def test_sectors_are_the_classes_of_l_mod_m_d():
    # the helical profile couples l only to l +- m_d (m_d = 2): even and odd l
    o = helical_operator(l_max=6)
    assert [o.basis.modes[idx].tolist() for idx in tr._sectors(o)] == [
        list(range(-6, 7, 2)), list(range(-5, 6, 2))
    ]
    assert [idx.size for idx in tr._sectors(homogeneous_operator(l_max=3))] == [1] * 7
    # one ditch (m_d = 1) couples every l: the split is a no-op, and the
    # split, folded sweep still matches the whole reference
    prof = cf.helical_profile(0.1, 8.0, 0.5, radius=1.0, ditch_count=1)
    pitch = prof.z_period
    basis = op.ChannelBasis(l_max=6, radius=1.0)
    o = op.assemble_coupled_channel(
        prof, WELL, basis, length=4.0 * pitch, dz=0.04, taper=pitch
    )
    assert [idx.tolist() for idx in tr._sectors(o)] == [list(range(13))]
    assert o.screw is not None
    energies = np.array([0.4, 1.3, 2.2, 3.1, 4.3]) + VG
    curve = tr.energy_sweep(o, energies)
    assert curve.solver["sectors"] == [13]
    ref = [tr.conductance(tr.rgf_smatrix(o, e1))[0] for e1 in energies]
    np.testing.assert_allclose(curve.sigma_total, ref, rtol=0, atol=1e-10)


def test_custom_profile_sectors_come_from_the_coupling_pattern():
    # no declared harmonic: the third harmonic alone splits l by l mod 3,
    # and the split sweep matches the whole reference
    prof = cf.custom_profile(lambda t, z: 1.0 - 0.05 * (1.0 + np.cos(3 * t + z)), 0.1)
    assert prof.theta_harmonic is None
    basis = op.ChannelBasis(l_max=4, radius=1.0)
    o = op.assemble_coupled_channel(prof, WELL, basis, length=2.0, dz=0.04)
    assert [o.basis.modes[idx].tolist() for idx in tr._sectors(o)] == [
        [-4, -1, 2], [-3, 0, 3], [-2, 1, 4]
    ]
    energies = np.array([0.6, 1.7, 4.6, 9.5]) + VG
    curve = tr.energy_sweep(o, energies)
    assert curve.solver["sectors"] == [3, 3, 3]
    ref = [tr.conductance(tr.rgf_smatrix(o, e1))[0] for e1 in energies]
    np.testing.assert_allclose(curve.sigma_total, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "taper_pitches, lead_pad_pitches", [(1.0, 0.0), (1.0, 1.0), (0.5, 2.0)]
)
def test_split_sweep_matches_whole_reference(taper_pitches, lead_pad_pitches):
    # kappa = 0.5 windows with a taper and lead padding: the sweep solves the
    # even and odd sectors apart and folds each one's screw run; rgf_smatrix
    # recurses over every slice on all modes at once
    o = helical_operator(
        pitches=4.0, taper_pitches=taper_pitches, lead_pad_pitches=lead_pad_pitches
    )
    assert o.screw is not None
    energies = np.array([0.4, 1.3, 2.2, 3.1, 4.3]) + VG
    curve = tr.energy_sweep(o, energies, record_l=2)
    assert curve.failures == [] and curve.solver["sectors"] == [7, 6]
    assert list(curve.n_open) == [1, 3, 3, 3, 5]
    for i, e1 in enumerate(energies):
        split = tr._solve(o, tr._sectors(o), o.lead_mode_set([e1]), Counter())
        whole = tr.rgf_smatrix(o, e1)
        for name, block in zip(("t", "r", "t_reverse", "r_reverse"), split):
            np.testing.assert_allclose(
                block[0], getattr(whole, name), rtol=0, atol=1e-10, err_msg=name
            )
    # sigma_{l', l} between the sectors (l' - l odd) is exactly 0
    rec = curve.recorded_modes
    across = (rec[:, None] - rec[None, :]) % 2 == 1
    assert np.all(curve.sigma_modes[:, across] == 0.0)
    assert np.all(curve.sigma_modes[-1, ~across] > 0.0)


def test_staircase_homogeneous():
    # analytic thresholds E_l = l^2/r^2: plateau integer heights 1 -> 3 -> 5
    o = homogeneous_operator(l_max=3, include_vg=False)
    energies = tr.sweep_energies(0.1, 4.5, 200, np.array([0.0, 1.0, 4.0]))
    curve = tr.energy_sweep(o, energies)
    exact = 1.0 * (energies > 0) + 2.0 * (energies > 1) + 2.0 * (energies > 4)
    away = np.min(
        np.abs(energies[:, None] - np.array([1.0, 4.0])[None, :]), axis=1
    ) >= 0.05
    assert np.max(np.abs(curve.sigma_total[away] - exact[away])) < 1e-6
    assert np.all(curve.sigma_total <= curve.n_open + 1e-9)
    assert np.all(np.isnan(curve.p_lz) | (np.abs(curve.p_lz) <= 1.0 + 1e-12))


def test_sweep_respects_channel_count_bound():
    o = helical_operator()
    energies = np.linspace(0.5, 3.95, 40) + VG
    curve = tr.energy_sweep(o, energies)
    finite = np.isfinite(curve.sigma_total)
    assert np.all(curve.sigma_total[finite] >= -1e-12)
    assert np.all(curve.sigma_total[finite] <= curve.n_open[finite] + 1e-9)
    assert np.nanmax(curve.unitarity) < 1e-8


def test_sweep_eps_to_zero_approaches_staircase():
    # deformation to the homogeneous staircase as the corrugation vanishes
    basis = op.ChannelBasis(l_max=6, radius=1.0)
    pitch = 2 * np.pi / 8.0
    e_rel = np.concatenate([np.linspace(0.3, 0.85, 6), np.linspace(1.2, 3.7, 12)])
    exact = 1.0 * (e_rel > 0) + 2.0 * (e_rel > 1) + 2.0 * (e_rel > 4)
    devs = []
    for eps in (0.05, 0.02, 0.01):
        prof = cf.helical_profile(eps, 8.0, 1.0, radius=1.0, ditch_count=2)
        o = op.assemble_coupled_channel(
            prof, WELL, basis, length=8 * pitch, dz=0.03, taper=pitch
        )
        sig = np.array(
            [tr.conductance(tr.rgf_smatrix(o, e + VG))[0] for e in e_rel]
        )
        devs.append(np.max(np.abs(sig - exact)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.5


def test_sweep_flags_thresholds_and_continues():
    o = helical_operator(pitches=4.0)
    energies = np.array([1.0, 2.0]) + VG  # first point exactly on a threshold
    with pytest.warns(ThresholdProximityWarning):
        curve = tr.energy_sweep(o, energies)
    assert curve.failures == []
    assert bool(curve.threshold_flags[0]) is True
    assert bool(curve.threshold_flags[1]) is False
    assert np.all(np.isfinite(curve.sigma_total))


def test_sweep_parallel_matches_serial_bitwise(monkeypatch):
    # the blocks are solved on threads: two workers must match one without
    # forking or starting a process
    o = helical_operator(pitches=4.0, l_max=4)
    energies = np.linspace(0.8, 3.0, 8) + VG
    serial = tr.energy_sweep(o, energies, workers=1)

    def no_process(*args, **kwargs):
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(os, "fork", no_process)
    # multiprocessing.Process.start, for every start method
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    parallel = tr.energy_sweep(o, energies, workers=2)
    np.testing.assert_array_equal(serial.sigma_total, parallel.sigma_total)
    np.testing.assert_array_equal(serial.p_lz, parallel.p_lz)
    np.testing.assert_array_equal(serial.sigma_modes, parallel.sigma_modes)
    assert parallel.solver == serial.solver


def per_point_columns(s, pair, record_l):
    """One point's sweep columns, mapped entry by entry from the single-energy
    S-matrix: the conductance table loop and the record_l window fill."""
    sig = np.zeros((2 * record_l + 1, 2 * record_l + 1))
    for ci, l_in in enumerate(s.open_modes):
        for ri, l_out in enumerate(s.open_modes):
            if abs(l_in) <= record_l and abs(l_out) <= record_l:
                sig[l_in + record_l, l_out + record_l] = np.abs(s.t[ri, ci]) ** 2
    try:
        p = tr.polarization(s, pair=pair, side="right")
    except UndefinedPolarizationError:
        p = np.nan
    return {
        "sigma_total": tr.conductance(s)[0],
        "sigma_modes": sig,
        "p_lz": p,
        "n_open": s.n_open,
        "unitarity": s.unitarity_residual(),
        "reciprocity": s.reciprocity_residual(),
        "flux_error": s.flux_error(),
        "threshold_flags": s.threshold_flag,
    }


@pytest.mark.parametrize("record_l", [0, 2, 6])
def test_sweep_columns_match_per_point_mapping(record_l):
    # stacked observables against the single-energy API on the same folded
    # blocks: no open channel, a threshold point, 3 and 5 open modes, and
    # record windows narrower and wider (6 > l_max) than the open set
    o = helical_operator(pitches=4.0, l_max=4)
    energies = np.array([-0.3, 0.4, 1.0, 1.9, 2.8, 4.05, 4.3]) + VG
    with pytest.warns(ThresholdProximityWarning):
        curve = tr.energy_sweep(o, energies, pair=1, record_l=record_l)
        points = [tr._leads(o, e1) for e1 in energies]
    assert curve.failures == []
    assert list(curve.n_open) == [0, 1, 1, 3, 3, 5, 5]
    assert list(curve.threshold_flags) == [False, False, True] + [False] * 4
    for i, (leads, flag) in enumerate(points):
        leads_i = o.lead_mode_set([energies[i]])
        blocks = [b[0] for b in tr._solve(o, tr._sectors(o), leads_i, Counter())]
        s = tr.SMatrix(energies[i], leads.open_modes, *blocks, bool(flag))
        for name, ref in per_point_columns(s, 1, record_l).items():
            np.testing.assert_allclose(
                getattr(curve, name)[i], ref, rtol=0, atol=1e-15, err_msg=name
            )
    assert curve.sigma_total[0] == 0.0 and np.all(curve.sigma_modes[0] == 0.0)
    assert np.isnan(curve.p_lz[0])
    assert curve.unitarity[0] == curve.reciprocity[0] == curve.flux_error[0] == 0.0


def sparse_scattering_solution(o, leads):
    """The scattering state on every slice by one sparse direct solve of the
    whole device, (E - H - Sigma) psi = Q with Sigma on the two end slices:
    the reference that is independent of the slice recursion.

    Returns (open_idx, psi): psi has shape (n_slices, n_modes, 2 * n_open),
    its first n_open columns are unit-amplitude injection from the left in
    the order of the open modes, the rest injection from the right.
    """
    sigma = tr.lead_self_energy(leads)
    idx = np.flatnonzero(leads.open_mask)
    n_sl, n, k = o.n_slices, o.n_modes, idx.size
    diag = np.full(n_sl * n, leads.e1, dtype=complex)
    diag[:n] -= sigma
    diag[-n:] -= sigma
    rhs = np.zeros((n_sl * n, 2 * k), dtype=complex)
    amp = tr._injection_amplitudes(leads.bloch[idx], leads.velocity[idx], o.dz)
    rhs[idx, np.arange(k)] = amp
    rhs[(n_sl - 1) * n + idx, k + np.arange(k)] = amp
    lu = splu((sparse.diags(diag) - o.sparse()).tocsc())
    return idx, lu.solve(rhs).reshape(n_sl, n, 2 * k)


def test_batched_smatrix_matches_sparse_solve():
    # forward-only corner recursion against the sparse direct solve of the
    # whole device, on a grid from below the band bottom (no open channel)
    # across the l = 1 and l = 2 thresholds
    o = helical_operator(pitches=4.0)
    e_rel = np.array([-0.3, 0.4, 0.97, 1.03, 1.9, 2.8, 3.96, 4.05, 4.3])
    n_open = []
    for e1 in e_rel + VG:
        s = tr.rgf_smatrix(o, e1)
        leads, _ = tr._leads(o, e1)
        idx, psi = sparse_scattering_solution(o, leads)
        # psi = G Q: dividing out the sources leaves the open-channel corners
        bloch, velocity = leads.bloch[None, idx], leads.velocity[None, idx]
        amps = tr._injection_amplitudes(bloch, velocity, o.dz)
        g = psi[[0, -1]][:, idx] / np.tile(amps, 2)
        k = idx.size
        corners = tr._Corners(g[0, :, :k], g[0, :, k:], g[1, :, :k], g[1, :, k:])
        ref = tr._boundary_blocks(
            bloch, velocity, tr._Corners(*(c[None] for c in corners)), o.dz
        )
        np.testing.assert_array_equal(s.open_modes, o.basis.modes[idx])
        for name, block in zip(("t", "r", "t_reverse", "r_reverse"), ref):
            np.testing.assert_allclose(
                getattr(s, name), block[0], rtol=0, atol=1e-12
            )
        n_open.append(s.n_open)
    assert n_open == [0, 1, 1, 3, 3, 3, 3, 5, 5]


def test_sweep_results_independent_of_chunking():
    # the reference is one single-point sweep per energy: the fold makes the
    # sweep differ from the explicit rgf_smatrix at the 1e-12 level, but every
    # point must come out bit for bit the same in any block or thread; 8
    # workers are more threads than blocks and cores, and the short switch
    # interval makes them interleave as often as the interpreter allows
    o = helical_operator(pitches=4.0, l_max=4)
    energies = np.linspace(-0.2, 4.2, 11) + VG
    points = [tr.energy_sweep(o, [e1]) for e1 in energies]
    solvers = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 8):
            curve = tr.energy_sweep(o, energies, workers=workers)
            assert curve.failures == []
            for name in ("sigma_total", "sigma_modes", "p_lz"):
                per_point = np.concatenate([getattr(p, name) for p in points])
                np.testing.assert_array_equal(getattr(curve, name), per_point)
            solvers.append(curve.solver)
    finally:
        sys.setswitchinterval(interval)
    # the blocks do not depend on the worker count, so neither does the work
    assert solvers[0] == solvers[1] == solvers[2] == solvers[3]
    solver = solvers[0]
    assert solver["path"] == "rgf-batched"
    assert solver["fallback_points"] == 0
    # the open-channel sets of the whole grid: 0, 1, 3 and 5 open modes
    assert solver["stacks"] == 4


def test_sweep_threshold_warning_reaches_caller_for_any_worker_count():
    # the sweep warns once for any worker count, in the calling thread,
    # naming every flagged energy
    o = helical_operator(pitches=4.0, l_max=4)
    energies = np.array([0.5, 1.0, 2.0, 3.0, 4.0]) + VG  # 1 and 4: thresholds
    recorded = []
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            curve = tr.energy_sweep(o, energies, workers=workers)
        assert list(curve.threshold_flags) == [False, True, False, False, True]
        recorded.append([(w.category, str(w.message)) for w in caught])
    assert recorded[0] == recorded[1]
    [(category, message)] = recorded[0]
    assert category is ThresholdProximityWarning
    assert f"E1 = {float(energies[1])!r}, {float(energies[4])!r} within" in message


def test_fold_exact_at_eigenvalues_of_the_isolated_run():
    # at an eigenvalue of the isolated screw run its bare Green's function is
    # singular; the dressed segments of the fold never invert it
    o = helical_operator(pitches=2.0, l_max=4, taper_pitches=0.0)
    n, run = o.n_modes, o.screw
    assert (run.start, run.stop) == (1, o.n_slices - 1)
    h = o.sparse().toarray()[run.start * n : run.stop * n, run.start * n : run.stop * n]
    eigs = np.linalg.eigvalsh(h)
    eigs = eigs[(eigs > VG + 0.05) & (eigs < VG + 4.4)]
    assert eigs.size >= 3
    for e1 in eigs:
        folded = tr._solve(o, tr._sectors(o), o.lead_mode_set([e1]), Counter())
        explicit = tr.rgf_smatrix(o, e1)
        for name, block in zip(("t", "r", "t_reverse", "r_reverse"), folded):
            np.testing.assert_allclose(
                block[0], getattr(explicit, name), rtol=0, atol=1e-10
            )


def skewed_operator(skew):
    """A two-ditch helical window whose ditch is skewed by ``skew``:
    s = 1 - eps (0.35 cos phi + skew sin 2 phi + 0.5), phi = m_d theta - k_z z.
    It is screw invariant at any skew, and mirror symmetric (theta -> -theta,
    so l -> -l in the screw frame) only at skew 0."""
    eps, m_d, kz = 0.1, 2, 4.0

    def s(theta, z):
        phi = m_d * theta - kz * z
        return 1.0 - eps * (0.35 * np.cos(phi) + skew * np.sin(2 * phi) + 0.5)

    pitch = 2.0 * np.pi / kz
    prof = cf.ConfinementProfile(
        s=s, epsilon=eps, kind="helical",
        params={"m_d": m_d, "z_wavenumber": kz}, z_period=pitch,
    )
    basis = op.ChannelBasis(l_max=6, radius=1.0)
    return op.assemble_coupled_channel(
        prof, WELL, basis, length=4.0 * pitch, dz=0.04, taper=pitch
    )


def test_fold_squares_through_the_mirror_only_where_the_run_has_it(monkeypatch):
    # the skewed run's cell is not its own mirror image, so its squarings go
    # through _join: the split of _square is off by 0.12 on it
    squarings = []

    def spy(*args):
        squarings.append(args)
        return square(*args)

    square = tr._square
    monkeypatch.setattr(tr, "_square", spy)
    energies = np.array([0.4, 1.3, 2.2, 3.1, 4.3]) + VG
    for skew, mirrored in ((0.0, True), (0.15, False)):
        o = skewed_operator(skew)
        assert o.screw is not None and len(tr._sectors(o)) == 2
        assert o.screw.mirror is mirrored
        squarings.clear()
        for e1 in energies:
            folded = tr._solve(o, tr._sectors(o), o.lead_mode_set([e1]), Counter())
            explicit = tr.rgf_smatrix(o, e1)
            for name, block in zip(("t", "r", "t_reverse", "r_reverse"), folded):
                np.testing.assert_allclose(
                    block[0], getattr(explicit, name), rtol=0, atol=1e-10,
                    err_msg=f"skew {skew}, E1 {e1}, {name}",
                )
        assert bool(squarings) == mirrored


def _forged_entry(o, e1, channel=0):
    """The slice-0 entry e1 - onsite of a channel, as the complex value that
    _corner_recursion reads back as b^2 (Sigma / b^2)."""
    return np.complex128(e1 - o.onsite[0][channel, channel])


def round_trip_energy(o, e1):
    """e1 nudged up by ulps until the forged entry of forged_self_energy
    survives the b^2 (Sigma / b^2) round trip exactly."""
    b2 = o.hop**2
    while b2 * (_forged_entry(o, e1) / b2) != _forged_entry(o, e1):
        e1 = np.nextafter(e1, np.inf)
    return e1


def forged_self_energy(o, bad_e1, fault, channel=0):
    """lead_self_energy with a fault at the energy bad_e1 of a stack: it
    raises, or it makes the first slice block exactly singular there by
    cancelling the entry of ``channel``, the first one by default (the first
    on-site block of ``o`` must be diagonal, as with lead padding or a
    homogeneous profile).  A solve meets the singular block only in the
    sector that holds ``channel``."""
    # a forged value that does not round-trip leaves a nearly singular block
    # that inverts without error
    b2 = o.hop**2
    entry = _forged_entry(o, bad_e1, channel)
    assert fault == "self_energy" or b2 * (entry / b2) == entry
    real_self_energy = tr.lead_self_energy

    def faulty_self_energy(leads):
        sigma = real_self_energy(leads)
        bad = np.asarray(leads.e1) == bad_e1
        if np.any(bad) and fault == "self_energy":
            raise NumericalError("forged self-energy failure")
        sigma[bad, channel] = entry
        return sigma

    return faulty_self_energy


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", ["singular_block", "self_energy"])
def test_sweep_point_failure_is_isolated(monkeypatch, fault, workers):
    # clean lead padding makes the first on-site block diagonal, so a forged
    # self-energy can make that block exactly singular at one energy
    o = helical_operator(pitches=4.0, l_max=4, lead_pad_pitches=0.5)
    energies = np.linspace(0.4, 3.6, 9) + VG
    bad = 5
    energies[bad] = round_trip_energy(o, energies[bad])
    clean = tr.energy_sweep(o, energies)
    faulty_self_energy = forged_self_energy(o, energies[bad], fault)
    monkeypatch.setattr(tr, "lead_self_energy", faulty_self_energy)
    curve = tr.energy_sweep(o, energies, workers=workers)
    assert [f["index"] for f in curve.failures] == [bad]
    if fault == "singular_block":
        assert "slice 0 inversion failed" in curve.failures[0]["error"]
        assert curve.solver["fallback_points"] > 1
    ok = np.arange(energies.size) != bad
    assert np.isnan(curve.sigma_total[bad])
    for name in ("sigma_total", "sigma_modes", "p_lz", "unitarity", "flux_error"):
        np.testing.assert_array_equal(
            getattr(curve, name)[ok], getattr(clean, name)[ok]
        )


@pytest.mark.parametrize("fault", ["singular_block", "self_energy"])
def test_singular_block_falls_back_alone(monkeypatch, fault):
    # one stack of 8 more energies than a block holds, with three open
    # channels: two blocks form; a forged fault at one point (a singular
    # block, or a raised self-energy) re-solves its own block only
    o = helical_operator(pitches=4.0, l_max=4, lead_pad_pitches=0.5)
    energies = np.linspace(1.1, 3.9, tr._ENERGY_BLOCK + 8) + VG
    bad = 5
    energies[bad] = round_trip_energy(o, energies[bad])
    clean = tr.energy_sweep(o, energies)
    assert set(clean.n_open) == {3}
    faulty_self_energy = forged_self_energy(o, energies[bad], fault)
    monkeypatch.setattr(tr, "lead_self_energy", faulty_self_energy)
    curve = tr.energy_sweep(o, energies)
    assert [f["index"] for f in curve.failures] == [bad]
    assert curve.solver["fallback_points"] == tr._ENERGY_BLOCK == 128
    ok = np.arange(energies.size) != bad
    for name in ("sigma_total", "sigma_modes", "p_lz", "unitarity", "flux_error"):
        np.testing.assert_array_equal(
            getattr(curve, name)[ok], getattr(clean, name)[ok]
        )


def test_rgf_smatrix_reports_singular_block(monkeypatch):
    # dz = 2^-5 makes b^2 = 2^20, so every forged entry round-trips exactly
    o = homogeneous_operator(dz=2**-5, length=2.0)
    monkeypatch.setattr(
        tr, "lead_self_energy", forged_self_energy(o, 2.0, "singular_block")
    )
    with pytest.raises(NumericalError, match="slice 0"):
        tr.rgf_smatrix(o, 2.0)


def test_plateau_running_to_the_last_point():
    e_rel = np.arange(12) * 0.1
    sigma = np.array([0.5, 0.6] + [2.01] * 10)
    assert tr.detect_plateaus(e_rel, sigma, min_points=10) == [
        {"level": 2, "e1_rel_start": e_rel[2], "e1_rel_end": e_rel[-1], "points": 10}
    ]


def test_plateau_split_by_nan_point():
    sigma = np.full(21, 1.0)
    sigma[10] = np.nan
    e_rel = np.arange(21) * 0.1
    plateaus = tr.detect_plateaus(e_rel, sigma, min_points=10)
    assert [(p["e1_rel_start"], p["points"]) for p in plateaus] == [
        (0.0, 10),
        (e_rel[11], 10),
    ]
    assert tr.detect_plateaus(e_rel, sigma, min_points=11) == []


def test_plateau_one_point_short_is_dropped():
    e_rel = np.arange(13) * 0.1
    sigma = np.array([0.5] + [3.0] * 9 + [0.5] * 3)
    assert tr.detect_plateaus(e_rel, sigma, min_points=10) == []
    assert [p["points"] for p in tr.detect_plateaus(e_rel, sigma, min_points=9)] == [9]


@pytest.mark.parametrize("e_min, e_max", [(1.0, 1.0), (2.0, 1.0)])
def test_sweep_energies_reject_an_empty_range(e_min, e_max):
    with pytest.raises(ValueError, match="need e_max > e_min"):
        tr.sweep_energies(e_min, e_max, 11, np.array([0.5]))


def test_sweep_energies_stay_inside_range():
    # a threshold on the last point nudges it down instead of past e_max
    grid = tr.sweep_energies(0.0, 1.0, 11, np.array([1.0]))
    assert grid[-1] == pytest.approx(0.95, abs=1e-15)
    assert grid.min() >= 0.0 and grid.max() <= 1.0
    assert np.all(np.diff(grid) > 0)
    # grids that stay inside keep the upward nudge, bit for bit
    grid = tr.sweep_energies(0.0, 1.0, 11, np.array([0.5]))
    expected = np.linspace(0.0, 1.0, 11)
    expected[5] += 0.5 * 0.1
    np.testing.assert_array_equal(grid, expected)


@pytest.mark.parametrize(
    "e_min, e_max, n_points, thresholds",
    [
        (0.0, 4.0, 3, [0.0, 1.0, 4.0, 9.0]),  # half a step up from 0 is 1
        (0.0, 1.0, 2, [0.0, 1.0]),  # both ends nudged onto the midpoint
    ],
)
def test_sweep_energies_nudge_lands_clear_and_between_neighbours(
    e_min, e_max, n_points, thresholds
):
    grid = tr.sweep_energies(e_min, e_max, n_points, np.array(thresholds))
    assert np.min(np.abs(grid[:, None] - np.array(thresholds))) >= 1e-9
    assert np.all(np.diff(grid) > 0)
    assert grid.min() >= e_min and grid.max() <= e_max


def test_mode_cutoff_stability():
    # enlarging the basis by one coupling shell moves conductance < 1e-4
    for l_max in (6,):
        o1 = helical_operator(l_max=l_max, dz=0.03)
        o2 = helical_operator(l_max=l_max + 2, dz=0.03)
        for e_rel in (1.4, 2.2, 3.0):
            s1, _ = tr.conductance(tr.rgf_smatrix(o1, e_rel + VG))
            s2, _ = tr.conductance(tr.rgf_smatrix(o2, e_rel + VG))
            assert abs(s1 - s2) < 1e-4


def test_two_sigma_plateau_with_helical_profile():
    # the corrugation opens a ~2 sigma0 window inside the homogeneous 3-step
    o = helical_operator()
    e_rel = np.linspace(1.3, 2.9, 17)
    sig = np.array([tr.conductance(tr.rgf_smatrix(o, e + VG))[0] for e in e_rel])
    assert np.all(np.abs(sig - 2.0) < 0.15)
