"""Coupled-channel assembly, Fourier couplings, lead modes, and the 2D operator."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.linalg import block_diag

from qsurf import cli
from qsurf import config as cfgmod
from qsurf import confinement as cf
from qsurf import geometry as geo
from qsurf import operator as op
from qsurf.errors import NumericalError, ResolutionError

WELL = cf.TransverseWell(e0=70.0)


def helical(eps=0.1, omega=8.0, kappa=0.5):
    return cf.helical_profile(eps, omega, kappa, radius=1.0, ditch_count=2)


# ---------------------------------------------------------------------------
# fourier couplings
# ---------------------------------------------------------------------------


def test_couplings_homogeneous_are_zero():
    basis = op.ChannelBasis(l_max=3)
    v = op.fourier_couplings(cf.homogeneous_profile(), WELL, basis, 0.7)
    assert np.all(v == 0.0)


def test_couplings_helical_structure():
    basis = op.ChannelBasis(l_max=4)
    prof = helical()
    kz = prof.params["z_wavenumber"]
    z = 0.37
    v = op.fourier_couplings(prof, WELL, basis, z)
    modes = basis.modes
    for i, li in enumerate(modes):
        for j, lj in enumerate(modes):
            d = li - lj
            if d == 0:
                assert v[i, j] == pytest.approx(-0.5 * 0.1 * 70.0, abs=1e-12)
            elif d == 2:
                # e^{+i m_d theta} term carries phase e^{-i omega kappa z}
                assert v[i, j] == pytest.approx(
                    -0.25 * 0.1 * 70.0 * np.exp(-1j * kz * z), abs=1e-12
                )
            elif d == -2:
                assert v[i, j] == pytest.approx(
                    -0.25 * 0.1 * 70.0 * np.exp(+1j * kz * z), abs=1e-12
                )
            else:
                assert v[i, j] == 0.0
    assert np.max(np.abs(v - v.conj().T)) == 0.0


def test_couplings_match_adaptive_quadrature():
    # random smooth periodic profile against direct quadrature per entry
    rng = np.random.default_rng(12)
    coeff = rng.normal(size=3) * [0.02, 0.015, 0.01]
    phase = rng.uniform(0, 2 * np.pi, 3)

    def s(theta, z):
        theta = np.asarray(theta, float)
        out = 1.0 + np.zeros_like(theta * np.asarray(z, float))
        for m, (c, p) in enumerate(zip(coeff, phase), start=1):
            out = out + c * np.cos(m * theta + p + 0.3 * m * np.asarray(z, float))
        return out

    prof = cf.custom_profile(s, epsilon=0.06)
    basis = op.ChannelBasis(l_max=3)
    z0 = 0.91
    v = op.fourier_couplings(prof, WELL, basis, z0)
    e0 = 70.0
    for i, li in enumerate(basis.modes):
        for j, lj in enumerate(basis.modes):
            m = li - lj

            def integrand_re(t):
                return np.cos(m * t) * (s(t, z0) - 1.0) * e0

            def integrand_im(t):
                return -np.sin(m * t) * (s(t, z0) - 1.0) * e0

            re = quad(integrand_re, 0, 2 * np.pi, limit=200, epsabs=1e-13)[0]
            im = quad(integrand_im, 0, 2 * np.pi, limit=200, epsabs=1e-13)[0]
            exact = (re + 1j * im) / (2 * np.pi)
            assert abs(v[i, j] - exact) < 1e-10


# ---------------------------------------------------------------------------
# coupled-channel assembly
# ---------------------------------------------------------------------------


def test_homogeneous_operator_block_diagonal():
    basis = op.ChannelBasis(l_max=1, radius=1.0)
    o = op.assemble_coupled_channel(
        cf.homogeneous_profile(), WELL, basis, length=3.0, dz=0.05
    )
    offdiag = o.onsite.copy()
    idx = np.arange(basis.n_modes)
    offdiag[:, idx, idx] = 0.0
    assert np.all(offdiag == 0.0)
    # each channel is a free 1D lattice with offset l^2/r^2 + V_g
    diag = o.onsite[:, idx, idx].real
    expected = 2.0 / o.dz**2 + basis.modes**2 + basis.geometric_potential
    np.testing.assert_allclose(diag, np.broadcast_to(expected, diag.shape), rtol=1e-13, atol=0)


def test_block_bandwidth_equals_m_d():
    basis = op.ChannelBasis(l_max=6, radius=1.0)
    o = op.assemble_coupled_channel(helical(), WELL, basis, length=3.0, dz=0.05)
    inside = (o.z_nodes > 0) & (o.z_nodes < 3.0)
    blocks = o.onsite[inside]
    modes = basis.modes
    dist = np.abs(modes[:, None] - modes[None, :])
    assert np.all(blocks[:, dist > 2] == 0.0)
    assert np.any(blocks[:, dist == 2] != 0.0)


def test_onsite_blocks_hermitian():
    basis = op.ChannelBasis(l_max=6, radius=1.0)
    o = op.assemble_coupled_channel(helical(), WELL, basis, length=3.0, dz=0.05)
    herm = np.max(np.abs(o.onsite - np.conj(np.swapaxes(o.onsite, 1, 2))))
    assert herm < 1e-13
    full = op.closed_matrix(o)
    assert np.max(np.abs(full - full.conj().T)) < 1e-13


def test_sparse_matrix_layout():
    # on-site blocks on the block diagonal, hop * I between neighbouring
    # slices, nothing else
    basis = op.ChannelBasis(l_max=3, radius=1.0)
    o = op.assemble_coupled_channel(
        helical(), WELL, basis, length=1.0, dz=0.05, lead_pad=0.2
    )
    h = o.sparse()
    assert h.format == "csr"
    assert abs(h - h.conj().T).max() == 0.0
    neighbours = np.eye(o.n_slices, k=1) + np.eye(o.n_slices, k=-1)
    expected = block_diag(*o.onsite) + np.kron(neighbours, o.hop * np.eye(o.n_modes))
    np.testing.assert_array_equal(h.toarray(), expected)


def test_lead_padding_slices_are_clean():
    basis = op.ChannelBasis(l_max=4, radius=1.0)
    o = op.assemble_coupled_channel(
        helical(), WELL, basis, length=3.0, dz=0.05, lead_pad=1.0
    )
    outside = (o.z_nodes < 0) | (o.z_nodes > 3.0)
    assert np.count_nonzero(outside) == 2 * o.n_pad > 0
    blocks = o.onsite[outside]
    idx = np.arange(basis.n_modes)
    offdiag = blocks.copy()
    offdiag[:, idx, idx] = 0.0
    assert np.all(offdiag == 0.0)
    expected = 2.0 / o.dz**2 + basis.threshold(basis.modes)
    diag_lead = blocks[:, idx, idx].real
    np.testing.assert_allclose(diag_lead, np.broadcast_to(expected, diag_lead.shape), rtol=1e-13)
    assert np.all(blocks[:, idx, idx].imag == 0.0)


def test_taper_window_profile():
    basis = op.ChannelBasis(l_max=0, radius=1.0)
    prof = cf.constant_profile(1.05)
    o_abrupt = op.assemble_coupled_channel(prof, WELL, basis, length=4.0, dz=0.05)
    o_taper = op.assemble_coupled_channel(
        prof, WELL, basis, length=4.0, dz=0.05, taper=1.0
    )
    v_abrupt = o_abrupt.onsite[:, 0, 0].real - 2.0 / o_abrupt.dz**2
    v_taper = o_taper.onsite[:, 0, 0].real - 2.0 / o_taper.dz**2
    z = o_abrupt.z_nodes
    core = (z > 1.0) & (z < 3.0)
    np.testing.assert_allclose(v_taper[core], v_abrupt[core], atol=1e-12)
    edge = z < 1.0
    assert np.all(v_taper[edge] <= v_abrupt[edge] + 1e-12)
    assert v_taper[0] < v_abrupt[0]


# ---------------------------------------------------------------------------
# screw run of the helical window
# ---------------------------------------------------------------------------


def screw_operator(prof=None, length=4.0, taper=0.0, lead_pad=0.0, closed=False):
    basis = op.ChannelBasis(l_max=4, radius=1.0)
    return op.assemble_coupled_channel(
        prof or helical(), WELL, basis, length=length, dz=0.05, taper=taper,
        lead_pad=lead_pad, closed=closed,
    )


def test_screw_run_of_abrupt_window_spans_all_inner_slices():
    o = screw_operator()
    assert o.screw == op.ScrewRun(q=helical().params["z_wavenumber"] / 2, start=1,
                                  stop=o.n_slices - 1, mirror=True)
    run = slice(o.screw.start, o.screw.stop)
    w = o.screw.gauge(o.basis.modes, o.z_nodes[run])
    rotated = w.conj()[:, :, None] * o.onsite[run] * w[:, None, :]
    assert np.max(np.abs(rotated - rotated[0])) <= 1e-12 * np.max(np.abs(o.onsite))
    # the unrotated blocks do change along the run
    assert np.max(np.abs(o.onsite[run] - o.onsite[o.screw.start])) > 1.0


def test_screw_run_covers_the_full_weight_slices():
    o = screw_operator(taper=1.0, lead_pad=0.5)
    z = o.z_nodes
    full = np.flatnonzero((z >= 1.0) & (z <= 3.0))
    assert (o.screw.start, o.screw.stop) == (full[0], full[-1] + 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: screw_operator(taper=2.0),  # 2*taper == length
        lambda: screw_operator(prof=cf.custom_profile(
            lambda t, z: 1.0 - 0.05 * (1.0 + np.cos(2.0 * t - 4.0 * z)), 0.1,
            theta_harmonic=2)),
        lambda: screw_operator(prof=cf.homogeneous_profile()),
        lambda: screw_operator(closed=True),
        lambda: screw_operator(length=0.1),  # two slices: no inner run
    ],
    ids=["taper-fills-window", "custom", "homogeneous", "closed", "too-short"],
)
def test_no_screw_run_recorded(build):
    assert build().screw is None


def test_broken_screw_invariance_records_no_run():
    # a helical record whose blocks are not screw-invariant (wrong q)
    prof = helical()
    fake = cf.ConfinementProfile(
        s=prof.s, epsilon=prof.epsilon, kind="helical",
        params={**prof.params, "z_wavenumber": 1.1 * prof.params["z_wavenumber"]},
        z_period=prof.z_period,
    )
    assert screw_operator(prof=fake).screw is None


def test_resolution_guard_messages():
    basis = op.ChannelBasis(l_max=2, radius=1.0)
    with pytest.raises(ResolutionError, match="need dz <="):
        op.assemble_coupled_channel(
            cf.homogeneous_profile(), WELL, basis, length=3.0, dz=0.2, e1_max=4.0
        )
    with pytest.raises(ResolutionError, match="pitch"):
        op.assemble_coupled_channel(helical(), WELL, basis, length=3.0, dz=0.15)


def test_required_dz_rules():
    basis = op.ChannelBasis(l_max=2, radius=1.0)
    prof = helical()
    dz = op.required_dz(4.0, basis, prof, WELL)
    assert dz <= 0.2 / np.sqrt(4.0 + 0.25 + 7.0) + 1e-12
    assert dz <= prof.z_period / 20 + 1e-12


def test_given_dz_is_checked_at_the_lead_band_bottom():
    # a given dz meets k_max dz <= 0.2 with k_max at the lead band bottom;
    # unlike required_dz, the check leaves out the ditch depth epsilon*E0
    basis = op.ChannelBasis(l_max=2, radius=1.0)
    prof, e1_max, n_z = helical(), 8.0, 40
    dz = 0.2 / np.sqrt(e1_max - basis.threshold(0))
    assert op.required_dz(e1_max, basis, prof, WELL) < dz / 1.3
    assert 1.01 * dz < prof.z_period / 20  # the pitch rule is not the one hit
    o = op.assemble_coupled_channel(
        prof, WELL, basis, length=n_z * dz, n_z=n_z, e1_max=e1_max
    )
    assert o.dz == pytest.approx(dz, rel=1e-15)
    with pytest.raises(ResolutionError, match="need dz <="):
        op.assemble_coupled_channel(
            prof, WELL, basis, length=n_z * 1.01 * dz, n_z=n_z, e1_max=e1_max
        )


# ---------------------------------------------------------------------------
# lead modes
# ---------------------------------------------------------------------------


def test_lead_modes_low_energy_only_l0():
    basis = op.ChannelBasis(l_max=2, radius=1.0, include_vg=False)
    leads = op.lead_modes(0.5, basis, dz=0.05)
    assert list(leads.open_modes) == [0]


def test_lead_modes_threshold_tie_is_evanescent():
    basis = op.ChannelBasis(l_max=2, radius=1.0, include_vg=False)
    leads = op.lead_modes(1.0, basis, dz=0.05)
    assert list(leads.open_modes) == [0]  # l = +-1 marginal, strict inequality


def test_lead_modes_include_vg_shifts_thresholds():
    for include_vg, n_open in ((False, 1), (True, 3)):
        basis = op.ChannelBasis(l_max=1, radius=1.0, include_vg=include_vg)
        assert op.lead_modes(0.8, basis, 0.05).n_open == n_open


def test_lattice_vs_continuum_dispersion():
    basis = op.ChannelBasis(l_max=0, radius=1.0, include_vg=False)
    for e1 in (0.5, 2.0, 4.0):
        dz = 0.2 / np.sqrt(e1)
        leads = op.lead_modes(e1, basis, dz)
        k_lat = leads.k[0].real
        k_cont = np.sqrt(e1)
        assert abs(k_lat - k_cont) / k_cont < 0.005


def test_lead_mode_branches():
    basis = op.ChannelBasis(l_max=2, radius=1.0, include_vg=False)
    leads = op.lead_modes(2.0, basis, dz=0.05)
    for i, l in enumerate(leads.modes):
        if leads.open_mask[i]:
            assert leads.velocity[i] > 0
            assert abs(abs(leads.bloch[i]) - 1.0) < 1e-14
        else:
            assert abs(leads.bloch[i]) < 1.0
            assert leads.k[i].imag > 0


# ---------------------------------------------------------------------------
# 2D operator
# ---------------------------------------------------------------------------


def _scalar_lead_branches(x, dz):
    """Per-channel reference formulas for (k, bloch, velocity, open)."""
    if -1.0 < x < 1.0:
        s = math.sqrt(1.0 - x * x)
        return complex(math.acos(x) / dz), complex(x, s), 2.0 * s / dz, True
    if x >= 1.0:
        return 1j * math.acosh(x) / dz, complex(x - math.sqrt(x * x - 1.0)), 0.0, False
    kap = math.acosh(-x) / dz
    return math.pi / dz + 1j * kap, complex(x + math.sqrt(x * x - 1.0)), 0.0, False


def test_lead_modes_match_scalar_formulas():
    for l_max, radius, dz in ((0, 1.0, 0.5), (3, 0.7, 0.05), (6, 1.0, 0.013)):
        basis = op.ChannelBasis(l_max=l_max, radius=radius, include_vg=False)
        offsets = (basis.modes / radius) ** 2
        energies = np.concatenate(
            [np.linspace(-2.0, 60.0, 157), offsets, [4.0 / dz**2 + 3.0]]
        )
        for e1 in energies:
            leads = op.lead_modes(float(e1), basis, dz)
            x = 1.0 - (e1 - offsets) * dz**2 / 2.0
            ref = [_scalar_lead_branches(float(xi), dz) for xi in x]
            np.testing.assert_allclose(leads.k, [r[0] for r in ref], rtol=1e-14, atol=0)
            np.testing.assert_array_equal(leads.bloch, [r[1] for r in ref])
            np.testing.assert_array_equal(leads.velocity, [r[2] for r in ref])
            np.testing.assert_array_equal(leads.open_mask, [r[3] for r in ref])
            assert np.all(np.abs(leads.bloch) <= 1.0 + 1e-15)
            closed = ~leads.open_mask
            assert np.all(np.abs(leads.bloch[closed]) <= 1.0)


def test_lead_modes_band_edges_exact():
    # dz = 0.5: x = cos(k dz) hits +1 at E1 = 1 for l = +-1 and -1 at E1 = 16
    # for l = 0; both ties are evanescent with |e^{ik dz}| = 1
    basis = op.ChannelBasis(l_max=1, radius=1.0, include_vg=False)
    bottom = op.lead_modes(1.0, basis, 0.5)
    np.testing.assert_array_equal(bottom.open_mask, [False, True, False])
    np.testing.assert_array_equal(bottom.bloch[[0, 2]], [1.0, 1.0])
    np.testing.assert_array_equal(bottom.k[[0, 2]], [0.0, 0.0])
    np.testing.assert_array_equal(bottom.velocity[[0, 2]], [0.0, 0.0])
    top = op.lead_modes(16.0, basis, 0.5)
    np.testing.assert_array_equal(top.open_mask, [True, False, True])
    assert top.bloch[1] == -1.0
    assert top.k[1] == np.pi / 0.5
    assert top.velocity[1] == 0.0


@pytest.mark.parametrize("include_vg", [False, True])
@pytest.mark.parametrize("dz", [0.5, 0.07])
def test_lead_modes_stacked_match_per_energy(dz, include_vg):
    # the grid holds every channel threshold (x = cos(k dz) = 1) and every top
    # band edge (x = -1, hit exactly at dz = 0.5, as above)
    basis = op.ChannelBasis(l_max=3, radius=1.0, include_vg=include_vg)
    offsets = basis.threshold(basis.modes)
    energies = np.concatenate(
        [np.linspace(-1.0, 30.0, 41), offsets, offsets + 4.0 / dz**2, [1.0, 16.0]]
    )
    x = 1.0 - (energies[:, None] - offsets) * dz**2 / 2.0
    assert np.any(x == 1.0)
    assert np.any(x == -1.0) or dz != 0.5
    stacked = op.lead_modes(energies, basis, dz)
    np.testing.assert_array_equal(stacked.e1, energies)
    for name in ("k", "bloch", "velocity", "open_mask"):
        assert getattr(stacked, name).shape == (energies.size, basis.n_modes), name
    for i, e1 in enumerate(energies):
        one = op.lead_modes(e1, basis, dz)
        assert one.e1 == e1 and isinstance(one.e1, float)
        for name in ("k", "bloch", "velocity", "open_mask"):
            np.testing.assert_array_equal(
                getattr(stacked, name)[i], getattr(one, name), err_msg=name
            )
        assert stacked.n_open[i] == one.n_open


def test_lowest_eigenvalues_need_a_shift_below_the_spectrum():
    # shift-invert returns the eigenvalues nearest sigma: the former default
    # sigma = -1 misses the bottom of a spectrum that reaches below -1
    h = sp.diags([-5.0, -4.0, -3.0, -2.2, -1.3, -0.6, 0.7, 1.5, 2.0, 3.0, 4.0, 5.0])
    h = h.tocsr()
    np.testing.assert_allclose(
        op.lowest_eigenvalues_2d(h, 3, sigma=-6.0), [-5.0, -4.0, -3.0]
    )
    np.testing.assert_allclose(
        op.lowest_eigenvalues_2d(h, 3, sigma=-1.0), [-2.2, -1.3, -0.6]
    )
    with pytest.raises(TypeError):
        op.lowest_eigenvalues_2d(h, 3)
    # a shift on an eigenvalue makes h - sigma exactly singular
    with pytest.raises(NumericalError, match="exactly singular"):
        op.lowest_eigenvalues_2d(h, 3, sigma=-5.0)


@pytest.mark.parametrize(
    "chart",
    [geo.cylinder_chart(radius=1.0, z_extent=(0.0, 2.0)), geo.torus_chart()],
    ids=["cylinder", "torus"],
)
def test_2d_curved_helical_spectrum_matches_dense(chart):
    # independent oracle for the factorised shift-invert: dense eigvalsh of
    # the same 960-node operator, helical ditches on a curved chart
    h, grid = op.assemble_2d(chart, profile=helical(), well=WELL, n1=32, n2=30)
    dense = np.linalg.eigvalsh(h.toarray())[:8]
    vals = op.lowest_eigenvalues_2d(h, 8, sigma=grid.v_min - 1.0)
    np.testing.assert_allclose(vals, dense, rtol=1e-10)


@pytest.mark.parametrize("k", [3, 4, 9])
def test_closed_eigenvalues_homogeneous_lattice_formula(k):
    # decoupled channels: E = (l/r)^2 + V_g + (4/h^2) sin^2(j pi / (2(n_z+1))).
    # l = +-1, +-2, +-3 are degenerate pairs; k = 4 and k = 9 cut through one
    n_z, length = 60, 2.0
    basis = op.ChannelBasis(l_max=3, radius=1.0)
    o = op.assemble_coupled_channel(
        cf.homogeneous_profile(), WELL, basis, length=length, n_z=n_z, closed=True
    )
    h = length / (n_z + 1)
    j = np.arange(1, n_z + 1)
    lattice = (4.0 / h**2) * np.sin(j * np.pi / (2 * (n_z + 1))) ** 2
    offsets = (basis.modes / basis.radius) ** 2 + basis.geometric_potential
    exact = np.sort((offsets[:, None] + lattice[None, :]).ravel())[:k]
    np.testing.assert_allclose(op.closed_eigenvalues(o, k), exact, rtol=1e-10)


def test_closed_eigenvalues_match_dense():
    # the lowest eigenvalue sits near 2.4, well away from zero, so the
    # relative tolerance is not eaten by the dense solver's round-off
    basis = op.ChannelBasis(l_max=4, radius=1.0)
    o = op.assemble_coupled_channel(
        helical(), WELL, basis, length=1.2, n_z=30, closed=True
    )
    dense = np.linalg.eigvalsh(op.closed_matrix(o))[:8]
    np.testing.assert_allclose(op.closed_eigenvalues(o, 8), dense, rtol=1e-10)


def test_2d_flat_box_spectrum():
    lx, ly = 1.0, 2.0
    chart = geo.plane_chart(extent=(lx, ly))
    h, grid = op.assemble_2d(chart, n1=200, n2=200)
    vals = op.lowest_eigenvalues_2d(h, 6, sigma=grid.v_min - 1.0)
    exact = np.array(
        sorted(
            np.pi**2 * (m**2 / lx**2 + n**2 / ly**2)
            for m in range(1, 5)
            for n in range(1, 5)
        )[:6]
    )
    assert np.max(np.abs(vals - exact) / exact) < 0.005


def _wavy_sheared_sheet(x, y):
    # non-orthogonal chart whose g^{12} varies from cell to cell
    x, y = np.asarray(x, float), np.asarray(y, float)
    z = 0.2 * np.sin(2.0 * x) * np.cos(y)
    return np.stack(np.broadcast_arrays(x + 0.3 * y, y, z), axis=-1)


def test_2d_matrix_exactly_symmetric():
    for chart in (
        geo.plane_chart(extent=(1.0, 1.0), shear=0.4),
        geo.sphere_chart(),
        geo.cylinder_chart(z_extent=(0.0, 3.0)),
        geo.torus_chart(),
        geo.from_position_map(_wavy_sheared_sheet, ((0.0, 1.0), (0.0, 1.5))),
    ):
        h, _ = op.assemble_2d(chart, n1=40, n2=40)
        assert abs(h - h.T).max() == 0.0


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (1, 1), (2, -3), (-5, 4), (6, 4)])
def test_2d_periodic_plane_waves_are_eigenvectors(m, n):
    # on a sheared flat torus the stencil, mixed term included, is the same at
    # every node, across both wraps too, so grid plane waves diagonalize it
    chart = geo.plane_chart(extent=(1.0, 1.3), shear=0.4)
    n1, n2 = 12, 9
    h, _ = op.assemble_2d(chart, n1=n1, n2=n2, bc=("periodic", "periodic"))
    i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    v = np.exp(2j * np.pi * (m * i / n1 + n * j / n2)).ravel()
    hv = h @ v
    rayleigh = np.vdot(v, hv) / np.vdot(v, v)
    assert np.max(np.abs(hv - rayleigh * v)) <= 1e-12 * abs(h).max()


def test_2d_sphere_spectrum_multiplets():
    # spherical-harmonic spectrum Lambda(Lambda+1), degeneracies 1, 3, 5;
    # checked at two grid resolutions, finer one well below 1% error
    errs = []
    for n1, n2 in ((60, 120), (120, 240)):
        h, grid = op.assemble_2d(geo.sphere_chart(radius=1.0), n1=n1, n2=n2)
        vals = op.lowest_eigenvalues_2d(h, 9, sigma=grid.v_min - 1.0)
        exact = np.array([0.0] + [2.0] * 3 + [6.0] * 5)
        assert abs(vals[0]) < 1e-8  # constant mode survives the pole closure
        errs.append(np.max(np.abs(vals[1:] - exact[1:]) / exact[1:]))
    assert errs[1] < 0.01
    assert errs[1] < errs[0]


def test_2d_mixed_metric_operator_action():
    # sheared flat chart: H f must converge to -Laplacian f at second order
    a = 20.0

    def exact_parts(n, grid):
        q1, q2 = np.meshgrid(grid.q1, grid.q2, indexing="ij")
        x = q1 + 0.4 * q2
        y = q2
        r2 = (x - 0.6) ** 2 + (y - 0.5) ** 2
        f = np.exp(-a * r2)
        lap = (-4 * a + 4 * a * a * r2) * f
        interior = (q1 > 0.15) & (q1 < 0.75) & (q2 > 0.2) & (q2 < 0.8)
        return f, lap, interior

    errs = []
    for n in (60, 120):
        chart = geo.plane_chart(extent=(1.0, 1.0), shear=0.4)
        h, grid = op.assemble_2d(chart, n1=n, n2=n)
        f, lap, interior = exact_parts(n, grid)
        got = (h @ f.ravel()).reshape(n, n)
        errs.append(np.max(np.abs(got + lap)[interior]))
    assert errs[0] / errs[1] > 3.0


@pytest.mark.parametrize(
    "chart, profile",
    [
        (geo.plane_chart(extent=(1.0, 2.0)), helical()),
        (geo.sphere_chart(radius=1.0), helical()),
        (geo.torus_chart(), helical()),
        (geo.catenoid_chart(), helical()),
        (geo.cylinder_chart(radius=1.0, z_extent=(0.0, 2.0)), None),
        (geo.cylinder_chart(radius=1.0, z_extent=(0.0, 2.0)), helical()),
    ],
    ids=["plane", "sphere", "torus", "catenoid", "cylinder", "helical-cylinder"],
)
def test_2d_floor_bounds_the_spectrum(chart, profile):
    # the line relaxations drop positive semidefinite terms, so the floor
    # lies between the potential minimum and the lowest dense eigenvalue
    h, grid = op.assemble_2d(chart, profile, WELL, n1=24, n2=24)
    lowest = np.linalg.eigvalsh(h.toarray())[0]
    assert grid.v_min <= grid.floor <= lowest + 1e-12 * max(1.0, abs(lowest))
    if profile is None:
        # the bare cylinder's ground state is constant in theta, so the lines
        # along z, with the walls kept, carry it exactly
        assert grid.floor == pytest.approx(lowest, rel=0, abs=1e-10)


def test_2d_floor_is_v_min_on_a_sheared_chart():
    # the mixed term has no sign, so no relaxation bounds H
    chart = geo.plane_chart(extent=(1.0, 1.0), shear=0.4)
    _, grid = op.assemble_2d(chart, helical(), WELL, n1=24, n2=24)
    assert np.float64(grid.floor).tobytes() == np.float64(grid.v_min).tobytes()


def test_2d_floor_shift_matches_potential_shift():
    # the shift just below the floor is the fast path; the shift one below
    # the potential minimum is the reference
    chart = geo.cylinder_chart(radius=1.0, z_extent=(0.0, 2.0))
    h, grid = op.assemble_2d(chart, helical(), WELL, n1=48, n2=48)
    assert grid.floor > grid.v_min + 1.0
    fast = op.lowest_eigenvalues_2d(
        h, 10, sigma=grid.floor - 1e-3 * max(1.0, abs(grid.floor))
    )
    reference = op.lowest_eigenvalues_2d(h, 10, sigma=grid.v_min - 1.0)
    np.testing.assert_allclose(fast, reference, rtol=1e-12, atol=0)


def test_closed_coupled_channel_matches_2d():
    # cross-method oracle: dense 2D grid diagonalization of the same cylinder
    length = 3.0
    prof = helical()
    basis = op.ChannelBasis(l_max=8, radius=1.0)
    n_z = 150
    occ = op.assemble_coupled_channel(
        prof, WELL, basis, length=length, n_z=n_z, closed=True
    )
    vals_cc = op.closed_eigenvalues(occ, 10)
    chart = geo.cylinder_chart(radius=1.0, z_extent=(0.0, length))
    h2, grid = op.assemble_2d(chart, profile=prof, well=WELL, n1=128, n2=n_z)
    vals_2d = op.lowest_eigenvalues_2d(h2, 10, sigma=grid.v_min - 1.0)
    rel = np.abs(vals_cc - vals_2d) / np.maximum(np.abs(vals_2d), 0.5)
    assert np.max(rel) < 0.005


def test_closed_segment_richardson_order():
    # eigenvalues converge at second order in dz
    length = 2.0
    prof = helical()
    basis = op.ChannelBasis(l_max=6, radius=1.0)

    def lowest(n_z):
        o = op.assemble_coupled_channel(
            prof, WELL, basis, length=length, n_z=n_z, closed=True
        )
        return op.closed_eigenvalues(o, 4)

    e1, e2, e3 = lowest(50), lowest(100), lowest(200)
    slopes = np.log2(np.abs(e1 - e2) / np.abs(e2 - e3))
    assert np.all(slopes > 1.8) and np.all(slopes < 2.2)


# ---------------------------------------------------------------------------
# chart evaluations per assembly
# ---------------------------------------------------------------------------


def counted(chart, calls):
    """The chart with its jacobian and hessian callbacks counting into calls."""

    def wrap(name):
        fn = getattr(chart, name)

        def counting(q1, q2):
            calls[name] += 1
            return fn(q1, q2)

        return counting

    return dataclasses.replace(
        chart, jacobian=wrap("jacobian"), hessian=wrap("hessian")
    )


@pytest.mark.parametrize(
    "chart, jacobians",
    [
        (geo.cylinder_chart(radius=1.0, z_extent=(0.0, 3.0)), 3),
        (geo.sphere_chart(radius=1.0), 3),
        (geo.plane_chart(shear=0.4), 4),
    ],
    ids=["cylinder", "sphere", "sheared-plane"],
)
def test_2d_assembly_evaluates_each_point_set_once(chart, jacobians):
    # nodes (measure and V_g from one curvature call), axis-1 faces, axis-2
    # faces, and the cell corners where the metric is not diagonal
    calls = {"jacobian": 0, "hessian": 0}
    op.assemble_2d(counted(chart, calls), n1=12, n2=10)
    assert calls == {"jacobian": jacobians, "hessian": 1}


def test_cmd_curvature_evaluates_chart_once(tmp_path, monkeypatch):
    calls = {"jacobian": 0, "hessian": 0}
    builtin = geo.builtin_chart
    monkeypatch.setattr(
        geo, "builtin_chart", lambda *a, **k: counted(builtin(*a, **k), calls)
    )
    path = tmp_path / "cfg.json"
    path.write_text(cfgmod.serialize(cfgmod.RunConfig()), encoding="utf-8")
    assert cli.main(["curvature", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert calls == {"jacobian": 1, "hessian": 1}


@pytest.mark.parametrize(
    "chart, profile",
    [
        (geo.cylinder_chart(radius=1.0, z_extent=(0.0, 3.0)), helical()),
        (geo.sphere_chart(radius=1.0), cf.homogeneous_profile()),
    ],
    ids=["helical-cylinder", "homogeneous-sphere"],
)
def test_2d_v_min_is_effective_potential_minimum(chart, profile):
    # the closed-system operator carries the effective potential of the
    # confinement module at its nodes, bit for bit
    _, grid = op.assemble_2d(chart, profile, WELL, n1=24, n2=30)
    nodes = np.meshgrid(grid.q1, grid.q2, indexing="ij")
    v = cf.effective_potential(profile, WELL, chart, nodes)
    assert np.float64(grid.v_min).tobytes() == np.min(v).tobytes()
