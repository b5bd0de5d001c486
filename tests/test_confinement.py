"""Morphology profiles, transverse well, and the combined effective potential."""

import dataclasses

import numpy as np
import pytest

import qsurf
from qsurf import confinement as cf
from qsurf import geometry as geo
from qsurf.errors import ProfileError

E0_REFERENCE = 70.0  # transverse ground-state energy used by the studied setup


def paper_profile(kappa=1.0):
    return cf.helical_profile(0.1, 8.0, kappa, radius=1.0, ditch_count=2)


# ---------------------------------------------------------------------------
# helical profile
# ---------------------------------------------------------------------------


def test_helical_extrema():
    prof = paper_profile()
    # ditch center: m_d*theta - omega*kappa*z = 0 -> cos = 1 -> s = 1 - eps
    assert abs(prof(0.0, 0.0) - 0.9) < 1e-15
    # ridge: argument pi -> s = 1
    assert abs(prof(np.pi / 2, 0.0) - 1.0) < 1e-15


def test_epsilon_zero_gives_homogeneous():
    prof = cf.helical_profile(0.0, 8.0, 1.0)
    assert prof.kind == "homogeneous"
    theta = np.linspace(0, 2 * np.pi, 64)
    np.testing.assert_array_equal(prof(theta, theta), np.ones(64))


def test_helical_m_d_from_omega_radius():
    prof = cf.helical_profile(0.1, 8.0, 1.0, radius=1.0)
    assert prof.params["m_d"] == 8
    prof = cf.helical_profile(0.1, 3.0, 1.0, radius=2.0)
    assert prof.params["m_d"] == 6


def test_custom_profile_declares_harmonic_without_helix():
    prof = cf.custom_profile(lambda t, z: 1.0 - 0.05 * np.cos(3 * t), 0.05,
                             theta_harmonic=3)
    assert prof.kind == "custom"
    assert prof.theta_harmonic == 3
    assert cf.custom_profile(prof.s, 0.05).theta_harmonic is None


def test_helical_rejects_nonintegral_omega_radius():
    with pytest.raises(ProfileError):
        cf.helical_profile(0.1, 8.3, 1.0, radius=1.0)
    prof = cf.helical_profile(0.1, 8.3, 1.0, radius=1.0, round_omega=True)
    assert prof.params["m_d"] == 8


def test_helical_parameter_validation():
    with pytest.raises(ProfileError):
        cf.helical_profile(0.7, 8.0, 1.0)
    with pytest.raises(ProfileError):
        cf.helical_profile(-0.1, 8.0, 1.0)
    with pytest.raises(ProfileError):
        cf.helical_profile(0.1, 8.0, 1.0, ditch_count=3)
    with pytest.raises(ProfileError):
        cf.helical_profile(0.1, 0.2, 1.0, radius=1.0)  # rounds below 1


def test_paper_profile_dense_grid_oracle():
    # direct dense evaluation of the formula on a 256x256 grid
    eps, omega, kappa = 0.1, 8.0, 1.0
    prof = cf.helical_profile(eps, omega, kappa, radius=1.0, ditch_count=2)
    m_d = prof.params["m_d"]
    theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    z = np.linspace(0, 2 * np.pi / (omega * kappa), 256, endpoint=False)
    tt, zz = np.meshgrid(theta, z, indexing="ij")
    direct = 1.0 - eps * (0.5 * np.cos(m_d * tt - omega * kappa * zz) + 0.5)
    np.testing.assert_allclose(prof(tt, zz), direct, atol=1e-15)
    v_add = (direct - 1.0) * E0_REFERENCE
    assert abs(v_add.min() + eps * E0_REFERENCE) < 1e-12
    assert abs(v_add.max()) < 1e-12


def test_minima_lie_on_helices():
    prof = paper_profile(kappa=0.7)
    m_d, kz = prof.params["m_d"], prof.params["z_wavenumber"]
    z = np.linspace(0, 3.0, 50)
    theta_center = kz * z / m_d  # m_d*theta - kz*z = 0
    np.testing.assert_allclose(prof(theta_center, z), 1.0 - prof.epsilon, atol=1e-14)


def test_profile_periodic_in_theta():
    prof = paper_profile()
    z = np.linspace(0, 5, 40)
    np.testing.assert_allclose(
        prof(np.zeros_like(z), z), prof(np.full_like(z, 2 * np.pi), z), atol=1e-12
    )


# ---------------------------------------------------------------------------
# transverse well
# ---------------------------------------------------------------------------


def test_ground_energy_passthrough():
    # E0 is the one number of the well, and the morphology term reads it as is
    well = cf.TransverseWell(e0=E0_REFERENCE)
    assert [f.name for f in dataclasses.fields(well)] == ["e0"]
    v = cf.add_morphology(0.0, paper_profile(), well, 0.0, 0.0)
    assert v == (0.9 - 1.0) * E0_REFERENCE


def test_well_validation():
    with pytest.raises(TypeError):
        cf.TransverseWell()
    with pytest.raises(TypeError):  # no second spelling: E0 = omega/2 is the caller's
        cf.TransverseWell(omega=140.0)
    with pytest.raises(ProfileError):
        cf.TransverseWell(e0=0.0)
    with pytest.raises(ProfileError):
        cf.TransverseWell(e0=-1.0)
    assert not hasattr(qsurf, "transverse_ground_energy")
    assert not hasattr(cf, "transverse_ground_energy")


# ---------------------------------------------------------------------------
# effective potential
# ---------------------------------------------------------------------------


def test_effective_potential_ditch_center():
    chart = geo.cylinder_chart(radius=1.0)
    well = cf.TransverseWell(e0=70.0)
    v = cf.effective_potential(paper_profile(), well, chart, (0.0, 0.0))
    assert abs(v - (-0.25 + (0.9 - 1.0) * 70.0)) < 1e-12  # -7.25 e0


def test_effective_potential_homogeneous_limit():
    chart = geo.cylinder_chart(radius=1.0)
    well = cf.TransverseWell(e0=70.0)
    v = cf.effective_potential(cf.homogeneous_profile(), well, chart, (0.0, 0.0))
    assert abs(v + 0.25) < 1e-13


def test_effective_potential_grid_extrema_oracle():
    # dense grid scan: max equals V_g, min equals V_g - eps*E0
    chart = geo.cylinder_chart(radius=1.0)
    well = cf.TransverseWell(e0=70.0)
    prof = paper_profile()
    theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    z = np.linspace(0, prof.z_period, 128, endpoint=False)
    tt, zz = np.meshgrid(theta, z, indexing="ij")
    v = cf.effective_potential(prof, well, chart, (tt, zz))
    assert abs(v.max() - (-0.25)) < 1e-10
    assert abs(v.min() - (-0.25 - 0.1 * 70.0)) < 1e-10


def test_inhomogeneity_bound_and_depth():
    prof = paper_profile()
    e0 = 70.0
    theta = np.linspace(0, 2 * np.pi, 200)
    z = np.linspace(0, 3, 200)
    tt, zz = np.meshgrid(theta, z, indexing="ij")
    v_add = (prof(tt, zz) - 1.0) * e0
    assert np.max(np.abs(v_add)) <= prof.epsilon * e0 + 1e-12
    depth = -v_add.min()
    assert depth / e0 == pytest.approx(prof.epsilon, abs=1e-15)
    assert depth == pytest.approx(7.0, abs=1e-12)  # large next to the 4 e0 window


def test_helical_symmetry_along_ditch_lines():
    # V_eff constant along m_d*theta - omega*kappa*z = const
    chart = geo.cylinder_chart(radius=1.0)
    well = cf.TransverseWell(e0=70.0)
    prof = paper_profile(kappa=0.7)
    m_d, kz = prof.params["m_d"], prof.params["z_wavenumber"]
    rng = np.random.default_rng(8)
    for const in rng.uniform(0, 2 * np.pi, 5):
        z = np.linspace(0.0, 4.0, 60)
        theta = (const + kz * z) / m_d
        v = cf.effective_potential(prof, well, chart, (theta, z))
        assert np.max(np.abs(v - v[0])) < 1e-12


def test_linearity_in_e0():
    chart = geo.cylinder_chart(radius=1.0)
    prof = paper_profile()
    rng = np.random.default_rng(9)
    theta = rng.uniform(0, 2 * np.pi, 30)
    z = rng.uniform(0, 5, 30)
    v1 = cf.effective_potential(prof, cf.TransverseWell(e0=70.0), chart, (theta, z))
    v2 = cf.effective_potential(prof, cf.TransverseWell(e0=140.0), chart, (theta, z))
    np.testing.assert_allclose(
        v2 - v1, (prof(theta, z) - 1.0) * 70.0, rtol=0, atol=1e-12
    )


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

CYL_DOMAIN = ((0.0, 2 * np.pi), (0.0, 4.0))


def test_validate_accepts_helical():
    cf.validate_profile(paper_profile(), CYL_DOMAIN)


def test_validate_rejects_undeclared_deviation():
    bad = cf.custom_profile(lambda t, z: 1.0 + 0.3 * np.sin(t), epsilon=0.1)
    with pytest.raises(ProfileError):
        cf.validate_profile(bad, CYL_DOMAIN)


def test_validate_rejects_nonpositive():
    bad = cf.custom_profile(lambda t, z: np.cos(t) - 0.5, epsilon=2.0)
    with pytest.raises(ProfileError):
        cf.validate_profile(bad, CYL_DOMAIN)


def test_validate_rejects_aperiodic():
    bad = cf.custom_profile(lambda t, z: 1.0 + 0.01 * t, epsilon=0.1)
    with pytest.raises(ProfileError):
        cf.validate_profile(bad, CYL_DOMAIN)


def test_validate_rejects_discontinuous():
    bad = cf.custom_profile(
        lambda t, z: np.where(np.cos(t) > 0.0, 1.05, 0.95), epsilon=0.08
    )
    with pytest.raises(ProfileError):
        cf.validate_profile(bad, CYL_DOMAIN)
