"""Curvature machinery against closed-form differential geometry."""

import numpy as np
import pytest

from qsurf import geometry as geo
from qsurf.errors import DomainError, SingularChartError, StepSizeError


def torus_closed_form(major, minor, u):
    """Independent closed-form torus curvatures at poloidal angle u
    (inward-normal convention of the default parametrization)."""
    w = major + minor * np.cos(u)
    k1 = -1.0 / minor
    k2 = -np.cos(u) / w
    return 0.5 * (k1 + k2), k1 * k2


def catenoid_closed_form(u):
    """Principal curvatures +-1/cosh^2(u) for the unit catenoid."""
    return 0.0, -1.0 / np.cosh(u) ** 4


ALL_CHARTS = [
    geo.cylinder_chart(radius=1.0),
    geo.cylinder_chart(radius=2.5),
    geo.sphere_chart(radius=1.0),
    geo.sphere_chart(radius=3.0),
    geo.torus_chart(major=2.0, minor=0.5),
    geo.catenoid_chart(),
]


def random_interior_points(chart, n, rng):
    (a1, b1), (a2, b2) = chart.domain
    pad1 = 0.0 if chart.periodic[0] else 0.1 * (b1 - a1)
    pad2 = 0.0 if chart.periodic[1] else 0.1 * (b2 - a2)
    q1 = rng.uniform(a1 + pad1, b1 - pad1, n)
    q2 = rng.uniform(a2 + pad2, b2 - pad2, n)
    return q1, q2


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_cylinder_arclength_is_identity():
    chart = geo.cylinder_chart(radius=1.0, arclength=True)
    g = geo.metric(chart, (0.7, 2.0))
    np.testing.assert_allclose(g, np.eye(2), atol=1e-14)


def test_metric_unit_sphere_equator_is_identity():
    chart = geo.sphere_chart(radius=1.0)
    g = geo.metric(chart, (np.pi / 2, 1.3))
    np.testing.assert_allclose(g, np.eye(2), atol=1e-14)


def test_metric_catenoid_fd_matches_closed_form():
    # oracle: g = diag(cosh^2 u, cosh^2 u); FD step swept, best agreement kept
    u = 0.3
    exact = np.cosh(u) ** 2 * np.eye(2)
    best = np.inf
    for frac in (1e-3, 1e-4, 1e-5):
        chart = geo.catenoid_chart().as_fd(
            fd_step=(frac * 4.0, frac * 2 * np.pi)
        )
        g = geo.metric(chart, (u, 1.1))
        best = min(best, np.max(np.abs(g - exact)))
    assert best <= 1e-8


def test_metric_positive_definite_everywhere():
    rng = np.random.default_rng(0)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 50, rng)
        g = geo.metric(chart, (q1, q2))
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        assert np.all(g[..., 0, 0] > 0) and np.all(det > 0)
        np.testing.assert_allclose(g[..., 0, 1], g[..., 1, 0], atol=1e-14)


def test_metric_outside_domain_raises():
    chart = geo.catenoid_chart(u_extent=(-2.0, 2.0))
    with pytest.raises(DomainError):
        geo.metric(chart, (2.5, 0.0))


def test_degenerate_map_raises_singular():
    chart = geo.from_position_map(
        lambda u, v: np.stack(np.broadcast_arrays(u, u, 0.0 * v), axis=-1),
        domain=((0.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(SingularChartError):
        geo.metric(chart, (0.5, 0.5))


def test_nan_position_raises_singular():
    # every comparison with NaN is false: the degenerate-metric test must not
    # let a NaN metric through as a regular one
    chart = geo.from_position_map(
        lambda u, v: np.stack(np.broadcast_arrays(u, v, np.nan * u), axis=-1),
        domain=((0.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(SingularChartError):
        geo.metric(chart, (0.5, 0.5))


def test_fd_step_underflow_raises():
    chart = geo.cylinder_chart().as_fd(fd_step=(1e-18, 1e-18))
    with pytest.raises(StepSizeError):
        geo.curvature(chart, (0.3, 1.0))


# ---------------------------------------------------------------------------
# curvature and the potential
# ---------------------------------------------------------------------------


def test_cylinder_curvature():
    for r in (1.0, 2.5):
        chart = geo.cylinder_chart(radius=r)
        c = geo.curvature(chart, (0.4, 1.2))
        assert abs(abs(c.mean) - 1.0 / (2 * r)) < 1e-13
        assert abs(c.gaussian) < 1e-13
        # orientation flag fixes the sign; magnitude never changes
        flipped = geo.curvature(chart.with_orientation(-1), (0.4, 1.2))
        assert abs(flipped.mean + c.mean) < 1e-13


def test_sphere_is_umbilic():
    for rr in (1.0, 3.0):
        chart = geo.sphere_chart(radius=rr)
        c = geo.curvature(chart, (1.1, 0.2))
        assert abs(abs(c.mean) - 1.0 / rr) < 1e-12
        assert abs(c.gaussian - 1.0 / rr**2) < 1e-12
        assert abs(c.mean**2 - c.gaussian) < 1e-12


def test_torus_outer_equator_closed_form():
    big, small = 2.0, 0.5
    m_exact, k_exact = torus_closed_form(big, small, 0.0)
    assert abs(k_exact - 0.8) < 1e-15  # K = 1/(rho (R + rho))
    chart = geo.torus_chart(major=big, minor=small)
    c = geo.curvature(chart, (0.0, 0.9))
    assert abs(c.mean - m_exact) < 1e-12
    assert abs(c.gaussian - k_exact) < 1e-12
    # finite-difference pipeline against the same closed form
    c_fd = geo.curvature(chart.as_fd(), (0.0, 0.9))
    assert abs(c_fd.mean - m_exact) / abs(m_exact) < 1e-6
    assert abs(c_fd.gaussian - k_exact) / abs(k_exact) < 1e-6


def test_weingarten_solves_defining_equation():
    # residual of d_a N = alpha_ab d_b r stays below 1e-8 on both paths
    rng = np.random.default_rng(10)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 10, rng)
        for variant in (chart, chart.as_fd(fd_step=(1e-5, 1e-5))):
            c = geo.curvature(variant, (q1, q2))
            jac = geo._jacobian(variant, q1, q2)
            h = 1e-5  # reference derivative of N, independent of the chart mode
            n_p1 = geo.unit_normal(variant, (q1 + h, q2))
            n_m1 = geo.unit_normal(variant, (q1 - h, q2))
            n_p2 = geo.unit_normal(variant, (q1, q2 + h))
            n_m2 = geo.unit_normal(variant, (q1, q2 - h))
            dn = np.stack(
                [(n_p1 - n_m1) / (2 * h), (n_p2 - n_m2) / (2 * h)], axis=-2
            )
            resid = dn - np.einsum("...ab,...ib->...ai", c.weingarten, jac)
            assert np.max(np.abs(resid)) < 1e-8


def test_weingarten_trace_det_consistency():
    rng = np.random.default_rng(1)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 20, rng)
        c = geo.curvature(chart, (q1, q2))
        tr = 0.5 * (c.weingarten[..., 0, 0] + c.weingarten[..., 1, 1])
        det = np.linalg.det(c.weingarten)
        np.testing.assert_allclose(c.mean, tr, rtol=0, atol=1e-14)
        np.testing.assert_allclose(c.gaussian, det, rtol=1e-13, atol=1e-14)
        assert np.all(c.mean**2 - c.gaussian >= -1e-12)


def test_geometric_potential_values():
    assert abs(geo.geometric_potential(geo.cylinder_chart(1.0), (0.2, 3.0)) + 0.25) < 1e-13
    assert abs(geo.geometric_potential(geo.sphere_chart(2.0), (0.8, 0.1))) < 1e-12
    # catenoid waist: principal curvatures +-1 -> V_g = -1
    m, k = catenoid_closed_form(0.0)
    assert abs(geo.geometric_potential(geo.catenoid_chart(), (0.0, 0.5)) - (-(m**2 - k))) < 1e-12
    assert abs(geo.geometric_potential(geo.catenoid_chart(), (0.0, 0.5)) + 1.0) < 1e-12


def test_geometric_potential_nonpositive_everywhere():
    rng = np.random.default_rng(2)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 50, rng)
        assert np.all(geo.geometric_potential(chart, (q1, q2)) <= 0.0)


def test_potential_clamps_round_off_to_zero():
    # M^2 - K = 1 - nextafter(1, 2) = -2.2e-16 is round-off of a square
    data = geo.CurvatureData(
        metric=np.eye(2),
        weingarten=np.zeros((2, 2)),
        mean=np.float64(1.0),
        gaussian=np.nextafter(1.0, 2.0),
    )
    assert data.potential == 0.0


def test_orientation_flip_invariants():
    # N -> -N flips alpha and M, preserves K and V_g; 100 random points/chart
    rng = np.random.default_rng(3)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 100, rng)
        plus = geo.curvature(chart, (q1, q2))
        minus = geo.curvature(chart.with_orientation(-1), (q1, q2))
        np.testing.assert_allclose(minus.weingarten, -plus.weingarten, atol=1e-12)
        np.testing.assert_allclose(minus.mean, -plus.mean, atol=1e-12)
        np.testing.assert_allclose(minus.gaussian, plus.gaussian, atol=1e-12)
        vg_p = geo.geometric_potential(chart, (q1, q2))
        vg_m = geo.geometric_potential(chart.with_orientation(-1), (q1, q2))
        np.testing.assert_allclose(vg_m, vg_p, atol=1e-12)


def test_fd_matches_analytic_on_all_charts():
    rng = np.random.default_rng(4)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 10, rng)
        ana = geo.curvature(chart, (q1, q2))
        fd = geo.curvature(chart.as_fd(), (q1, q2))
        # relative to the local curvature scale (M may vanish identically)
        scale = np.maximum(np.abs(ana.mean), np.sqrt(np.abs(ana.gaussian)))
        assert np.max(np.abs(fd.mean - ana.mean) / scale) < 1e-6
        assert np.max(np.abs(fd.gaussian - ana.gaussian) / scale**2) < 1e-6


def test_reparametrization_invariance_cylinder():
    angle = geo.cylinder_chart(radius=2.0)
    arc = geo.cylinder_chart(radius=2.0, arclength=True)
    rng = np.random.default_rng(5)
    theta = rng.uniform(0, 2 * np.pi, 20)
    z = rng.uniform(0, 10, 20)
    vg_angle = geo.geometric_potential(angle, (theta, z))
    vg_arc = geo.geometric_potential(arc, (2.0 * theta, z))
    np.testing.assert_allclose(vg_angle, vg_arc, atol=1e-10)


def test_fd_convergence_is_second_order():
    # halving the step cuts the curvature error ~4x while truncation dominates.
    # Uses a graph surface; purely trigonometric charts are excluded because
    # central differences of sin/cos re-scale all derivatives uniformly and the
    # Weingarten extraction cancels the scaling exactly (no truncation error).
    def wave(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        return np.stack(
            np.broadcast_arrays(u, v, 0.3 * np.exp(u) * np.sin(v)), axis=-1
        )

    domain = ((-1.0, 1.0), (0.0, 2.0))
    q = (0.37, 0.81)

    def mean_at(frac):
        chart = geo.from_position_map(
            wave, domain, fd_step=(frac * 2.0, frac * 2.0)
        )
        return geo.curvature(chart, q).mean

    reference = mean_at(1e-5)
    errs = [abs(mean_at(frac) - reference) for frac in (4e-3, 2e-3, 1e-3)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.0 < r1 < 5.0 and 3.0 < r2 < 5.0


def test_periodic_identification():
    rng = np.random.default_rng(6)
    for chart in ALL_CHARTS:
        for axis in range(2):
            if not chart.periodic[axis]:
                continue
            lo, hi = chart.domain[axis]
            other = rng.uniform(*chart.domain[1 - axis], 10)
            if chart.kind in ("sphere", "catenoid") and 1 - axis == 0:
                other = rng.uniform(
                    chart.domain[0][0] + 0.3, chart.domain[0][1] - 0.3, 10
                )
            q_lo = (np.full(10, lo), other) if axis == 0 else (other, np.full(10, lo))
            q_hi = (np.full(10, hi), other) if axis == 0 else (other, np.full(10, hi))
            np.testing.assert_allclose(
                chart.position(*q_lo), chart.position(*q_hi), atol=1e-10
            )
            np.testing.assert_allclose(
                geo.geometric_potential(chart, q_lo),
                geo.geometric_potential(chart, q_hi),
                atol=1e-10,
            )


def test_unit_normal_is_unit():
    rng = np.random.default_rng(7)
    for chart in ALL_CHARTS:
        q1, q2 = random_interior_points(chart, 30, rng)
        n = geo.unit_normal(chart, (q1, q2))
        np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)
        n_fd = geo.unit_normal(chart.as_fd(), (q1, q2))
        np.testing.assert_allclose(np.linalg.norm(n_fd, axis=-1), 1.0, atol=1e-12)
