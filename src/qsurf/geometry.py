"""Parametrized surfaces: metric, curvature, and the curvature-induced potential.

Natural units are used throughout the package: hbar = 1, 2m = 1, lengths in a
reference length ``a``, energies in ``e0 = hbar^2 / (2 m a^2)``.  With that
choice the kinetic prefactor hbar^2/(2m) is 1 and the curvature-induced
(attractive) potential on a surface is ``-(M^2 - K)`` with mean curvature M
and Gaussian curvature K.

A surface is described by a position map ``r(q1, q2) -> R^3`` on a rectangular
coordinate box.  Built-in charts (cylinder, sphere, torus, catenoid, plane)
carry analytic first and second derivatives; ``as_fd()`` and user charts
(``from_position_map``) use second-order central finite differences of the
position map alone.

Every evaluator runs the chart's Jacobian once on checked points; ``curvature``
returns the metric, M, K and the potential -(M^2 - K) from that one evaluation.

All evaluators broadcast over numpy arrays of coordinates; the scalar-point
API is the same function called with scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularChartError, StepSizeError

# Relative tolerance on det(g)/(g11*g22) below which a chart is declared
# degenerate.  Coordinate singularities (sphere poles) stay well above it for
# any point strictly inside the domain.
_SINGULAR_RTOL = 1e-14

_DEFAULT_FD_FRACTION = 1e-4  # default FD step as a fraction of the axis extent


@dataclass(frozen=True)
class SurfaceChart:
    """A parametrized surface r(q1, q2) on a rectangular coordinate box.

    Parameters
    ----------
    kind : str
        Descriptive tag ("cylinder", "sphere", ..., "custom").
    position : callable
        ``position(q1, q2) -> (..., 3)`` array; must broadcast over arrays.
    domain : ((q1_min, q1_max), (q2_min, q2_max))
        Coordinate box; each range must be finite and increasing.
    periodic : (bool, bool)
        Periodicity flag per axis.  Points on periodic axes are accepted
        outside the box (the map must be periodic there).
    orientation : {+1, -1}
        Sign applied to the normal ``d1_r x d2_r / |d1_r x d2_r|``.
    jacobian : callable, optional
        ``jacobian(q1, q2) -> (..., 3, 2)`` with columns d1_r, d2_r.
    hessian : callable, optional
        ``hessian(q1, q2) -> (..., 2, 2, 3)`` with H[a, b] = d_a d_b r.
        Give both callbacks or neither; without them the chart is evaluated
        by central finite differences of the position map.
    fd_step : (float, float), optional
        Finite-difference steps; defaults to 1e-4 of each axis extent.
    closure : (str, str), optional
        Grid closure hint per axis for 2D discretization: "periodic",
        "dirichlet" or "natural" (zero flux, e.g. at coordinate poles).
        Defaults to "periodic" on periodic axes and "dirichlet" otherwise.
    """

    kind: str
    position: Callable
    domain: tuple[tuple[float, float], tuple[float, float]]
    periodic: tuple[bool, bool] = (False, False)
    orientation: int = 1
    jacobian: Optional[Callable] = None
    hessian: Optional[Callable] = None
    fd_step: Optional[tuple[float, float]] = None
    closure: Optional[tuple[str, str]] = None

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")
        if (self.jacobian is None) != (self.hessian is None):
            raise ValueError("give both jacobian and hessian callbacks, or neither")
        for axis, (lo, hi) in enumerate(self.domain):
            if not -np.inf < lo < hi < np.inf:  # NaN fails every comparison
                raise ValueError(
                    f"q{axis + 1} range [{lo}, {hi}] must be finite and increasing"
                )

    def extent(self, axis: int) -> float:
        lo, hi = self.domain[axis]
        return hi - lo

    def steps(self) -> tuple[float, float]:
        """Finite-difference steps used when the chart has no callbacks."""
        if self.fd_step is not None:
            return self.fd_step
        return (
            _DEFAULT_FD_FRACTION * self.extent(0),
            _DEFAULT_FD_FRACTION * self.extent(1),
        )

    def axis_closure(self, axis: int) -> str:
        if self.closure is not None:
            return self.closure[axis]
        return "periodic" if self.periodic[axis] else "dirichlet"

    def check_point(self, q1, q2) -> None:
        """Raise DomainError for points outside the box on non-periodic axes."""
        q1 = np.asarray(q1, dtype=float)
        q2 = np.asarray(q2, dtype=float)
        for axis, q in ((0, q1), (1, q2)):
            if self.periodic[axis]:
                continue
            lo, hi = self.domain[axis]
            tol = 1e-12 * max(1.0, abs(hi - lo))
            if np.any(q < lo - tol) or np.any(q > hi + tol):
                raise DomainError(
                    f"coordinate q{axis + 1} outside domain [{lo}, {hi}] "
                    f"for chart '{self.kind}'"
                )

    def with_orientation(self, orientation: int) -> "SurfaceChart":
        return replace(self, orientation=orientation)

    def as_fd(self, fd_step: Optional[tuple[float, float]] = None) -> "SurfaceChart":
        """Copy of this chart evaluated by finite differences only."""
        return replace(self, jacobian=None, hessian=None, fd_step=fd_step)


@dataclass(frozen=True)
class CurvatureData:
    """Shape information at surface point(s), from one evaluation of the chart.

    metric : (..., 2, 2) first fundamental form g_ab the Weingarten matrix
        was solved with; sqrt(det g) is the area element
    weingarten : (..., 2, 2) matrix a with d_a N = a_ab d_b r  [1/length]
    mean : Tr(a)/2  [1/length]
    gaussian : det(a)  [1/length^2]
    """

    metric: np.ndarray
    weingarten: np.ndarray
    mean: np.ndarray
    gaussian: np.ndarray

    @property
    def potential(self) -> np.ndarray:
        """Curvature-induced potential -(M^2 - K) in units of e0.

        Always <= 0: M^2 - K = ((k1 - k2)/2)^2 is a square of the principal
        curvature difference.  Tiny negative round-off in M^2 - K is clamped.
        """
        return -np.maximum(self.mean**2 - self.gaussian, 0.0)


# ---------------------------------------------------------------------------
# core evaluators
# ---------------------------------------------------------------------------


def _jacobian_fd(chart: SurfaceChart, q1, q2) -> np.ndarray:
    h1, h2 = chart.steps()
    scale = max(abs(float(np.max(np.abs(q1)))), abs(float(np.max(np.abs(q2)))), 1.0)
    if min(h1, h2) < 64 * np.finfo(float).eps * scale:
        raise StepSizeError(
            f"finite-difference step {min(h1, h2):.3e} underflows at "
            f"coordinate scale {scale:.3e}"
        )
    p = chart.position
    d1 = (p(q1 + h1, q2) - p(q1 - h1, q2)) / (2.0 * h1)
    d2 = (p(q1, q2 + h2) - p(q1, q2 - h2)) / (2.0 * h2)
    return np.stack([d1, d2], axis=-1)


def _jacobian(chart: SurfaceChart, q1, q2) -> np.ndarray:
    if chart.jacobian is not None:
        return np.asarray(chart.jacobian(q1, q2), dtype=float)
    return _jacobian_fd(chart, q1, q2)


def _evaluate(chart: SurfaceChart, q):
    """Checked coordinates, Jacobian and checked metric at point(s) q.

    Raises DomainError outside the box and SingularChartError where the
    parametrization degenerates.
    """
    q1, q2 = np.asarray(q[0], dtype=float), np.asarray(q[1], dtype=float)
    chart.check_point(q1, q2)
    jac = _jacobian(chart, q1, q2)
    g = np.einsum("...ia,...ib->...ab", jac, jac)
    g11 = g[..., 0, 0]
    g22 = g[..., 1, 1]
    det = g11 * g22 - g[..., 0, 1] * g[..., 1, 0]
    # negated, so that a NaN metric (every comparison false) counts as degenerate
    bad = ~((g11 > 0.0) & (det > _SINGULAR_RTOL * np.abs(g11 * g22)))
    if np.any(bad):
        raise SingularChartError(
            f"degenerate parametrization of chart '{chart.kind}' "
            f"(det g / (g11*g22) <= {_SINGULAR_RTOL})"
        )
    return q1, q2, jac, g


def metric(chart: SurfaceChart, q) -> np.ndarray:
    """First fundamental form g_ab = d_a r . d_b r at point(s) q = (q1, q2).

    Returns a (..., 2, 2) symmetric positive-definite matrix.  Raises
    DomainError outside the box and SingularChartError where the
    parametrization degenerates.
    """
    return _evaluate(chart, q)[3]


def unit_normal(chart: SurfaceChart, q) -> np.ndarray:
    """Unit normal, oriented by the chart's orientation flag."""
    return _normal_from_jacobian(chart, _evaluate(chart, q)[2])


def _normal_from_jacobian(chart: SurfaceChart, jac: np.ndarray) -> np.ndarray:
    w = np.cross(jac[..., 0], jac[..., 1])
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norm <= 0.0):
        raise SingularChartError(f"vanishing normal on chart '{chart.kind}'")
    return chart.orientation * w / norm


def _normal_derivatives_fd(chart: SurfaceChart, q1, q2) -> np.ndarray:
    """d_a N by central differences; N itself from the FD jacobian."""
    h1, h2 = chart.steps()

    def n_at(a, b):
        return _normal_from_jacobian(chart, _jacobian(chart, a, b))

    dn1 = (n_at(q1 + h1, q2) - n_at(q1 - h1, q2)) / (2.0 * h1)
    dn2 = (n_at(q1, q2 + h2) - n_at(q1, q2 - h2)) / (2.0 * h2)
    return np.stack([dn1, dn2], axis=-2)  # (..., 2, 3); [a, :] = d_a N


def curvature(chart: SurfaceChart, q) -> CurvatureData:
    """Metric, Weingarten matrix and scalar curvatures at point(s) q.

    The matrix a solves d_a N = a_ab d_b r.  It is extracted from the 2x2
    system (d_a N . d_b r) = a_ac g_cb, which needs one derivative order less
    than differentiating N twice.  Mean curvature is Tr(a)/2 and Gaussian
    curvature det(a); both signs follow the orientation flag except K, which
    is orientation-independent.  The chart's Jacobian and Hessian run once
    each; a finite-difference chart differentiates the normal instead.
    """
    q1, q2, jac, g = _evaluate(chart, q)
    if chart.hessian is not None:
        hess = np.asarray(chart.hessian(q1, q2), dtype=float)  # (..., 2, 2, 3)
        normal = _normal_from_jacobian(chart, jac)
        # (d_a N).(d_b r) = -N.(d_a d_b r)
        b = -np.einsum("...abi,...i->...ab", hess, normal)
    else:
        dn = _normal_derivatives_fd(chart, q1, q2)
        b = np.einsum("...ai,...ib->...ab", dn, jac)

    # a g = b  =>  a = b g^{-1}; g symmetric
    alpha = np.swapaxes(np.linalg.solve(g, np.swapaxes(b, -1, -2)), -1, -2)
    mean = 0.5 * (alpha[..., 0, 0] + alpha[..., 1, 1])
    gauss = alpha[..., 0, 0] * alpha[..., 1, 1] - alpha[..., 0, 1] * alpha[..., 1, 0]
    return CurvatureData(metric=g, weingarten=alpha, mean=mean, gaussian=gauss)


def geometric_potential(chart: SurfaceChart, q):
    """Curvature-induced potential -(M^2 - K) in units of e0 (see
    :attr:`CurvatureData.potential`)."""
    return curvature(chart, q).potential


# ---------------------------------------------------------------------------
# built-in charts
# ---------------------------------------------------------------------------


def _vec3(x, y, z):
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1).astype(float)


def _hessian(h11, h12, h22):
    """Stack the second derivatives d_a d_b r into (..., 2, 2, 3)."""
    row1 = np.stack([h11, h12], axis=-2)
    row2 = np.stack([h12, h22], axis=-2)
    return np.stack([row1, row2], axis=-3)


def cylinder_chart(
    radius: float = 1.0,
    z_extent: tuple[float, float] = (0.0, 10.0),
    arclength: bool = False,
    orientation: int = 1,
) -> SurfaceChart:
    """Cylinder of given radius; coordinates (theta, z) or arclength (r*theta, z)."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    r = float(radius)
    c = r if arclength else 1.0  # the first coordinate is c * theta

    def pos(x, z):
        x, z = np.asarray(x, float), np.asarray(z, float)
        return _vec3(r * np.cos(x / c), r * np.sin(x / c), z)

    def jac(x, z):
        x, z = np.asarray(x, float), np.asarray(z, float)
        zero = np.zeros_like(x * z)
        d1 = _vec3(-(r / c) * np.sin(x / c), (r / c) * np.cos(x / c), zero)
        d2 = _vec3(zero, zero, np.ones_like(zero))
        return np.stack([d1, d2], axis=-1)

    def hess(x, z):
        x, z = np.asarray(x, float), np.asarray(z, float)
        zero = np.zeros_like(x * z)
        h11 = _vec3(-(r / c**2) * np.cos(x / c), -(r / c**2) * np.sin(x / c), zero)
        hz = _vec3(zero, zero, zero)
        return _hessian(h11, hz, hz)

    domain = ((0.0, 2.0 * np.pi * c), (float(z_extent[0]), float(z_extent[1])))

    return SurfaceChart(
        kind="cylinder",
        position=pos,
        domain=domain,
        periodic=(True, False),
        orientation=orientation,
        jacobian=jac,
        hessian=hess,
    )


def sphere_chart(radius: float = 1.0, orientation: int = 1) -> SurfaceChart:
    """Sphere in polar/azimuth coordinates (phi, theta); poles are coordinate
    singularities, so the polar axis uses the 'natural' (zero-flux) closure."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rr = float(radius)

    def pos(phi, theta):
        phi, theta = np.asarray(phi, float), np.asarray(theta, float)
        sp, cp = np.sin(phi), np.cos(phi)
        return _vec3(rr * sp * np.cos(theta), rr * sp * np.sin(theta), rr * cp)

    def jac(phi, theta):
        phi, theta = np.asarray(phi, float), np.asarray(theta, float)
        sp, cp = np.sin(phi), np.cos(phi)
        st, ct = np.sin(theta), np.cos(theta)
        d1 = _vec3(rr * cp * ct, rr * cp * st, -rr * sp)
        d2 = _vec3(-rr * sp * st, rr * sp * ct, np.zeros_like(sp * st))
        return np.stack([d1, d2], axis=-1)

    def hess(phi, theta):
        phi, theta = np.asarray(phi, float), np.asarray(theta, float)
        sp, cp = np.sin(phi), np.cos(phi)
        st, ct = np.sin(theta), np.cos(theta)
        zero = np.zeros_like(sp * st)
        h11 = _vec3(-rr * sp * ct, -rr * sp * st, -rr * cp)
        h12 = _vec3(-rr * cp * st, rr * cp * ct, zero)
        h22 = _vec3(-rr * sp * ct, -rr * sp * st, zero)
        return _hessian(h11, h12, h22)

    return SurfaceChart(
        kind="sphere",
        position=pos,
        domain=((0.0, np.pi), (0.0, 2.0 * np.pi)),
        periodic=(False, True),
        orientation=orientation,
        jacobian=jac,
        hessian=hess,
        closure=("natural", "periodic"),
    )


def torus_chart(
    major: float = 2.0, minor: float = 0.5, orientation: int = 1
) -> SurfaceChart:
    """Torus; q1 is the minor (poloidal) angle, q2 the major (toroidal) angle."""
    if not 0.0 < minor < major:
        raise ValueError("need 0 < minor < major")
    big, small = float(major), float(minor)

    def pos(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        w = big + small * np.cos(u)
        return _vec3(w * np.cos(v), w * np.sin(v), small * np.sin(u))

    def jac(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        w = big + small * cu
        d1 = _vec3(-small * su * cv, -small * su * sv, small * cu)
        d2 = _vec3(-w * sv, w * cv, np.zeros_like(w * sv))
        return np.stack([d1, d2], axis=-1)

    def hess(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        w = big + small * cu
        zero = np.zeros_like(w * sv)
        h11 = _vec3(-small * cu * cv, -small * cu * sv, -small * su)
        h12 = _vec3(small * su * sv, -small * su * cv, zero)
        h22 = _vec3(-w * cv, -w * sv, zero)
        return _hessian(h11, h12, h22)

    return SurfaceChart(
        kind="torus",
        position=pos,
        domain=((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)),
        periodic=(True, True),
        orientation=orientation,
        jacobian=jac,
        hessian=hess,
    )


def catenoid_chart(
    u_extent: tuple[float, float] = (-2.0, 2.0), orientation: int = 1
) -> SurfaceChart:
    """Unit catenoid r(u, v) = (cosh u cos v, cosh u sin v, u)."""

    def pos(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        ch = np.cosh(u)
        return _vec3(ch * np.cos(v), ch * np.sin(v), u)

    def jac(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        sh, ch = np.sinh(u), np.cosh(u)
        sv, cv = np.sin(v), np.cos(v)
        one = np.ones_like(sh * sv)
        d1 = _vec3(sh * cv, sh * sv, one)
        d2 = _vec3(-ch * sv, ch * cv, np.zeros_like(one))
        return np.stack([d1, d2], axis=-1)

    def hess(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        sh, ch = np.sinh(u), np.cosh(u)
        sv, cv = np.sin(v), np.cos(v)
        zero = np.zeros_like(sh * sv)
        h11 = _vec3(ch * cv, ch * sv, zero)
        h12 = _vec3(-sh * sv, sh * cv, zero)
        h22 = _vec3(-ch * cv, -ch * sv, zero)
        return _hessian(h11, h12, h22)

    return SurfaceChart(
        kind="catenoid",
        position=pos,
        domain=((float(u_extent[0]), float(u_extent[1])), (0.0, 2.0 * np.pi)),
        periodic=(False, True),
        orientation=orientation,
        jacobian=jac,
        hessian=hess,
    )


def plane_chart(
    extent: tuple[float, float] = (1.0, 1.0),
    shear: float = 0.0,
    orientation: int = 1,
) -> SurfaceChart:
    """Flat chart r = (q1 + shear*q2, q2, 0); non-orthogonal when shear != 0."""
    lx, ly = float(extent[0]), float(extent[1])
    c = float(shear)

    def pos(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        return _vec3(x + c * y, y, np.zeros_like(x * y))

    def jac(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        zero = np.zeros_like(x * y)
        one = np.ones_like(zero)
        d1 = _vec3(one, zero, zero)
        d2 = _vec3(c * one, one, zero)
        return np.stack([d1, d2], axis=-1)

    def hess(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        zero = np.zeros_like(x * y)
        hz = _vec3(zero, zero, zero)
        return _hessian(hz, hz, hz)

    return SurfaceChart(
        kind="plane",
        position=pos,
        domain=((0.0, lx), (0.0, ly)),
        periodic=(False, False),
        orientation=orientation,
        jacobian=jac,
        hessian=hess,
    )


def from_position_map(
    position: Callable,
    domain: tuple[tuple[float, float], tuple[float, float]],
    periodic: tuple[bool, bool] = (False, False),
    orientation: int = 1,
    fd_step: Optional[tuple[float, float]] = None,
    kind: str = "custom",
) -> SurfaceChart:
    """Chart from a bare position map, evaluated by finite differences.

    The map must broadcast over arrays; wrap one that takes only scalars as
    ``np.vectorize(f, signature="(),()->(3)")``.
    """
    return SurfaceChart(
        kind=kind,
        position=position,
        domain=domain,
        periodic=periodic,
        orientation=orientation,
        fd_step=fd_step,
    )


_BUILTIN_FACTORIES = {
    "cylinder": cylinder_chart,
    "sphere": sphere_chart,
    "torus": torus_chart,
    "catenoid": catenoid_chart,
    "plane": plane_chart,
}


CHART_KINDS = tuple(_BUILTIN_FACTORIES)


def builtin_chart(kind: str, **kwargs) -> SurfaceChart:
    try:
        factory = _BUILTIN_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown chart kind '{kind}'; choose from {sorted(_BUILTIN_FACTORIES)}"
        ) from None
    return factory(**kwargs)
