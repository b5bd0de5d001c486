"""Confinement morphology s(q1, q2) and the induced effective potential.

The confining potential across the surface is scaled by a dimensionless,
continuous morphology function s close to unity.  Squeezing onto the surface
leaves two potential terms in the effective Hamiltonian: the curvature term
from :mod:`qsurf.geometry` and an inhomogeneity term (s - 1) * E0, where E0 is
the transverse ground-state energy, the one number a :class:`TransverseWell`
holds.  A ditch (s < 1, locally weaker confinement) is attractive with depth
up to epsilon * E0; epsilon = 0 is the homogeneous profile s = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ProfileError
from .geometry import SurfaceChart, geometric_potential

_OMEGA_ROUND_TOL = 1e-6


@dataclass(frozen=True)
class ConfinementProfile:
    """Morphology function s(q1, q2) with its deviation scale.

    ``s`` must broadcast over arrays.  ``epsilon`` bounds |s - 1|; ``kind`` is
    one of "homogeneous", "helical", "custom".  ``params`` carries the
    construction parameters (m_d, omega, kappa, ... for helical profiles; a
    custom profile may declare its angular harmonic m_d and nothing else).
    ``z_period`` is the potential period along the second axis (None if the
    profile does not oscillate there).
    """

    s: Callable
    epsilon: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    z_period: Optional[float] = None

    def __call__(self, q1, q2):
        return self.s(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))

    @property
    def theta_harmonic(self) -> Optional[int]:
        """Highest angular harmonic of s: 0 if homogeneous, else m_d if declared."""
        if self.kind == "homogeneous":
            return 0
        return self.params.get("m_d")


@dataclass(frozen=True)
class TransverseWell:
    """Transverse well, given by its ground-state energy E0 > 0  [e0].

    For a harmonic well of frequency omega (hbar = 1), E0 = omega / 2.
    """

    e0: float

    def __post_init__(self):
        if self.e0 <= 0.0:
            raise ProfileError("transverse ground energy must be positive")


def homogeneous_profile() -> ConfinementProfile:
    """Uniform confinement, s identically 1."""

    def s(q1, q2):
        return np.ones(np.broadcast(q1, q2).shape)

    return ConfinementProfile(s=s, epsilon=0.0, kind="homogeneous")


def helical_profile(
    epsilon: float,
    omega: float,
    kappa: float,
    radius: float = 1.0,
    ditch_count: Optional[int] = None,
    round_omega: bool = False,
) -> ConfinementProfile:
    """Cosine corrugation with helical ditch lines on a cylinder.

        s(theta, z) = 1 - epsilon * (cos(m_d*theta - omega*kappa*z) + 1) / 2

    The angular wavenumber m_d is ``ditch_count`` when given (the number of
    ditch minima per circumference, restricted to 1 or 2), otherwise
    round(omega * radius), which must sit within 1e-6 of an integer for s to
    be single-valued -- set ``round_omega`` to accept coarser rounding.
    Ditch centers (s = 1 - epsilon) lie on the helices
    m_d*theta - omega*kappa*z = 0 (mod 2*pi); ridges reach s = 1 exactly.

    epsilon = 0 returns the homogeneous profile.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ProfileError(f"epsilon must lie in [0, 0.5], got {epsilon}")
    if epsilon == 0.0:
        return homogeneous_profile()
    if radius <= 0.0:
        raise ProfileError("radius must be positive")

    if ditch_count is not None:
        if ditch_count not in (1, 2):
            raise ProfileError(f"ditch_count must be 1 or 2, got {ditch_count}")
        m_d = int(ditch_count)
    else:
        m_d = int(round(omega * radius))
        if m_d < 1:
            raise ProfileError(
                f"omega*radius = {omega * radius:.6g} rounds below 1; "
                "no single-valued corrugation exists"
            )
        if abs(omega * radius - m_d) > _OMEGA_ROUND_TOL and not round_omega:
            raise ProfileError(
                f"omega*radius = {omega * radius!r} is {abs(omega * radius - m_d):.3g} "
                f"away from integer {m_d}; the profile would not be single-valued "
                "on the cylinder (pass round_omega=True to round)"
            )

    eps = float(epsilon)
    kz = float(omega) * float(kappa)

    def s(theta, z):
        return 1.0 - eps * (0.5 * np.cos(m_d * theta - kz * z) + 0.5)

    period = (2.0 * math.pi / abs(kz)) if kz != 0.0 else None
    return ConfinementProfile(
        s=s,
        epsilon=eps,
        kind="helical",
        params={
            "m_d": m_d,
            "omega": float(omega),
            "kappa": float(kappa),
            "radius": float(radius),
            "z_wavenumber": kz,
        },
        z_period=period,
    )


def constant_profile(s0: float) -> ConfinementProfile:
    """Uniform morphology s = s0 (a flat barrier/well once multiplied by E0)."""
    if s0 <= 0.0:
        raise ProfileError("s must be positive")
    val = float(s0)

    def s(q1, q2):
        return np.full(np.broadcast(q1, q2).shape, val)

    return ConfinementProfile(s=s, epsilon=abs(val - 1.0), kind="custom")


def custom_profile(
    s: Callable,
    epsilon: float,
    z_period: Optional[float] = None,
    theta_harmonic: Optional[int] = None,
) -> ConfinementProfile:
    params = {} if theta_harmonic is None else {"m_d": int(theta_harmonic)}
    return ConfinementProfile(
        s=s, epsilon=float(epsilon), params=params, z_period=z_period
    )


def add_morphology(v, profile: Optional[ConfinementProfile], well, q1, q2):
    """v + (s(q) - 1) * E0: the confinement-morphology term added to v  [e0].

    Without a profile, or with a homogeneous one (s = 1), v comes back
    unchanged and no well is needed; otherwise ``well`` is required.
    """
    if profile is None or profile.kind == "homogeneous":
        return v
    if well is None:
        raise ValueError("a transverse well is required with a profile")
    return v + (profile(q1, q2) - 1.0) * well.e0


def effective_potential(
    profile: ConfinementProfile,
    well: Optional[TransverseWell],
    chart: SurfaceChart,
    q,
):
    """Total effective potential V_g(q) + (s(q) - 1) * E0  [e0].

    For a homogeneous profile this is exactly the curvature term.
    """
    return add_morphology(geometric_potential(chart, q), profile, well, q[0], q[1])


def validate_profile(
    profile: ConfinementProfile,
    domain: tuple[tuple[float, float], tuple[float, float]],
    periodic: tuple[bool, bool] = (True, False),
    samples: int = 128,
) -> None:
    """Check profile constraints by dense sampling over a domain box.

    Raises ProfileError on: non-positive s, |s - 1| > epsilon, a violated
    periodic identification, or a continuity failure (the max increment
    between adjacent samples does not shrink when the grid is refined).
    """
    (a1, b1), (a2, b2) = domain
    tol = 1e-12

    def grid(n):
        q1 = np.linspace(a1, b1, n, endpoint=not periodic[0])
        q2 = np.linspace(a2, b2, n, endpoint=not periodic[1])
        return np.meshgrid(q1, q2, indexing="ij")

    qq1, qq2 = grid(samples)
    vals = profile(qq1, qq2)
    if np.any(vals <= 0.0):
        raise ProfileError("profile takes non-positive values")
    dev = np.max(np.abs(vals - 1.0))
    if dev > profile.epsilon + tol:
        raise ProfileError(
            f"|s - 1| reaches {dev:.3g}, above the declared epsilon = "
            f"{profile.epsilon:.3g}"
        )
    for axis in range(2):
        if not periodic[axis]:
            continue
        lo, hi = domain[axis]
        t = np.linspace(domain[1 - axis][0], domain[1 - axis][1], samples)
        if axis == 0:
            gap = np.max(np.abs(profile(lo, t) - profile(hi, t)))
        else:
            gap = np.max(np.abs(profile(t, lo) - profile(t, hi)))
        if gap > 1e-10:
            raise ProfileError(
                f"profile violates periodic identification on axis {axis + 1} "
                f"(mismatch {gap:.3g})"
            )
    # continuity heuristic: adjacent-sample increments must shrink ~2x under
    # grid refinement (a jump keeps them O(1))
    def max_increment(n):
        v = profile(*grid(n))
        return max(
            float(np.max(np.abs(np.diff(v, axis=0)), initial=0.0)),
            float(np.max(np.abs(np.diff(v, axis=1)), initial=0.0)),
        )

    inc_coarse = max_increment(samples)
    inc_fine = max_increment(2 * samples)
    if inc_coarse > tol and inc_fine > 0.75 * inc_coarse:
        raise ProfileError(
            "profile does not look continuous: sample increments do not "
            f"shrink under refinement ({inc_coarse:.3g} -> {inc_fine:.3g})"
        )
