"""Built-in oracle suite: independent checks runnable from the CLI.

Each check compares a library result against an independently derived
reference: closed-form curvatures, the analytic square-barrier transmission,
a dense Green's-function inversion, the unitarity/flux identities, and the
explicit slice recursion as the reference for the sweeps' screw-run fold.  The
``inject`` hook deliberately corrupts one quantity so the test harness can
verify that the corresponding suite actually fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import confinement, geometry, operator, transport


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# oracle implementations (kept independent of the production code paths)
# ---------------------------------------------------------------------------


def square_barrier_transmission(e: float, v0: float, length: float) -> float:
    """Continuum transmission through a rectangular barrier of height v0 > 0.

    Natural units (hbar = 1, 2m = 1): E = k^2 outside, E - v0 = k2^2 inside.
    """
    if e <= 0.0 or v0 <= 0.0:
        raise ValueError("need e > 0 and v0 > 0")
    if abs(e - v0) < 1e-9 * v0:
        raise ValueError("degenerate case e == v0 not supported by this formula")
    if e < v0:
        kap = math.sqrt(v0 - e)
        return 1.0 / (1.0 + v0**2 * math.sinh(kap * length) ** 2 / (4.0 * e * (v0 - e)))
    k2 = math.sqrt(e - v0)
    return 1.0 / (1.0 + v0**2 * math.sin(k2 * length) ** 2 / (4.0 * e * (e - v0)))


def dense_smatrix(op: operator.CoupledChannelOperator, e1: float):
    """S-matrix via one dense inversion of the full device matrix.

    Independent linear-algebra route for the same physics: embeds the lead
    self-energies, inverts (E - H - Sigma) densely, and converts the
    Green's-function columns with the documented injection/extraction
    formulas.  Used as the oracle against the slice recursion.
    """
    leads = op.lead_mode_set(e1)
    open_idx = np.nonzero(leads.open_mask)[0]
    n_sl, n = op.n_slices, op.n_modes
    nn = n_sl * n

    m = e1 * np.eye(nn) - op.sparse().toarray()
    sigma = transport.lead_self_energy(leads, op.dz)
    m[:n, :n] -= np.diag(sigma)
    m[-n:, -n:] -= np.diag(sigma)

    g = np.linalg.inv(m)
    n_open = open_idx.size
    amp = 1j * (leads.velocity[open_idx] / op.dz) * leads.bloch[open_idx]
    q = np.zeros((nn, 2 * n_open), dtype=complex)
    q[open_idx, np.arange(n_open)] = amp
    q[(n_sl - 1) * n + open_idx, n_open + np.arange(n_open)] = amp
    psi = g @ q

    bloch_open = leads.bloch[open_idx]
    v_open = leads.velocity[open_idx]
    first = psi[:n][open_idx, :]
    last = psi[-n:][open_idx, :]
    cols = np.arange(n_open)
    flux = np.sqrt(v_open)[:, None] / np.sqrt(v_open)[None, :]
    t = flux * (bloch_open[:, None] * last[:, cols])
    r = flux * (bloch_open[:, None] * first[:, cols] - np.diag(bloch_open**2))
    tp = flux * (bloch_open[:, None] * first[:, n_open + cols])
    rp = flux * (
        bloch_open[:, None] * last[:, n_open + cols] - np.diag(bloch_open**2)
    )
    return t, r, tp, rp, leads.modes[open_idx]


def barrier_operator(
    v_barrier: float, length: float, dz: float, e0: float = 70.0
) -> operator.CoupledChannelOperator:
    """Single-channel operator with a constant (s-1)E0 = v_barrier window."""
    s0 = 1.0 + v_barrier / e0
    profile = confinement.constant_profile(s0)
    well = confinement.TransverseWell(e0=e0)
    basis = operator.ChannelBasis(l_max=0, radius=1.0)
    return operator.assemble_coupled_channel(
        profile, well, basis, length=length, dz=dz, include_vg=False
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_curvature_analytics(inject: str | None = None) -> CheckResult:
    """Built-in charts against closed-form curvatures, both evaluation paths."""
    cases = []
    r, big, small = 1.0, 2.0, 0.5
    cyl = geometry.cylinder_chart(radius=r)
    cases.append((cyl, (0.7, 1.3), 1.0 / (2 * r), 0.0))
    sph = geometry.sphere_chart(radius=2.0)
    cases.append((sph, (1.0, 0.4), 1.0 / 2.0, 1.0 / 4.0))
    tor = geometry.torus_chart(major=big, minor=small)
    cases.append(
        (
            tor,
            (0.0, 0.9),
            (big + 2 * small) / (2 * small * (big + small)),
            1.0 / (small * (big + small)),
        )
    )
    worst = 0.0
    for chart, q, abs_m, k_exact in cases:
        for mode_chart, tol in ((chart, 1e-12), (chart.as_fd(), 1e-6)):
            c = geometry.curvature(mode_chart, q)
            vg = c.potential
            if inject == "vg_sign":
                vg = -vg
            scale = max(abs(abs_m) ** 2, abs(k_exact), 1e-12)
            err = max(
                abs(abs(c.mean) - abs_m) / max(abs_m, 1e-12),
                abs(c.gaussian - k_exact) / max(abs(k_exact), scale),
                abs(vg - (-(abs_m**2 - k_exact))) / scale,
            )
            worst = max(worst, err / tol)
    passed = worst <= 1.0
    return CheckResult(
        "curvature_analytics",
        passed,
        f"worst error {worst:.3g} x tolerance (analytic 1e-12, fd 1e-6)",
    )


def check_square_barrier(inject: str | None = None) -> CheckResult:
    """RGF single-channel barrier against the analytic transmission formula."""
    v0, length = 1.0, 2.0
    op = barrier_operator(v0, length, dz=2.5e-4)
    worst = 0.0
    for e in (0.3, 0.6, 0.95, 1.4, 2.5):
        s = transport.rgf_smatrix(op, e)
        got = float(np.abs(s.t[0, 0]) ** 2)
        ref = square_barrier_transmission(e, v0, length)
        worst = max(worst, abs(got - ref))
    passed = worst <= 1e-6
    return CheckResult(
        "square_barrier", passed, f"max |T - T_exact| = {worst:.3g} (tol 1e-6)"
    )


def check_dense_equivalence(inject: str | None = None) -> CheckResult:
    """Slice recursion against dense inversion on small systems."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(4):
        eps = float(rng.uniform(0.03, 0.2))
        kappa = float(rng.uniform(0.3, 1.5))
        profile = confinement.helical_profile(eps, 2.0, kappa, ditch_count=2)
        well = confinement.TransverseWell(e0=70.0)
        basis = operator.ChannelBasis(l_max=2, radius=1.0)
        op = operator.assemble_coupled_channel(
            profile, well, basis, length=2.0, n_z=50
        )
        e1 = float(rng.uniform(0.5, 3.5))
        s = transport.rgf_smatrix(op, e1)
        t_dense = dense_smatrix(op, e1)[0]
        sigma_rgf = float(np.sum(np.abs(s.t) ** 2))
        sigma_dense = float(np.sum(np.abs(t_dense) ** 2))
        worst = max(worst, abs(sigma_rgf - sigma_dense))
    passed = worst <= 1e-10
    return CheckResult(
        "dense_equivalence",
        passed,
        f"max |sigma_rgf - sigma_dense| = {worst:.3g} (tol 1e-10)",
    )


def check_unitarity(inject: str | None = None, samples: int = 20) -> CheckResult:
    """Random-parameter battery of S-matrix unitarity and flux conservation."""
    rng = np.random.default_rng(11)
    well = confinement.TransverseWell(e0=70.0)
    worst = 0.0
    for _ in range(samples):
        eps = float(rng.uniform(0.02, 0.2))
        m_d = int(rng.integers(1, 4))
        omega = float(m_d)
        kappa = float(rng.uniform(0.3, 2.0))
        profile = confinement.helical_profile(eps, omega, kappa)
        basis = operator.ChannelBasis(l_max=m_d + 3, radius=1.0)
        pitch = profile.z_period
        op = operator.assemble_coupled_channel(
            profile, well, basis, length=3.0, dz=min(0.04, pitch / 20)
        )
        offsets = np.unique(op.lead_offsets)
        while True:
            e1 = float(rng.uniform(0.05, 4.0)) + float(np.min(offsets))
            if np.min(np.abs(e1 - offsets)) > 1e-3:
                break
        s = transport.rgf_smatrix(op, e1)
        if inject == "velocity_norm" and s.n_open:
            s = replace(s, t=s.t * 1.01)
        worst = max(worst, s.unitarity_residual(), s.flux_error())
    passed = worst <= 1e-8
    return CheckResult(
        "unitarity_battery",
        passed,
        f"max unitarity/flux residual = {worst:.3g} over {samples} samples (tol 1e-8)",
    )


def check_sweep_fold(inject: str | None = None) -> CheckResult:
    """The sweep path (screw-run fold) against the explicit slice recursion.

    A 4-pitch helical window with a 1-pitch taper records a screw run, which
    ``energy_sweep`` folds by segment doubling; ``rgf_smatrix`` recurses over
    every slice.  The energies keep clear of the sharp resonance near
    ``e_rel = 0.2``, where the fold loses about ten times more accuracy.
    """
    profile = confinement.helical_profile(0.1, 8.0, 0.5, ditch_count=2)
    pitch = profile.z_period
    op = operator.assemble_coupled_channel(
        profile,
        confinement.TransverseWell(e0=70.0),
        operator.ChannelBasis(l_max=6, radius=1.0),
        length=4.0 * pitch,
        dz=0.04,
        taper=pitch,
    )
    if op.screw is None:
        return CheckResult("sweep_fold_equivalence", False, "no screw run recorded")
    energies = float(np.min(op.lead_offsets)) + np.array([0.35, 0.9, 1.7, 2.6, 3.4])
    curve = transport.energy_sweep(op, energies)
    ref = [float(np.sum(np.abs(transport.rgf_smatrix(op, e).t) ** 2)) for e in energies]
    worst = float(np.max(np.abs(curve.sigma_total - ref)))
    folded = op.screw.stop - op.screw.start
    return CheckResult(
        "sweep_fold_equivalence",
        worst <= 1e-10,
        f"max |sigma_sweep - sigma_rgf| = {worst:.3g}, {folded} slices folded "
        "(tol 1e-10)",
    )


_CHECKS = (
    check_curvature_analytics,
    check_square_barrier,
    check_dense_equivalence,
    check_unitarity,
    check_sweep_fold,
)


def run_selftest(inject: str | None = None):
    """Run every check; returns (results, all_passed)."""
    results = [check(inject=inject) for check in _CHECKS]
    return results, all(r.passed for r in results)
