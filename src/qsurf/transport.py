"""Open scattering problem for the coupled-channel operator.

The device (scattering window plus optional clean padding) is a
block-tridiagonal lattice; semi-infinite clean leads are folded into
self-energies on the first and last slice.  The scattering state is obtained
from an injection source on a boundary slice, and transmission/reflection
amplitudes follow from the lead Bloch factors with lattice-velocity flux
normalization, so S-matrix unitarity holds to machine precision on the
lattice.

Every solver starts from :func:`_leads`: the lead modes and threshold flags
of one energy, or of a stack of energies with one array row per energy, and
the one ThresholdProximityWarning that names the flagged energies:

* the S-matrix only needs the corner blocks G_11, G_N1, G_1N, G_NN of the
  retarded Green's function, restricted to the open channels
  (:class:`_Corners`).  A forward-only recursive Green's function (RGF)
  sweep carries them slice by slice for a block of up to 32 energies that
  share their open channels.  With D_n the diagonal block of (E - H - Sigma),
  b = 1/dz^2 the off-diagonal block and g_n the left-connected Green's
  function of slices 1..n:

      g_n  = (D_n - b^2 g_{n-1})^{-1}
      G_n1 = -b g_n G_{n-1,1}                       (open columns only)
      G_1n = -b G_{1,n-1} g_n                       (open rows only)
      G_11 = G_11 + b^2 G_{1,n-1} g_n G_{n-1,1}      (open rows and columns)

  and G_nn = g_n.  The recursion starts from the left lead as slice 0: its
  surface Green's function Sigma/b^2 as g_0, G_11 = 0 and G_10 = G_01 = -1/b
  on the open channels, so the first slice is an ordinary step.  Memory does
  not grow with the slice count, and every energy's result is independent of
  the block it was solved in.  The four corners are the one state of the
  recursion, from the lead to the S-matrix blocks (:func:`_boundary_blocks`);
* the helical window is invariant under a screw motion.  In the gauge
  psi_j = W_j phi_j, W_j = diag(exp(-i l q z_j)) with q = omega*kappa/m_d,
  every on-site block at full taper weight becomes one matrix A and the
  hopping becomes T = b diag(exp(-i l q dz)).  The operator records this run
  of slices (:class:`~qsurf.operator.ScrewRun`), and sweeps fold it into a
  few segment-doubling steps instead of one step per slice.  A segment is
  described by the four corner blocks of its *dressed* Green's function
  (E - H_seg + i gamma (P_first + P_last))^{-1}, gamma = 0.03/dz^2; the
  dressing keeps every segment away from its real eigenvalues, where bare
  doubling of an isolated segment loses accuracy.  Two segments A|B join
  through one 2n x 2n inversion: with J = diag(Y^A_NN, Y^B_11) and
  Delta = [[-i gamma_A, T], [T^dag, -i gamma_B]], K = Delta (I + J Delta)^{-1}
  and

      G_11 = Y^A_11 - Y^A_1N K_AA Y^A_N1     G_1N = -Y^A_1N K_AB Y^B_1N
      G_NN = Y^B_NN - Y^B_N1 K_BB Y^B_1N     G_N1 = -Y^B_N1 K_BA Y^A_N1

  A run of N slices squares the one-slice cell (E - A + 2 i gamma)^{-1}
  floor(log2 N) times, and the powers that make up N join one by one onto
  the running corners, which take the run's slices in the screw gauge: the
  first join couples the lab-frame slice before the run through b W_start
  with gamma_A = 0, every later one through T.  The last slice is then
  rotated back with W and undressed, and the slice recursion carries on from
  there.  The cost per energy no longer grows with the length of the run;
* :func:`rgf_smatrix` runs the explicit recursion over every slice, with no
  fold: it is the reference the folded sweep is tested against;
* density maps need psi on every slice, so they run the same recursion over
  every slice, with no fold and the incident channel as the one open column
  (:func:`_scattering_state`).  They keep g_n; the left-connected response x_n
  of a source on the first slice is the recursion's own G_n1 column times the
  source, and zero before the last slice for a source there.  Then
  back-substitution gives psi_N = x_N and psi_n = x_n - b g_n psi_{n+1}.

Derivation of the injection and extraction formulas, in the conventions of
:mod:`qsurf.operator` (hopping t = -1/dz^2, lead on-site 2/dz^2 + offset_l):

* the semi-infinite lead surface Green's function per channel is
  g_s = e^{i k dz} / t, so the self-energy on the boundary slice is
  Sigma_l = t e^{i k_l dz};
* a unit-amplitude wave incident from the left in channel l enters the
  device equations as a source Q_1 = i (v_l / dz) e^{i k_l dz} chi_l on the
  first slice, where v_l = (2/dz) sin(k_l dz) (from the right: the same
  source on the last slice);
* with psi = G Q the outgoing wavefunction amplitudes referenced at the
  first lead site are e^{i k_l' dz} psi_1 (reflection side, after removing
  the incident contribution -e^{2 i k_l dz} delta) and e^{i k_l' dz} psi_N
  (transmission side), so t, r, t', r' follow from G_N1, G_11, G_1N and
  G_NN;
* flux normalization multiplies amplitudes by sqrt(v_out / v_in).

Sweeps keep the blocks t, r, t', r' stacked over energy, shape (n_e, n_open,
n_open), and compute every column with array operations on the stack;
:class:`SMatrix` is the single-energy view, and its methods,
:func:`conductance` and :func:`polarization` run the same kernels on one block.
A sweep cuts its whole grid into energy blocks once and solves them on a
thread pool; the caller writes every block's columns, so the output and the
solver counts do not depend on the number of threads.
"""

from __future__ import annotations

import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ClosedChannelError,
    NumericalError,
    ThresholdProximityWarning,
    UndefinedPolarizationError,
)
from .operator import CoupledChannelOperator, LeadModeSet

THRESHOLD_ATOL = 1e-9
_DRESSING = 0.03  # i gamma on the end slices of folded segments, gamma in 1/dz^2
_ENERGY_BLOCK = 32  # energies per corner recursion; bounds the work arrays


def lead_self_energy(leads: LeadModeSet, dz: float) -> np.ndarray:
    """Diagonal retarded self-energy of a clean semi-infinite lead.

    Sigma_l = -(1/dz^2) e^{i k_l dz}: negative imaginary part on open
    channels, real decaying branch on evanescent ones.
    """
    if np.any(np.abs(leads.bloch) > 1.0 + 1e-12):
        raise NumericalError(
            "growing lead branch selected (|e^{ik dz}| > 1); "
            "this indicates a dispersion bookkeeping bug"
        )
    sigma = -(1.0 / dz**2) * leads.bloch
    if np.any(sigma.imag > 1e-15 / dz**2):
        raise NumericalError("lead self-energy lost its retarded character")
    return sigma


def _transmission(t):
    """Landauer conductance sigma/sigma0 = sum |t|^2 of each block [..., out, in]."""
    return np.sum(np.abs(t) ** 2, axis=(-2, -1))


def _unitarity(t, r, t_reverse, r_reverse):
    """Max |S^dag S - 1| with S = [[r, t'], [t, r']] over (left in, right in)."""
    s = np.block([[r, t_reverse], [t, r_reverse]])
    sds = s.conj().swapaxes(-1, -2) @ s
    return np.max(np.abs(sds - np.eye(s.shape[-1])), axis=(-2, -1), initial=0.0)


def _flux_error(t, r, t_reverse, r_reverse):
    """Max deviation of the per-incident-mode flux sums from 1."""
    sums = [
        np.sum(np.abs(a) ** 2 + np.abs(b) ** 2, axis=-2)
        for a, b in ((t, r), (t_reverse, r_reverse))
    ]
    return np.max(np.abs(np.concatenate(sums, axis=-1) - 1.0), axis=-1, initial=0.0)


def _reciprocity(t, t_reverse):
    """Max |t[l_out, l_in] - t_reverse[-l_in, -l_out]| (time reversal of a
    Hamiltonian that is real in (theta, z)).  Open modes come in +-l pairs in
    ascending order, so -l sits at the mirrored index."""
    mirrored = t_reverse[..., ::-1, ::-1].swapaxes(-1, -2)
    return np.max(np.abs(t - mirrored), axis=(-2, -1), initial=0.0)


def _polarization(block, open_modes: np.ndarray, pair: int):
    """(sigma_{+pair} - sigma_{-pair}) / sigma over the outgoing rows of a
    transmission block; NaN where nothing is transmitted."""
    out = np.sum(np.abs(block) ** 2, axis=-1)
    plus, minus = (np.sum(out[..., open_modes == m], axis=-1) for m in (pair, -pair))
    total = _transmission(block)
    nan = np.full_like(total, np.nan)
    return np.divide(plus - minus, total, out=nan, where=total > 0.0)


@dataclass(frozen=True)
class SMatrix:
    """Flux-normalized scattering amplitudes at one energy: the single-energy
    view of the blocks that sweeps handle as stacks.

    Blocks are indexed [outgoing, incident] over the open modes listed in
    ``open_modes`` (identical in both leads).  ``t``/``r`` belong to left
    incidence, ``t_reverse``/``r_reverse`` to right incidence.  The paper-order
    mode-resolved conductance sigma_{l', l} ("incident l' scattered into l")
    is |t[index(l), index(l')]|^2; see :func:`conductance`.
    """

    e1: float
    open_modes: np.ndarray
    t: np.ndarray
    r: np.ndarray
    t_reverse: np.ndarray
    r_reverse: np.ndarray
    threshold_flag: bool = False

    @property
    def n_open(self) -> int:
        return self.open_modes.size

    def unitarity_residual(self) -> float:
        return float(_unitarity(self.t, self.r, self.t_reverse, self.r_reverse))

    def flux_error(self) -> float:
        """Max deviation of per-incident-mode flux sums from 1."""
        return float(_flux_error(self.t, self.r, self.t_reverse, self.r_reverse))

    def reciprocity_residual(self) -> float:
        """Max |t[l_out, l_in] - t_reverse[-l_in, -l_out]|."""
        return float(_reciprocity(self.t, self.t_reverse))


def _near_threshold(e1, thresholds):
    """Whether each energy of e1 lies within THRESHOLD_ATOL of a threshold."""
    gaps = np.abs(np.asarray(e1)[..., None] - thresholds)
    return np.min(gaps, axis=-1) < THRESHOLD_ATOL


def _leads(op: CoupledChannelOperator, e1):
    """Lead modes at e1, a scalar or a 1-D array of energies, and the flag of
    each energy within THRESHOLD_ATOL of a channel threshold.  The flagged
    energies are named in one ThresholdProximityWarning, attributed to the
    caller of the public function that called this one."""
    if op.style != "open":
        raise ValueError("transport needs an operator assembled with closed=False")
    leads = op.lead_mode_set(e1)
    flags = _near_threshold(leads.e1, leads.offsets)
    if np.any(flags):
        flagged = np.atleast_1d(leads.e1)[np.atleast_1d(flags)]
        listed = ", ".join(repr(float(e)) for e in flagged)
        message = f"E1 = {listed} within {THRESHOLD_ATOL} of a channel threshold"
        warnings.warn(message, ThresholdProximityWarning, stacklevel=3)
    return leads, flags


def _injection_amplitudes(bloch, velocity, dz: float) -> np.ndarray:
    """Source strengths i (v_l/dz) e^{i k_l dz} of the open channels."""
    return 1j * (velocity / dz) * bloch


class _Corners(NamedTuple):
    """Corner blocks G_11, G_1N, G_N1, G_NN of a segment's Green's function,
    each stacked over energies.  In the slice recursion G_11, G_1N and G_N1
    are restricted to the open channels on the first slice, and all four are
    at its end."""

    g11: np.ndarray
    g1n: np.ndarray
    gn1: np.ndarray
    gnn: np.ndarray


def _inv(m: np.ndarray, where: str, stats: Counter) -> np.ndarray:
    stats["inversions"] += 1
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{where} inversion failed: {exc}") from exc


def _join(
    sa: _Corners, sb: _Corners, gamma_a: float, gamma_b: float, t, stats: Counter
) -> _Corners:
    """Corners of the segment A|B, with diag(t) coupling the last slice of A
    to the first slice of B, and the dressings i gamma_a, i gamma_b of the two
    joined ends removed (one 2n x 2n inversion per energy).

    K = Delta (I + J Delta)^{-1} is formed blockwise: with a diagonal hopping
    every product with Delta is a row or column scaling.
    """
    n = t.size
    m = np.empty(sb.gnn.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    m[..., :n, :n] = -1j * gamma_a * sa.gnn
    m[..., :n, n:] = sa.gnn * t
    m[..., n:, :n] = sb.g11 * t.conj()
    m[..., n:, n:] = -1j * gamma_b * sb.g11
    m[..., np.arange(2 * n), np.arange(2 * n)] += 1.0
    x = _inv(m, "segment join", stats)
    k_a = -1j * gamma_a * x[..., :n, :] + t[:, None] * x[..., n:, :]
    k_b = t.conj()[:, None] * x[..., :n, :] - 1j * gamma_b * x[..., n:, :]
    return _Corners(
        sa.g11 - sa.g1n @ k_a[..., :n] @ sa.gn1,
        -(sa.g1n @ k_a[..., n:] @ sb.g1n),
        -(sb.gn1 @ k_b[..., :n] @ sa.gn1),
        sb.gnn - sb.gn1 @ k_b[..., n:] @ sb.g1n,
    )


def _attach_screw_run(
    op: CoupledChannelOperator, c: _Corners, e_eye, stats: Counter
) -> _Corners:
    """Extend the left-connected corners c over the screw run: join the
    dressed powers of the screw cell onto them in the screw gauge, then rotate
    the run's last slice back to the lab frame and remove its dressing i gamma
    (see the module docstring)."""
    run, modes, b = op.screw, op.basis.modes, -op.hop
    gamma = _DRESSING * b
    w_first = run.gauge(modes, op.z_nodes[run.start])
    w_last = run.gauge(modes, op.z_nodes[run.stop - 1])
    cell = w_first.conj()[:, None] * op.onsite[run.start] * w_first
    t_screw = b * run.gauge(modes, op.dz)
    y = _inv(e_eye - cell + 2j * gamma * np.eye(modes.size), "screw cell", stats)
    power = _Corners(y, y, y, y)
    t, gamma_a = b * w_first, 0.0  # lab-frame slice before the run to its first
    n_run = run.stop - run.start
    for bit in range(n_run.bit_length()):
        if bit:
            power = _join(power, power, gamma, gamma, t_screw, stats)
        if n_run >> bit & 1:
            c = _join(c, power, gamma_a, gamma, t, stats)
            t, gamma_a = t_screw, gamma
    u = _inv(np.eye(modes.size) - 1j * gamma * c.gnn, "screw run end", stats)
    g1n, gn1 = c.g1n @ u, u @ c.gn1
    return _Corners(
        c.g11 + 1j * gamma * (g1n @ c.gn1),
        g1n * w_last.conj(),
        w_last[:, None] * gn1,
        w_last[:, None] * (u @ c.gnn) * w_last.conj(),
    )


def _corner_recursion(op, e1, sigma, open_idx, stats: Counter):
    """Yield the corners of the device Green's function for energies e1 (n_e,),
    given sigma (n_e, n_modes), after every explicit slice j: G_11 (open rows
    and columns), G_1j (open rows), G_j1 (open columns) and G_jj = g_j, where
    the open channels are open_idx.

    One batched inversion per slice, from the left lead as the state before
    slice 0: sigma/b^2 as G_jj, G_11 = 0 and -1/b as G_1j and G_j1 on the open
    channels.  The screw run of ``op`` (if any) folds onto the corners in one
    step with no yield.  The run never holds the last slice, which carries
    the right lead's sigma, so the last yield is the whole device's corners.
    """
    n_sl, n = op.n_slices, op.n_modes
    run = op.screw
    b = -op.hop
    idx = np.arange(n)
    e_eye = e1[:, None, None] * np.eye(n)
    lead = -np.eye(n)[:, open_idx] / b
    g11 = np.zeros((e1.size, open_idx.size, open_idx.size))
    c = _Corners(g11, lead.T, lead, sigma[..., None] * np.eye(n) / b**2)
    for j in range(n_sl):
        if run is not None and run.start <= j < run.stop:
            if j == run.start:
                c = _attach_screw_run(op, c, e_eye, stats)
            continue
        d = e_eye - op.onsite[j]
        d -= b**2 * c.gnn
        if j == n_sl - 1:
            d[:, idx, idx] -= sigma
        g = _inv(d, f"slice {j}", stats)
        h = -b * g
        gn1 = h @ c.gn1
        c = _Corners(c.g11 - b * (c.g1n @ gn1), c.g1n @ h, gn1, g)
        yield c


def _boundary_blocks(bloch, velocity, corners: _Corners, dz: float):
    """Flux-normalized blocks (t, r, t_reverse, r_reverse), each (n_e, n_open,
    n_open), from the open channels' bloch and velocity (n_e, n_open) and the
    open-channel corners G_N1, G_11, G_1N, G_NN of the device."""
    amps = _injection_amplitudes(bloch, velocity, dz)[:, None, :]
    t, r, t_reverse, r_reverse = (
        bloch[:, :, None] * (g * amps)
        for g in (corners.gn1, corners.g11, corners.g1n, corners.gnn)
    )
    diag = np.arange(bloch.shape[-1])
    r[:, diag, diag] -= bloch**2  # remove the incident wave from r
    r_reverse[:, diag, diag] -= bloch**2  # and from r_reverse
    root_v = np.sqrt(velocity)
    flux = root_v[:, :, None] / root_v[:, None, :]
    return flux * t, flux * r, flux * t_reverse, flux * r_reverse


def _solve(op: CoupledChannelOperator, leads: LeadModeSet, stats: Counter):
    """Flux-normalized blocks (t, r, t_reverse, r_reverse), each (n_e, n_open,
    n_open), of a stack of lead modes that share their open channels.  Raises
    NumericalError for the whole block if it is singular or a self-energy fails."""
    sigma = lead_self_energy(leads, op.dz)
    open_idx = np.flatnonzero(leads.open_mask[0])
    # contiguous, so that block sums add in the same order at any stack size
    bloch = np.ascontiguousarray(leads.bloch[:, open_idx])
    velocity = np.ascontiguousarray(leads.velocity[:, open_idx])
    corners = _Corners(*[np.zeros((bloch.shape[0], 0, 0), dtype=complex)] * 4)
    if open_idx.size:
        for c in _corner_recursion(op, leads.e1, sigma, open_idx, stats):
            pass
        g_nn = c.gnn[:, open_idx][:, :, open_idx]
        corners = _Corners(c.g11, c.g1n[:, :, open_idx], c.gn1[:, open_idx], g_nn)
    return _boundary_blocks(bloch, velocity, corners, op.dz)


def rgf_smatrix(op: CoupledChannelOperator, e1: float) -> SMatrix:
    """S-matrix at energy e1 via the explicit recursive Green's function
    sweep over every slice, with no screw-run fold: the reference for the
    folded sweep."""
    leads, flags = _leads(op, [e1])
    blocks = [b[0] for b in _solve(replace(op, screw=None), leads, Counter())]
    return SMatrix(float(e1), leads.modes[leads.open_mask[0]], *blocks, bool(flags[0]))


def conductance(s: SMatrix):
    """Landauer conductance sigma/sigma0 and the mode-resolved table.

    sigma/sigma0 = sum |t|^2 over open channels with sigma0 = e^2/h (spinless).
    The table maps (l_incident, l_outgoing) -> sigma_{l', l}/sigma0, in the
    incident-first index order.
    """
    modes = s.open_modes.tolist()
    t2 = (np.abs(s.t) ** 2).T.tolist()  # [incident][outgoing]
    table = {(li, lo): v for li, row in zip(modes, t2) for lo, v in zip(modes, row)}
    return float(_transmission(s.t)), table


def polarization(s: SMatrix, pair: int = 1, side: str = "right") -> float:
    """Angular-momentum polarization of the outgoing current.

    P = sum_{l'} (sigma_{l', +pair} - sigma_{l', -pair}) / sigma over incident
    modes l', for the outgoing mode pair (+pair, -pair).  ``side`` selects the
    outgoing lead: "right" uses left incidence (transmission block t),
    "left" uses right incidence (t_reverse).  Exactly zero when the
    transmission is symmetric under l -> -l.
    """
    if pair <= 0:
        raise ValueError("pair must be a positive mode index")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    block = s.t if side == "right" else s.t_reverse
    p = float(_polarization(block, s.open_modes, pair))
    if np.isnan(p):
        raise UndefinedPolarizationError(
            f"no transmitted current at E1 = {s.e1:.6g}; polarization undefined"
        )
    return p


@dataclass(frozen=True)
class DensityMap:
    """Scattering-state density |psi(theta, z)|^2 on the device grid.

    Normalization: the incident plane wave e^{il theta} e^{ikz} / sqrt(2 pi)
    has unit channel amplitude, i.e. uniform density 1/(2 pi).
    """

    theta: np.ndarray
    z: np.ndarray
    density: np.ndarray  # (n_z, n_theta)
    psi: np.ndarray  # (n_z, n_theta) complex
    e1: float
    l_incident: int
    side: str
    window: tuple[float, float]


def _scattering_state(
    op: CoupledChannelOperator, leads: LeadModeSet, mode: int, side: str
) -> np.ndarray:
    """psi (n_slices, n_modes) on every slice for unit-amplitude injection in
    channel index ``mode`` from the lead on ``side`` (one energy).  The forward
    pass is :func:`_corner_recursion` with no fold and ``mode`` as the one open
    column; its yield after slice j gives g_j and the incident column of G_j1,
    and its last yield includes the right lead.  The left-connected response
    is x_j = amp G_j1 for a source amp on slice 0, and x_j = 0 before the last
    slice for a source there.  Back-substitution then gives psi_{N-1} = x_{N-1}
    and psi_j = x_j - b g_j psi_{j+1}."""
    n_sl, n = op.n_slices, op.n_modes
    b = -op.hop
    sigma = lead_self_energy(leads, op.dz)
    amp = _injection_amplitudes(leads.bloch[mode], leads.velocity[mode], op.dz)
    g = np.empty((n_sl, n, n), dtype=complex)
    x = np.zeros((n_sl, n), dtype=complex)
    e1, flat = np.array([leads.e1]), replace(op, screw=None)
    forward = _corner_recursion(flat, e1, sigma[None], np.array([mode]), Counter())
    for j, c in enumerate(forward):
        g[j] = c.gnn[0]
        if side == "left":
            x[j] = amp * c.gn1[0, :, 0]
    if side == "right":
        x[-1] = amp * g[-1, :, mode]
    for j in range(n_sl - 2, -1, -1):
        x[j] -= b * (g[j] @ x[j + 1])
    return x


def scattering_density(
    op: CoupledChannelOperator,
    e1: float,
    l_incident: int,
    n_theta: int = 64,
    side: str = "left",
) -> DensityMap:
    """Scattering wavefunction density for one incident open mode.

    The channel amplitudes are solved on every slice by the slice recursion
    and back-substitution, and synthesized on a uniform theta grid.  ``side``
    is the lead the wave is incident from.  A singular slice block raises
    NumericalError naming the slice.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    leads = _leads(op, e1)[0]
    # a closed mode is decided by the leads alone, before the device is solved
    hits = np.flatnonzero((op.basis.modes == l_incident) & leads.open_mask)
    if hits.size == 0:
        offset = op.basis.threshold(l_incident, op.include_vg)
        raise ClosedChannelError(
            f"mode {l_incident} is closed at E1 = {e1:.6g} "
            f"(threshold {offset:.6g})"
        )
    amps = _scattering_state(op, leads, int(hits[0]), side)  # (n_slices, n_modes)

    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phases = np.exp(1j * np.outer(theta, op.basis.modes))  # (n_theta, n_modes)
    field_tz = (amps @ phases.T) / np.sqrt(2.0 * np.pi)  # (n_slices, n_theta)
    return DensityMap(
        theta=theta,
        z=op.z_nodes.copy(),
        density=np.abs(field_tz) ** 2,
        psi=field_tz,
        e1=float(e1),
        l_incident=int(l_incident),
        side=side,
        window=op.window,
    )


# ---------------------------------------------------------------------------
# energy sweep
# ---------------------------------------------------------------------------


@dataclass
class ConductanceCurve:
    """Energy-resolved transport results, per-point diagnostics and solver work."""

    energies: np.ndarray
    energies_relative: np.ndarray
    sigma_total: np.ndarray
    sigma_modes: np.ndarray  # (n_e, n_rec, n_rec) indexed [incident, outgoing]
    recorded_modes: np.ndarray
    p_lz: np.ndarray
    n_open: np.ndarray
    unitarity: np.ndarray
    reciprocity: np.ndarray
    flux_error: np.ndarray
    threshold_flags: np.ndarray
    failures: list
    solver: dict


def energy_sweep(
    op: CoupledChannelOperator, energies, pair=1, record_l=2, workers=1
) -> ConductanceCurve:
    """Run the scattering problem over a grid of absolute E1 values.

    ``record_l`` bounds |l| of the recorded mode-resolved pairs; ``pair``
    selects the polarization pair.  Energies with the same open channels form
    a stack, cut into blocks of at most _ENERGY_BLOCK energies, which
    ``workers`` threads solve (numpy releases the GIL in the batched linear
    algebra).  Per-point failures go to ``failures`` and the sweep continues;
    flagged threshold energies are named in one ThresholdProximityWarning.
    The blocks do not depend on ``workers``, so neither do the output and the
    ``solver`` counts.
    """
    energies = np.asarray(energies, dtype=float)
    n_e = energies.size
    n_rec = 2 * record_l + 1
    leads, flags = _leads(op, energies)
    stacks: dict = {}  # open-channel indices -> grid indices, in grid order
    for i, mask in enumerate(leads.open_mask):
        stacks.setdefault(tuple(np.flatnonzero(mask)), []).append(i)
    blocks = [
        idx[k : k + _ENERGY_BLOCK]
        for idx in stacks.values()
        for k in range(0, len(idx), _ENERGY_BLOCK)
    ]

    def solve(idx):
        # one task: a block that raises NumericalError (singular, or a
        # self-energy fault) is re-solved one energy at a time, so only the
        # bad point fails; each task counts its work in its own Counter
        counts, solved, errors, queue = Counter(), [], {}, [idx]
        while queue:
            idx = queue.pop()
            try:
                solved.append((idx, _solve(op, leads.rows(idx), counts)))
            except NumericalError as exc:
                if len(idx) > 1:
                    counts["fallback_points"] += len(idx)
                    queue.extend([i] for i in idx)
                else:
                    errors[idx[0]] = str(exc)
        return solved, errors, counts

    columns = {
        "sigma_total": np.full(n_e, np.nan),
        "sigma_modes": np.full((n_e, n_rec, n_rec), np.nan),
        "p_lz": np.full(n_e, np.nan),
        "n_open": np.zeros(n_e, dtype=int),
        "unitarity": np.full(n_e, np.nan),
        "reciprocity": np.full(n_e, np.nan),
        "flux_error": np.full(n_e, np.nan),
        "threshold_flags": flags,
    }
    failed: dict = {}  # grid index -> error message
    stats: Counter = Counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # filled only after the pool is done: filling beside a running solve
        # contends for the GIL and slowed a one-worker sweep by about 4%
        tasks = list(pool.map(solve, blocks))
    for solved, errors, counts in tasks:
        failed.update(errors)
        stats += counts
        for idx, (t, r, t_rev, r_rev) in solved:
            modes = leads.modes[leads.open_mask[idx[0]]]
            keep = np.flatnonzero(np.abs(modes) <= record_l)
            window = modes[keep] + record_l  # recorded open modes, window positions
            columns["sigma_modes"][idx] = 0.0
            columns["sigma_modes"][np.ix_(idx, window, window)] = (
                np.abs(t[:, keep[:, None], keep].swapaxes(1, 2)) ** 2  # [in, out]
            )
            columns["sigma_total"][idx] = _transmission(t)
            columns["p_lz"][idx] = _polarization(t, modes, pair)
            columns["n_open"][idx] = modes.size
            columns["unitarity"][idx] = _unitarity(t, r, t_rev, r_rev)
            columns["reciprocity"][idx] = _reciprocity(t, t_rev)
            columns["flux_error"][idx] = _flux_error(t, r, t_rev, r_rev)
    band_bottom = float(np.min(op.lead_offsets))
    return ConductanceCurve(
        energies=energies,
        energies_relative=energies - band_bottom,
        recorded_modes=np.arange(-record_l, record_l + 1),
        failures=[
            {"index": i, "e1": float(energies[i]), "error": error}
            for i, error in sorted(failed.items())
        ],
        solver={
            "path": "rgf-batched",
            "n_slices": int(op.n_slices),
            "n_modes": int(op.n_modes),
            "folded_slices": op.screw.stop - op.screw.start if op.screw else 0,
            "stacks": len(stacks),
            "inversions": int(stats["inversions"]),
            "fallback_points": int(stats["fallback_points"]),
        },
        **columns,
    )


def detect_plateaus(e_rel, sigma, tol: float = 0.05, min_points: int = 10):
    """Intervals where sigma sits within tol of an integer level for at least
    min_points consecutive grid points; NaN points break a run."""
    sigma = np.asarray(sigma, dtype=float)
    finite = np.isfinite(sigma)
    top = int(np.nanmax(sigma)) + 1 if np.any(finite) else 0
    plateaus = []
    for level in range(top + 1):
        mask = finite & (np.abs(sigma - level) < tol)
        edges = np.flatnonzero(np.diff(np.concatenate([[0], mask, [0]])))
        for start, stop in zip(edges[::2], edges[1::2]):
            if stop - start >= min_points:
                plateaus.append(
                    {
                        "level": level,
                        "e1_rel_start": float(e_rel[start]),
                        "e1_rel_end": float(e_rel[stop - 1]),
                        "points": int(stop - start),
                    }
                )
    plateaus.sort(key=lambda p: p["e1_rel_start"])
    return plateaus


def sweep_energies(
    e_min: float,
    e_max: float,
    n_points: int,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Monotone energy grid in [e_min, e_max] nudged off exact channel
    thresholds.

    Points falling within 1e-9 of a threshold are shifted up by half a grid
    step, or down where up would leave the range (thresholds are flagged,
    never interpolated over).  Where that lands near a threshold again, or
    not strictly between the point's neighbours, the point moves instead to
    the middle of the widest threshold-free stretch between its neighbours.
    """
    if n_points < 1 or e_max <= e_min:
        raise ValueError("need e_max > e_min and at least one point")
    thresholds = np.asarray(thresholds, dtype=float)
    grid = np.linspace(e_min, e_max, n_points)
    step = (e_max - e_min) / max(n_points - 1, 1)

    for i, e in enumerate(grid):
        if not _near_threshold(e, thresholds):
            continue
        lo = grid[i - 1] if i > 0 else e_min
        hi = grid[i + 1] if i + 1 < n_points else e_max
        up = e + 0.5 * step
        nudged = up if up <= e_max else e - 0.5 * step
        if _near_threshold(nudged, thresholds) or not lo < nudged < hi:
            inside = thresholds[(thresholds > lo) & (thresholds < hi)]
            edges = np.concatenate([[lo], np.sort(inside), [hi]])
            k = int(np.argmax(np.diff(edges)))
            nudged = 0.5 * (edges[k] + edges[k + 1])
        grid[i] = nudged
    return grid
