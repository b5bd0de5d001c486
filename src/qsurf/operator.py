"""Discretizations of the effective surface Hamiltonian.

Two forms are produced:

* a coupled-channel (angular-mode) operator on the cylinder for transport:
  the wavefunction is expanded in e^{i l theta}/sqrt(2 pi), which turns the
  2D problem into coupled 1D lattices along z, block-tridiagonal with
  hopping -1/dz^2 * I;
* a sparse 2D real-space operator on a general chart for closed-system
  spectra: the flux form sum_a D_a^T W_a D_a of the Laplace-Beltrami
  operator, with per-axis difference matrices D_a closed by a periodic wrap,
  Dirichlet walls or no flux ("natural"), plus the effective potential.

Everything is in natural units (hbar = 1, 2m = 1, lengths a, energies e0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .confinement import ConfinementProfile, TransverseWell, add_morphology
from .confinement import transverse_ground_energy
from .errors import NumericalError, ResolutionError
from .geometry import SurfaceChart, curvature, metric

_COUPLING_CLEAN_RTOL = 1e-14  # drop FFT round-off below this relative level
_SCREW_RTOL = 1e-12  # rotated blocks of a screw run agree to this, relative

MAX_K_DZ = 0.2  # shortest-wavelength resolution requirement
MIN_POINTS_PER_PITCH = 20


@dataclass(frozen=True)
class ChannelBasis:
    """Angular-momentum channel set l = -l_max..l_max on a cylinder."""

    l_max: int
    radius: float = 1.0

    def __post_init__(self):
        if self.l_max < 0:
            raise ValueError("l_max must be non-negative")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.l_max, self.l_max + 1)

    @property
    def n_modes(self) -> int:
        return 2 * self.l_max + 1

    def index(self, l: int) -> int:
        if abs(l) > self.l_max:
            raise ValueError(f"mode {l} outside basis (l_max={self.l_max})")
        return l + self.l_max

    @property
    def geometric_potential(self) -> float:
        """Constant curvature potential of the cylinder, -1/(4 r^2)."""
        return -1.0 / (4.0 * self.radius**2)

    def threshold(self, l, include_vg: bool):
        """Threshold l^2/r^2 + V_g of channel(s) l (V_g only with include_vg)."""
        vg = self.geometric_potential if include_vg else 0.0
        return (l / self.radius) ** 2 + vg


@dataclass(frozen=True)
class LeadModeSet:
    """Propagation data of the clean leads at one energy or a stack of them.

    Per channel l: longitudinal momentum ``k`` (complex; imaginary part for
    evanescent channels), Bloch factor ``e^{i k dz}``, lattice group velocity
    ``v = (2/dz) sin(k dz)`` (zero for evanescent channels) and openness.
    A channel is open iff E1 > E_l + V_g (strict; ties count as evanescent),
    with E_l = l^2/r^2 and V_g included according to ``include_vg``.

    For a scalar ``e1`` these fields have shape (n_modes,).  For a 1-D array
    of energies ``e1`` is that array, and ``k``, ``bloch``, ``velocity`` and
    ``open_mask`` have shape (n_energies, n_modes), row i belonging to e1[i].
    """

    e1: float | np.ndarray
    dz: float
    modes: np.ndarray
    offsets: np.ndarray
    k: np.ndarray
    bloch: np.ndarray
    velocity: np.ndarray
    open_mask: np.ndarray
    include_vg: bool

    @property
    def n_open(self):
        """Number of open channels; an array over the energies of a stack."""
        return np.count_nonzero(self.open_mask, axis=-1)

    @property
    def open_modes(self) -> np.ndarray:
        """The open modes, in ascending order; defined for one energy only."""
        return self.modes[self.open_mask]

    def rows(self, idx) -> LeadModeSet:
        """The energies at indices idx of a stack, as a stack."""
        stacked = ("e1", "k", "bloch", "velocity", "open_mask")
        return replace(self, **{name: getattr(self, name)[idx] for name in stacked})


def lead_modes(
    e1, basis: ChannelBasis, dz: float, include_vg: bool = True
) -> LeadModeSet:
    """Exact eigenmodes of the discrete clean lead at energy e1, a scalar or a
    1-D array of energies (see :class:`LeadModeSet` for the energy axis).

    The lattice dispersion E = offset + (2/dz^2)(1 - cos k dz) is inverted for
    all channels at once with x = cos(k dz): |x| < 1 is open; x >= 1 (ties
    included) decays with real e^{i k dz} in (0, 1]; x <= -1 decays with an
    alternating sign, k = pi/dz + i kappa.  |e^{i k dz}| <= 1 on every branch
    (= 1 on open channels, up to rounding).
    """
    e1 = np.asarray(e1, dtype=float)
    modes = basis.modes
    offsets = basis.threshold(modes, include_vg)
    x = 1.0 - (e1[..., None] - offsets) * dz**2 / 2.0

    open_mask = np.abs(x) < 1.0
    above = x >= 1.0
    s = np.sqrt(np.where(open_mask, 1.0 - x * x, 0.0))
    root = np.sqrt(np.where(open_mask, 0.0, x * x - 1.0))
    k_re = np.where(
        open_mask,
        np.arccos(np.clip(x, -1.0, 1.0)) / dz,
        np.where(above, 0.0, math.pi / dz),
    )
    kappa = np.arccosh(np.where(open_mask, 1.0, np.abs(x))) / dz
    k = k_re + 1j * kappa
    bloch = np.where(open_mask, x + 1j * s, np.where(above, x - root, x + root))
    velocity = 2.0 * s / dz

    return LeadModeSet(
        e1=e1 if e1.ndim else float(e1),
        dz=float(dz),
        modes=modes,
        offsets=offsets,
        k=k,
        bloch=bloch,
        velocity=velocity,
        open_mask=open_mask,
        include_vg=include_vg,
    )


# ---------------------------------------------------------------------------
# angular Fourier couplings of the inhomogeneity potential
# ---------------------------------------------------------------------------


def fourier_couplings(
    profile: ConfinementProfile,
    well: TransverseWell,
    basis: ChannelBasis,
    z,
    n_theta: Optional[int] = None,
) -> np.ndarray:
    """Angular-mode matrix of (s - 1) E0 at height(s) z.

    V_{l,l'}(z) = (1/2pi) Int_0^{2pi} e^{-i(l-l') theta} (s(theta,z)-1) E0 dtheta,
    evaluated by FFT.  The matrix is Hermitian and Toeplitz in l - l'; for the
    single-cosine helical profile only |l - l'| in {0, m_d} survives.

    z may be a scalar (returns (n, n)) or a 1D array (returns (len(z), n, n)).
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    n = basis.n_modes
    if profile.kind == "homogeneous":
        out = np.zeros((zs.size, n, n), dtype=complex)
        return out[0] if scalar else out

    m_d = profile.theta_harmonic
    nyquist_floor = 2 * (2 * basis.l_max) + 2
    if n_theta is None:
        n_theta = max(64, nyquist_floor, 8 * m_d if m_d else 256)
    if m_d is not None and m_d >= 1 and n_theta < 8 * m_d:
        raise ResolutionError(
            f"n_theta = {n_theta} under-samples the corrugation "
            f"(need >= 8*m_d = {8 * m_d} theta-samples)"
        )
    if n_theta < nyquist_floor:
        raise ResolutionError(
            f"n_theta = {n_theta} cannot resolve couplings out to |l-l'| = "
            f"{2 * basis.l_max} (need >= {nyquist_floor})"
        )

    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    f = add_morphology(0.0, profile, well, theta[None, :], zs[:, None])  # (nz, n_theta)
    coeff = np.fft.fft(f, axis=1) / n_theta  # c_m = (1/n) sum f e^{-i m theta}

    diff = basis.modes[:, None] - basis.modes[None, :]
    v = coeff[:, np.mod(diff, n_theta)]  # (nz, n, n)

    scale = np.max(np.abs(v))
    if scale > 0.0:
        v[np.abs(v) < _COUPLING_CLEAN_RTOL * scale] = 0.0
    v = 0.5 * (v + np.conj(np.swapaxes(v, -1, -2)))
    return v[0] if scalar else v


# ---------------------------------------------------------------------------
# coupled-channel operator on the cylinder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScrewRun:
    """Screw symmetry of a helical window: slices ``start..stop-1`` of an
    open operator are one block up to the diagonal gauge
    W_j = diag(exp(-i l q z_j)).

    Under psi_j = W_j phi_j every on-site block of the run becomes the same
    matrix W_j^dag onsite[j] W_j, and the hopping between neighbours becomes
    the constant phase hop * diag(exp(-i l q dz)).  The run excludes the first
    and last slice of the device, which carry the lead self-energies.
    """

    q: float
    start: int
    stop: int

    def gauge(self, modes: np.ndarray, z) -> np.ndarray:
        """Diagonal of W at height z (a scalar) or at each height of z."""
        return np.exp(-1j * self.q * np.multiply.outer(z, modes))


@dataclass(frozen=True)
class CoupledChannelOperator:
    """Block-tridiagonal effective Hamiltonian on the cylinder.

    Slices sit at ``z_nodes``; on-site blocks contain the kinetic constant
    2/dz^2, the channel offsets l^2/r^2 (+ V_g), and the Fourier couplings of
    (s-1) E0 inside the scattering window.  Hopping blocks are hop * identity
    with hop = -1/dz^2.  Slices outside the window (lead padding) are diagonal
    and z-independent, matching the semi-infinite leads, whose on-site
    diagonal is 2/dz^2 + lead_offsets.  ``screw`` is the screw run of a
    helical window (None when there is none).
    """

    basis: ChannelBasis
    dz: float
    z_nodes: np.ndarray
    onsite: np.ndarray  # (n_slices, n_modes, n_modes) complex
    lead_offsets: np.ndarray  # (n_modes,)
    include_vg: bool
    window: tuple[float, float]
    n_pad: int
    style: str  # "open" (transport) or "closed" (Dirichlet segment)
    screw: Optional[ScrewRun] = None

    @property
    def hop(self) -> float:
        return -1.0 / self.dz**2

    @property
    def n_slices(self) -> int:
        return self.onsite.shape[0]

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    def lead_mode_set(self, e1) -> LeadModeSet:
        return lead_modes(e1, self.basis, self.dz, include_vg=self.include_vg)

    def sparse(self) -> sp.csr_matrix:
        """The operator as one CSR matrix with Dirichlet ends: the on-site
        blocks on the block diagonal, hop on the +-n_modes diagonals."""
        n, n_sl = self.n_modes, self.n_slices
        size = n * n_sl
        blocks = sp.bsr_matrix(
            (self.onsite, np.arange(n_sl), np.arange(n_sl + 1)), shape=(size, size)
        )
        hopping = sp.diags([self.hop, self.hop], [-n, n], shape=(size, size))
        h = (blocks + hopping).tocsr()
        h.eliminate_zeros()
        return h


def _screw_run(
    profile: ConfinementProfile,
    modes: np.ndarray,
    z_nodes: np.ndarray,
    weights: np.ndarray,
    onsite: np.ndarray,
) -> Optional[ScrewRun]:
    """The screw run of a helical window, or None where there is none.

    The run covers the slices at full taper weight, without the device's
    first and last slice.  It is kept only if it spans at least two slices
    and every rotated block equals the first to _SCREW_RTOL * max|onsite|.
    """
    kz = profile.params.get("z_wavenumber")
    full = np.flatnonzero(weights == 1.0)
    if kz is None or full.size == 0:
        return None
    start = max(int(full[0]), 1)
    stop = min(int(full[-1]) + 1, onsite.shape[0] - 1)
    if stop - start < 2:
        return None
    run = ScrewRun(q=kz / profile.params["m_d"], start=start, stop=stop)
    w = run.gauge(modes, z_nodes[start:stop])
    rotated = w.conj()[:, :, None] * onsite[start:stop] * w[:, None, :]
    if np.max(np.abs(rotated - rotated[0])) > _SCREW_RTOL * np.max(np.abs(onsite)):
        return None
    return run


def _taper_weight(z: np.ndarray, length: float, taper: float) -> np.ndarray:
    """Cosine on/off ramp of the window potential; abrupt when taper == 0."""
    w = np.zeros_like(z)
    inside = (z > 0.0) & (z < length)
    w[inside] = 1.0
    if taper > 0.0:
        left = inside & (z < taper)
        right = inside & (z > length - taper)
        w[left] = 0.5 * (1.0 - np.cos(np.pi * z[left] / taper))
        w[right] = 0.5 * (1.0 - np.cos(np.pi * (length - z[right]) / taper))
    return w


def required_dz(
    e1_max: float,
    basis: ChannelBasis,
    profile: Optional[ConfinementProfile] = None,
    well: Optional[TransverseWell] = None,
    include_vg: bool = True,
) -> float:
    """Largest slice spacing satisfying the resolution rules.

    k_max dz <= 0.2 with k_max from the deepest point of the device (lead
    band bottom lowered by the attractive well depth epsilon*E0), and at
    least 20 slices per helix pitch when the potential oscillates in z.
    """
    depth = 0.0
    if profile is not None and profile.kind != "homogeneous" and well is not None:
        depth = profile.epsilon * transverse_ground_energy(well)
    k2 = e1_max - basis.threshold(0, include_vg) + depth
    dz = MAX_K_DZ / math.sqrt(k2) if k2 > 0.0 else math.inf
    if profile is not None and profile.z_period is not None:
        dz = min(dz, profile.z_period / MIN_POINTS_PER_PITCH)
    if not math.isfinite(dz):
        raise ResolutionError("cannot determine a slice spacing: no energy scale")
    return dz


def assemble_coupled_channel(
    profile: ConfinementProfile,
    well: TransverseWell,
    basis: ChannelBasis,
    length: float,
    dz: Optional[float] = None,
    n_z: Optional[int] = None,
    lead_pad: float = 0.0,
    taper: float = 0.0,
    include_vg: bool = True,
    n_theta: Optional[int] = None,
    e1_max: Optional[float] = None,
    closed: bool = False,
) -> CoupledChannelOperator:
    """Build the coupled-channel operator for a scattering window [0, length].

    Exactly one of ``dz`` and ``n_z`` fixes the grid (``dz`` is snapped so an
    integer number of slices covers the window).  ``lead_pad`` adds clean
    slices of that physical length on both sides (transport style only).
    ``taper`` ramps the window potential on and off over that length at each
    edge; 0 means abrupt edges.  ``e1_max``, when given, validates the grid
    against the k_max*dz <= 0.2 rule; the helix-pitch rule is always applied.

    With ``closed=True`` the operator describes a Dirichlet segment: interior
    nodes z = j*h, j = 1..n_z, h = length/(n_z+1), no padding, potential on
    the whole segment.

    An open operator of a helical profile records its screw run
    (:class:`ScrewRun`) in ``screw``; it is None for other profiles, for
    closed segments, and when fewer than two slices sit at full weight.
    """
    if length <= 0.0:
        raise ValueError(f"length = {length} must be positive")
    if (dz is None) == (n_z is None):
        raise ValueError("specify exactly one of dz and n_z")

    if closed:
        if n_z is None:
            n_z = max(int(math.ceil(length / dz)) - 1, 1)
        h = length / (n_z + 1)
        _validate_dz(h, profile, e1_max, basis, well, include_vg)
        z_nodes = length * np.arange(1, n_z + 1) / (n_z + 1)
        n_pad = 0
    else:
        if n_z is None:
            n_z = max(int(math.ceil(length / dz)), 1)
        h = length / n_z
        _validate_dz(h, profile, e1_max, basis, well, include_vg)
        n_pad = int(round(lead_pad / h)) if lead_pad > 0.0 else 0
        total = n_z + 2 * n_pad
        z_nodes = (np.arange(total) + 0.5) * h - n_pad * h

    n = basis.n_modes
    lead_offsets = basis.threshold(basis.modes, include_vg)
    kinetic = 2.0 / h**2

    onsite = np.zeros((z_nodes.size, n, n), dtype=complex)
    idx = np.arange(n)
    onsite[:, idx, idx] = kinetic + lead_offsets[None, :]

    screw = None
    if profile.kind != "homogeneous":
        if closed:
            weights = np.ones_like(z_nodes)
        else:
            weights = _taper_weight(z_nodes, length, taper)
        active = weights > 0.0
        if np.any(active):
            v = fourier_couplings(profile, well, basis, z_nodes[active], n_theta)
            onsite[active] += weights[active, None, None] * v
        if not closed:
            screw = _screw_run(profile, basis.modes, z_nodes, weights, onsite)

    return CoupledChannelOperator(
        basis=basis,
        dz=float(h),
        z_nodes=z_nodes,
        onsite=onsite,
        lead_offsets=lead_offsets,
        include_vg=include_vg,
        window=(0.0, float(length)),
        n_pad=n_pad,
        style="closed" if closed else "open",
        screw=screw,
    )


def _validate_dz(dz, profile, e1_max, basis, well, include_vg):
    if e1_max is not None:
        k2 = e1_max - basis.threshold(0, include_vg)
        if k2 > 0.0:
            k_max = math.sqrt(k2)
            if k_max * dz > MAX_K_DZ * (1.0 + 1e-12):
                raise ResolutionError(
                    f"dz = {dz:.4g} under-resolves the shortest wavelength at "
                    f"E1 = {e1_max:.4g} (k_max*dz = {k_max * dz:.3g} > {MAX_K_DZ}); "
                    f"need dz <= {MAX_K_DZ / k_max:.4g}"
                )
    if profile is not None and profile.z_period is not None:
        if dz > profile.z_period / MIN_POINTS_PER_PITCH * (1.0 + 1e-12):
            raise ResolutionError(
                f"dz = {dz:.4g} under-resolves the helix pitch "
                f"{profile.z_period:.4g} (need >= {MIN_POINTS_PER_PITCH} slices "
                f"per pitch: dz <= {profile.z_period / MIN_POINTS_PER_PITCH:.4g})"
            )


def closed_matrix(op: CoupledChannelOperator) -> np.ndarray:
    """Dense Hermitian matrix of the operator with Dirichlet ends."""
    return op.sparse().toarray()


def closed_eigenvalues(op: CoupledChannelOperator, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the Dirichlet segment (shift-invert Lanczos,
    shifted to the Gershgorin lower bound of the spectrum).  k must be
    smaller than the matrix size minus one; larger k raises NumericalError."""
    h = op.sparse()
    diag = h.diagonal()
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    return lowest_eigenvalues_2d(h, k, sigma=float(np.min(diag.real - radius)))


# ---------------------------------------------------------------------------
# sparse 2D operator on a general chart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid2D:
    """Node layout of the 2D discretization (tensor grid, per-axis closure)."""

    q1: np.ndarray
    q2: np.ndarray
    bc: tuple[str, str]
    v_min: float  # nodal potential minimum; spectral lower bound of H


def _axis_nodes(lo: float, hi: float, n: int, closure: str):
    extent = hi - lo
    if closure == "dirichlet":
        h = extent / (n + 1)
        nodes = lo + h * np.arange(1, n + 1)
    elif closure == "periodic":
        h = extent / n
        nodes = lo + h * np.arange(n)
    elif closure == "natural":
        h = extent / n
        nodes = lo + h * (np.arange(n) + 0.5)
    else:
        raise ValueError(f"unknown closure '{closure}'")
    return nodes, h


def _differences(nodes: np.ndarray, h: float, lo: float, hi: float, closure: str):
    """Face positions of one grid axis and its (faces x nodes) difference matrix.

    Row f is psi[right] - psi[left] across face f.  Every closure has the
    interior faces.  "periodic" adds the wrap face from the last node to the
    first.  "dirichlet" adds a wall face at each end; the ghost node beyond it
    is zero, so a wall row has a single entry.  "natural" (zero flux) adds
    nothing.
    """
    e = sp.identity(nodes.size, format="csr")
    faces, d = 0.5 * (nodes[:-1] + nodes[1:]), e[1:] - e[:-1]
    if closure == "periodic":
        faces = np.append(faces, nodes[-1] + 0.5 * h)
        d = sp.vstack([d, e[0] - e[-1]])
    elif closure == "dirichlet":
        faces = np.append(faces, [lo + 0.5 * h, hi - 0.5 * h])
        d = sp.vstack([d, e[0], -e[-1]])
    return faces, d.tocsr()


def assemble_2d(
    chart: SurfaceChart,
    profile: Optional[ConfinementProfile] = None,
    well: Optional[TransverseWell] = None,
    n1: int = 64,
    n2: int = 64,
    bc: Optional[tuple[str, str]] = None,
):
    """Sparse Hermitian 2D Hamiltonian on the chart's domain box.

    Flux form of -(1/sqrt(g)) d_a sqrt(g) g^{ab} d_b + V: with D_a the
    difference matrix of axis a (:func:`_differences`), metric coefficients
    at its faces and the measure m = sqrt(g) h1 h2 at the nodes,

        A = sum_a D_a^T diag(sqrt(g) g^{aa} h_b / h_a) D_a + diag(V m).

    A non-diagonal metric adds D_1^T diag(sqrt(g) g^{12} / 4) D_2 + transpose
    on the cell corners, where D_a differences axis a and sums the other axis
    (no wall rows).  V = V_g + (s-1) E0; one curvature call at the nodes
    gives both m and V_g.  The generalized problem A psi = E M psi is recast
    as H = M^{-1/2} A M^{-1/2}.

    Returns (H, grid) with H in CSR format, exactly symmetric.
    """
    (a1, b1), (a2, b2) = chart.domain
    bc = bc or (chart.axis_closure(0), chart.axis_closure(1))
    q1, h1 = _axis_nodes(a1, b1, n1, bc[0])
    q2, h2 = _axis_nodes(a2, b2, n2, bc[1])

    def sqrt_det(g):
        return np.sqrt(g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 0, 1])

    def flux_coefficients(a, b):
        """sqrt(g) g^{11}, sqrt(g) g^{12} and sqrt(g) g^{22} on the grid a x b."""
        g = metric(chart, tuple(np.meshgrid(a, b, indexing="ij"))).reshape(-1, 2, 2)
        sq = sqrt_det(g)
        return g[:, 1, 1] / sq, -g[:, 0, 1] / sq, g[:, 0, 0] / sq

    qq1, qq2 = np.meshgrid(q1, q2, indexing="ij")
    nodes = curvature(chart, (qq1, qq2))
    g_n = nodes.metric
    mass = (sqrt_det(g_n) * h1 * h2).ravel()

    faces1, d1 = _differences(q1, h1, a1, b1, bc[0])
    faces2, d2 = _differences(q2, h2, a2, b2, bc[1])
    grad = sp.vstack(
        [sp.kron(d1, sp.identity(n2)), sp.kron(sp.identity(n1), d2)], format="csr"
    )
    w1 = flux_coefficients(faces1, q2)[0] * (h2 / h1)
    w2 = flux_coefficients(q1, faces2)[2] * (h1 / h2)
    a = grad.T @ grad.multiply(np.concatenate([w1, w2])[:, None])

    if np.max(np.abs(g_n[..., 0, 1])) > 1e-14 * max(
        1.0, float(np.max(np.abs(g_n[..., 0, 0])))
    ):
        # corners have no wall rows: a Dirichlet axis is natural there
        open_bc = ["natural" if c == "dirichlet" else c for c in bc]
        c1, e1 = _differences(q1, h1, a1, b1, open_bc[0])
        c2, e2 = _differences(q2, h2, a2, b2, open_bc[1])
        # corner differences are sums of two, scaled by 1/(2 h_a): with the
        # cell area h1 h2 that leaves sqrt(g) g^{12} / 4
        w = flux_coefficients(c1, c2)[1] / 4.0
        mixed = sp.kron(e1, abs(e2)).T @ sp.diags(w) @ sp.kron(abs(e1), e2)
        a = a + (mixed + mixed.T)  # grouped so that a stays exactly symmetric

    v_node = add_morphology(nodes.potential, profile, well, qq1, qq2)
    h = (a + sp.diags(v_node.ravel() * mass)).tocsr()

    inv_sqrt_m = 1.0 / np.sqrt(mass)
    rows = np.repeat(np.arange(n1 * n2), np.diff(h.indptr))
    # parenthesized so transposed entries scale by the bitwise-identical factor
    h.data *= inv_sqrt_m[rows] * inv_sqrt_m[h.indices]
    return h, Grid2D(q1=q1, q2=q2, bc=bc, v_min=float(np.min(v_node)))


def lowest_eigenvalues_2d(h: sp.csr_matrix, k: int, sigma: float) -> np.ndarray:
    """Lowest k eigenvalues of a sparse Hermitian operator (shift-invert
    Lanczos).

    Shift-invert returns the eigenvalues nearest to ``sigma``, so ``sigma``
    must sit below the spectrum.  For the 2D operator pass ``grid.v_min``
    minus a margin (the kinetic quadratic form is positive semidefinite, so
    the potential minimum bounds the spectrum from below).

    ``h - sigma`` is factorised once by SuperLU under a multiple-minimum-degree
    ordering of A^T + A, which suits the symmetric pattern: SuperLU's default,
    COLAMD, is built for unsymmetric matrices and leaves about twice the fill
    on a 2D grid.  ARPACK gets the factor's solve as ``OPinv``.  A singular
    factor raises NumericalError.  The Lanczos start vector comes from a fixed
    seed, so reruns return bit-identical values.
    """
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, h.shape[0])
    try:
        shifted = (h - sigma * sp.identity(h.shape[0], format="csr")).tocsc()
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
        opinv = spla.LinearOperator(shifted.shape, lu.solve, dtype=shifted.dtype)
        vals = spla.eigsh(
            h,
            k=k,
            sigma=sigma,
            which="LM",
            v0=v0,
            OPinv=opinv,
            return_eigenvectors=False,
        )
    except Exception as exc:  # factorization or convergence failure
        raise NumericalError(f"sparse eigensolve failed: {exc}") from exc
    return np.sort(vals)
