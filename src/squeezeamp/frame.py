"""Interaction-frame Lindblad engine for strongly squeezed sequences.

Simulating squeeze-displace-antisqueeze with noise in the lab Fock basis
needs a truncation that grows like e^{2r}, which is hopeless for r above
about 1.5.  This engine instead tracks rho in the frame of the ideal
(noiseless) sequence unitary V(t): the coherent dynamics disappear and only
the conjugated noise channels remain,

    L -> V†(t) L V(t),

which for the Gaussian segments used here is an affine Bogoliubov transform
of the ladder operator, a -> mu a + nu a† + c: a `gaussian.FrameMap`, built
for each segment by `gaussian.segment_map`.  The frame state stays close to
the vacuum, so a few dozen Fock levels suffice at any r.

Each step is a Strang split at the step midpoint,

    D(h/2) Z1(h/2) Z2(h) Z1(h/2) D(h/2),

of exact channels only.  D is dephasing: the conjugated operator
Gamma^(1/2) A†A acquires matrix elements of order e^{2r} n, making a generic
explicit integrator stiff, but it is Hermitian and constant within a step,
so D is exact in its eigenbasis V_k, where the element (i, j) decays by
exp(-Gamma t (q_i - q_j)^2 / 2).  Z1 and Z2 are heating.  With
A = (x' + i p')/√2 + c, where (x', p') = S (x, p) and S is the map's real
2 x 2 quadrature matrix (det S = 1),

    D[A] + D[A†] = D[x'] + D[p'] = lam1 D[z1] + lam2 D[z2]

holds exactly for the truncated matrices: heating is covariant under
displacements, so c drops out, and D is bilinear in its jump operator, so
SᵀS = R diag(lam1, lam2) Rᵀ turns it into diffusion along the two
quadratures z1 = cos(phi) x + sin(phi) p and z2 (z1 turned by pi/2), with
lam1 lam2 = 1 (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  Each
D[z] is a pure dephasing with a Hermitian jump operator, exact in z's
eigenbasis, where the element (i, j) decays by exp(-lam t (xi_i - xi_j)^2 / 2).
Since z(phi) = P x P† with P = diag(e^{i phi n}), every such eigenbasis is
the one eigenbasis U of the truncated x turned by a diagonal phase, and the
basis change from z1 to z2 is the same C = U† diag(i^n) U for every phi.
U and C are computed once per dimension.  The split of Z1 and Z2 is exact up
to the truncation edge, where [x, p] = i (1 - N |N-1><N-1|).

Nothing but rho depends on the step before, so the maps, the matrices A_k,
the eigendecompositions of A_k†A_k and the heating eigenbases are built for
a chunk of steps at once from array-valued times.  rho is carried in the
eigenbasis of the current step's first substep, V_k, or the z1 eigenbasis
without dephasing: every decay is then an elementwise product, and each
substep costs one basis change.

Every substep is an exact completely positive map, so rho stays positive at
any dt, and every step is exactly symmetric (the generator is frozen at the
step midpoint and the split is a palindrome), as
`lindblad.extrapolated_doubling`, the step controller both noisy engines
share, requires: its Romberg table over runs at 2, 4, 8, ... steps cancels
the even error terms dt^2, dt^4, ... one more per run.  No substep runs
backwards, as in higher-order compositions: a negative dephasing step would
grow coherences by exp(+Gamma |dt| q^2 / 4).
"""

from dataclasses import dataclass
import cmath
import functools
import math

import numpy as np

from . import fock, gaussian, lindblad
from .errors import DimensionMismatchError
from .gaussian import FrameMap

#: Steps whose rho-independent work (maps, matrices, eigendecompositions) is
#: batched together.  A chunk holds a few chunk x N x N stacks, so a larger
#: one trades memory for fewer numpy calls.
_CHUNK = 8

#: Largest residual squeezing |nu| of a total sequence map that counts as
#: none: `FrameResult.lab_density` needs the map to be displacement plus
#: rotation.
SQUEEZE_RESIDUAL_TOL = 1e-9

#: Step ceiling of a frame segment: its last run has 2 * 2^12 steps.
_MAX_STEPS = 8192


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


@functools.cache
def _quadrature_basis(dim):
    """(xi, U, C): the eigenvalues xi and real eigenvectors U of the truncated
    x = (a + a†)/√2, and C = U† diag(i^n) U, which takes rho from the
    eigenbasis of z(phi) to that of z(phi + pi/2) at every phi."""
    a = fock.ladder_lowering(fock.FockSpace(dim)).real
    xi, U = np.linalg.eigh((a + a.T) / math.sqrt(2))
    C = U.T @ (np.array([1, 1j, -1, -1j])[np.arange(dim) % 4, None] * U)
    for m in (xi, U, C):
        m.flags.writeable = False
    return xi, U, C


def _heating_axes(fmap):
    """(lam1, lam2, phi) with D[A] + D[A†] = lam1 D[z(phi)] + lam2 D[z(phi + pi/2)]
    for A the map's lowering matrix and z(phi) = cos(phi) x + sin(phi) p:
    lam1 >= lam2 = 1/lam1 are the eigenvalues of SᵀS, S the map's quadrature
    matrix, and (cos phi, sin phi) is lam1's eigenvector."""
    S = fmap.quadrature_matrix
    g = S.swapaxes(-1, -2) @ S
    half_diff, off = 0.5 * (g[..., 0, 0] - g[..., 1, 1]), g[..., 0, 1]
    lam1 = 0.5 * (g[..., 0, 0] + g[..., 1, 1]) + np.hypot(half_diff, off)
    return lam1, 1.0 / lam1, 0.5 * np.arctan2(off, half_diff)


def _segment_step_run(rho, base_map, segment, noise, n_steps):
    """`n_steps` Strang steps of one segment from rho; see the module docstring."""
    dt = segment.duration / n_steps
    heating, gamma = noise.heating_rate, noise.dephasing_rate
    dim = rho.shape[0]
    space = fock.FockSpace(dim)
    basis = np.eye(dim, dtype=complex)  # rho is carried as basis† rho basis
    if heating:
        xi, U, C = _quadrature_basis(dim)
        Cd = C.conj().T
        spread = (xi[:, None] - xi[None, :]) ** 2
        levels = np.arange(dim)[:, None]
    for start in range(0, n_steps, _CHUNK):
        tau = (np.arange(start, min(start + _CHUNK, n_steps)) + 0.5) * dt
        fmap = base_map.compose_local(gaussian.segment_map(segment, tau))
        if heating:
            lam1, lam2, phi = np.broadcast_arrays(*_heating_axes(fmap), tau)[:3]
            Z = np.exp(1j * phi[:, None, None] * levels) * U  # P_phi U, the z1 eigenbases
            z1 = np.exp(-0.25 * heating * dt * lam1[:, None, None] * spread)
            z2 = np.exp(-0.5 * heating * dt * lam2[:, None, None] * spread)
        if gamma:
            A = np.broadcast_to(fmap.lowering_matrix(space), tau.shape + rho.shape)
            q, V = np.linalg.eigh(_dagger(A) @ A)
            decay = np.exp(-0.25 * gamma * dt * (q[:, :, None] - q[:, None, :]) ** 2)
            if heating:
                T = _dagger(V) @ Z
                Td = _dagger(T)
        rest = V if gamma else Z  # the basis rho rests in between steps
        W = _dagger(np.concatenate((basis[None], rest[:-1]))) @ rest
        Wd = _dagger(W)
        basis = rest[-1]
        for k in range(len(tau)):
            rho = Wd[k] @ rho @ W[k]  # a new array: the decays below act in place
            if gamma:
                rho *= decay[k]
                if heating:
                    rho = Td[k] @ rho @ T[k]
            if heating:
                rho *= z1[k]
                rho = Cd @ rho @ C
                rho *= z2[k]
                rho = C @ rho @ Cd
                rho *= z1[k]
                if gamma:
                    rho = T[k] @ rho @ Td[k]
            if gamma:
                rho *= decay[k]
    return basis @ rho @ _dagger(basis)


def evolve_frame_segment(rho, base_map, segment, noise):
    """Advance the frame density matrix through one Gaussian segment.

    Returns (rho, map after the segment).  The coherent part is absorbed in
    the map update; only noise touches rho.  Strang runs double under
    `lindblad.extrapolated_doubling` up to `_MAX_STEPS` steps.
    """
    end_map = base_map.compose_local(gaussian.segment_map(segment, segment.duration))
    if noise.is_zero:
        return rho, end_map
    return lindblad.extrapolated_doubling(
        lambda n_steps: _segment_step_run(rho, base_map, segment, noise, n_steps),
        _MAX_STEPS, "frame", segment.kind), end_map


@dataclass(frozen=True)
class FrameResult:
    """Frame density matrix plus the accumulated ideal-sequence map."""

    space: fock.FockSpace
    rho: np.ndarray
    fmap: FrameMap

    @property
    def mean_lowering(self):
        """Lab-frame <a> = mu <a~> + nu <a†~> + c."""
        a = fock.ladder_lowering(self.space)
        at = complex(np.trace(a @ self.rho))
        return self.fmap.mu * at + self.fmap.nu * np.conj(at) + self.fmap.c

    def lab_density(self, lab_space):
        """Reconstruct the lab-frame density operator rho = V rho~ V†.

        Requires the total map to be displacement plus rotation (|nu| small):
        then V = D(c) e^{-i lambda n} with e^{-i lambda} = mu, and both
        factors are applied densely on `lab_space`, which must hold the frame space.
        """
        if lab_space.dim < self.space.dim:
            raise DimensionMismatchError(
                f"lab space of {lab_space.dim} levels cannot hold the "
                f"{self.space.dim}-level frame state")
        if self.fmap.squeeze_magnitude > SQUEEZE_RESIDUAL_TOL:
            raise ValueError(
                "total sequence map still contains squeezing "
                f"(|nu| = {self.fmap.squeeze_magnitude:.2e}); "
                "reconstruct only after the anti-squeeze completes"
            )
        d = lab_space.dim
        big = np.zeros((d, d), dtype=complex)
        nf = self.space.dim
        big[:nf, :nf] = self.rho
        lam = -cmath.phase(self.fmap.mu)
        phases = np.exp(-1j * lam * np.arange(d))
        big = (phases[:, None] * big) * np.conj(phases[None, :])
        D = gaussian.displacement_operator(gaussian.Displacement(self.fmap.c), lab_space)
        return fock.DensityOperator(lab_space, D @ big @ D.conj().T, "motional")


def run_gaussian_sequence_frame(seq, noise, space=None):
    """Frame-engine counterpart of run_sequence for Gaussian motional segments.

    `space` is the frame truncation (a few tens of levels); the initial state
    is the ground state, as in the amplification protocol.
    """
    for segment in seq.segments:
        gaussian.segment_map(segment, 0.0)  # ValueError on a kind that is not Gaussian
    if space is None:
        space = fock.FockSpace(48)
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    fmap = FrameMap()
    for segment in seq.segments:
        rho, fmap = evolve_frame_segment(rho, fmap, segment, noise)
    return FrameResult(space, rho, fmap)


def amplification_sequence(alpha_i, r, g, displace_duration=5e-6, theta=0.0):
    """Squeeze(r, theta), displace(alpha_i), anti-squeeze pulse sequence.

    The pre-squeeze uses phase theta and the post-squeeze theta+pi so the
    net Heisenberg map is the pure displacement D(alpha_f) with
    alpha_f = alpha_i cosh r + alpha_i* e^{i theta} sinh r.
    """
    if r < 0 or g <= 0:
        raise ValueError("need r >= 0 and g > 0")
    t_sq = r / g
    segments = []
    if r > 0:
        segments.append(lindblad.Segment("parametric", t_sq, theta % (2 * math.pi), g))
    if abs(alpha_i) > 0:
        segments.append(
            lindblad.Segment(
                "displace",
                displace_duration,
                cmath.phase(complex(alpha_i)) % (2 * math.pi),
                abs(alpha_i) / displace_duration,
            )
        )
    if r > 0:
        segments.append(
            lindblad.Segment("parametric", t_sq, (theta + math.pi) % (2 * math.pi), g)
        )
    return lindblad.PulseSequence(tuple(segments))


def amplify_with_noise(alpha_i, r, noise, g, displace_duration=5e-6, theta=0.0,
                       frame_space=None):
    """Noisy amplification of a small displacement at arbitrary squeezing.

    Returns a FrameResult whose map carries the ideal alpha_f and whose
    density matrix carries the decoherence accumulated in the frame.

    Raises FloatingPointError before any step when the noiseless map keeps
    a residual squeezing |nu| above `SQUEEZE_RESIDUAL_TOL`: in float64 the
    anti-squeeze cannot undo a squeeze from r ~ 8.7 up, and `lab_density`
    would refuse the result.
    """
    seq = amplification_sequence(alpha_i, r, g, displace_duration, theta)
    fmap = FrameMap()
    for segment in seq.segments:
        fmap = fmap.compose_local(gaussian.segment_map(segment, segment.duration))
    if fmap.squeeze_magnitude > SQUEEZE_RESIDUAL_TOL:
        raise FloatingPointError(
            f"squeeze r = {r:g} cannot be undone in float64: the noiseless map keeps "
            f"|nu| = {fmap.squeeze_magnitude:.2e}, above the residual "
            f"{SQUEEZE_RESIDUAL_TOL:g} that lab_density accepts")
    return run_gaussian_sequence_frame(seq, noise, space=frame_space)
