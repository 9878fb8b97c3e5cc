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

Each step is a Strang split at the step midpoint: a dephasing half-step,
an RK4 heating step, a dephasing half-step.  The conjugated dephasing
operator Gamma^(1/2) A†A acquires matrix elements of order e^{2r} n, making
a generic explicit integrator stiff; since it is Hermitian and constant
within a step, its half-steps are exact in its own eigenbasis V_k, where the
element (i, j) decays by exp(-Gamma dt (q_i - q_j)^2 / 4).

Nothing but rho depends on the step before, so the maps, the matrices A_k
and the eigendecompositions of A_k†A_k are built for a chunk of steps at
once from array-valued times.  rho is carried in the eigenbasis of the
current step: both half-steps are then elementwise products, heating runs
on V_k† A_k V_k, and consecutive steps are joined by the one basis change
V_(k-1)† V_k.  Without dephasing rho stays in the Fock basis.

Every step is symmetric (the generator is frozen at the step midpoint and
the dephasing half-steps are exact; RK4 heating breaks the symmetry only at
dt^5 a step), as `lindblad.extrapolated_doubling`, the step controller both
noisy engines share, requires: its Romberg table over runs at 4, 8, 16, ...
steps cancels the even error terms dt^2, dt^4, ... one more per run.  No
substep runs backwards, as in higher-order compositions: a negative
dephasing step would grow coherences by exp(+Gamma |dt| q^2 / 4).
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from . import fock, gaussian, lindblad
from .gaussian import FrameMap

#: Steps whose rho-independent work (maps, matrices, eigendecompositions) is
#: batched together.  A chunk holds a few chunk x N x N stacks, so a larger
#: one trades memory for fewer numpy calls.
_CHUNK = 8


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _heating_step(rho, A, pair, h):
    """RK4 step of rho' = A rho A† + A† rho A - H rho - rho H over h = rate dt,
    with H = (A†A + A A†) / 2 and `pair` = A stacked on A† by rows.

    The generator equals -(E + E†) / 2 with E = [A, [A†, rho]], and for
    Hermitian rho [A†, rho] = A† rho - (A rho)†: four matrix products an
    evaluation.  For this linear generator RK4 is the fourth-order Taylor
    polynomial of the step, taken here in Horner form.
    """
    dim = rho.shape[0]
    out = rho
    for j in (4, 3, 2, 1):
        a_out, ad_out = (pair @ out).reshape(2, dim, dim)
        comm = ad_out - _dagger(a_out)
        e = A @ comm - comm @ A
        out = rho - (0.5 * h / j) * (e + _dagger(e))
    return out


def _segment_step_run(rho, base_map, segment, noise, n_steps):
    """`n_steps` Strang steps of one segment from rho; see the module docstring."""
    dt = segment.duration / n_steps
    heating, gamma = noise.heating_rate, noise.dephasing_rate
    dim = rho.shape[0]
    space = fock.FockSpace(dim)
    basis = np.eye(dim, dtype=complex)  # rho is carried as basis† rho basis
    for start in range(0, n_steps, _CHUNK):
        tau = (np.arange(start, min(start + _CHUNK, n_steps)) + 0.5) * dt
        fmap = base_map.compose_local(gaussian.segment_map(segment, tau))
        A = np.broadcast_to(fmap.lowering_matrix(space), tau.shape + rho.shape)
        if gamma:
            q, V = np.linalg.eigh(_dagger(A) @ A)
            decay = np.exp(-0.25 * gamma * dt * (q[:, :, None] - q[:, None, :]) ** 2)
            W = _dagger(np.concatenate((basis[None], V[:-1]))) @ V
            Wd = _dagger(W)
            basis = V[-1]
        if heating:
            if gamma:
                A = _dagger(V) @ A @ V
            pair = np.concatenate((A, _dagger(A)), axis=1)
        for k in range(len(tau)):
            if gamma:
                rho = (Wd[k] @ rho @ W[k]) * decay[k]
            if heating:
                rho = _heating_step(rho, A[k], pair[k], heating * dt)
            if gamma:
                rho = rho * decay[k]
    return basis @ rho @ _dagger(basis)


def evolve_frame_segment(rho, base_map, segment, noise, tol=1e-7, min_steps=4,
                         max_doublings=11):
    """Advance the frame density matrix through one Gaussian segment.

    Returns (rho, map after the segment).  The coherent part is absorbed in
    the map update; only noise touches rho.  Strang runs double from
    `min_steps` under `lindblad.extrapolated_doubling` until the tops of two
    Romberg rows agree within `tol`, up to min_steps * 2^max_doublings steps.
    """
    end_map = base_map.compose_local(gaussian.segment_map(segment, segment.duration))
    if noise.is_zero or not segment.noise_active:
        return rho, end_map
    return lindblad.extrapolated_doubling(
        lambda n_steps: _segment_step_run(rho, base_map, segment, noise, n_steps),
        tol, min_steps, min_steps * 2**max_doublings, "frame", segment.kind), end_map


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

    def lab_density(self, lab_space=None, residual_tol=1e-9):
        """Reconstruct the lab-frame density operator rho = V rho~ V†.

        Requires the total map to be displacement plus rotation (|nu| small):
        then V = D(c) e^{-i lambda n} with e^{-i lambda} = mu, and both
        factors are applied exactly/densely at the (small) lab truncation.
        """
        if self.fmap.squeeze_magnitude > residual_tol:
            raise ValueError(
                "total sequence map still contains squeezing "
                f"(|nu| = {self.fmap.squeeze_magnitude:.2e}); "
                "reconstruct only after the anti-squeeze completes"
            )
        if lab_space is None:
            need = fock.default_truncation(0.0, abs(self.fmap.c)) + self.space.dim
            lab_space = fock.FockSpace(max(need, self.space.dim))
        d = lab_space.dim
        big = np.zeros((d, d), dtype=complex)
        nf = self.space.dim
        big[:nf, :nf] = self.rho
        lam = -cmath.phase(self.fmap.mu)
        phases = np.exp(-1j * lam * np.arange(d))
        big = (phases[:, None] * big) * np.conj(phases[None, :])
        D = gaussian.displacement_operator(gaussian.Displacement(self.fmap.c), lab_space)
        return fock.DensityOperator(lab_space, D @ big @ D.conj().T, "motional")


def run_gaussian_sequence_frame(seq, noise, space=None, tol=1e-7):
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
        rho, fmap = evolve_frame_segment(rho, fmap, segment, noise, tol=tol)
    return FrameResult(space, rho, fmap)


def amplification_sequence(alpha_i, r, g, displace_duration=5e-6, theta=0.0,
                           displacement_phase=0.0, noise_during_displacement=True):
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
                (displacement_phase + cmath.phase(complex(alpha_i))) % (2 * math.pi),
                abs(alpha_i) / displace_duration,
                noise_active=noise_during_displacement,
            )
        )
    if r > 0:
        segments.append(
            lindblad.Segment("parametric", t_sq, (theta + math.pi) % (2 * math.pi), g)
        )
    return lindblad.PulseSequence(tuple(segments))


def amplify_with_noise(alpha_i, r, noise, g, displace_duration=5e-6, theta=0.0,
                       frame_space=None, noise_during_displacement=True, tol=1e-7):
    """Noisy amplification of a small displacement at arbitrary squeezing.

    Returns a FrameResult whose map carries the ideal alpha_f and whose
    density matrix carries the decoherence accumulated in the frame.
    """
    seq = amplification_sequence(
        alpha_i, r, g, displace_duration, theta,
        noise_during_displacement=noise_during_displacement,
    )
    return run_gaussian_sequence_frame(seq, noise, space=frame_space, tol=tol)
