"""Lindblad open-system evolution for the amplification protocol.

The decoherence model has two motional channels: heating through the
Lindblad operators sqrt(nbar_dot) a† and sqrt(nbar_dot) a, and dephasing
through sqrt(Gamma) a†a.  Both act on the oscillator only; the qubit is
treated as noiseless during sideband pulses.

Evolution uses a Strang split per step: an exact unitary half-step (the
Hamiltonian propagator from an eigendecomposition), a classical 4th-order
Runge-Kutta step of the dissipator, and a second unitary half-step.  The
split is symmetric, so its error is even in dt, and `extrapolated_doubling`,
the step controller shared with `frame`, builds a Romberg table over runs at
4, 8, 16, ... steps: k runs cancel the error terms through dt^(2k-2).  A
segment not converged at its step ceiling, or whose run is not finite,
raises ConvergenceError.

The dissipator costs O(N^2): a is bidiagonal, so the heating terms are
shifted slices of rho with sqrt(n) weights, and dephasing is elementwise.
Motional segments run on each nonzero N x N qubit block of the joint
state instead of the 2N x 2N matrix.
"""

from dataclasses import dataclass, field
import logging
import math

import numpy as np

from . import fock, spinmotion
from .errors import ConfigError, ConvergenceError, DimensionMismatchError

SEGMENT_KINDS = ("displace", "parametric", "rsb", "bsb", "carrier", "free")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NoiseParams:
    """Motional heating rate (quanta/s) and dephasing rate (1/s)."""

    heating_rate: float = 20.0
    dephasing_rate: float = 18.0

    def __post_init__(self):
        if self.heating_rate < 0 or self.dephasing_rate < 0:
            raise ValueError("noise rates must be >= 0")

    @property
    def is_zero(self):
        return self.heating_rate == 0.0 and self.dephasing_rate == 0.0

    @classmethod
    def none(cls):
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class Segment:
    """One pulse-sequence element.

    `strength` is the drive rate in rad/s: the displacement Rabi rate for
    `displace` (final alpha = strength * duration * e^{i phase}), the
    parametric coupling g for `parametric` (r = g * duration), the sideband
    or carrier Rabi rate otherwise.  `free` ignores phase and strength.
    """

    kind: str
    duration: float  # seconds
    phase: float = 0.0
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("segment duration must be finite and > 0")
        if not (np.isfinite(self.phase) and np.isfinite(self.strength)):
            raise ValueError("segment phase and strength must be finite")
        if self.strength < 0:
            raise ValueError("segment strength must be >= 0")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse segments sharing one phase reference."""

    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    def __len__(self):
        return len(self.segments)

    @property
    def total_duration(self):
        return sum(s.duration for s in self.segments)

    def to_text(self):
        """One segment per line: kind duration_us phase_rad strength."""
        lines = ["# kind duration_us phase_rad strength"]
        for s in self.segments:
            lines.append(f"{s.kind} {s.duration * 1e6:.17g} {s.phase:.17g} {s.strength:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        segments = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(
                    f"segment line {lineno} needs 4 fields (kind duration_us phase_rad strength)",
                    line=lineno,
                )
            kind = parts[0]
            try:
                duration_us, phase, strength = (float(p) for p in parts[1:])
            except ValueError:
                raise ConfigError(
                    f"segment line {lineno} has a non-numeric field", line=lineno
                ) from None
            try:
                segments.append(Segment(kind, duration_us * 1e-6, phase, strength))
            except ValueError as exc:
                raise ConfigError(f"segment line {lineno}: {exc}", line=lineno) from None
        return cls(tuple(segments))


MOTIONAL_KINDS = ("displace", "parametric", "free")


def _motional_hamiltonian(segment, space):
    """N x N Hamiltonian of a MOTIONAL_KINDS segment, or None for `free`."""
    if segment.kind == "free":
        return None
    a = fock.ladder_lowering(space)
    if segment.kind == "displace":
        # exp(-i H t) = D(s t e^{i phase})
        term = 1j * segment.strength * np.exp(1j * segment.phase) * a.conj().T
        return term + term.conj().T
    a2 = a @ a
    return 1j * 0.5 * segment.strength * (
        a2 * np.exp(-1j * segment.phase) - a2.conj().T * np.exp(1j * segment.phase)
    )


def segment_hamiltonian(segment, space):
    """Joint-space (2N x 2N) Hamiltonian of one segment.

    Motional drives are tensored with the qubit identity so every segment
    acts on the same composite space.
    """
    if segment.kind not in MOTIONAL_KINDS:
        return spinmotion.sideband_hamiltonian(
            segment.kind, segment.strength, segment.phase, space
        )
    h_mot = _motional_hamiltonian(segment, space)
    if h_mot is None:
        h_mot = np.zeros((space.dim, space.dim), dtype=complex)
    return np.kron(np.eye(2), h_mot)


def _noise_operators(dim, joint, noise):
    """Elementwise weights of the dissipator on an N- or 2N-dim space.

    Returns (diag, hop): D(rho) = diag * rho plus the heating hops
    hop * rho[i-1, j-1] (from a† rho a) and hop * rho[i+1, j+1] (from
    a rho a†).  At joint dimension n restarts at 0 in the second qubit
    block, so sqrt(n) = 0 at the block edge and no hop crosses blocks.
    """
    n = np.arange(dim, dtype=float)
    if joint:
        n = np.concatenate([n, n])
    # anticommutator half: (nbar_dot (a a† + a†a) + Gamma n²) / 2, diagonal
    half = 0.5 * (noise.heating_rate * (2 * n + 1) + noise.dephasing_rate * n**2)
    diag = noise.dephasing_rate * np.outer(n, n) - half[:, None] - half[None, :]
    root = np.sqrt(n[1:])
    hop = noise.heating_rate * np.outer(root, root)
    return diag, hop


def _dissipator(rho, ops):
    diag, hop = ops
    out = diag * rho
    out[1:, 1:] += hop * rho[:-1, :-1]
    out[:-1, :-1] += hop * rho[1:, 1:]
    return out


def _strang_run(rho, H, ops, t, n_steps):
    """n_steps Strang steps; adjacent unitary half-steps merge into one."""
    dt = t / n_steps
    if H is not None:
        u_half = fock.hermitian_propagator(H, 0.5 * dt)
        u_full = u_half @ u_half
        rho = u_half @ rho @ u_half.conj().T
    for step in range(n_steps):
        k1 = _dissipator(rho, ops)
        k2 = _dissipator(rho + 0.5 * dt * k1, ops)
        k3 = _dissipator(rho + 0.5 * dt * k2, ops)
        k4 = _dissipator(rho + dt * k3, ops)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if H is not None:
            u = u_full if step < n_steps - 1 else u_half
            rho = u @ rho @ u.conj().T
    return rho


def trace_distance(m1, m2):
    """Half the trace norm of the difference of two matrices."""
    return 0.5 * float(np.sum(np.linalg.svd(m1 - m2, compute_uv=False)))


def extrapolated_doubling(run, tol, min_steps, max_steps, engine, kind=None):
    """`run(n_steps)` of a symmetric step scheme, converged by step doubling.

    Runs at n, 2n, 4n, ... steps from `min_steps` fill a Romberg table: each
    run S starts a row at T_0 = S and extends it by
    T_j = T_(j-1) + (T_(j-1) - T'_(j-1)) / (4^j - 1), T' the previous row, so
    the top entry of the row of k runs cancels the error terms in dt^2, dt^4,
    ..., dt^(2k-2).  From the third run on, the new row's top entry is
    returned once its trace distance to the previous row's top entry is
    below `tol`; else ConvergenceError follows the first run of >=
    `max_steps` steps, or any run whose matrix is not finite.  Success logs
    one DEBUG record whose attributes `engine`, `kind`, `steps` (every run)
    and `distance` say how.
    """
    if min_steps < 1 or 2 * min_steps >= max_steps:
        raise ValueError("need min_steps >= 1 and max_steps > 2 * min_steps (three runs)")
    name = f"{engine} {kind or 'segment'}"
    steps, row = [min_steps], []
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            new_row = [run(steps[-1])]
        if not np.all(np.isfinite(new_row[0])):
            raise ConvergenceError(f"{name} run of {steps[-1]} steps is not finite")
        for j, coarser in enumerate(row, start=1):
            new_row.append(new_row[-1] + (new_row[-1] - coarser) / (4.0**j - 1.0))
        if len(row) >= 2:
            distance = trace_distance(row[-1], new_row[-1])
            if distance < tol:
                record = dict(engine=engine, kind=kind, steps=tuple(steps), distance=distance)
                _log.debug("%s converged, steps %s, distance %.3g", name,
                           "/".join(map(str, steps)), distance, extra=record)
                return new_row[-1]
        if steps[-1] >= max_steps:
            raise ConvergenceError(f"{name} not converged after {steps[-1]} steps")
        row = new_row
        steps.append(2 * steps[-1])


def lindblad_evolve(rho, H, noise, t, tol=1e-7, min_steps=4, max_doublings=10):
    """Evolve a DensityOperator under constant H plus the noise channels.

    Converged to `tol` by `extrapolated_doubling`, from `min_steps` Strang
    steps up to max(16, ceil(t / 1 us)) * 2^max_doublings.
    """
    if not isinstance(rho, fock.DensityOperator):
        raise TypeError("rho must be a DensityOperator")
    mat = rho.matrix
    if H is not None and H.shape != mat.shape:
        raise DimensionMismatchError("Hamiltonian does not match density-matrix shape")
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    if t == 0 or (noise.is_zero and H is None):
        return rho
    if noise.is_zero:
        u = fock.hermitian_propagator(H, t)
        return fock.DensityOperator(rho.space, u @ mat @ u.conj().T, rho.kind)

    ops = _noise_operators(rho.space.dim, rho.kind == "joint", noise)
    out = extrapolated_doubling(lambda n: _strang_run(mat, H, ops, t, n), tol, min_steps,
                                max(16, math.ceil(t / 1e-6)) * 2**max_doublings, "dense")
    return fock.DensityOperator(rho.space, out, rho.kind)


def _lift_initial(initial, space=None):
    """Normalize the accepted initial-state types to a joint DensityOperator."""
    if isinstance(initial, fock.DensityOperator):
        if initial.kind == "joint":
            return initial
        dim = initial.space.dim
        mat = np.zeros((2 * dim, 2 * dim), dtype=complex)
        mat[:dim, :dim] = initial.matrix
        return fock.DensityOperator(initial.space, mat, "joint")
    if isinstance(initial, spinmotion.JointState):
        return fock.DensityOperator(
            initial.space, np.outer(initial.amps, initial.amps.conj()), "joint"
        )
    if isinstance(initial, fock.MotionalState):
        return _lift_initial(fock.DensityOperator.from_motional(initial))
    raise TypeError("initial must be a JointState, MotionalState, or DensityOperator")


def run_sequence(seq, noise, initial, tol=1e-7):
    """Apply every segment of a PulseSequence with Lindblad noise.

    Noise acts throughout every segment.  Motional segments
    (`MOTIONAL_KINDS`) act as I (x) L on the joint state, so each nonzero
    N x N qubit block evolves on its own, converged to `tol` in trace
    distance.  After every segment the
    truncation tail is checked (TruncationError).  Returns the joint
    DensityOperator.
    """
    rho = _lift_initial(initial)
    space = rho.space
    d = space.dim
    for segment in seq.segments:
        if segment.kind in MOTIONAL_KINDS:
            H = _motional_hamiltonian(segment, space)
            mat = rho.matrix.copy()
            for rows in (slice(0, d), slice(d, None)):
                for cols in (slice(0, d), slice(d, None)):
                    if np.any(mat[rows, cols]):
                        block = fock.DensityOperator(space, mat[rows, cols])
                        out = lindblad_evolve(block, H, noise, segment.duration, tol=tol)
                        mat[rows, cols] = out.matrix
            rho = fock.DensityOperator(space, mat, "joint")
        else:
            H = segment_hamiltonian(segment, space)
            rho = lindblad_evolve(rho, H, noise, segment.duration, tol=tol)
        rho.check_tail()
    return rho
