"""Truncated Fock-space representation and elementary operator algebra.

Everything downstream (Gaussian operations, sideband dynamics, Lindblad
evolution) is built on the dense matrices produced here.  Internally
hbar = 1 and all Hamiltonians are in angular-frequency units (rad/s).
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import DimensionMismatchError, TruncationError

#: Number of top Fock levels summed by the truncation-tail monitor.
TAIL_LEVELS = 4

#: Default upper bound on acceptable tail mass.
DEFAULT_TAIL_EPS = 1e-8


@dataclass(frozen=True)
class FockSpace:
    """Truncated harmonic-oscillator Hilbert space spanned by |0> ... |dim-1>."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Fock-space dimension must be >= 2, got {self.dim}")


def ladder_lowering(space):
    """Annihilation operator a with a|n> = sqrt(n)|n-1>."""
    n = np.arange(1, space.dim)
    return np.diag(np.sqrt(n).astype(complex), k=1)


def ladder_raising(space):
    """Creation operator a† (conjugate transpose of the lowering operator)."""
    return ladder_lowering(space).conj().T


def number_operator(space):
    """Number operator n = a†a = diag(0, 1, ..., dim-1)."""
    return np.diag(np.arange(space.dim).astype(complex))


def identity(space):
    return np.eye(space.dim, dtype=complex)


def default_truncation(r=0.0, alpha_abs=0.0):
    """Fock-space size adequate for squeezing r and displacement |alpha|.

    Sized so the long even-n tail of a squeezed vacuum (mean phonon number
    sinh^2 r) is comfortably inside the basis; the tail monitor remains the
    hard check.
    """
    need = 8.0 * math.sinh(r) ** 2 + 8.0 * alpha_abs**2 + 40.0
    return max(64, int(math.ceil(need)))


def _checked_tail(tail, eps, dim):
    """Return `tail`, or raise TruncationError when it reaches `eps`."""
    if tail >= eps:
        raise TruncationError(
            f"tail mass {tail:.3e} >= {eps:.1e}; increase the truncation (dim={dim})"
        )
    return tail


@dataclass(frozen=True)
class MotionalState:
    """Pure oscillator state: complex amplitudes over the Fock basis."""

    space: FockSpace
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.shape} does not match dim {self.space.dim}"
            )
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, space, amps):
        amps = np.asarray(amps, dtype=complex)
        nrm = np.linalg.norm(amps)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(space, amps / nrm)

    @property
    def norm(self):
        return float(np.linalg.norm(self.amps))

    def population(self, n):
        return float(abs(self.amps[n]) ** 2)

    def populations(self):
        return np.abs(self.amps) ** 2

    def tail_mass(self, levels=TAIL_LEVELS):
        """Total population in the top `levels` Fock states."""
        return float(np.sum(np.abs(self.amps[-levels:]) ** 2))

    def check_tail(self, eps=DEFAULT_TAIL_EPS):
        return _checked_tail(self.tail_mass(), eps, self.space.dim)


def fock_state(space, n):
    """Basis state |n>."""
    if not 0 <= n < space.dim:
        raise ValueError(f"Fock index {n} outside truncation 0..{space.dim - 1}")
    amps = np.zeros(space.dim, dtype=complex)
    amps[n] = 1.0
    return MotionalState(space, amps)


def vacuum(space):
    return fock_state(space, 0)


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix, either oscillator-only or qubit (x) oscillator."""

    space: FockSpace
    matrix: np.ndarray = field(repr=False)
    kind: str = "motional"  # "motional" or "joint"

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.space.dim if self.kind == "motional" else 2 * self.space.dim
        if mat.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match {self.kind} space of dim {dim}"
            )
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_motional(cls, state):
        rho = np.outer(state.amps, state.amps.conj())
        return cls(state.space, rho, "motional")

    @classmethod
    def from_joint(cls, state):
        rho = np.outer(state.amps, state.amps.conj())
        return cls(state.space, rho, "joint")

    @property
    def trace(self):
        return complex(np.trace(self.matrix))

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T)).min())

    def populations(self):
        """Diagonal in the Fock basis (motional) or the full 2N basis (joint)."""
        return np.real(np.diag(self.matrix)).copy()

    def motional_populations(self):
        """Fock populations, tracing out the qubit if present."""
        d = self.space.dim
        diag = np.real(np.diag(self.matrix))
        if self.kind == "joint":
            return diag[:d] + diag[d:]
        return diag.copy()

    def expectation_value(self, op):
        if op.shape != self.matrix.shape:
            raise DimensionMismatchError("operator does not match density-matrix shape")
        return complex(np.trace(op @ self.matrix))

    def tail_mass(self, levels=TAIL_LEVELS):
        pops = self.motional_populations()
        return float(np.sum(pops[-levels:]))

    def check_tail(self, eps=DEFAULT_TAIL_EPS):
        return _checked_tail(self.tail_mass(), eps, self.space.dim)


def expectation(state, op):
    """<psi|op|psi> for a pure state (MotionalState, JointState or raw vector)."""
    amps = state if isinstance(state, np.ndarray) else state.amps
    op = np.asarray(op)
    if op.shape != (amps.size, amps.size):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match state of length {amps.size}"
        )
    return complex(amps.conj() @ (op @ amps))


def fidelity(a, b):
    """|<a|b>|^2 between pure states of the same dimension."""
    va = a if isinstance(a, np.ndarray) else a.amps
    vb = b if isinstance(b, np.ndarray) else b.amps
    if va.shape != vb.shape:
        raise DimensionMismatchError("states live in different spaces")
    return float(abs(np.vdot(va, vb)) ** 2)


def hermiticity_defect(m):
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_propagator(H, t):
    """U = exp(-i H t) for Hermitian H, via eigendecomposition."""
    defect = hermiticity_defect(H)
    scale = max(1.0, float(np.max(np.abs(H))))
    if defect > 1e-9 * scale:
        raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")
    # numpy's eigh keeps this and the numpy products around it in one
    # OpenBLAS thread pool; scipy bundles its own, and alternating the two
    # lets the idle pool's spinning threads take the cores.  The CLI runs
    # both pools at one thread, so this matters where a thread variable
    # overrides that, and in programs that import the library.
    w, v = np.linalg.eigh(H)
    phases = np.exp(-1j * w * t)
    return (v * phases) @ v.conj().T
