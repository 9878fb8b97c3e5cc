"""Reference constructions the tests check the package against.

Each is built from dense or sparse matrices of the truncated ladder
operators, independently of the closed forms and recurrences the package
computes with, so agreement between the two is a differential test.  None
of this is package code: the package never builds a squeeze operator or a
displaced squeezed state by matrix exponential.
"""

import functools
import math

import numpy as np
from scipy.sparse import diags_array
from scipy.sparse.linalg import expm_multiply

from squeezeamp import fock, gaussian
from squeezeamp.errors import DimensionMismatchError
from squeezeamp.spinmotion import u_sideband


def default_truncation(r=0.0, alpha_abs=0.0):
    """Fock-space size adequate for squeezing r and displacement |alpha|.

    Sized so the long even-n tail of a squeezed vacuum (mean phonon number
    sinh^2 r) is comfortably inside the basis; the tail monitor remains the
    hard check.
    """
    need = 8.0 * math.sinh(r) ** 2 + 8.0 * alpha_abs**2 + 40.0
    return max(64, int(math.ceil(need)))


def adequate_truncation(xi, alpha_abs=0.0, eps=fock.DEFAULT_TAIL_EPS):
    """Smallest convenient dimension whose truncation tail is below `eps`.

    The heuristic default_truncation underestimates the slow even-n tail of
    strongly squeezed states (decay per level is only e^{-1/cosh²r}), so grow
    the dimension until the closed-form squeezed-vacuum tail, padded by a
    displacement margin, passes the monitor.
    """
    n = default_truncation(xi.r, alpha_abs)
    while True:
        margin = int(math.ceil(4 * alpha_abs**2 + 6 * alpha_abs * math.sqrt(n))) + 4
        sv = gaussian.squeezed_vacuum(xi, fock.FockSpace(n + margin), check_tail=False)
        if np.sum(sv.populations()[n - fock.TAIL_LEVELS :]) < eps:
            return n + margin
        n = int(math.ceil(1.25 * n))


def squeeze_operator(xi, space):
    """Dense matrix of S(ξ) = exp((ξ* a² - ξ a†²)/2) on the truncated space."""
    a = fock.ladder_lowering(space)
    a2 = a @ a
    K = 0.5 * (np.conj(xi.xi) * a2 - xi.xi * a2.conj().T)
    return fock.hermitian_propagator(1j * K, 1.0)


def displaced_squeezed_state(d, xi, space, check_tail=True):
    """D(α) S(ξ)|0>: exp(α a† - α* a) of the truncated, tridiagonal generator
    applied to the squeezed vacuum by `expm_multiply` (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488 (2011)), without forming the dense D(α)."""
    vacuum = gaussian.squeezed_vacuum(xi, space, check_tail=False)
    root = np.sqrt(np.arange(1, space.dim))
    K = diags_array([d.alpha * root, -np.conj(d.alpha) * root], offsets=[-1, 1], format="csr")
    state = fock.MotionalState(space, expm_multiply(K, vacuum.amps))
    if check_tail:
        state.check_tail()
    return state


@functools.lru_cache(maxsize=32)
def _pulse(kind, duration, phase, space):
    """Dense unit-Rabi-rate pulse of `spinmotion.u_sideband`, built once per
    (kind, duration, phase, space); read-only, as every caller shares it."""
    U = u_sideband(kind, 1.0, duration, phase, space)
    U.flags.writeable = False
    return U


def psrsb_exact_pdown(alpha, phi, space, beatnote=0.0):
    """Full matrix-path PSRSB readout: D(alpha)|down,0>, RSB pi-pulse, carrier.

    `beatnote` is the relative phase between the displacement drive and the
    sideband; 0 places the displacement along the sideband's in-phase axis,
    where the fringe amplitude |alpha| f(|alpha|) is maximal.
    """
    disp = gaussian.Displacement(abs(alpha) * np.exp(1j * beatnote))
    amps = np.zeros(2 * space.dim, dtype=complex)
    amps[: space.dim] = gaussian.coherent_state(disp, space).amps
    amps = _pulse("rsb", math.pi, 0.0, space) @ amps
    amps = _pulse("carrier", 0.5 * math.pi, phi, space) @ amps
    return float(np.sum(np.abs(amps[: space.dim]) ** 2))


def expectation(state, op):
    """<psi|op|psi> for a pure state (MotionalState or raw vector)."""
    amps = state if isinstance(state, np.ndarray) else state.amps
    op = np.asarray(op)
    if op.shape != (amps.size, amps.size):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match state of length {amps.size}"
        )
    return complex(amps.conj() @ (op @ amps))


def expectation_value(rho, op):
    """tr(op rho) for a DensityOperator."""
    if op.shape != rho.matrix.shape:
        raise DimensionMismatchError("operator does not match density-matrix shape")
    return complex(np.trace(op @ rho.matrix))


def min_eigenvalue(rho):
    """Least eigenvalue of the Hermitian part of a DensityOperator's matrix."""
    return float(np.linalg.eigvalsh(0.5 * (rho.matrix + rho.matrix.conj().T)).min())
