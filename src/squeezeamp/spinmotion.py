"""Qubit-oscillator composite dynamics: carrier rotations, red/blue sideband
unitaries, the blue-sideband Rabi analysis signal, and the phase-sensitive
red-sideband (PSRSB) readout of a displacement.

Joint vectors are ordered as (spin-down Fock block, spin-up Fock block), so a
2N x 2N operator acts on the down block first.  Phase conventions are frozen
so that the PSRSB fringe is exactly

    P_down(phi) = 1/2 - |alpha| f(|alpha|) cos(phi)

when the displacement is driven in phase with the sideband (beatnote = 0):
the displacement is along the positive real axis, the RSB pi-pulse carries
phase 0, and the carrier pi/2 pulse is rotated by the scan phase phi.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import fock, gaussian
from .errors import DimensionMismatchError

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |up><down|


@dataclass(frozen=True)
class JointState:
    """Pure qubit (x) oscillator state of length 2N: (down block, up block)."""

    space: fock.FockSpace
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 * self.space.dim,):
            raise DimensionMismatchError(
                f"joint vector of length {amps.shape} does not match 2x{self.space.dim}"
            )
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_motional(cls, state, spin="down"):
        amps = np.zeros(2 * state.space.dim, dtype=complex)
        if spin == "down":
            amps[: state.space.dim] = state.amps
        elif spin == "up":
            amps[state.space.dim :] = state.amps
        else:
            raise ValueError("spin must be 'down' or 'up'")
        return cls(state.space, amps)

    @property
    def norm(self):
        return float(np.linalg.norm(self.amps))

    @property
    def p_down(self):
        return float(np.sum(np.abs(self.amps[: self.space.dim]) ** 2))

    @property
    def p_up(self):
        return float(np.sum(np.abs(self.amps[self.space.dim :]) ** 2))

    def motional_populations(self):
        d = self.space.dim
        return np.abs(self.amps[:d]) ** 2 + np.abs(self.amps[d:]) ** 2

    def tail_mass(self, levels=fock.TAIL_LEVELS):
        return float(np.sum(self.motional_populations()[-levels:]))

    def check_tail(self, eps=fock.DEFAULT_TAIL_EPS):
        return fock._checked_tail(self.tail_mass(), eps, self.space.dim)


def sideband_hamiltonian(kind, rabi, phase, space):
    """Joint 2N x 2N Hamiltonian of a resonant `rsb`, `bsb` or `carrier` pulse.

    H_rsb = (Omega/2)(e^{i phase} sigma+ a + h.c.) and `bsb` couples to a†;
    H_carrier = (Omega/2)(e^{-i phase} |down><up| + h.c.) (x) I.
    """
    if kind == "carrier":
        return np.kron(
            0.5 * rabi * np.array([[0, np.exp(-1j * phase)], [np.exp(1j * phase), 0]]),
            np.eye(space.dim),
        )
    if kind not in ("rsb", "bsb"):
        raise ValueError(f"pulse kind must be rsb, bsb or carrier, got {kind!r}")
    a = fock.ladder_lowering(space)
    coupling = a if kind == "rsb" else a.conj().T
    term = 0.5 * rabi * np.exp(1j * phase) * np.kron(_SIGMA_PLUS, coupling)
    return term + term.conj().T


def u_sideband(kind, rabi, duration, phase, space):
    """Unitary exp(-i H t) of a resonant `rsb`, `bsb` or `carrier` pulse (2N x 2N)."""
    return fock.hermitian_propagator(sideband_hamiltonian(kind, rabi, phase, space), duration)


def bsb_phasors(times, omega, gamma, nmax):
    """E[t, n] = exp((-gamma + i omega) sqrt(n+1) t), and sqrt(n+1) t: the
    blue-sideband Rabi phasors of levels n = 0..nmax-1."""
    root_t = np.sqrt(np.arange(nmax) + 1.0) * np.asarray(times, dtype=float)[:, None]
    return np.exp(complex(-gamma, omega) * root_t), root_t


def bsb_signal(populations, omega, gamma, times):
    """Decaying blue-sideband Rabi signal for a Fock distribution.

    P_down(t) = 1/2 (1 + sum_n P_n e^{-gamma sqrt(n+1) t} cos(Omega sqrt(n+1) t)),
    that is 1/2 + Re(E) P / 2 with E from `bsb_phasors`.
    """
    populations = np.asarray(populations, dtype=float)
    if np.any(populations < -1e-12):
        raise ValueError("populations must be nonnegative")
    if populations.sum() > 1.0 + 1e-9:
        raise ValueError("populations must sum to at most 1")
    E, _ = bsb_phasors(times, omega, gamma, populations.size)
    return 0.5 + 0.5 * (E.real @ populations)


#: Most Poisson terms `f_alpha` sums; its window holds about 20 |a| of them,
#: so this admits |a| up to about 5e4.
_F_ALPHA_MAX_TERMS = 1_000_000


def _rsb_pi_weights(n):
    """cos^2(pi sqrt(n)/2) and cos(pi sqrt(n)/2) sin(pi sqrt(n+1)/2) at the levels `n`.

    At any Rabi rate an RSB pi-pulse maps |down,n> to
    cos(pi sqrt(n)/2)|down,n> - i sin(pi sqrt(n)/2)|up,n-1>.
    """
    cos_n = np.cos(0.5 * math.pi * np.sqrt(n))
    return cos_n**2, cos_n * np.sin(0.5 * math.pi * np.sqrt(n + 1))


#: ln n! - (n + 1/2) ln n + n - ln(2 pi)/2 for n = 1..15 (Loader's table,
#: to double precision); the entry at n = 0 is unused.
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n):
    """Error of Stirling's formula, ln n! - (n + 1/2) ln n + n - ln(2 pi)/2,
    at integers n >= 1: the table up to 15, its asymptotic series above."""
    big = np.maximum(n, 16).astype(float)
    inv2 = 1.0 / (big * big)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2) / big
    return np.where(n < 16, _STIRLERR_SMALL[np.minimum(n, 15)], series)


def _bd0(x, m):
    """Deviance term x ln(x/m) + m - x, by its series in v = (x - m)/(x + m)
    where |v| < 0.1, so that no terms of size x cancel near x = m."""
    with np.errstate(divide="ignore"):  # m underflows to 0 below |alpha| ~ 1e-162
        direct = x * np.log(x / m) + m - x
    v = (x - m) / (x + m)
    series, odd = (x - m) * v, 2 * x * v
    for j in range(1, 9):  # the terms fall by v^2 < 0.01 each
        odd = odd * v * v
        series = series + odd / (2 * j + 1)
    return np.where(np.abs(v) < 0.1, series, direct)


def _poisson_pmf(n, mean):
    """e^-mean mean^n / n! at integers n >= 0, in Loader's saddle-point form
    exp(-stirlerr(n) - bd0(n, mean)) / sqrt(2 pi n): good to a few ulp at
    any mean, where the direct form loses ~mean ulp to cancellation."""
    pos = np.maximum(n, 1).astype(float)
    saddle = np.exp(-_stirlerr(n) - _bd0(pos, mean)) / np.sqrt(2 * math.pi * pos)
    return np.where(n == 0, math.exp(-mean), saddle)


def f_alpha(alpha_abs):
    """Fringe-amplitude reduction factor of the exact PSRSB signal.

    f(|a|) = sum_n e^{-|a|^2} |a|^{2n}/n! cos(pi sqrt(n)/2) sin(pi sqrt(n+1)/2)/sqrt(n+1),
    summed over the Poisson window |a|^2 +- 10 sqrt(|a|^2 + 1), and at least
    over n < 30.  Raises ValueError where that window holds more than
    `_F_ALPHA_MAX_TERMS` terms.
    """
    alpha_abs = abs(alpha_abs)
    if alpha_abs == 0:
        return 1.0
    mean = alpha_abs**2
    half = 10 * math.sqrt(mean + 1)
    lo, hi = max(0, math.floor(mean - half)), max(30, math.ceil(mean + half))
    if hi - lo > _F_ALPHA_MAX_TERMS:
        raise ValueError(
            f"f_alpha at |alpha| = {alpha_abs:.4g} needs {hi - lo} Poisson terms, "
            f"more than the {_F_ALPHA_MAX_TERMS} it sums")
    n = np.arange(lo, hi)
    return float(np.sum(_poisson_pmf(n, mean) * _rsb_pi_weights(n)[1] / np.sqrt(n + 1)))


def psrsb_pdown_series(alpha, phi):
    """Closed-form fringe 1/2 - |alpha| f(|alpha|) cos(phi)."""
    mag = abs(alpha)
    return 0.5 - mag * f_alpha(mag) * math.cos(phi)


def psrsb_exact_pdown(alpha, phi, space, beatnote=0.0):
    """Full matrix-path PSRSB readout: D(alpha)|down,0>, RSB pi-pulse, carrier.

    `beatnote` is the relative phase between the displacement drive and the
    sideband; 0 places the displacement along the sideband's in-phase axis,
    where the fringe amplitude |alpha| f(|alpha|) is maximal.
    """
    mag = abs(alpha)
    disp = gaussian.Displacement(mag * np.exp(1j * beatnote))
    motional = gaussian.coherent_state(disp, space)
    amps = JointState.from_motional(motional, "down").amps
    amps = u_sideband("rsb", 1.0, math.pi, 0.0, space) @ amps
    amps = u_sideband("carrier", 1.0, 0.5 * math.pi, phi, space) @ amps
    return JointState(space, amps).p_down


def psrsb_contrast(alpha, space=None):
    """Fringe contrast C = P_down(pi) - P_down(0) = 2 |alpha| f(|alpha|)."""
    if space is None:
        return 2.0 * abs(alpha) * f_alpha(abs(alpha))
    return psrsb_exact_pdown(alpha, math.pi, space) - psrsb_exact_pdown(alpha, 0.0, space)


def rsb_readout(rho):
    """P_down and tr rho_ud after an RSB pi-pulse on |down><down| (x) rho.

    The pulse is block-diagonal in the pairs {|down,n+1>, |up,n>}, so in O(N):
    P_down = sum_n cos^2(pi sqrt(n)/2) rho_nn and
    tr rho_ud = -i sum_n cos(pi sqrt(n)/2) sin(pi sqrt(n+1)/2) rho_{n+1,n}.
    The dense `u_sideband` is its test oracle.
    """
    if rho.kind != "motional":
        raise ValueError("rsb_readout expects a motional density operator")
    stay, coherence = _rsb_pi_weights(np.arange(rho.space.dim))
    p_down = float(np.sum(stay * np.diagonal(rho.matrix).real))
    t_ud = -1j * complex(np.sum(coherence[:-1] * np.diagonal(rho.matrix, -1)))
    return p_down, t_ud


def psrsb_fringe_density(rho, phis):
    """PSRSB fringe P_down(phi) of a motional density operator.

    With the qubit in |down>, an RSB pi-pulse and a carrier pi/2 pulse at each
    phase in `phis`: P_down(phi) = 1/2 tr(rho) + Re(-i e^{-i phi} tr rho_ud).
    """
    _, t_ud = rsb_readout(rho)
    base = 0.5 * rho.trace.real
    phis = np.asarray(phis, dtype=float)
    return base + np.real(-1j * np.exp(-1j * phis) * t_ud)
