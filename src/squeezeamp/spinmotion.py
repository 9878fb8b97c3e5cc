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

import math

import numpy as np

from . import fock

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |up><down|


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


def _half_pi_root_phase(n):
    """cos(pi sqrt(n)/2) and sin(pi sqrt(n)/2) at the integers `n` >= 0.

    With q = floor(sqrt(n)), sqrt(n) = q + t for t = (n - q^2)/(sqrt(n) + q),
    whose numerator is an exact integer, so the phase carries the rounding
    of t < 1, not that of sqrt(n), which grows like sqrt(n) ulp.  The turn by
    pi q/2 is exact.  q is exact below n ~ 4.5e15.
    """
    n = np.asarray(n, dtype=float)
    root = np.sqrt(n)
    q = np.floor(root)
    t = (n - q * q) / np.maximum(root + q, 1.0)  # at n = 0: 0 / 1
    cos_t, sin_t = np.cos(0.5 * math.pi * t), np.sin(0.5 * math.pi * t)
    quarter = q.astype(int) % 4
    cos_q, sin_q = np.array([1, 0, -1, 0])[quarter], np.array([0, 1, 0, -1])[quarter]
    return cos_q * cos_t - sin_q * sin_t, sin_q * cos_t + cos_q * sin_t


def _rsb_pi_weights(n):
    """cos^2(pi sqrt(n)/2) and cos(pi sqrt(n)/2) sin(pi sqrt(n+1)/2) at the levels `n`.

    At any Rabi rate an RSB pi-pulse maps |down,n> to
    cos(pi sqrt(n)/2)|down,n> - i sin(pi sqrt(n)/2)|up,n-1>.
    """
    cos_n = _half_pi_root_phase(n)[0]
    return cos_n**2, cos_n * _half_pi_root_phase(n + 1)[1]


#: Levels `f_alpha`'s window reaches past |a|^2 + 10 sqrt(|a|^2 + 1): they hold the heavy
#: upper tail of small means, so no more than 6e-18 of the Poisson mass is left out.
_F_ALPHA_TOP_MARGIN = 5


def f_alpha(alpha_abs):
    """Fringe-amplitude reduction factor of the exact PSRSB signal.

    f(|a|) = sum_n e^{-|a|^2} |a|^{2n}/n! cos(pi sqrt(n)/2) sin(pi sqrt(n+1)/2)/sqrt(n+1),
    summed from n = |a|^2 - 10 sqrt(|a|^2 + 1) up to the larger of 30 and
    |a|^2 + 10 sqrt(|a|^2 + 1), plus `_F_ALPHA_TOP_MARGIN` levels.  The
    Poisson weights come from their ratio recurrence on both sides of the
    mode, so none exceeds 1, and are normalized over that window.  Raises
    ValueError where the window holds more than `_F_ALPHA_MAX_TERMS` terms.
    """
    alpha_abs = abs(alpha_abs)
    if alpha_abs == 0:
        return 1.0
    mean = alpha_abs**2
    half = 10 * math.sqrt(mean + 1)
    lo = max(0, math.floor(mean - half))
    hi = max(30, math.ceil(mean + half)) + _F_ALPHA_TOP_MARGIN
    if hi - lo > _F_ALPHA_MAX_TERMS:
        raise ValueError(
            f"f_alpha at |alpha| = {alpha_abs:.4g} needs {hi - lo} Poisson terms, "
            f"more than the {_F_ALPHA_MAX_TERMS} it sums")
    n = np.arange(lo, hi)
    mode = math.floor(mean) - lo
    # w_n / w_mode: up by w_{n+1} = w_n mean/(n+1), down by w_{n-1} = w_n n/mean
    up = np.cumprod(mean / n[mode + 1:])
    down = np.cumprod(n[mode:0:-1] / mean)[::-1]
    weights = np.concatenate([down, [1.0], up])
    terms = weights * _rsb_pi_weights(n)[1] / np.sqrt(n + 1)
    return float(np.sum(terms) / np.sum(weights))


def psrsb_pdown_series(alpha, phi):
    """Closed-form fringe 1/2 - |alpha| f(|alpha|) cos(phi)."""
    mag = abs(alpha)
    return 0.5 - mag * f_alpha(mag) * math.cos(phi)


def psrsb_contrast(alpha):
    """Fringe contrast C = P_down(pi) - P_down(0) = 2 |alpha| f(|alpha|)."""
    return 2.0 * abs(alpha) * f_alpha(abs(alpha))


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
