"""Displacement and squeezing operators, analytic state constructors, and
the noiseless amplification identity S†(ξ) D(α_i) S(ξ) = D(α_f).

Conventions (frozen library-wide):
    D(α) = exp(α a† - α* a)
    S(ξ) = exp((ξ* a² - ξ a†²)/2),  ξ = r e^{iθ}
    S†(ξ) a S(ξ) = a cosh r - a† e^{iθ} sinh r
so a real displacement along the θ=0 axis is amplified with gain G = e^r.

Analytic constructors are the production path; matrix exponentials (built
from the same ladder operators) are kept as the independent test oracle.
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from . import fock


@dataclass(frozen=True)
class Displacement:
    """Dimensionless phase-space displacement α = |α| e^{iφ_d}."""

    alpha: complex

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError("displacement amplitude must be finite")


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing magnitude r >= 0 and phase θ in [0, 2π)."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeeze magnitude r must be >= 0")
        if not np.isfinite(self.theta):
            raise ValueError("squeeze phase must be finite")
        object.__setattr__(self, "theta", float(self.theta) % (2 * math.pi))

    @property
    def xi(self):
        return self.r * cmath.exp(1j * self.theta)

    @classmethod
    def from_xi(cls, xi):
        return cls(abs(xi), cmath.phase(xi) % (2 * math.pi))

    def inverse(self):
        """Parameter of the anti-squeeze S†(ξ) = S(r, θ+π)."""
        return SqueezeParam(self.r, self.theta + math.pi)


def displacement_operator(d, space):
    """Dense matrix of D(α) on the truncated space."""
    a = fock.ladder_lowering(space)
    K = d.alpha * a.conj().T - np.conj(d.alpha) * a
    return fock.expm_antihermitian(K)


def squeeze_operator(xi, space):
    """Dense matrix of S(ξ) on the truncated space."""
    a = fock.ladder_lowering(space)
    a2 = a @ a
    K = 0.5 * (np.conj(xi.xi) * a2 - xi.xi * a2.conj().T)
    return fock.expm_antihermitian(K)


def coherent_state(d, space, check_tail=True):
    """|α> with amplitudes e^{-|α|²/2} αⁿ/√(n!) (closed form, no expm)."""
    amps = np.empty(space.dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(d.alpha) ** 2)
    for n in range(1, space.dim):
        amps[n] = amps[n - 1] * d.alpha / math.sqrt(n)
    state = fock.MotionalState(space, amps)
    if check_tail:
        state.check_tail()
    return state


def squeezed_vacuum(xi, space, check_tail=True):
    """S(ξ)|0>: even amplitudes only, c_{2n} ∝ (-e^{iθ} tanh r)ⁿ √((2n)!)/(2ⁿ n!)."""
    amps = np.zeros(space.dim, dtype=complex)
    ratio_base = -cmath.exp(1j * xi.theta) * math.tanh(xi.r)
    c = 1.0 / math.sqrt(math.cosh(xi.r))
    amps[0] = c
    n = 0
    while 2 * (n + 1) < space.dim:
        c = c * ratio_base * math.sqrt((2 * n + 1) * (2 * n + 2)) / (2 * (n + 1))
        amps[2 * (n + 1)] = c
        n += 1
    state = fock.MotionalState(space, amps)
    if check_tail:
        state.check_tail()
    return state


def displaced_squeezed_populations(d, xi, nmax, jac=False):
    """Fock populations of D(α) S(ξ)|0> for n = 0..nmax-1.

    Uses the Hermite-polynomial closed form with a scaled three-term
    recurrence for the amplitudes g_n (P_n = |g_n|²):

        g_{n+1} = 2ζ/√(n+1) g_n - q √(n/(n+1)) g_{n-1},
        ζ = ½(α + α* q),  q = e^{iθ} tanh r,
        g_0 = exp(-½|α|² - ½ Re(α*² q)) / √(cosh r).

    The running quantity already carries the (½ tanh r)ⁿ/n! weight and the
    Gaussian prefactor, so every intermediate is bounded by a population and
    cannot overflow.  g_n is the Hermite-form amplitude times the phase
    e^{inθ/2}, which leaves P_n unchanged and makes θ enter only through q:
    at r = 0 the recurrence is the coherent-state one, g_{n+1} = α g_n/√(n+1),
    and the populations and their θ-derivative do not depend on θ at all.
    g_0 underflows, and every population with it, once |α|² exceeds ~1400.

    With jac=True, also returns ∂P_n/∂(|α|, r, θ) as an (nmax, 3) array, at
    fixed phase of α, by forward-mode differentiation of the same
    recurrence.
    """
    alpha = complex(d.alpha)
    r, theta = xi.r, xi.theta
    a = abs(alpha)
    tanh_r = math.tanh(r)
    sech2_r = 1.0 - tanh_r * tanh_r
    eith = cmath.exp(1j * theta)
    q = eith * tanh_r
    zeta = 0.5 * (alpha + alpha.conjugate() * q)
    quad = alpha.conjugate() ** 2 * q  # α*² e^{iθ} tanh r
    g = cmath.exp(-0.5 * a * a - 0.5 * quad.real) / math.sqrt(math.cosh(r))
    if jac:
        u = alpha / a if a else 1 + 0j
        # ζ, q and g_0 differentiated along (|α|, r, θ)
        dzeta = (0.5 * (u + u.conjugate() * q), 0.5 * alpha.conjugate() * eith * sech2_r,
                 0.5j * alpha.conjugate() * q)
        dq = (0j, eith * sech2_r, 1j * q)
        dg = (
            g * (-a - a * (u.conjugate() ** 2 * q).real),
            g * (-0.5 * (alpha.conjugate() ** 2 * eith).real * sech2_r - 0.5 * tanh_r),
            g * 0.5 * quad.imag,
        )
        dg_prev = (0j, 0j, 0j)
    amps = np.empty((nmax, 4 if jac else 1), dtype=complex)
    g_prev = 0j
    for n in range(nmax):
        c1, c2 = 2.0 / math.sqrt(n + 1), math.sqrt(n / (n + 1.0))
        g_next = c1 * zeta * g - c2 * q * g_prev
        if jac:
            amps[n] = (g, *dg)
            dg_next = tuple(c1 * (dz * g + zeta * dgk) - c2 * (dqk * g_prev + q * dpk)
                            for dz, dqk, dgk, dpk in zip(dzeta, dq, dg, dg_prev))
            dg_prev, dg = dg, dg_next
        else:
            amps[n] = g
        g_prev, g = g, g_next
    pops = np.abs(amps[:, 0]) ** 2
    if not jac:
        return pops
    return pops, 2.0 * (amps[:, :1].conj() * amps[:, 1:]).real


def displaced_squeezed_state(d, xi, space, check_tail=True):
    """Matrix-product construction D(α) S(ξ)|0> (oracle route)."""
    state = squeezed_vacuum(xi, space, check_tail=False)
    out = fock.MotionalState(space, displacement_operator(d, space) @ state.amps)
    if check_tail:
        out.check_tail()
    return out


def amplify_displacement(alpha_i, xi):
    """Closed-form amplified amplitude α_f = α_i cosh r + α_i* e^{iθ} sinh r."""
    return alpha_i * math.cosh(xi.r) + np.conj(alpha_i) * cmath.exp(1j * xi.theta) * math.sinh(
        xi.r
    )


def gain(xi):
    """Ideal gain e^r for a displacement aligned with the squeezed axis."""
    return math.exp(xi.r)


def adequate_truncation(xi, alpha_abs=0.0, eps=fock.DEFAULT_TAIL_EPS):
    """Smallest convenient dimension whose truncation tail is below `eps`.

    The heuristic default_truncation underestimates the slow even-n tail of
    strongly squeezed states (decay per level is only e^{-1/cosh²r}), so grow
    the dimension until the closed-form squeezed-vacuum tail, padded by a
    displacement margin, passes the monitor.
    """
    n = fock.default_truncation(xi.r, alpha_abs)
    while True:
        margin = int(math.ceil(4 * alpha_abs**2 + 6 * alpha_abs * math.sqrt(n))) + 4
        sv = squeezed_vacuum(xi, fock.FockSpace(n + margin), check_tail=False)
        if np.sum(sv.populations()[n - fock.TAIL_LEVELS :]) < eps:
            return n + margin
        n = int(math.ceil(1.25 * n))


def squeeze_db(r):
    """Squeezing level in decibels: 10 log10(e^{2r})."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return 20.0 * math.log10(math.e) * r


def db_to_r(db):
    return db / (20.0 * math.log10(math.e))
