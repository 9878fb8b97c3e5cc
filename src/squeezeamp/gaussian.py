"""Displacement and squeezing operators, the affine Bogoliubov map they
generate, analytic state constructors, and the noiseless amplification
identity S†(ξ) D(α_i) S(ξ) = D(α_f).

Conventions (frozen library-wide):
    D(α) = exp(α a† - α* a)
    S(ξ) = exp((ξ* a² - ξ a†²)/2),  ξ = r e^{iθ}
    S†(ξ) a S(ξ) = a cosh r - a† e^{iθ} sinh r
so a real displacement along the θ=0 axis is amplified with gain G = e^r.

Every Gaussian unitary here acts on the ladder operator as one `FrameMap`
a -> μ a + ν a† + c (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)); the
frame engine, the drive check, the gain law and the pure states use it.

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


@dataclass(frozen=True)
class FrameMap:
    """Affine Bogoliubov map U† a U = mu a + nu a† + c of a Gaussian unitary U.

    mu, nu and c may be arrays of one shape: the map then stands for a batch
    of maps, and `lowering_matrix` returns a stack of matrices.
    """

    mu: complex = 1.0
    nu: complex = 0.0
    c: complex = 0.0

    @classmethod
    def squeeze(cls, r, theta):
        """Map of S(r e^{iθ}): mu = cosh r, nu = -e^{iθ} sinh r; r may be an array."""
        math.cosh(np.max(np.abs(r)))  # OverflowError where np.cosh would give inf
        return cls(np.cosh(r), -cmath.exp(1j * theta) * np.sinh(r))

    def compose_local(self, local):
        """Map of L V, for one more local unitary L whose map is `local`:
        (L V)† a (L V) = V† (mu_L a + nu_L a† + c_L) V."""
        return FrameMap(
            mu=local.mu * self.mu + local.nu * np.conj(self.nu),
            nu=local.mu * self.nu + local.nu * np.conj(self.mu),
            c=local.mu * self.c + local.nu * np.conj(self.c) + local.c,
        )

    def lowering_matrix(self, space):
        """Dense N x N matrix of mu a + nu a† + c on `space`, with the shape
        of mu, nu and c in front for a batch of maps."""
        a = fock.ladder_lowering(space)
        mu, nu, c = (np.asarray(x)[..., None, None] for x in (self.mu, self.nu, self.c))
        return mu * a + nu * a.conj().T + c * np.eye(space.dim)

    @property
    def quadrature_matrix(self):
        """Real 2 x 2 matrix S of the linear part on the quadratures
        x = (a + a†)/√2 and p = (a - a†)/(i√2): U† x U = x' + √2 Re c and
        U† p U = p' + √2 Im c, with

            x' = Re(mu + nu) x - Im(mu - nu) p,  p' = Im(mu + nu) x + Re(mu - nu) p,

        and det S = |mu|² - |nu|² = 1.  The map of L V has S_L S_V.  For a
        batch of maps the matrices are stacked as (..., 2, 2)."""
        s, d = np.asarray(self.mu + self.nu), np.asarray(self.mu - self.nu)
        return np.stack((np.stack((s.real, -d.imag), -1), np.stack((s.imag, d.real), -1)), -2)

    @property
    def squeeze_magnitude(self):
        """Residual Bogoliubov mixing |nu| (0 when U is displacement+rotation)."""
        return abs(self.nu)

    def vacuum_fidelity(self, other):
        """|<0|V† U|0>|² for U with this map and V with `other`, both with c = 0:
        V† U is a squeeze with mu = mu_V* mu_U - nu_V nu_U*, and |<0|S|0>|² = 1/|mu|."""
        return 1.0 / abs(other.mu.conjugate() * self.mu - other.nu * self.nu.conjugate())

    def amplitudes(self, dim):
        """Fock amplitudes psi_0 .. psi_(dim-1) of the pure Gaussian state U|0>.

        U|0> is annihilated by U a U† = mu* a - nu a† - gamma, gamma = mu* c - nu c*,
        so psi_(n+1) = (gamma psi_n + nu √n psi_(n-1)) / (mu* √(n+1)) from
        psi_0 = exp(-|c|²/2 + nu c*²/(2 mu*)) / √mu*.  Both ratios to mu* are
        bounded, so no intermediate overflows.
        """
        mu_c, nu, c = complex(self.mu).conjugate(), complex(self.nu), complex(self.c)
        g, q = (mu_c * c - nu * c.conjugate()) / mu_c, nu / mu_c  # gamma/mu*, nu/mu*
        amps = [cmath.exp(-0.5 * abs(c) ** 2 + 0.5 * q * c.conjugate() ** 2) / cmath.sqrt(mu_c)]
        prev = 0j
        for n in range(dim - 1):
            amps.append((g * amps[n] + q * math.sqrt(n) * prev) / math.sqrt(n + 1))
            prev = amps[n]
        return np.array(amps, dtype=complex)


def segment_map(segment, tau):
    """Map of the first `tau` seconds of a Gaussian pulse segment.

    `tau` may be an array; the coefficients that depend on it follow its shape.
    """
    if segment.kind == "free":
        return FrameMap()
    if segment.kind == "displace":
        return FrameMap(c=segment.strength * tau * cmath.exp(1j * segment.phase))
    if segment.kind == "parametric":
        return FrameMap.squeeze(segment.strength * tau, segment.phase)
    raise ValueError(f"segment kind {segment.kind!r} is not Gaussian; use the dense engine for it")


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


def _state(space, amps, check_tail):
    state = fock.MotionalState(space, amps)
    if check_tail:
        state.check_tail()
    return state


def coherent_state(d, space, check_tail=True):
    """|α> with amplitudes e^{-|α|²/2} αⁿ/√(n!) (closed form, no expm)."""
    return _state(space, FrameMap(c=d.alpha).amplitudes(space.dim), check_tail)


def squeezed_vacuum(xi, space, check_tail=True):
    """S(ξ)|0>: even amplitudes only, c_{2n} ∝ (-e^{iθ} tanh r)ⁿ √((2n)!)/(2ⁿ n!)."""
    return _state(space, FrameMap.squeeze(xi.r, xi.theta).amplitudes(space.dim), check_tail)


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
    vacuum = squeezed_vacuum(xi, space, check_tail=False)
    return _state(space, displacement_operator(d, space) @ vacuum.amps, check_tail)


def amplify_displacement(alpha_i, xi):
    """Amplified amplitude α_f = α_i cosh r + α_i* e^{iθ} sinh r: the offset c
    of the squeeze, displace, anti-squeeze map S†(ξ) D(α_i) S(ξ)."""
    squeeze = FrameMap.squeeze(xi.r, xi.theta)
    anti = FrameMap(squeeze.mu, -squeeze.nu)
    return complex(squeeze.compose_local(FrameMap(c=alpha_i)).compose_local(anti).c)


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
