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
        if not (np.isfinite(self.r) and self.r >= 0):
            raise ValueError("squeeze magnitude r must be finite and >= 0")
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
        # math.cosh raises OverflowError past r ~ 710, where np.cosh gives inf
        if not math.isfinite(math.cosh(np.max(np.abs(r)))):
            raise ValueError(f"squeeze magnitude must be finite, got {r!r}")
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

    def amplitudes(self, dim, tangents=()):
        """Fock amplitudes psi_0 .. psi_(dim-1) of the pure Gaussian state U|0>.

        U|0> is annihilated by U a U† = mu* a - nu a† - gamma, gamma = mu* c - nu c*,
        so psi_(n+1) = (g psi_n + q √n psi_(n-1)) / √(n+1), with g = gamma/mu* and
        q = nu/mu*, from psi_0 = exp(-|c|²/2 + q c*²/2) / √mu*.  Both ratios to
        mu* are bounded, so no intermediate overflows.

        Each of `tangents` is a FrameMap of (∂mu, ∂nu, ∂c) along one real
        parameter; with them, also returns the (dim, len(tangents)) derivatives
        of the amplitudes.  psi_n / psi_0 is a polynomial in (g, q) with
        generating function exp(g t + q t²/2) (in t^n/√n!), so ∂psi_n/∂g =
        √n psi_(n-1) and ∂psi_n/∂q = √(n(n-1)) psi_(n-2) / 2, and

            ∂psi_n = ∂ln psi_0 psi_n + dg √n psi_(n-1) + dq √(n(n-1)) psi_(n-2) / 2,

        with dq = (∂nu - q ∂mu*)/mu* and dg = ∂c - dq c* - q ∂c*.
        """
        mu_c, nu, c = complex(self.mu).conjugate(), complex(self.nu), complex(self.c)
        g, q = (mu_c * c - nu * c.conjugate()) / mu_c, nu / mu_c  # gamma/mu*, nu/mu*
        amps = [cmath.exp(-0.5 * abs(c) ** 2 + 0.5 * q * c.conjugate() ** 2) / cmath.sqrt(mu_c)]
        prev = 0j
        for n in range(dim - 1):
            amps.append((g * amps[n] + q * math.sqrt(n) * prev) / math.sqrt(n + 1))
            prev = amps[n]
        amps = np.array(amps[:dim], dtype=complex)
        if not tangents:
            return amps
        n = np.arange(dim)
        lowered = np.concatenate((np.zeros(2, dtype=complex), amps))
        basis = np.stack((amps, np.sqrt(n) * lowered[1:-1],
                          0.5 * np.sqrt(n * (n - 1.0)) * lowered[:-2]), axis=1)
        cc = c.conjugate()
        coeffs = []
        for t in tangents:
            dmu_c, dnu, dc = complex(t.mu).conjugate(), complex(t.nu), complex(t.c)
            dq = (dnu - q * dmu_c) / mu_c
            dlog = (-(cc * dc).real + 0.5 * dq * cc**2 + q * cc * dc.conjugate()
                    - 0.5 * dmu_c / mu_c)
            coeffs.append((dlog, dc - dq * cc - q * dc.conjugate(), dq))
        return amps, basis @ np.array(coeffs).T


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
    return fock.hermitian_propagator(1j * K, 1.0)


def squeeze_operator(xi, space):
    """Dense matrix of S(ξ) on the truncated space."""
    a = fock.ladder_lowering(space)
    a2 = a @ a
    K = 0.5 * (np.conj(xi.xi) * a2 - xi.xi * a2.conj().T)
    return fock.hermitian_propagator(1j * K, 1.0)


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

    They are |psi_n|² of `FrameMap.amplitudes` for the map
    a -> a cosh r - a† e^{iθ} sinh r + α.  psi_0, and every population with
    it, underflows once |α|² exceeds ~1400.

    With jac=True, also returns ∂P_n/∂(|α|, r, θ) as an (nmax, 3) array, at
    fixed phase of α, from the amplitudes' tangents along those parameters.
    """
    alpha = complex(d.alpha)
    squeeze = FrameMap.squeeze(xi.r, xi.theta)
    state = FrameMap(squeeze.mu, squeeze.nu, alpha)
    if not jac:
        return np.abs(state.amplitudes(nmax)) ** 2
    amps, damps = state.amplitudes(nmax, (
        FrameMap(0.0, 0.0, alpha / abs(alpha) if alpha else 1.0),
        FrameMap(math.sinh(xi.r), -cmath.exp(1j * xi.theta) * math.cosh(xi.r), 0.0),
        FrameMap(0.0, 1j * squeeze.nu, 0.0),
    ))
    return np.abs(amps) ** 2, 2.0 * (amps.conj()[:, None] * damps).real


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
