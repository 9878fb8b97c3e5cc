"""Reference computations the benchmark checks the program against.

Nothing here imports squeezeamp: each law is derived again from the
physics and computed with numpy/scipy alone, so an error in the package
cannot cancel in the comparison.

Conventions (the same physics conventions the package documents):
    x = (a + a†)/√2, p = (a - a†)/(i√2), vacuum covariance I/2;
    D(α) = exp(α a† - α* a), S(ξ) = exp((ξ* a² - ξ a†²)/2), ξ = r e^{iθ}.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg

#: Largest top-4 population a truncated state may carry (the package's
#: truncation-tail bound, restated here so no code is shared).
TAIL_EPS = 1e-8
TAIL_LEVELS = 4


def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1, dim)).astype(complex), k=1)


def tail_mass(populations):
    """Population in the top TAIL_LEVELS levels of a truncated distribution."""
    return float(np.sum(np.asarray(populations)[-TAIL_LEVELS:]))


# --- first moment of the noisy squeeze-displace-antisqueeze protocol -------

def amplified_mean_abs(alpha, r, g, dephasing, tau):
    """|<a>| after S(r), displace(alpha over tau), S†(r) with noise.

    Law: |alpha| e^r e^{-Γ r/(2g)} (1 - e^{-Γτ/2}) / (Γτ/2).
    Assumes the displacement lies on the amplified axis (θ = 0, real
    alpha), heating with equal up and down rates, which leaves d<a>/dt
    untouched, and dephasing √Γ n, which adds d<a>/dt = -Γ<a>/2 in every
    segment.  The squeeze segments last r/g each; the first one acts on
    <a> = 0.
    """
    x = 0.5 * dephasing * tau
    displace_factor = 1.0 if x == 0 else -math.expm1(-x) / x
    return abs(alpha) * math.exp(r) * math.exp(-dephasing * r / (2 * g)) * displace_factor


# --- phase-sensitive red-sideband readout ----------------------------------

def rsb_fringe_contrast(rho):
    """Fringe contrast 2|Σ_n cos(π√n/2) sin(π√(n+1)/2) ρ_{n+1,n}|.

    An RSB π-pulse (Rabi rate Ω√n on |down,n> <-> |up,n-1>) from |down>
    is block-diagonal in the pairs {|down,n+1>, |up,n>}, so the carrier
    fringe amplitude 2|tr ρ_ud| reduces to this O(N) sum over the first
    off-diagonal of the motional density matrix.  Assumes the qubit starts
    in |down> and the pulse is noiseless.
    """
    n = np.arange(rho.shape[0] - 1)
    weights = np.cos(0.5 * math.pi * np.sqrt(n)) * np.sin(0.5 * math.pi * np.sqrt(n + 1))
    return 2.0 * abs(complex(np.sum(weights * np.diagonal(rho, offset=-1))))


def lowering_mean(rho):
    """<a> = tr(a ρ) of a density matrix in the Fock basis."""
    return complex(np.sum(np.sqrt(np.arange(1, rho.shape[0])) * np.diagonal(rho, offset=-1)))


# --- Gaussian lab-frame drive (Mathieu flow) -------------------------------

def mathieu_symplectic(omega_r, omega_p, g, t_final):
    """2x2 Heisenberg map of H = ω_r(n+½) - g sin(ω_p t)(a + a†)².

    (a + a†)² = 2x², so d(x, p)/dt = [[0, ω_r], [-ω_r + 4g sin(ω_p t), 0]] (x, p)
    exactly: the Hamiltonian is quadratic, so no truncation enters.
    """
    def rhs(t, y):
        m = y.reshape(2, 2)
        gen = np.array([[0.0, omega_r],
                        [-omega_r + 4 * g * math.sin(omega_p * t), 0.0]])
        return (gen @ m).ravel()

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_final), np.eye(2).ravel(),
                                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"Mathieu flow did not integrate: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def rwa_check_reference(omega_r, g, gt):
    """Fidelity to the RWA squeezed vacuum and r_eff of the lab-driven vacuum.

    The lab state at t = gt/g, taken into the frame rotating at ω_r
    (x -> x cos ω_r t - p sin ω_r t), is a zero-mean pure Gaussian state
    with covariance σ = R M (I/2) Mᵀ Rᵀ.  Its fidelity to S(gt)|0>, whose
    covariance is diag(e^{-2gt}, e^{2gt})/2, is 1/√det(σ + σ_t)
    (Weedbrook et al., RMP 84, 621 (2012)).  Every pure zero-mean Gaussian
    state is a squeezed vacuum with n̄ = (tr σ - 1)/2, so r_eff = asinh √n̄.
    Assumes resonance ω_p = 2ω_r and drive phase θ = 0.
    """
    t_final = gt / g
    m = mathieu_symplectic(omega_r, 2 * omega_r, g, t_final)
    c, s = math.cos(omega_r * t_final), math.sin(omega_r * t_final)
    rot = np.array([[c, -s], [s, c]])
    sigma = rot @ m @ (0.5 * np.eye(2)) @ m.T @ rot.T
    sigma_t = np.diag([0.5 * math.exp(-2 * gt), 0.5 * math.exp(2 * gt)])
    fidelity = 1.0 / math.sqrt(np.linalg.det(sigma + sigma_t))
    nbar = 0.5 * (np.trace(sigma) - 1.0)
    return fidelity, math.asinh(math.sqrt(max(nbar, 0.0)))


# --- moments of the dense master equation ----------------------------------

def sequence_moments(segments, heating, dephasing):
    """Exact <a>, <a²>, <a†a> after a motional pulse sequence from vacuum.

    `segments` holds (kind, duration_s, phase, strength) with kind
    displace (H = i s (e^{iφ} a† - e^{-iφ} a)), parametric
    (H = i(g/2)(e^{-iφ} a² - e^{iφ} a†²)) or free (H = 0).  The moment
    equations close because both Hamiltonians are at most quadratic,
    heating has equal up and down rates (d<a>, d<a²> unchanged,
    d<n>/dt = ṅ) and dephasing √Γ n is diagonal in n
    (d<a>/dt = -Γ<a>/2, d<a²>/dt = -2Γ<a²>).  The real state vector
    (Re<a>, Im<a>, Re<a²>, Im<a²>, <n>, 1) evolves under a constant 6x6
    generator per segment, applied with scipy.linalg.expm.
    """
    v = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    for kind, duration, phase, strength in segments:
        gen = np.zeros((6, 6))
        # dephasing and heating act in every segment
        gen[0, 0] = gen[1, 1] = -0.5 * dephasing
        gen[2, 2] = gen[3, 3] = -2.0 * dephasing
        gen[4, 5] = heating
        c, s = math.cos(phase), math.sin(phase)
        if kind == "displace":
            # d<a> = s e^{iφ};  d<a²> = 2 s e^{iφ} <a>;  d<n> = 2 Re(s e^{-iφ} <a>)
            gen[0, 5] += strength * c
            gen[1, 5] += strength * s
            gen[2, 0] += 2 * strength * c
            gen[2, 1] += -2 * strength * s
            gen[3, 0] += 2 * strength * s
            gen[3, 1] += 2 * strength * c
            gen[4, 0] += 2 * strength * c
            gen[4, 1] += 2 * strength * s
        elif kind == "parametric":
            # d<a> = -g e^{iφ} <a>*;  d<a²> = -g e^{iφ} (2<n> + 1);
            # d<n> = -2g Re(e^{-iφ} <a²>)
            gen[0, 0] += -strength * c
            gen[0, 1] += -strength * s
            gen[1, 0] += -strength * s
            gen[1, 1] += strength * c
            gen[2, 4] += -2 * strength * c
            gen[2, 5] += -strength * c
            gen[3, 4] += -2 * strength * s
            gen[3, 5] += -strength * s
            gen[4, 2] += -2 * strength * c
            gen[4, 3] += -2 * strength * s
        elif kind != "free":
            raise ValueError(f"no moment law for segment kind {kind!r}")
        v = scipy.linalg.expm(gen * duration) @ v
    return complex(v[0], v[1]), complex(v[2], v[3]), float(v[4])


def density_moments(rho):
    """<a>, <a²>, <a†a> of a motional density matrix in the Fock basis."""
    dim = rho.shape[0]
    a = _lowering(dim)
    return (complex(np.trace(a @ rho)), complex(np.trace(a @ a @ rho)),
            float(np.real(np.sum(np.arange(dim) * np.diagonal(rho)))))


# --- truth populations and blue-sideband traces ----------------------------

def state_populations(alpha, r, theta, nmax, dim=None):
    """Fock populations p_0..p_{nmax-1} of D(α) S(r e^{iθ})|0>.

    r = 0 is the coherent state, whose populations are Poisson.  Otherwise
    the state is built with scipy.linalg.expm of both generators in a
    space that grows until the top-4 tail of the result is below 1e-14,
    far under the 1e-8 bound the comparison needs.
    """
    if r == 0.0:
        n = np.arange(nmax)
        lam = abs(alpha) ** 2
        if lam == 0.0:
            return (n == 0).astype(float)
        logp = -lam + n * math.log(lam) - np.array([math.lgamma(k + 1) for k in n])
        return np.exp(logp)
    dim = dim or max(2 * nmax, 64)
    while True:
        a = _lowering(dim)
        ad = a.conj().T
        xi = r * complex(math.cos(theta), math.sin(theta))
        squeeze = scipy.linalg.expm(0.5 * (np.conj(xi) * a @ a - xi * ad @ ad))
        displace = scipy.linalg.expm(alpha * ad - np.conj(alpha) * a)
        psi = displace @ squeeze[:, 0]
        pops = np.abs(psi) ** 2
        if tail_mass(pops) < 1e-14:
            return pops[:nmax]
        dim *= 2


def bsb_trace(populations, omega, gamma, times):
    """Blue-sideband Rabi signal P_down(t).

    P_down(t) = ½ (1 + Σ_n P_n e^{-γ√(n+1) t} cos(Ω√(n+1) t)): each Fock
    level n flops to n+1 at Rabi rate Ω√(n+1) with decay γ√(n+1).
    """
    root = np.sqrt(np.arange(len(populations)) + 1.0)
    t = np.asarray(times)[:, None]
    terms = np.asarray(populations) * np.exp(-gamma * root * t) * np.cos(omega * root * t)
    return 0.5 * (1.0 + terms.sum(axis=1))


def population_stderr(populations, omega, gamma, times, shots):
    """Standard errors of an unconstrained weighted least-squares extraction.

    For the linear model P_down(t) - ½ = Σ_n p_n M_n(t) with binomial
    variance P(1-P)/shots at the true signal, cov = (Mᵀ W M)^{-1}.
    """
    root = np.sqrt(np.arange(len(populations)) + 1.0)
    t = np.asarray(times)[:, None]
    design = 0.5 * np.exp(-gamma * root * t) * np.cos(omega * root * t)
    p = np.clip(bsb_trace(populations, omega, gamma, times), 1e-3, 1 - 1e-3)
    weighted = design / np.sqrt(p * (1 - p) / shots)[:, None]
    return np.sqrt(np.diag(np.linalg.inv(weighted.T @ weighted)))
