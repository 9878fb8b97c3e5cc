"""Electronic parametric drive: lab-frame time-dependent dynamics and their
numerical comparison with the resonant rotating-wave approximation.

The lab-frame Hamiltonian (hbar = 1, angular units) is

    H(t) = w_r (n + 1/2) - g sin(2 w_r t - theta) (a†² + a² + 2 a†a + 1)

with the drive on resonance, at twice the oscillator frequency.  The
rotating-wave approximation reduces the interaction-picture dynamics to

    H_I = i (g/2) (a² e^{-iθ} - a†² e^{+iθ}),

which applied for a duration t implements S(ξ) with r = g t.

H(t) is quadratic, so the lab-frame check (`simulate_full_vs_rwa`) needs no
Fock space: the Heisenberg flow of (x, p) is a 2x2 symplectic (Mathieu)
map, i.e. a Bogoliubov map a -> mu a + nu a† (`gaussian.FrameMap`), and the
driven vacuum is the pure squeezed vacuum it defines.  Its fidelity to the
RWA target and its n̄ = |nu|² are closed forms, so the check is
truncation-free and r_effective = asinh √n̄.  `hamiltonian_lab` stays as
the dense form that the tests' Fock-space oracle integrates; the dense RWA
Hamiltonian lives with the tests.
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from . import fock
from .errors import ConvergenceError
from .gaussian import FrameMap

#: Largest fidelity change under step halving that counts as converged.
_CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class DriveParams:
    """Parametric-modulation drive settings (all rates in rad/s)."""

    omega_r: float  # oscillator frequency; the drive modulates at 2 omega_r
    g: float  # parametric coupling strength
    theta: float = 0.0  # drive phase
    duration: float = 0.0  # seconds

    def __post_init__(self):
        if self.omega_r <= 0:
            raise ValueError("omega_r must be positive")
        if self.g < 0:
            raise ValueError("g must be >= 0")


def hamiltonian_lab(p, t, space):
    """Full lab-frame Hamiltonian at time t (dense, Hermitian)."""
    a = fock.ladder_lowering(space)
    ad = a.conj().T
    n = fock.number_operator(space)
    quad = ad @ ad + a @ a + 2 * n + np.eye(space.dim)
    return p.omega_r * (n + 0.5 * np.eye(space.dim)) - p.g * math.sin(
        2 * p.omega_r * t - p.theta
    ) * quad


def _lab_map(p, n_steps, t_final):
    """Heisenberg map of H_lab over [0, t_final], in the frame rotating at w_r.

    H_lab = w_r (x² + p²)/2 - 2 g sin(2 w_r t - θ) x² with x = (a + a†)/√2,
    so (x, p) obeys d/dt (x, p) = M(t) (x, p) with
    M = [[0, w_r], [-w_r + 4 g sin(2 w_r t - θ), 0]].  Each step freezes M at
    its midpoint; as M² = -k I with k = w_r (w_r - 4 g sin), the step map is
    exp(M dt) = cos(√k dt) I + sin(√k dt)/√k M (cosh/sinh when k < 0).
    """
    dt = t_final / n_steps
    drive = 4 * p.g * np.sin(2 * p.omega_r * (np.arange(n_steps) + 0.5) * dt - p.theta)
    w = np.sqrt((p.omega_r * (p.omega_r - drive)).astype(complex))
    cos_w = np.cos(w * dt).real
    sinc_w = dt * np.sinc(w * dt / math.pi).real  # sin(w dt)/w, dt at w = 0
    steps = np.empty((n_steps, 2, 2))
    steps[:, 0, 0] = steps[:, 1, 1] = cos_w
    steps[:, 0, 1] = sinc_w * p.omega_r
    steps[:, 1, 0] = sinc_w * (drive - p.omega_r)
    # time-ordered product, later steps on the left, by pairwise reduction
    while len(steps) > 1:
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(2)[None]])
        steps = steps[1::2] @ steps[0::2]
    (s11, s12), (s21, s22) = steps[0]
    # a = (x + ip)/√2 maps to mu a + nu a†; then U_0† = exp(i w_r (n + 1/2) t)
    # takes the state into the interaction picture, a -> a e^{i w_r t}
    lab = FrameMap(0.5 * complex(s11 + s22, s21 - s12), 0.5 * complex(s11 - s22, s21 + s12))
    return lab.compose_local(FrameMap(cmath.exp(1j * p.omega_r * t_final)))


def simulate_full_vs_rwa(p, steps_per_period=64):
    """Integrate the lab-frame dynamics from |0> and compare to the RWA.

    Returns (fidelity to the RWA squeezed vacuum, effective r).  H_lab is
    quadratic, so the vacuum stays a pure zero-mean Gaussian state and both
    numbers are closed forms of its Bogoliubov map a -> mu a + nu a†:
    no Fock truncation is involved, and r_effective = asinh |nu| = asinh √n̄.
    The integration is repeated with twice the step count; a disagreement
    above `_CONVERGENCE_TOL` in fidelity raises ConvergenceError.
    """
    t_final = p.duration
    if t_final <= 0:
        raise ValueError("drive duration must be positive")
    period = math.pi / p.omega_r  # of the drive, at 2 omega_r
    n_steps = max(int(math.ceil(t_final / period * steps_per_period)), 16)

    target = FrameMap.squeeze(p.g * t_final, p.theta)
    f_coarse = _lab_map(p, n_steps, t_final).vacuum_fidelity(target)
    fine = _lab_map(p, 2 * n_steps, t_final)
    f_fine = fine.vacuum_fidelity(target)
    if abs(f_fine - f_coarse) > _CONVERGENCE_TOL:
        raise ConvergenceError(
            f"lab-frame integration not converged: fidelity step-halving change "
            f"{abs(f_fine - f_coarse):.3e} > {_CONVERGENCE_TOL:.1e} "
            f"(increase steps_per_period={steps_per_period})"
        )
    return f_fine, math.asinh(fine.squeeze_magnitude)
