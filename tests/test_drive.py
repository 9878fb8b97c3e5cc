import math

import numpy as np
import pytest

from squeezeamp import FockSpace, SqueezeParam, fidelity, squeezed_vacuum, vacuum
from squeezeamp import fock
from squeezeamp.drive import (
    DriveParams,
    hamiltonian_lab,
    simulate_full_vs_rwa,
    squeezing_rate_db_per_us,
)
from squeezeamp.errors import ConvergenceError

WR = 2 * math.pi * 6.3e6  # paper's radial mode frequency
G = 2 * math.pi * 50.2e3  # paper's parametric coupling strength


def resonant(g=G, theta=0.0, duration=0.0):
    return DriveParams(omega_r=WR, omega_p=2 * WR, g=g, theta=theta, duration=duration)


def hamiltonian_rwa(p, space):
    """Resonant RWA Hamiltonian i(g/2)(a² e^{-iθ} - a†² e^{iθ})."""
    if not p.resonant:
        raise ValueError(
            "RWA Hamiltonian is only provided on resonance (omega_p = 2 omega_r); "
            f"got omega_p/omega_r = {p.omega_p / p.omega_r:.6g}"
        )
    a = fock.ladder_lowering(space)
    a2 = a @ a
    return 1j * 0.5 * p.g * (a2 * np.exp(-1j * p.theta) - a2.conj().T * np.exp(1j * p.theta))


def evolve_rwa(p, state, duration=None):
    """Evolve a state under the RWA Hamiltonian; equals S(gt, θ) up to convention."""
    t = p.duration if duration is None else duration
    H = hamiltonian_rwa(p, state.space)
    return fock.MotionalState(state.space, fock.hermitian_propagator(H, t) @ state.amps)


def _integrate_lab(p, space, n_steps, t_final):
    """Fock-space oracle: piecewise-constant (midpoint-sampled) unitary
    integration of H_lab from |0>, returned in the interaction picture."""
    dt = t_final / n_steps
    psi = vacuum(space).amps
    for k in range(n_steps):
        H = hamiltonian_lab(p, (k + 0.5) * dt, space)
        psi = fock.hermitian_propagator(H, dt) @ psi
    phases = np.exp(1j * p.omega_r * (np.arange(space.dim) + 0.5) * t_final)
    return phases * psi


def _fock_oracle(p, steps_per_period, space):
    """Oracle state on the same fine grid simulate_full_vs_rwa accepts."""
    period = 2 * math.pi / p.omega_p
    n_steps = max(int(math.ceil(p.duration / period * steps_per_period)), 16)
    return _integrate_lab(p, space, 2 * n_steps, p.duration)


def _asinh_sqrt_n(psi):
    n_mean = float(np.sum(np.arange(len(psi)) * np.abs(psi) ** 2))
    return math.asinh(math.sqrt(n_mean))


class TestLabHamiltonian:
    def test_bare_oscillator_when_g_zero(self):
        sp = FockSpace(16)
        H = hamiltonian_lab(resonant(g=0.0), 0.37e-6, sp)
        assert np.allclose(H, np.diag(WR * (np.arange(16) + 0.5)))

    def test_drive_vanishes_at_sine_zero(self):
        sp = FockSpace(16)
        p = resonant(theta=0.4)
        t = p.theta / p.omega_p  # sin(w_p t - theta) = 0
        H = hamiltonian_lab(p, t, sp)
        assert np.allclose(H, np.diag(WR * (np.arange(16) + 0.5)), atol=1e-6)

    def test_hermitian_at_arbitrary_time(self):
        sp = FockSpace(32)
        H = hamiltonian_lab(resonant(theta=1.1), 1.234e-7, sp)
        assert np.max(np.abs(H - H.conj().T)) == 0.0


class TestRwaHamiltonian:
    def test_rejects_off_resonance(self):
        with pytest.raises(ValueError):
            hamiltonian_rwa(
                DriveParams(omega_r=WR, omega_p=1.9 * WR, g=G), FockSpace(16)
            )

    def test_zero_duration_is_identity(self):
        sp = FockSpace(64)
        out = evolve_rwa(resonant(duration=0.0), vacuum(sp))
        assert fidelity(out, vacuum(sp)) == pytest.approx(1.0)

    def test_evolution_gives_squeezed_vacuum(self):
        sp = FockSpace(96)
        t = 1.0 / G  # gt = 1
        out = evolve_rwa(resonant(duration=t), vacuum(sp))
        ref = squeezed_vacuum(SqueezeParam(1.0), sp)
        assert np.max(np.abs(out.populations() - ref.populations())) < 1e-8

    def test_pulse_composition(self):
        sp = FockSpace(96)
        p = resonant(theta=0.8)
        half = evolve_rwa(p, evolve_rwa(p, vacuum(sp), 0.5 / G), 0.5 / G)
        full = evolve_rwa(p, vacuum(sp), 1.0 / G)
        assert np.max(np.abs(half.amps - full.amps)) < 1e-10


class TestFullVsRwa:
    def test_g_zero_stays_in_ground_state(self):
        p = DriveParams(omega_r=WR, omega_p=2 * WR, g=0.0, duration=2e-6)
        fid, r_eff = simulate_full_vs_rwa(p, steps_per_period=64)
        assert fid == pytest.approx(1.0, abs=1e-9)
        assert r_eff < 1e-3

    def test_paper_ratio_high_fidelity(self):
        g = 0.008 * WR
        p = resonant(g=g, duration=0.63 / g)
        fid, r_eff = simulate_full_vs_rwa(p, steps_per_period=64)
        assert fid > 0.99
        assert r_eff == pytest.approx(0.63, abs=0.01)

    def test_rwa_breakdown_ordering(self):
        fids = []
        # stronger drives cover fewer periods, so they need more steps per period
        for ratio, spp in ((0.008, 64), (0.2, 512)):
            g = ratio * WR
            p = resonant(g=g, duration=0.63 / g)
            fid, _ = simulate_full_vs_rwa(p, steps_per_period=spp)
            fids.append(fid)
        assert fids[1] < fids[0]

    def test_coarse_steps_raise(self):
        g = 0.2 * WR
        p = resonant(g=g, duration=0.63 / g)
        with pytest.raises(ConvergenceError):
            simulate_full_vs_rwa(p, steps_per_period=16)

    def test_r_linear_in_duration(self):
        # module-level counterpart of the linear r(t) calibration fit
        g = 0.008 * WR
        rs = []
        for gt in (0.2, 0.4, 0.6):
            p = resonant(g=g, duration=gt / g)
            _, r_eff = simulate_full_vs_rwa(p, steps_per_period=64)
            rs.append(r_eff)
        slope1 = (rs[1] - rs[0]) / 0.2
        slope2 = (rs[2] - rs[1]) / 0.2
        assert slope1 == pytest.approx(1.0, abs=0.02)
        assert slope2 == pytest.approx(1.0, abs=0.02)

    # above g/w_r = 1/4 the frozen step map turns hyperbolic near drive peaks
    @pytest.mark.parametrize("ratio, theta, spp", [(0.05, 0.7, 128), (0.35, 2.9, 512)])
    def test_matches_fock_oracle(self, ratio, theta, spp):
        g = ratio * WR
        p = resonant(g=g, theta=theta, duration=0.3 / g)
        sp = FockSpace(64)
        psi = _fock_oracle(p, spp, sp)
        target = squeezed_vacuum(SqueezeParam(0.3, theta), sp, check_tail=False)
        fid, r_eff = simulate_full_vs_rwa(p, steps_per_period=spp)
        assert abs(fid - fidelity(psi, target.amps)) <= 1e-9
        assert abs(r_eff - _asinh_sqrt_n(psi)) <= 1e-6

    def test_r_effective_at_former_optimiser_failure(self):
        # a ratio where a best-fit search for r stalled at 0.0145
        ratio, gt = 0.12888667873835197, 0.025
        g = ratio * WR
        p = resonant(g=g, duration=gt / g)
        spp = max(64, int(math.ceil(2560 * ratio)))
        _, r_eff = simulate_full_vs_rwa(p, steps_per_period=spp)
        psi = _fock_oracle(p, spp, FockSpace(64))
        assert abs(r_eff - _asinh_sqrt_n(psi)) <= 1e-6


class TestSqueezingRate:
    def test_zero(self):
        assert squeezing_rate_db_per_us(0.0) == 0.0

    def test_paper_value(self):
        assert squeezing_rate_db_per_us(G) == pytest.approx(2.74, abs=0.02)

    def test_linearity(self):
        assert squeezing_rate_db_per_us(2 * G) == pytest.approx(
            2 * squeezing_rate_db_per_us(G), rel=1e-12
        )
