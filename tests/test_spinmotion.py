import functools
import math
import warnings

import numpy as np
import pytest

from squeezeamp import Displacement, FockSpace, SqueezeParam, coherent_state, squeezed_vacuum
from squeezeamp.fock import DensityOperator
from squeezeamp.spinmotion import (
    _F_ALPHA_TOP_MARGIN,
    _rsb_pi_weights,
    bsb_signal,
    f_alpha,
    psrsb_contrast,
    psrsb_exact_pdown,
    psrsb_fringe_density,
    psrsb_pdown_series,
    rsb_readout,
    sideband_hamiltonian,
    u_sideband,
)

SP = FockSpace(64)
#: The carrier acts as the identity on the oscillator, so its 2x2 rotation
#: is read off the smallest space.
SP2 = FockSpace(2)


def poisson_weights(n, mean):
    """Poisson weights at the consecutive levels `n`, relative to the one at
    floor(mean), by the ratio recurrence w_{k+1} = w_k mean/(k+1)."""
    mode = math.floor(mean) - n[0]
    up = np.cumprod(mean / n[mode + 1:])
    down = np.cumprod(n[mode:0:-1] / mean)[::-1]
    return np.concatenate([down, [1.0], up])


@functools.cache
def forty_digit_f_alpha(a, levels):
    """f(|a|) summed over `levels` with 40-digit Poisson weights and phases."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    mean = mp.mpf(a) ** 2
    return mp.fsum(
        mp.exp(-mean + n * mp.log(mean) - mp.loggamma(n + 1))
        * mp.cos(mp.pi * mp.sqrt(n) / 2) * mp.sin(mp.pi * mp.sqrt(n + 1) / 2) / mp.sqrt(n + 1)
        for n in levels)


def down_fock(space, n=0):
    """|down, n> as a joint vector (down block, up block)."""
    amps = np.zeros(2 * space.dim, dtype=complex)
    amps[n] = 1.0
    return amps


def apply(kind, rabi, duration, amps, phase=0.0):
    """The pulse's unitary applied to a joint vector."""
    return u_sideband(kind, rabi, duration, phase, FockSpace(amps.size // 2)) @ amps


def down_weight(amps):
    return float(np.sum(np.abs(amps[: amps.size // 2]) ** 2))


def up_weight(amps):
    return float(np.sum(np.abs(amps[amps.size // 2 :]) ** 2))


def carrier_rotation(phase, angle):
    """Closed-form oracle: exp(-i (angle/2)(cos(phase) sigma_x + sin(phase) sigma_y))
    in the (down, up) basis."""
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return np.array(
        [[c, -1j * np.exp(-1j * phase) * s], [-1j * np.exp(1j * phase) * s, c]],
        dtype=complex,
    )


class TestCarrier:
    def test_zero_angle_is_identity(self):
        assert np.allclose(u_sideband("carrier", 1.0, 0.0, 0.7, SP2), np.eye(4))

    def test_two_half_pulses_compose_to_pi(self):
        half = u_sideband("carrier", 1.0, math.pi / 2, 0.3, SP2)
        assert np.allclose(half @ half, u_sideband("carrier", 1.0, math.pi, 0.3, SP2), atol=1e-14)

    def test_pi_pulse_flips(self):
        out = apply("carrier", 1.0, math.pi, down_fock(SP))
        assert up_weight(out) == pytest.approx(1.0, abs=1e-12)

    def test_unitary(self):
        U = u_sideband("carrier", 1.0, 0.9, 1.1, SP2)
        assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("phase, angle", [(0.0, math.pi / 2), (0.3, math.pi), (1.1, 0.9)])
    def test_matches_closed_form_rotation(self, phase, angle):
        U = u_sideband("carrier", 2.7, angle / 2.7, phase, FockSpace(8))
        assert np.max(np.abs(U - np.kron(carrier_rotation(phase, angle), np.eye(8)))) < 1e-14


class TestSidebandUnitaries:
    def test_rsb_leaves_down_ground_invariant(self):
        st = down_fock(SP)
        for duration in (0.3, 1.7, 9.2):
            out = apply("rsb", 1.0, duration, st)
            assert abs(out[0]) == pytest.approx(1.0, abs=1e-12)

    def test_bsb_pi_pulse_transfers_to_up_one(self):
        out = apply("bsb", 1.0, math.pi, down_fock(SP))
        assert abs(out[SP.dim + 1]) == pytest.approx(1.0, abs=1e-12)

    def test_rsb_rabi_rate_scales_as_sqrt_n(self):
        # |down,4> completes a full flop in half the time of |down,1>
        t1 = 2 * math.pi  # full period on n=1 at Omega=1 (rate Omega*sqrt(1))
        out1 = apply("rsb", 1.0, t1, down_fock(SP, 1))
        out4 = apply("rsb", 1.0, t1 / 2, down_fock(SP, 4))
        assert abs(out1[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out4[4]) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity(self):
        U = u_sideband("bsb", 1.3, 0.8, 0.4, FockSpace(16))
        assert np.allclose(U.conj().T @ U, np.eye(32), atol=1e-12)

    def test_carrier_kind_routes_to_rotation(self):
        out = apply("carrier", 1.0, math.pi, down_fock(SP))
        assert up_weight(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="purple"):
            sideband_hamiltonian("purple", 1.0, 0.0, SP2)


class TestBsbSignal:
    def test_ground_state_undamped(self):
        t = np.linspace(0, 5, 40)
        sig = bsb_signal([1.0], 1.0, 0.0, t)
        assert np.allclose(sig, 0.5 * (1 + np.cos(t)), atol=1e-14)

    def test_t_zero_is_one(self):
        pops = coherent_state(Displacement(1.2), SP).populations()
        assert bsb_signal(pops, 2 * math.pi * 1.1e3, 500.0, [0.0])[0] == pytest.approx(1.0)

    def test_decay_rates_scale_with_sqrt(self):
        # single n=1 component decays with gamma*sqrt(2)
        pops = np.zeros(4)
        pops[1] = 1.0
        g, om = 100.0, 2 * math.pi * 1e3
        t = 3e-3
        sig = bsb_signal(pops, om, g, [t])[0]
        expect = 0.5 * (1 + math.exp(-g * math.sqrt(2) * t) * math.cos(om * math.sqrt(2) * t))
        assert sig == pytest.approx(expect, abs=1e-14)

    def test_rejects_bad_populations(self):
        with pytest.raises(ValueError):
            bsb_signal([-0.1, 1.1], 1.0, 0.0, [0.0])
        with pytest.raises(ValueError):
            bsb_signal([0.8, 0.8], 1.0, 0.0, [0.0])

    def test_matches_joint_unitary_evolution(self):
        # gamma=0 signal equals projective BSB dynamics on the same distribution
        sp = FockSpace(96)
        motional = squeezed_vacuum(SqueezeParam(1.0), sp)
        st = np.concatenate([motional.amps, np.zeros(sp.dim)])
        om = 2 * math.pi * 1.1e3
        for t in (0.1e-3, 0.37e-3):
            out = apply("bsb", om, t, st)
            ref = bsb_signal(motional.populations()[:90], om, 0.0, [t])[0]
            assert down_weight(out) == pytest.approx(ref, abs=1e-9)


class TestFAlpha:
    def test_f_zero_is_one(self):
        assert f_alpha(0.0) == 1.0

    def test_small_alpha_value(self):
        assert f_alpha(0.055) == pytest.approx(0.99699, abs=5e-5)

    def test_decreases_with_alpha(self):
        vals = [f_alpha(a) for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a", [5.0, 30.0, 100.0, 300.0])
    def test_poisson_window_matches_the_full_sum(self, a):
        # the reference sums twice the window's half-width from n = 0, with
        # the same normalized weights, which test_matches_a_40_digit_sum covers
        mean = a * a
        n = np.arange(int(mean + 20 * math.sqrt(mean + 1)) + 31)
        weights = poisson_weights(n, mean)
        full = float(np.sum(weights * _rsb_pi_weights(n)[1] / np.sqrt(n + 1)) / np.sum(weights))
        assert f_alpha(a) == pytest.approx(full, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a, bound", [(0.3, 1e-13), (5.0, 1e-13), (30.0, 1e-13),
                                          (100.0, 2e-12), (300.0, 1e-11),
                                          (29.0, 1e-14), (50.0, 1e-14), (300.0, 5e-13)])
    def test_matches_a_40_digit_sum(self, a, bound):
        # the same window, summed with 40-digit Poisson weights and phases;
        # phases from a rounded sqrt(n) erred by 5.6e-14, 1.2e-13 and 4.2e-12
        # at |a| = 29, 50 and 300
        half = 10 * math.sqrt(a * a + 1)
        lo = max(0, math.floor(a * a - half))
        hi = max(30, math.ceil(a * a + half)) + _F_ALPHA_TOP_MARGIN
        want = float(forty_digit_f_alpha(a, range(lo, hi)))
        assert abs(f_alpha(a) - want) <= bound * abs(want)

    def test_pi_weights_at_the_lowest_levels(self):
        # n = 0 and the perfect squares, where the reduced phase is 0
        stay, coherence = _rsb_pi_weights(np.array([0, 1, 3, 4, 8, 9, 15, 16]))
        root = np.sqrt([0, 1, 3, 4, 8, 9, 15, 16])
        assert np.all(np.isfinite(stay)) and np.all(np.isfinite(coherence))
        assert stay[[0, 1, 3, 5, 7]].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]
        want = np.cos(0.5 * math.pi * root) * np.sin(0.5 * math.pi * np.sqrt(root**2 + 1))
        assert np.max(np.abs(coherence - want)) <= 1e-15

    @pytest.mark.parametrize("a", [2.26, 2.272])
    def test_keeps_the_heavy_upper_tail(self, a):
        # at |a|^2 ~ 5 the Poisson mass above |a|^2 + 10 sqrt(|a|^2 + 1)
        # reaches 6e-14; the reference sums +-40 sigma
        half = 40 * math.sqrt(a * a + 1)
        want = float(forty_digit_f_alpha(a, range(max(0, math.floor(a * a - half)),
                                                  math.ceil(a * a + half))))
        assert abs(f_alpha(a) - want) <= 2e-15 * abs(want)

    def test_tiny_alpha_is_one_without_warnings(self):
        # |a|^2 is subnormal here; no weight is divided by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f_alpha(1e-160) == 1.0

    def test_term_budget(self):
        # the window at |a| = 1e5 holds 2e6 terms
        with pytest.raises(ValueError, match="Poisson terms"):
            f_alpha(1e5)


class TestPsrsb:
    def test_alpha_zero_is_half(self):
        for phi in (0.0, 1.0, math.pi):
            assert psrsb_exact_pdown(0.0, phi, SP) == pytest.approx(0.5, abs=1e-12)

    def test_small_alpha_examples(self):
        a = 0.055
        assert psrsb_exact_pdown(a, 0.0, SP) == pytest.approx(0.5 - a * f_alpha(a), abs=1e-10)
        assert psrsb_exact_pdown(a, math.pi / 2, SP) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.02, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.3, math.pi])
    def test_matrix_path_matches_series(self, alpha, phi):
        sp = FockSpace(96)
        exact = psrsb_exact_pdown(alpha, phi, sp)
        assert exact == pytest.approx(psrsb_pdown_series(alpha, phi), abs=1e-9)

    def test_beatnote_shifts_fringe(self):
        # displacing in quadrature with the sideband kills the phi=0 signal
        sp = FockSpace(64)
        val = psrsb_exact_pdown(0.3, 0.0, sp, beatnote=math.pi / 2)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_contrast_matches_series(self):
        assert psrsb_contrast(0.0550) == pytest.approx(2 * 0.0550 * f_alpha(0.0550), rel=1e-12)
        assert psrsb_contrast(0.0550) == pytest.approx(0.1097, abs=5e-4)
        dense = psrsb_exact_pdown(0.3, math.pi, SP) - psrsb_exact_pdown(0.3, 0.0, SP)
        assert dense == pytest.approx(psrsb_contrast(0.3), abs=1e-9)

    def test_contrast_small_alpha_limit(self):
        # |C - 2 alpha| bounded by k alpha^3
        alphas = np.linspace(0.01, 0.1, 10)
        errs = np.array([abs(psrsb_contrast(a) - 2 * a) for a in alphas])
        k = errs / alphas**3
        assert np.max(k) < 2.0


def random_density(dim, seed):
    """Full-rank mixed state with complex off-diagonals."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityOperator(FockSpace(dim), rho / np.trace(rho).real)


def matrix_readout(rho, rabi=1.0):
    """Oracle: conjugate |down><down| (x) rho by the dense RSB pi-pulse."""
    d = rho.space.dim
    joint = np.zeros((2 * d, 2 * d), dtype=complex)
    joint[:d, :d] = rho.matrix
    U = u_sideband("rsb", rabi, math.pi / rabi, 0.0, rho.space)
    joint = U @ joint @ U.conj().T
    return float(np.trace(joint[:d, :d]).real), complex(np.trace(joint[d:, :d]))


class TestRsbReadout:
    @pytest.mark.parametrize("dim", [8, 48, 96])
    @pytest.mark.parametrize("rabi", [1.0, 2.7])
    def test_matches_matrix_path(self, dim, rabi):
        rho = random_density(dim, seed=dim)
        p_down, t_ud = rsb_readout(rho)
        p_ref, t_ref = matrix_readout(rho, rabi)
        assert abs(p_down - p_ref) < 1e-13
        assert abs(t_ud - t_ref) < 1e-13

    def test_fringe_matches_matrix_path(self):
        rho = random_density(48, seed=1)
        phis = np.linspace(0.0, 2 * math.pi, 7)
        _, t_ref = matrix_readout(rho)
        expect = 0.5 + np.real(-1j * np.exp(-1j * phis) * t_ref)
        assert np.max(np.abs(psrsb_fringe_density(rho, phis) - expect)) < 1e-13

    def test_rejects_joint_density(self):
        sp = FockSpace(8)
        rho = DensityOperator(sp, np.eye(2 * sp.dim) / (2 * sp.dim), "joint")
        with pytest.raises(ValueError):
            rsb_readout(rho)
