import cmath
import math

import numpy as np
import pytest

from squeezeamp import (
    Displacement,
    FockSpace,
    SqueezeParam,
    amplify_displacement,
    coherent_state,
    ladder_lowering,
    vacuum,
)
from squeezeamp.fock import DensityOperator
from squeezeamp.frame import (
    FrameMap,
    amplification_sequence,
    amplify_with_noise,
    run_gaussian_sequence_frame,
)
from squeezeamp.lindblad import NoiseParams, PulseSequence, Segment, run_sequence
from squeezeamp.spinmotion import psrsb_contrast, psrsb_fringe_density

G = 2 * math.pi * 50.2e3


class TestFrameMap:
    def test_identity(self):
        m = FrameMap()
        assert (m.mu, m.nu, m.c) == (1.0, 0.0, 0.0)

    def test_displacement_then_squeeze_matches_closed_form(self):
        # V = S(r) D(alpha): V† a V = cosh r (a + alpha) - e^{i theta} sinh r (a† + alpha*)
        alpha, r, theta = 0.2 + 0.1j, 0.8, 0.5
        m = FrameMap().compose_local(1.0, 0.0, alpha)
        m = m.compose_local(math.cosh(r), -cmath.exp(1j * theta) * math.sinh(r), 0.0)
        assert m.mu == pytest.approx(math.cosh(r))
        assert m.nu == pytest.approx(-cmath.exp(1j * theta) * math.sinh(r))
        expect_c = alpha * math.cosh(r) - cmath.exp(1j * theta) * math.sinh(r) * np.conj(alpha)
        assert m.c == pytest.approx(expect_c)

    def test_full_protocol_map_is_pure_displacement(self):
        for theta in (0.0, 0.9, math.pi):
            seq = amplification_sequence(0.1, 1.3, G, theta=theta)
            res = run_gaussian_sequence_frame(seq, NoiseParams.none(), FockSpace(8))
            assert res.fmap.squeeze_magnitude < 1e-12
            assert res.fmap.mu == pytest.approx(1.0, abs=1e-12)
            expect = amplify_displacement(0.1, SqueezeParam(1.3, theta))
            assert res.fmap.c == pytest.approx(expect, abs=1e-12)


class TestNoiselessPath:
    def test_zero_noise_leaves_frame_in_ground_state(self):
        seq = amplification_sequence(0.2, 1.0, G)
        res = run_gaussian_sequence_frame(seq, NoiseParams.none(), FockSpace(16))
        assert res.rho[0, 0] == pytest.approx(1.0)
        assert abs(res.mean_lowering) == pytest.approx(0.2 * math.e, rel=1e-12)

    def test_lab_density_is_coherent_state(self):
        seq = amplification_sequence(0.1, 1.0, G)
        res = run_gaussian_sequence_frame(seq, NoiseParams.none(), FockSpace(8))
        rho = res.lab_density(FockSpace(64))
        ref = coherent_state(Displacement(0.1 * math.e), FockSpace(64))
        assert np.max(np.abs(rho.matrix - np.outer(ref.amps, ref.amps.conj()))) < 1e-10


class TestDenseCrossValidation:
    def test_matches_dense_lindblad_at_small_r(self):
        t_sq = 0.5 / G
        t_d = 5e-6
        seq = PulseSequence(
            [
                Segment("parametric", t_sq, 0.0, G),
                Segment("displace", t_d, 0.0, 0.2 / t_d),
                Segment("parametric", t_sq, math.pi, G),
            ]
        )
        sp = FockSpace(64)
        dense = run_sequence(seq, NoiseParams(), vacuum(sp))
        dense_mot = dense.matrix[:64, :64]
        res = run_gaussian_sequence_frame(seq, NoiseParams(), FockSpace(48))
        lab = res.lab_density(sp)
        assert np.max(np.abs(lab.matrix - dense_mot)) < 1e-6
        a = ladder_lowering(sp)
        dense_a = complex(np.trace(a @ dense_mot))
        assert res.mean_lowering == pytest.approx(dense_a, abs=1e-6)

    def test_noise_toggle_respected(self):
        seq_on = amplification_sequence(0.1, 0.5, G, noise_during_displacement=True)
        seq_off = amplification_sequence(0.1, 0.5, G, noise_during_displacement=False)
        on = run_gaussian_sequence_frame(seq_on, NoiseParams(0.0, 18.0), FockSpace(32))
        off = run_gaussian_sequence_frame(seq_off, NoiseParams(0.0, 18.0), FockSpace(32))
        # less dephasing time means more coherence retained
        assert abs(off.mean_lowering) > abs(on.mean_lowering)


class TestLargeSqueezing:
    def test_paper_gain_point_with_noise(self):
        res = amplify_with_noise(0.2, 2.26, NoiseParams(), G, frame_space=FockSpace(48))
        af = abs(res.mean_lowering)
        assert 1.75 <= af <= 1.92
        assert abs(res.fmap.c) == pytest.approx(0.2 * math.exp(2.26), rel=1e-12)

    def test_trace_preserved(self):
        res = amplify_with_noise(0.1, 2.0, NoiseParams(), G, frame_space=FockSpace(48))
        assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-8)

    def test_lab_density_refuses_mid_sequence_map(self):
        seq = PulseSequence([Segment("parametric", 1.0 / G, 0.0, G)])
        res = run_gaussian_sequence_frame(seq, NoiseParams.none(), FockSpace(8))
        with pytest.raises(ValueError):
            res.lab_density()


class TestDensityFringe:
    def test_pure_state_matches_exact_psrsb(self):
        sp = FockSpace(64)
        rho = DensityOperator.from_motional(coherent_state(Displacement(0.3), sp))
        phis = np.array([0.0, 0.7, math.pi / 2, math.pi])
        fringe = psrsb_fringe_density(rho, phis)
        from squeezeamp.spinmotion import psrsb_exact_pdown

        for phi, val in zip(phis, fringe):
            assert val == pytest.approx(psrsb_exact_pdown(0.3, phi, sp), abs=1e-10)

    def test_contrast_of_noiseless_amplification(self):
        res = amplify_with_noise(0.055, 1.0, NoiseParams.none(), G, frame_space=FockSpace(16))
        rho = res.lab_density(FockSpace(48))
        p_max, p_min = psrsb_fringe_density(rho, [math.pi, 0.0])
        assert p_max - p_min == pytest.approx(psrsb_contrast(0.055 * math.e), abs=1e-9)

    def test_noise_reduces_contrast(self):
        noisy = amplify_with_noise(0.055, 1.5, NoiseParams(), G, frame_space=FockSpace(48))
        p_max, p_min = psrsb_fringe_density(noisy.lab_density(FockSpace(64)), [math.pi, 0.0])
        c_noisy = p_max - p_min
        c_ideal = psrsb_contrast(0.055 * math.exp(1.5))
        assert c_noisy < c_ideal
        assert c_noisy > 0.3 * c_ideal
