import cmath
import itertools
import math

import numpy as np
import pytest

from oracles import adequate_truncation, displaced_squeezed_state, squeeze_operator
from squeezeamp import (
    Displacement,
    FockSpace,
    SqueezeParam,
    amplify_displacement,
    coherent_state,
    displaced_squeezed_populations,
    displacement_operator,
    fidelity,
    ladder_lowering,
    squeeze_db,
    squeezed_vacuum,
    vacuum,
)
from squeezeamp.errors import DimensionMismatchError
from squeezeamp.gaussian import FrameMap


SP = FockSpace(64)


def amplification_identity_check(alpha_i, xi, space, block=None):
    """Frobenius distance ‖S†(ξ) D(α_i) S(ξ) - D(α_f)‖ on a central block.

    The comparison covers the top-left `block` x `block` corner (default
    dim/16).  The operator product is formed in an enlarged working space:
    a squeezed Fock state |n> spreads to mean phonon number ~ n e^{2r}, so
    columns computed at the nominal dimension would be corrupted by
    reflection off the truncation edge.
    """
    if block is None:
        block = max(8, space.dim // 16)
    if block > space.dim:
        raise DimensionMismatchError("comparison block exceeds the space dimension")
    work_dim = max(space.dim, int(math.ceil(2 * block * math.exp(2 * xi.r))) + 128)
    work = FockSpace(work_dim)
    S = squeeze_operator(xi, work)
    D = displacement_operator(Displacement(alpha_i), work)
    lhs = S.conj().T @ D @ S
    rhs = displacement_operator(Displacement(amplify_displacement(alpha_i, xi)), work)
    diff = lhs[:block, :block] - rhs[:block, :block]
    return float(np.linalg.norm(diff))


class TestDisplacementOperator:
    def test_zero_is_identity(self):
        assert np.allclose(displacement_operator(Displacement(0.0), SP), np.eye(64))

    def test_small_displacement_populations(self):
        pops = coherent_state(Displacement(0.2), SP).populations()
        assert pops[0] == pytest.approx(math.exp(-0.04), abs=1e-12)
        assert pops[1] == pytest.approx(0.04 * math.exp(-0.04), abs=1e-12)

    def test_group_property(self):
        D = displacement_operator(Displacement(0.7 + 0.1j), SP)
        Dm = displacement_operator(Displacement(-0.7 - 0.1j), SP)
        prod = Dm @ D
        phase = prod[0, 0] / abs(prod[0, 0])
        assert np.allclose(prod[:48, :48] / phase, np.eye(64)[:48, :48], atol=1e-9)

    def test_unitary_on_central_block(self):
        D = displacement_operator(Displacement(0.5), SP)
        defect = D.conj().T @ D - np.eye(64)
        assert np.max(np.abs(defect[: 64 - 8, : 64 - 8])) < 1e-9


class TestSqueezeOperator:
    def test_zero_is_identity(self):
        assert np.allclose(squeeze_operator(SqueezeParam(0.0), SP), np.eye(64))

    def test_vacuum_population(self):
        sv = squeezed_vacuum(SqueezeParam(1.0), FockSpace(128))
        assert sv.populations()[0] == pytest.approx(1.0 / math.cosh(1.0), abs=1e-12)
        assert np.all(sv.populations()[1::2] == 0.0)

    def test_adjoint_is_negative_xi(self):
        sp = FockSpace(128)
        S = squeeze_operator(SqueezeParam(0.8, 0.9), sp)
        Sm = squeeze_operator(SqueezeParam(0.8, 0.9 + math.pi), sp)
        assert np.max(np.abs(S.conj().T[:96, :96] - Sm[:96, :96])) < 1e-9

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_mean_phonon_number(self, r):
        # tail mass eps contributes ~ N*eps to <n>, so push it well below 1e-7
        sp = FockSpace(adequate_truncation(SqueezeParam(r), eps=1e-13))
        sv = squeezed_vacuum(SqueezeParam(r), sp)
        n_mean = float(np.arange(sp.dim) @ sv.populations())
        assert n_mean == pytest.approx(math.sinh(r) ** 2, abs=1e-7)

    def test_unitarity_round_trip(self):
        sp = FockSpace(192)
        S = squeeze_operator(SqueezeParam(1.0), sp)
        state = S.conj().T @ (S @ vacuum(sp).amps)
        assert fidelity(state, vacuum(sp).amps) == pytest.approx(1.0, abs=1e-8)


class TestAnalyticConstructors:
    def test_coherent_matches_operator(self):
        d = Displacement(0.9 * cmath.exp(0.4j))
        analytic = coherent_state(d, SP)
        via_op = displacement_operator(d, SP) @ vacuum(SP).amps
        assert np.max(np.abs(analytic.amps - via_op)) < 1e-10

    def test_coherent_alpha_zero_is_vacuum(self):
        assert fidelity(coherent_state(Displacement(0.0), SP), vacuum(SP)) == 1.0

    def test_coherent_peak_position(self):
        # alpha = 1.83: Poisson peak at n = 3
        pops = coherent_state(Displacement(1.83), FockSpace(96)).populations()
        assert int(np.argmax(pops)) == 3

    def test_squeezed_vacuum_r0(self):
        assert fidelity(squeezed_vacuum(SqueezeParam(0.0), SP), vacuum(SP)) == 1.0

    def test_squeezed_vacuum_large_r_ground_population(self):
        xi = SqueezeParam(2.26)
        sp = FockSpace(adequate_truncation(xi))
        sv = squeezed_vacuum(xi, sp)
        assert sv.populations()[0] == pytest.approx(1.0 / math.cosh(2.26), abs=1e-12)

    def test_squeezed_matches_operator(self):
        xi = SqueezeParam(1.0, 2.1)
        sp = FockSpace(192)
        analytic = squeezed_vacuum(xi, sp)
        via_op = squeeze_operator(xi, sp) @ vacuum(sp).amps
        assert np.max(np.abs(analytic.amps[:128] - via_op[:128])) < 1e-10


class TestDisplacedSqueezedPopulations:
    def test_alpha_zero_reduces_to_squeezed_vacuum(self):
        xi = SqueezeParam(1.3, 0.4)
        pops = displaced_squeezed_populations(Displacement(0.0), xi, 80)
        ref = squeezed_vacuum(xi, FockSpace(160), check_tail=False).populations()[:80]
        assert np.max(np.abs(pops - ref)) < 1e-12

    def test_r_zero_routes_to_coherent(self):
        pops = displaced_squeezed_populations(Displacement(0.7), SqueezeParam(0.0), 40)
        ref = coherent_state(Displacement(0.7), SP).populations()[:40]
        assert np.max(np.abs(pops - ref)) < 1e-12

    @pytest.mark.parametrize(
        "alpha,r,theta",
        [
            (0.200, 2.26, 0.0),
            (0.5, 0.5, math.pi / 3),
            (0.5 + 0.3j, 1.0, 1.2),
        ],
    )
    def test_matches_matrix_exponential_composition(self, alpha, r, theta):
        xi = SqueezeParam(r, theta)
        sp = FockSpace(max(adequate_truncation(xi, abs(alpha)), 192))
        pops = displaced_squeezed_populations(Displacement(alpha), xi, 128)
        ref = displaced_squeezed_state(Displacement(alpha), xi, sp).populations()[:128]
        assert np.max(np.abs(pops - ref)) < 1e-8

    @pytest.mark.parametrize("alpha,r,theta", [(0.6 - 0.45j, 0.8, 2.3), (1.1 + 0.4j, 0.0, 1.7)])
    def test_jacobian_matches_central_differences(self, alpha, r, theta):
        nmax, h = 40, 1e-6
        _, jac = displaced_squeezed_populations(Displacement(alpha), SqueezeParam(r, theta),
                                                nmax, jac=True)
        u = alpha / abs(alpha)

        def pops(a, rr, t):
            # r < 0 is the squeeze of magnitude |r| at phase theta + pi
            xi = SqueezeParam(abs(rr), t + math.pi * (rr < 0))
            return displaced_squeezed_populations(Displacement(a * u), xi, nmax)

        a = abs(alpha)
        fd = np.stack([(pops(a + h, r, theta) - pops(a - h, r, theta)) / (2 * h),
                       (pops(a, r + h, theta) - pops(a, r - h, theta)) / (2 * h),
                       (pops(a, r, theta + h) - pops(a, r, theta - h)) / (2 * h)], axis=1)
        assert np.max(np.abs(jac - fd)) < 1e-8
        if r == 0:
            assert np.all(jac[:, 2] == 0.0)

    def test_zero_levels_is_empty(self):
        d, xi = Displacement(0.3 + 0.1j), SqueezeParam(0.5, 1.0)
        assert displaced_squeezed_populations(d, xi, 0).shape == (0,)
        pops, jac = displaced_squeezed_populations(d, xi, 0, jac=True)
        assert pops.shape == (0,) and jac.shape == (0, 3)

    def test_no_overflow_for_high_n(self):
        pops = displaced_squeezed_populations(Displacement(2.0), SqueezeParam(2.54), 600)
        assert np.all(np.isfinite(pops))
        assert np.all(pops >= 0)
        assert np.sum(pops) <= 1.0 + 1e-9


class TestAmplification:
    def test_r_zero_passthrough(self):
        assert amplify_displacement(0.3 + 0.1j, SqueezeParam(0.0)) == pytest.approx(0.3 + 0.1j)

    def test_real_alpha_theta_zero_gain(self):
        af = amplify_displacement(0.2, SqueezeParam(2.26))
        assert af.real == pytest.approx(0.2 * math.exp(2.26), rel=1e-12)

    def test_fig2_value(self):
        af = amplify_displacement(0.200, SqueezeParam(2.26))
        assert abs(af) == pytest.approx(1.9166, abs=5e-4)

    def test_phase_covariance(self):
        alpha = 0.17 * cmath.exp(0.3j)
        for phi in (0.0, 0.7, 2.2):
            lhs = amplify_displacement(
                alpha * cmath.exp(1j * phi), SqueezeParam(0.9, (1.1 + 2 * phi) % (2 * math.pi))
            )
            rhs = cmath.exp(1j * phi) * amplify_displacement(alpha, SqueezeParam(0.9, 1.1))
            assert abs(lhs - rhs) < 1e-12

    def test_gain_extremes_and_monotonicity(self):
        alpha = 0.25
        thetas = np.linspace(0, math.pi, 21)
        mags = [abs(amplify_displacement(alpha, SqueezeParam(1.0, t))) for t in thetas]
        assert mags[0] == pytest.approx(alpha * math.e, rel=1e-12)
        assert mags[-1] == pytest.approx(alpha / math.e, rel=1e-12)
        assert all(a >= b - 1e-14 for a, b in zip(mags, mags[1:]))

    def test_identity_check_zero_alpha(self):
        assert amplification_identity_check(0.0, SqueezeParam(1.0), FockSpace(256)) < 1e-9

    @pytest.mark.parametrize("theta,expect_af", [(0.0, 0.1 * math.e), (math.pi, 0.1 / math.e)])
    def test_identity_check_r1(self, theta, expect_af):
        xi = SqueezeParam(1.0, theta)
        assert abs(amplify_displacement(0.1, xi)) == pytest.approx(expect_af, rel=1e-12)
        assert amplification_identity_check(0.1, xi, FockSpace(256)) < 1e-6


def _closed_form_gain_law(alpha_i, xi):
    return alpha_i * math.cosh(xi.r) + np.conj(alpha_i) * cmath.exp(1j * xi.theta) * math.sinh(
        xi.r
    )


class TestFrameMap:
    @pytest.mark.parametrize("alpha, r, theta", [(0.5 + 0.3j, 0.7, 1.2), (2.0, 0.4, 4.0),
                                                 (-0.3j, 0.5, 0.0)])
    def test_amplitudes_match_dense_oracle(self, alpha, r, theta):
        sp = FockSpace(160)
        fmap = FrameMap(math.cosh(r), -cmath.exp(1j * theta) * math.sinh(r), alpha)
        ref = displaced_squeezed_state(Displacement(alpha), SqueezeParam(r, theta), sp)
        assert np.max(np.abs(fmap.amplitudes(160) - ref.amps)) <= 1e-14

    def test_norm_deficit_is_the_tail_mass(self):
        # 1 - sum |psi_n|^2 over n < 160 is the mass the dense oracle puts above 160
        alpha, r, theta = 0.5, 1.5, 0.6
        fmap = FrameMap(math.cosh(r), -cmath.exp(1j * theta) * math.sinh(r), alpha)
        deficit = 1.0 - np.sum(np.abs(fmap.amplitudes(160)) ** 2)
        oracle = displaced_squeezed_state(Displacement(alpha), SqueezeParam(r, theta),
                                          FockSpace(400)).populations()
        assert deficit > 1e-9
        assert deficit == pytest.approx(np.sum(oracle[160:]), rel=1e-6)

    def test_gain_law_matches_closed_form(self):
        for alpha, r, theta in itertools.product(
                (0.2, -0.7 + 0.4j, 3.0, 1e-3j), (0.0, 0.5, 1.0, 2.26, 3.78),
                np.linspace(0.0, 2 * math.pi, 9)):
            xi = SqueezeParam(r, theta)
            want = _closed_form_gain_law(alpha, xi)
            assert abs(amplify_displacement(alpha, xi) - want) <= 1e-15 * abs(want)

    def test_squeeze_accepts_an_array(self):
        r = np.array([0.0, 0.5, 2.0])
        fmap = FrameMap.squeeze(r, 0.3)
        assert fmap.mu == pytest.approx(np.cosh(r), rel=1e-15)
        assert fmap.nu == pytest.approx(-cmath.exp(0.3j) * np.sinh(r), rel=1e-15)

    def test_squeeze_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            FrameMap.squeeze(1000.0, 0.0)
        with pytest.raises(OverflowError):
            amplify_displacement(0.2, SqueezeParam(1000.0))

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_squeeze_is_refused(self, r):
        with pytest.raises(ValueError, match="finite"):
            SqueezeParam(r)
        with pytest.raises(ValueError, match="finite"):
            FrameMap.squeeze(r, 0.0)
        with pytest.raises(ValueError, match="finite"):
            FrameMap.squeeze(np.array([0.5, r]), 0.0)

    def test_amplitude_tangents_of_a_general_map(self):
        # a path t -> M(t) through maps with complex mu, nu and c; the tangent
        # (dM/dt) is taken by central differences, exact to O(h^2)
        def path(t):
            return FrameMap.squeeze(0.7 + 0.2 * t, 1.1).compose_local(
                FrameMap(cmath.exp(1j * t), 0.0, 0.3 + 0.2j * t))

        t, h, dim = 0.4, 1e-6, 48
        up, down = path(t + h), path(t - h)
        tangent = FrameMap(*((x - y) / (2 * h) for x, y in
                             ((up.mu, down.mu), (up.nu, down.nu), (up.c, down.c))))
        amps, damps = path(t).amplitudes(dim, (tangent,))
        fd = (up.amplitudes(dim) - down.amplitudes(dim)) / (2 * h)
        assert np.array_equal(amps, path(t).amplitudes(dim))
        assert damps.shape == (dim, 1)
        assert np.max(np.abs(damps[:, 0] - fd)) < 1e-8

    def test_vacuum_fidelity_of_two_squeezes(self):
        # S(r2)† S(r1) = S(r1 - r2) along one axis, whose vacuum overlap is 1/cosh
        one, two = FrameMap.squeeze(1.3, 0.7), FrameMap.squeeze(0.4, 0.7)
        assert one.vacuum_fidelity(two) == pytest.approx(1 / math.cosh(0.9), rel=1e-14)
        assert one.vacuum_fidelity(one) == pytest.approx(1.0, rel=1e-15)


# a squeeze, a displaced rotation, their product, and a batch of squeezes
QUADRATURE_MAPS = [
    FrameMap.squeeze(1.3, 0.7),
    FrameMap(cmath.exp(-0.4j), 0.0, 0.2 - 0.5j),
    FrameMap.squeeze(0.8, 2.1).compose_local(FrameMap(cmath.exp(0.9j), 0.0, 1.1j)),
    FrameMap.squeeze(np.array([0.0, 0.5, 2.0, 3.78]), 4.0),
]


class TestQuadratureMatrix:
    @pytest.mark.parametrize("fmap", QUADRATURE_MAPS)
    def test_determinant_is_one(self, fmap):
        S = fmap.quadrature_matrix
        assert S.dtype == float and S.shape == np.shape(fmap.nu) + (2, 2)
        assert np.max(np.abs(np.linalg.det(S) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("first, second", itertools.permutations(QUADRATURE_MAPS[:3], 2))
    def test_composition_is_the_product(self, first, second):
        got = first.compose_local(second).quadrature_matrix
        want = second.quadrature_matrix @ first.quadrature_matrix
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("fmap", QUADRATURE_MAPS[:3])
    def test_matches_quadratures_of_the_lowering_matrix(self, fmap):
        # x' and p' of A - c, against S applied to the truncated x and p
        sp = FockSpace(24)
        a = ladder_lowering(sp)
        x, p = (a + a.conj().T) / math.sqrt(2), (a - a.conj().T) / (1j * math.sqrt(2))
        A = fmap.lowering_matrix(sp) - fmap.c * np.eye(sp.dim)
        xp, pp = (A + A.conj().T) / math.sqrt(2), (A - A.conj().T) / (1j * math.sqrt(2))
        S = fmap.quadrature_matrix
        inner = slice(0, sp.dim - 1)  # away from the truncation edge
        for got, row in ((xp, S[0]), (pp, S[1])):
            want = row[0] * x + row[1] * p
            assert np.max(np.abs(got - want)[inner, inner]) <= 1e-14 * np.max(np.abs(want))


class TestDecibels:
    def test_zero(self):
        assert squeeze_db(0.0) == 0.0

    def test_paper_levels(self):
        assert squeeze_db(2.37) == pytest.approx(20.6, abs=0.05)
        assert squeeze_db(2.54) == pytest.approx(22.06, abs=0.05)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            squeeze_db(-0.1)
