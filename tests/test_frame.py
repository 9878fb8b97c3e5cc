import cmath
import logging
import math

import numpy as np
import pytest
import scipy.linalg

from squeezeamp import (
    Displacement,
    FockSpace,
    SqueezeParam,
    amplify_displacement,
    coherent_state,
    ladder_lowering,
    vacuum,
)
from squeezeamp import frame, gaussian, lindblad
from squeezeamp.errors import ConvergenceError
from squeezeamp.fock import DensityOperator
from squeezeamp.frame import (
    FrameMap,
    amplification_sequence,
    amplify_with_noise,
    evolve_frame_segment,
    run_gaussian_sequence_frame,
)
from squeezeamp.lindblad import (
    NoiseParams,
    PulseSequence,
    Segment,
    run_sequence,
    trace_distance,
)
from squeezeamp.spinmotion import psrsb_contrast, psrsb_fringe_density

G = 2 * math.pi * 50.2e3


class TestFrameMap:
    def test_identity(self):
        m = FrameMap()
        assert (m.mu, m.nu, m.c) == (1.0, 0.0, 0.0)

    def test_displacement_then_squeeze_matches_closed_form(self):
        # V = S(r) D(alpha): V† a V = cosh r (a + alpha) - e^{i theta} sinh r (a† + alpha*)
        alpha, r, theta = 0.2 + 0.1j, 0.8, 0.5
        m = FrameMap().compose_local(FrameMap(c=alpha))
        m = m.compose_local(FrameMap(math.cosh(r), -cmath.exp(1j * theta) * math.sinh(r)))
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


# --- per-step oracle of the frame engine --------------------------------------
# One step at a time in the Fock basis: every substep goes into the eigenbasis
# of its own Hermitian jump operator and back.  Dephasing uses A†A; heating
# uses the two quadratures z = cos(phi) x + sin(phi) p of the eigenvectors of
# SᵀS, each built densely and diagonalised on its own.  The engine batches
# and reorders the same arithmetic, with one cached basis for every z.

def _dephase_exact(rho, q_vecs, q_vals, rate, dt):
    """exp(dt rate D[Q]) rho in the eigenbasis (q_vals, q_vecs) of a Hermitian Q."""
    rot = q_vecs.conj().T @ rho @ q_vecs
    decay = np.exp(-0.5 * rate * dt * (q_vals[:, None] - q_vals[None, :]) ** 2)
    return q_vecs @ (rot * decay) @ q_vecs.conj().T


def _x_and_p(dim):
    a = ladder_lowering(FockSpace(dim))
    return (a + a.conj().T) / math.sqrt(2), (a - a.conj().T) / (1j * math.sqrt(2))


def _quadrature_gram(fmap):
    """SᵀS, with S read off x' = Re(mu + nu) x - Im(mu - nu) p and
    p' = Im(mu + nu) x + Re(mu - nu) p."""
    mu, nu = complex(fmap.mu), complex(fmap.nu)
    S = np.array([[(mu + nu).real, -(mu - nu).imag], [(mu + nu).imag, (mu - nu).real]])
    return S.T @ S


def _heating_quadratures(fmap, dim):
    """[(lam, z)]: the eigenvalues of SᵀS, largest first, and the dense
    quadratures along their eigenvectors."""
    lams, axes = np.linalg.eigh(_quadrature_gram(fmap))
    x, p = _x_and_p(dim)
    return [(lams[i], axes[0, i] * x + axes[1, i] * p) for i in (1, 0)]


def _oracle_step_run(rho, base_map, segment, noise, n_steps):
    dt = segment.duration / n_steps
    heating, gamma = noise.heating_rate, noise.dephasing_rate
    for k in range(n_steps):
        fmap = base_map.compose_local(gaussian.segment_map(segment, (k + 0.5) * dt))
        A = fmap.lowering_matrix(FockSpace(rho.shape[0]))
        if gamma:
            q_vals, q_vecs = np.linalg.eigh(A.conj().T @ A)
            rho = _dephase_exact(rho, q_vecs, q_vals, gamma, 0.5 * dt)
        if heating:
            (lam1, z1), (lam2, z2) = _heating_quadratures(fmap, rho.shape[0])
            for lam, z, h in ((lam1, z1, 0.5 * dt), (lam2, z2, dt), (lam1, z1, 0.5 * dt)):
                z_vals, z_vecs = np.linalg.eigh(z)
                rho = _dephase_exact(rho, z_vecs, z_vals, lam * heating, h)
        if gamma:
            rho = _dephase_exact(rho, q_vecs, q_vals, gamma, 0.5 * dt)
    return rho


def _mixed_state(dim, seed=7):
    """A full-rank density matrix with coherences, weighted to low levels."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g *= np.exp(-0.4 * np.arange(dim))[:, None]
    rho = g @ g.conj().T
    return rho / np.trace(rho)


SQUEEZED_BASE = FrameMap().compose_local(
    FrameMap(math.cosh(0.8), -cmath.exp(0.4j) * math.sinh(0.8))
).compose_local(FrameMap(c=0.3 - 0.2j))
# a thousand times the paper's rates, so that a few steps move the state
STRONG_NOISE = {
    "both": NoiseParams(2e4, 1.8e4),
    "heating": NoiseParams(2e4, 0.0),
    "dephasing": NoiseParams(0.0, 1.8e4),
}


class TestStepRunMatchesOracle:
    @pytest.mark.parametrize("noise", sorted(STRONG_NOISE))
    @pytest.mark.parametrize("segment, n_steps", [
        (Segment("parametric", 0.6 / G, 1.1, G), 24),
        (Segment("parametric", 0.6 / G, 1.1, G), 13),
        (Segment("displace", 2e-6, 0.7, 1e5), 16),
        (Segment("free", 2e-6, 0.0, 0.0), 11),
    ], ids=["parametric", "parametric-13", "displace", "free-11"])
    def test_agrees_with_per_step_oracle(self, segment, n_steps, noise):
        noise = STRONG_NOISE[noise]
        rho = _mixed_state(14)
        assert SQUEEZED_BASE.c != 0
        got = frame._segment_step_run(rho, SQUEEZED_BASE, segment, noise, n_steps)
        want = _oracle_step_run(rho, SQUEEZED_BASE, segment, noise, n_steps)
        assert np.max(np.abs(got - want)) <= 1e-12
        # the comparison is not vacuous: the noise moved the state
        assert np.max(np.abs(want - rho)) > 1e-4


# --- heating as diffusion along two quadratures ------------------------------

def _dissipator_superop(L):
    """Matrix of rho -> L rho L† - (L†L rho + rho L†L)/2 on column-stacked rho."""
    eye = np.eye(L.shape[0])
    LdL = L.conj().T @ L
    return np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)


def _heating_superop(fmap, dim, rate):
    A = fmap.lowering_matrix(FockSpace(dim))
    return rate * (_dissipator_superop(A) + _dissipator_superop(A.conj().T))


def _quadrature(phi, dim):
    x, p = _x_and_p(dim)
    return math.cos(phi) * x + math.sin(phi) * p


def _batch_item(fmap, i):
    return FrameMap(*(np.asarray(v)[i] for v in (fmap.mu, fmap.nu, fmap.c)))


# a squeeze with an offset, that map after a batch of squeezes, and the identity
BATCHED = SQUEEZED_BASE.compose_local(
    gaussian.segment_map(Segment("parametric", 0.6 / G, 1.1, G), np.array([0.1, 0.3, 0.6]) / G))
HEATING_MAPS = [SQUEEZED_BASE] + [_batch_item(BATCHED, i) for i in range(3)] + [FrameMap()]


class TestHeatingQuadratures:
    @pytest.mark.parametrize("fmap", HEATING_MAPS)
    def test_identity_holds_for_the_truncated_matrices(self, fmap):
        dim, rate = 14, 2e4
        lam1, lam2, phi = frame._heating_axes(fmap)
        assert [lam2, lam1] == pytest.approx(np.linalg.eigvalsh(_quadrature_gram(fmap)),
                                             rel=1e-12)
        want = _heating_superop(fmap, dim, rate)
        got = rate * (lam1 * _dissipator_superop(_quadrature(phi, dim))
                      + lam2 * _dissipator_superop(_quadrature(phi + math.pi / 2, dim)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if fmap == FrameMap():
            assert (lam1, lam2) == (1.0, 1.0)
        else:
            assert fmap.c != 0

    def test_batched_map_gives_each_maps_axes(self):
        axes = np.array(frame._heating_axes(BATCHED))
        for i in range(3):
            assert np.array(frame._heating_axes(_batch_item(BATCHED, i))) == \
                pytest.approx(axes[:, i], rel=1e-15, abs=1e-15)

    def test_cached_basis_diagonalises_every_quadrature(self):
        xi, U, C = frame._quadrature_basis(14)
        for phi in (0.0, 0.7, 2.5):
            basis = np.exp(1j * phi * np.arange(14))[:, None] * U
            z = basis.conj().T @ _quadrature(phi, 14) @ basis
            assert np.max(np.abs(z - np.diag(xi))) <= 1e-13
            turned = basis @ C
            z = turned.conj().T @ _quadrature(phi + math.pi / 2, 14) @ turned
            assert np.max(np.abs(z - np.diag(xi))) <= 1e-13

    @pytest.mark.parametrize("fmap, dt", [(SQUEEZED_BASE, 2e-7), (FrameMap(c=0.3 - 0.2j), 2e-6)],
                             ids=["squeezed", "displaced"])
    def test_one_step_from_vacuum_matches_the_heating_exponential(self, fmap, dt):
        # Z1 Z2 Z1 splits only through [x, p] at the truncation edge, where
        # these steps leave < 1e-18 of the weight
        dim, rate = 14, 2e4
        segment = Segment("free", dt, 0.0, 0.0)
        got = frame._segment_step_run(_ground(dim), fmap, segment, NoiseParams(rate, 0.0), 1)
        propagator = scipy.linalg.expm(dt * _heating_superop(fmap, dim, rate))
        want = (propagator @ _ground(dim).ravel(order="F")).reshape(dim, dim, order="F")
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(want - _ground(dim))) > 1e-2

    def test_one_huge_step_stays_a_density_matrix(self):
        segment = Segment("parametric", 0.6 / G, 1.1, G)
        rho = frame._segment_step_run(_mixed_state(14), SQUEEZED_BASE, segment,
                                      NoiseParams(1e9, 1e9), 1)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-14


# --- extrapolated doubling ----------------------------------------------------

SENSITIVITY_NOISE = NoiseParams(20.0, 18.0)


def _plain_doubling_steps(rho, base_map, segment, noise, step_run, tol=1e-7,
                          min_steps=32, max_doublings=8):
    """Accepted step count and state of plain Strang doubling, one level at a time."""
    n_steps = min_steps
    coarse = step_run(rho, base_map, segment, noise, n_steps)
    for _ in range(max_doublings):
        n_steps *= 2
        fine = step_run(rho, base_map, segment, noise, n_steps)
        if trace_distance(coarse, fine) < tol:
            return n_steps, fine
        coarse = fine
    raise ConvergenceError(f"not converged after {n_steps} steps")


class _RecordedRuns:
    """Step runs of the engine, logged by step count."""

    def __init__(self):
        self.step_run = frame._segment_step_run
        self.log = []

    def __call__(self, rho, base_map, segment, noise, n_steps):
        self.log.append(n_steps)
        return self.step_run(rho, base_map, segment, noise, n_steps)


def _one_level_doubling(run, tol, min_steps, max_steps, engine, kind=None):
    """The step controller with one Richardson level: pairs extrapolate to
    R(n) = (4 S(2n) - S(n)) / 3, and R(2n) is accepted once within `tol` of
    R(n) (oracle)."""
    n_steps = min_steps
    coarse, previous = run(n_steps), None
    while n_steps < max_steps:
        n_steps *= 2
        fine = run(n_steps)
        extrapolated = (4 * fine - coarse) / 3
        if previous is not None and trace_distance(previous, extrapolated) < tol:
            return extrapolated
        coarse, previous = fine, extrapolated
    raise ConvergenceError(f"not converged after {n_steps} steps")


def _plain_doubling_sequence(seq, dim, tol):
    """Frame state after `seq`, each segment converged by plain doubling."""
    rho, fmap = _ground(dim), FrameMap()
    for segment in seq.segments:
        _, rho = _plain_doubling_steps(rho, fmap, segment, SENSITIVITY_NOISE,
                                       frame._segment_step_run, tol=tol)
        fmap = fmap.compose_local(gaussian.segment_map(segment, segment.duration))
    return rho


def _ground(dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _pre_squeeze(t_us):
    """The noisy-sensitivity pre-squeeze of t_us microseconds."""
    return amplification_sequence(0.005, G * t_us * 1e-6, G, 5e-6).segments[0]


class TestExtrapolatedDoubling:
    @pytest.mark.parametrize("t_us", [2.0, 4.0])
    def test_closer_to_tight_plain_doubling_than_plain_at_same_tol(self, t_us):
        rho, segment = _ground(12), _pre_squeeze(t_us)
        _, tight = _plain_doubling_steps(rho, FrameMap(), segment, SENSITIVITY_NOISE,
                                         frame._segment_step_run, tol=1e-10)
        _, loose = _plain_doubling_steps(rho, FrameMap(), segment, SENSITIVITY_NOISE,
                                         frame._segment_step_run)
        got, _ = evolve_frame_segment(rho, FrameMap(), segment, SENSITIVITY_NOISE)
        assert trace_distance(got, tight) <= 1e-8
        assert trace_distance(got, tight) < trace_distance(loose, tight)

    def test_extrapolation_is_fourth_order(self):
        # Strang steps are symmetric, so the error is even in dt and one
        # extrapolation leaves dt^4: its distances fall 2^4 per doubling
        rho, segment = _ground(12), _pre_squeeze(6.0)
        runs = [frame._segment_step_run(rho, FrameMap(), segment, SENSITIVITY_NOISE, 32 * 2**k)
                for k in range(4)]
        extrapolated = [(4 * fine - coarse) / 3 for coarse, fine in zip(runs, runs[1:])]
        d = [trace_distance(a, b) for a, b in zip(extrapolated, extrapolated[1:])]
        assert 12 < d[0] / d[1] < 20

    @pytest.mark.parametrize("t_us, tight_tol", [(2.0, 1e-10), (4.0, 1e-9)])
    def test_sequence_closer_to_tight_plain_doubling_than_one_level(self, t_us, tight_tol,
                                                                    monkeypatch):
        # the reference is off by <= tight_tol / 3, well below the one-level
        # error at the default tol (2.7e-10 at 2 us, 3.6e-9 at 4 us)
        seq = amplification_sequence(0.005, G * t_us * 1e-6, G, 5e-6)
        tight = _plain_doubling_sequence(seq, 8, tight_tol)
        got = run_gaussian_sequence_frame(seq, SENSITIVITY_NOISE, space=FockSpace(8)).rho
        monkeypatch.setattr(lindblad, "extrapolated_doubling", _one_level_doubling)
        one_level = run_gaussian_sequence_frame(seq, SENSITIVITY_NOISE, space=FockSpace(8)).rho
        assert trace_distance(got, tight) < trace_distance(one_level, tight)

    def test_second_romberg_level_is_sixth_order(self):
        # the error is even in dt through dt^6, so the table's second level
        # leaves dt^6: its distances fall 2^6 per doubling (measured 62.7)
        rho, segment = _ground(12), _pre_squeeze(6.0)
        runs = [frame._segment_step_run(rho, FrameMap(), segment, SENSITIVITY_NOISE, 8 * 2**k)
                for k in range(5)]
        level1 = [(4 * fine - coarse) / 3 for coarse, fine in zip(runs, runs[1:])]
        level2 = [fine + (fine - coarse) / 15 for coarse, fine in zip(level1, level1[1:])]
        d = [trace_distance(a, b) for a, b in zip(level2, level2[1:])]
        assert 48 < d[0] / d[1] < 80

    @pytest.mark.parametrize("max_doublings, expect", [
        (3, [4, 8, 16, 32]),
        (5, [4, 8, 16, 32, 64, 128]),
    ])
    def test_too_tight_tol_raises_at_the_last_level(self, max_doublings, expect,
                                                    monkeypatch):
        runs = _RecordedRuns()
        monkeypatch.setattr(frame, "_segment_step_run", runs)
        segment = Segment("parametric", 0.3 / G, 0.0, G)
        with pytest.raises(ConvergenceError, match=f"after {expect[-1]} steps"):
            evolve_frame_segment(_ground(16), FrameMap(), segment, SENSITIVITY_NOISE,
                                 tol=1e-30, max_doublings=max_doublings)
        # each run feeds two extrapolations, so no step count is run twice
        assert runs.log == expect

    @pytest.mark.parametrize("min_steps, max_doublings", [(4, 1), (4, 0), (0, 11)])
    def test_schedule_without_one_check_is_value_error(self, min_steps, max_doublings,
                                                       monkeypatch):
        runs = _RecordedRuns()
        monkeypatch.setattr(frame, "_segment_step_run", runs)
        segment = Segment("parametric", 0.3 / G, 0.0, G)
        with pytest.raises(ValueError):
            evolve_frame_segment(_ground(8), FrameMap(), segment, SENSITIVITY_NOISE,
                                 min_steps=min_steps, max_doublings=max_doublings)
        assert runs.log == []

    def test_logs_one_debug_record_per_converged_segment(self, caplog, monkeypatch):
        runs = _RecordedRuns()
        monkeypatch.setattr(frame, "_segment_step_run", runs)
        seq = amplification_sequence(0.005, G * 2e-6, G, 5e-6)
        with caplog.at_level(logging.DEBUG, logger=lindblad.__name__):
            run_gaussian_sequence_frame(seq, SENSITIVITY_NOISE, space=FockSpace(12))
        # a segment's runs start again at min_steps = 4
        starts = [i for i, n in enumerate(runs.log) if n == 4] + [len(runs.log)]
        per_segment = [runs.log[i:j] for i, j in zip(starts, starts[1:])]
        records = [r for r in caplog.records if r.name == lindblad.__name__]
        assert len(records) == len(per_segment) == len(seq.segments)
        for record, segment, steps in zip(records, seq.segments, per_segment):
            message = record.getMessage()
            assert record.levelno == logging.DEBUG
            assert (record.engine, record.kind) == ("frame", segment.kind)
            assert record.steps == tuple(steps)
            assert f"frame {segment.kind}" in message
            assert "/".join(map(str, steps)) in message
            assert record.distance < 1e-7
            assert float(message.rsplit(" ", 1)[1]) == pytest.approx(record.distance, rel=1e-2)
