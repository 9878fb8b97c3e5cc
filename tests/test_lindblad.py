import logging
import math
import warnings

import numpy as np
import pytest

from squeezeamp import (
    Displacement,
    FockSpace,
    SqueezeParam,
    coherent_state,
    ladder_lowering,
    number_operator,
    squeezed_vacuum,
    vacuum,
)
from squeezeamp import lindblad
from squeezeamp.errors import ConfigError, ConvergenceError, TruncationError
from squeezeamp.fock import DensityOperator, hermitian_eigh, hermitian_propagator
from squeezeamp.lindblad import (
    MOTIONAL_KINDS,
    NoiseParams,
    PulseSequence,
    Segment,
    _dissipator,
    _motional_hamiltonian,
    _noise_operators,
    _strang_run,
    extrapolated_doubling,
    lindblad_evolve,
    run_sequence,
    trace_distance,
)
from squeezeamp.spinmotion import sideband_hamiltonian

G_PAPER = 2 * math.pi * 50.2e3


def joint_hamiltonian(segment, space):
    """Joint-space (2N x 2N) Hamiltonian of one segment: a motional drive
    tensored with the qubit identity, zero for `free` (oracle for the
    block path of run_sequence)."""
    if segment.kind not in MOTIONAL_KINDS:
        return sideband_hamiltonian(segment.kind, segment.strength, segment.phase, space)
    h_mot = _motional_hamiltonian(segment, space)
    if h_mot is None:
        h_mot = np.zeros((space.dim, space.dim), dtype=complex)
    return np.kron(np.eye(2), h_mot)


def run_sequence_pure(seq, initial):
    """Noiseless unitary path of a MotionalState with the qubit in |down>:
    the joint vector (down block, up block) (oracle for run_sequence)."""
    space = initial.space
    amps = np.concatenate([initial.amps, np.zeros(space.dim)])
    for segment in seq.segments:
        H = joint_hamiltonian(segment, space)
        amps = hermitian_propagator(H, segment.duration) @ amps
    return amps


def dense_dissipator(rho, dim, joint, noise):
    """Dissipator from dense ladder matrices (oracle for _dissipator).

    The anticommutator uses a a† + a†a = 2n + 1 on every level, as the
    package does, not the truncated product that is 0 at the top level.
    """
    a = ladder_lowering(FockSpace(dim))
    n = np.arange(dim, dtype=float)
    if joint:
        a = np.kron(np.eye(2), a)
        n = np.concatenate([n, n])
    ad = a.conj().T
    half = 0.5 * (noise.heating_rate * (2 * n + 1) + noise.dephasing_rate * n**2)
    return (-half[:, None] * rho - rho * half[None, :]
            + noise.heating_rate * (ad @ rho @ a + a @ rho @ ad)
            + noise.dephasing_rate * (n[:, None] * rho * n[None, :]))


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestNoiseParams:
    def test_paper_defaults(self):
        noise = NoiseParams()
        assert noise.heating_rate == 20.0
        assert noise.dephasing_rate == 18.0
        assert not noise.is_zero

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseParams(-1.0, 0.0)

    def test_none(self):
        assert NoiseParams.none().is_zero


class TestSegments:
    def test_rejects_bad_kind_and_duration(self):
        with pytest.raises(ValueError):
            Segment("wiggle", 1e-6)
        with pytest.raises(ValueError):
            Segment("free", 0.0)

    def test_serialization_round_trip(self):
        seq = PulseSequence(
            [
                Segment("parametric", 8e-6, 0.0, G_PAPER),
                Segment("displace", 5e-6, 1.25, 1.1e4),
                Segment("parametric", 8e-6, math.pi, G_PAPER),
                Segment("rsb", 454.54e-6, 0.0, 2 * math.pi * 1.1e3),
            ]
        )
        seq2 = PulseSequence.from_text(seq.to_text())
        assert len(seq2) == len(seq)
        for s1, s2 in zip(seq.segments, seq2.segments):
            assert s1.kind == s2.kind
            assert s2.duration == pytest.approx(s1.duration, rel=1e-15)
            assert s2.phase == pytest.approx(s1.phase, rel=1e-15)
            assert s2.strength == pytest.approx(s1.strength, rel=1e-15)

    def test_from_text_skips_comments_and_blanks(self):
        seq = PulseSequence.from_text("# header\n\nfree 10 0 0\n")
        assert len(seq) == 1
        assert seq.segments[0].duration == pytest.approx(10e-6)

    def test_from_text_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            PulseSequence.from_text("free 10 0\n")
        assert exc.value.line == 1
        with pytest.raises(ConfigError):
            PulseSequence.from_text("free ten 0 0\n")


class TestSegmentHamiltonians:
    def test_displace_gives_coherent_state(self):
        sp = FockSpace(64)
        seg = Segment("displace", 5e-6, 0.4, 0.3 / 5e-6)
        out = run_sequence_pure(PulseSequence([seg]), vacuum(sp))
        ref = coherent_state(Displacement(0.3 * np.exp(0.4j)), sp)
        assert np.max(np.abs(out[:64] - ref.amps)) < 1e-10

    def test_parametric_gives_squeezed_vacuum(self):
        sp = FockSpace(96)
        seg = Segment("parametric", 8e-6, 0.7, 1.0 / 8e-6)
        out = run_sequence_pure(PulseSequence([seg]), vacuum(sp))
        ref = squeezed_vacuum(SqueezeParam(1.0, 0.7), sp)
        assert np.max(np.abs(np.abs(out[:96]) ** 2 - ref.populations())) < 1e-10

    def test_free_is_identity(self):
        sp = FockSpace(16)
        H = joint_hamiltonian(Segment("free", 1e-6), sp)
        assert np.all(H == 0)

    def test_carrier_pi_flips_spin(self):
        sp = FockSpace(8)
        seg = Segment("carrier", 1e-6, 0.0, math.pi / 1e-6)
        out = run_sequence_pure(PulseSequence([seg]), vacuum(sp))
        p_up = float(np.sum(np.abs(out[sp.dim:]) ** 2))
        assert p_up == pytest.approx(1.0, abs=1e-10)

    def test_all_hermitian(self):
        sp = FockSpace(12)
        for kind in ("displace", "parametric", "rsb", "bsb", "carrier", "free"):
            H = joint_hamiltonian(Segment(kind, 1e-6, 0.9, 1e4), sp)
            assert np.max(np.abs(H - H.conj().T)) < 1e-9


class TestLindbladEvolve:
    def test_zero_noise_zero_h_is_identity(self):
        sp = FockSpace(16)
        rho = DensityOperator.from_motional(coherent_state(Displacement(0.4), sp))
        out = lindblad_evolve(rho, None, NoiseParams.none(), 1e-3)
        assert np.all(out.matrix == rho.matrix)

    def test_heating_moment_law(self):
        # d<n>/dt = heating rate for the paired a†/a channels
        sp = FockSpace(32)
        rho = DensityOperator.from_motional(vacuum(sp))
        out = lindblad_evolve(rho, None, NoiseParams(20.0, 0.0), 1e-3)
        n_mean = out.expectation_value(number_operator(sp)).real
        assert n_mean == pytest.approx(0.02, rel=1e-6)

    def test_heating_moment_law_from_excited_diagonal(self):
        sp = FockSpace(48)
        rho = DensityOperator.from_motional(coherent_state(Displacement(1.0), sp))
        t = 5e-3
        out = lindblad_evolve(rho, None, NoiseParams(20.0, 0.0), t)
        n_mean = out.expectation_value(number_operator(sp)).real
        assert n_mean == pytest.approx(1.0 + 20.0 * t, rel=0.01)

    def test_dephasing_coherence_decay(self):
        sp = FockSpace(32)
        rho = DensityOperator.from_motional(coherent_state(Displacement(1.0), sp))
        out = lindblad_evolve(rho, None, NoiseParams(0.0, 18.0), 10e-3)
        a_mean = abs(out.expectation_value(ladder_lowering(sp)))
        assert a_mean == pytest.approx(math.exp(-0.09), rel=1e-6)

    def test_dephasing_preserves_populations(self):
        sp = FockSpace(32)
        rho = DensityOperator.from_motional(coherent_state(Displacement(1.0), sp))
        out = lindblad_evolve(rho, None, NoiseParams(0.0, 18.0), 5e-3)
        assert np.max(np.abs(out.motional_populations() - rho.motional_populations())) < 1e-9

    def test_trace_hermiticity_positivity(self):
        sp = FockSpace(32)
        seg = Segment("displace", 5e-6, 0.0, 0.5 / 5e-6)
        H = _motional_hamiltonian(seg, sp)
        rho = DensityOperator.from_motional(vacuum(sp))
        out = lindblad_evolve(rho, H, NoiseParams(), 5e-6)
        assert out.trace.real == pytest.approx(1.0, abs=1e-8)
        assert out.hermiticity_defect() < 1e-10
        assert out.min_eigenvalue() > -1e-8

    def test_unitary_with_noise_matches_closed_form_amplitude(self):
        # heating leaves <a> following the drive; dephasing damps it
        sp = FockSpace(32)
        t = 5e-6
        seg = Segment("displace", t, 0.0, 0.3 / t)
        H = _motional_hamiltonian(seg, sp)
        rho = DensityOperator.from_motional(vacuum(sp))
        out = lindblad_evolve(rho, H, NoiseParams(0.0, 18.0), t)
        a_mean = abs(out.expectation_value(ladder_lowering(sp)))
        assert a_mean < 0.3
        assert a_mean == pytest.approx(0.3, rel=1e-3)


class TestDissipator:
    @pytest.mark.parametrize("joint", [False, True])
    def test_banded_matches_dense_ladder_form(self, joint):
        dim = 24
        size = 2 * dim if joint else dim
        noise = NoiseParams()
        rho = random_density(size, seed=7)
        ref = dense_dissipator(rho, dim, joint, noise)
        out = _dissipator(rho, _noise_operators(dim, joint, noise))
        assert np.max(np.abs(out - ref)) < 1e-13


class TestRunSequence:
    def test_squeeze_antisqueeze_returns_to_ground(self):
        sp = FockSpace(96)
        t = 1.0 / G_PAPER
        seq = PulseSequence(
            [
                Segment("parametric", t, 0.0, G_PAPER),
                Segment("parametric", t, math.pi, G_PAPER),
            ]
        )
        out = run_sequence(seq, NoiseParams.none(), vacuum(sp))
        assert out.motional_populations()[0] >= 1 - 1e-8

    def test_zero_noise_density_matches_pure_path(self):
        sp = FockSpace(128)
        seq = PulseSequence(
            [
                Segment("parametric", 4e-6, 0.0, G_PAPER),
                Segment("displace", 5e-6, 0.3, 0.2 / 5e-6),
                Segment("rsb", 1e-4, 0.1, 2 * math.pi * 1.1e3),
                Segment("carrier", 1e-6, 0.5, 0.5 * math.pi / 1e-6),
            ]
        )
        dens = run_sequence(seq, NoiseParams.none(), vacuum(sp))
        pure = run_sequence_pure(seq, vacuum(sp))
        ref = np.outer(pure, pure.conj())
        assert np.max(np.abs(dens.matrix - ref)) < 1e-8

    def test_noisy_amplification_loses_contrast(self):
        # small-r amplification with paper noise: |<a>| falls short of ideal
        sp = FockSpace(64)
        g = G_PAPER
        t_sq = 0.5 / g
        t_d = 5e-6
        alpha_i = 0.1
        seq = PulseSequence(
            [
                Segment("parametric", t_sq, 0.0, g),
                Segment("displace", t_d, 0.0, alpha_i / t_d),
                Segment("parametric", t_sq, math.pi, g),
            ]
        )
        ideal = alpha_i * math.exp(0.5)
        pure = run_sequence_pure(seq, vacuum(sp))
        a_joint = np.kron(np.eye(2), ladder_lowering(sp))
        a_pure = abs(np.vdot(pure, a_joint @ pure))
        assert a_pure == pytest.approx(ideal, rel=1e-6)
        out = run_sequence(seq, NoiseParams(), vacuum(sp))
        a_noisy = abs(out.expectation_value(a_joint))
        assert a_noisy < a_pure
        assert a_noisy > 0.8 * a_pure

    def test_block_path_matches_joint_path(self):
        # a qubit superposition makes all four N x N blocks nonzero
        sp = FockSpace(32)
        motion = coherent_state(Displacement(0.3), sp).amps
        amps = np.concatenate([motion, 1j * motion]) / math.sqrt(2)
        initial = DensityOperator(sp, np.outer(amps, amps.conj()), "joint")
        seq = PulseSequence(
            [
                Segment("parametric", 0.5 / G_PAPER, 0.0, G_PAPER),
                Segment("displace", 5e-6, 0.4, 0.2 / 5e-6),
                Segment("free", 10e-6),
            ]
        )
        noise = NoiseParams()
        out = run_sequence(seq, noise, initial)
        ref = initial
        for segment in seq.segments:
            H = joint_hamiltonian(segment, sp)
            ref = lindblad_evolve(ref, H, noise, segment.duration)
        assert np.any(out.matrix[:32, 32:]) and np.any(out.matrix[32:, :32])
        assert np.max(np.abs(out.matrix - ref.matrix)) < 1e-10

    def test_quiet_free_segment_is_identity(self):
        sp = FockSpace(16)
        motion = coherent_state(Displacement(0.5), sp).amps
        amps = np.concatenate([motion, motion]) / math.sqrt(2)
        initial = DensityOperator(sp, np.outer(amps, amps.conj()), "joint")
        seq = PulseSequence([Segment("free", 1e-3)])
        out = run_sequence(seq, NoiseParams.none(), initial)
        assert np.array_equal(out.matrix, initial.matrix)

    def test_tail_checked_after_each_segment(self):
        # r = 0.95 squeezing alone overfills 32 levels (tail ~4e-5)
        seq = PulseSequence(
            [
                Segment("parametric", 3e-6, 0.0, 315412.3),
                Segment("parametric", 3e-6, math.pi, 315412.3),
            ]
        )
        with pytest.raises(TruncationError):
            run_sequence(seq, NoiseParams.none(), vacuum(FockSpace(32)))

    def test_trace_distance_basics(self):
        m = np.diag([1.0, 0.0])
        assert trace_distance(m, m) == 0.0
        assert trace_distance(m, np.diag([0.0, 1.0])) == pytest.approx(1.0)


# --- extrapolated doubling ----------------------------------------------------

# the dense-sequence benchmark's segments, at a fixed displacement
DENSE_SEQUENCE = PulseSequence([
    Segment("parametric", 2e-6, 0.0, G_PAPER),
    Segment("displace", 5e-6, 1.3, 4e4),
    Segment("parametric", 2e-6, math.pi, G_PAPER),
    Segment("free", 20e-6),
])


def _plain_doubling_evolve(rho, H, noise, t, tol=1e-7):
    """Plain Strang doubling from max(16, ceil(t / 1 us)) steps, accepting the
    finer of two runs that agree within `tol` (oracle for lindblad_evolve)."""
    ops = _noise_operators(rho.space.dim, rho.kind == "joint", noise)
    eig = None if H is None else hermitian_eigh(H)
    n_steps = max(16, math.ceil(t / 1e-6))
    coarse = _strang_run(rho.matrix, eig, ops, t, n_steps)
    for _ in range(10):
        n_steps *= 2
        fine = _strang_run(rho.matrix, eig, ops, t, n_steps)
        if trace_distance(coarse, fine) < tol:
            return DensityOperator(rho.space, fine, rho.kind)
        coarse = fine
    raise ConvergenceError(f"not converged after {n_steps} steps")


class _RecordedStrang:
    """Strang runs of the dense engine, logged by step count."""

    def __init__(self):
        self.log = []

    def __call__(self, rho, eig, ops, t, n_steps):
        self.log.append(n_steps)
        return _strang_run(rho, eig, ops, t, n_steps)


def _squeeze_block(dim, t=2e-6):
    """Vacuum and the Hamiltonian of a noisy-sequence squeeze on one N x N block."""
    space = FockSpace(dim)
    H = _motional_hamiltonian(Segment("parametric", t, 0.3, G_PAPER), space)
    return DensityOperator.from_motional(vacuum(space)), H


# a run with even error terms through dt^6, the shape a symmetric scheme's has
SYNTHETIC_LIMIT = np.diag([0.6, 0.3, 0.1])
SYNTHETIC_TERMS = (np.diag([0.5, -1.0, 0.5]), np.diag([-2.0, 1.0, 1.0]),
                   np.diag([3.0, -1.0, -2.0]))


def _synthetic_run(n_steps):
    return SYNTHETIC_LIMIT + sum(c / n_steps**(2 * j) for j, c in enumerate(SYNTHETIC_TERMS, 1))


class TestRombergTable:
    def test_cancels_every_even_order_of_a_synthetic_run(self, caplog):
        with caplog.at_level(logging.DEBUG, logger=lindblad.__name__):
            got = extrapolated_doubling(_synthetic_run, 4096, "synthetic")
        (record,) = [r for r in caplog.records if r.name == lindblad.__name__]
        # four runs cancel dt^2 ... dt^6; the fifth confirms it
        assert record.steps == (2, 4, 8, 16, 32)
        assert np.max(np.abs(got - SYNTHETIC_LIMIT)) <= 1e-13
        # one Richardson level over the same last pair leaves the dt^4 term
        one_level = (4 * _synthetic_run(32) - _synthetic_run(16)) / 3
        assert np.max(np.abs(one_level - SYNTHETIC_LIMIT)) > 1e-7

    def test_non_finite_run_raises_at_once_without_warnings(self):
        log = []

        def run(n_steps):
            log.append(n_steps)
            # overflows to inf, then inf - inf = nan, from 8 steps on
            scale = np.exp(np.float64(n_steps * 100.0))
            return _synthetic_run(n_steps) * scale - _synthetic_run(n_steps) * scale

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="frame parametric run of 8 steps"):
                extrapolated_doubling(run, 4096, "frame", "parametric")
        assert log == [2, 4, 8]

    def test_stops_at_a_roundoff_floor(self, monkeypatch):
        log = []

        def run(n_steps):
            log.append(n_steps)
            # a noise of +-1e-12, alternating from run to run, that no number of steps removes
            sign = (-1) ** len(log)
            return _synthetic_run(n_steps) + sign * 1e-12 * np.diag([1.0, -1.0, 0.0])

        monkeypatch.setattr(lindblad, "_TOL", 1e-14)
        with pytest.raises(ConvergenceError, match="roundoff floor") as error:
            extrapolated_doubling(run, 4096, "frame", "parametric")
        floor = float(str(error.value).split("floor ")[1].split()[0])
        assert 1e-12 < floor < 1e-11
        # 2, 4, 8, 16 steps cancel the run's error terms; the distances after
        # 32, 64 and 128 steps then stay at the floor, far below the ceiling
        assert log == [2, 4, 8, 16, 32, 64, 128]

    def test_nan_run_raises_at_once(self):
        log = []

        def run(n_steps):
            log.append(n_steps)
            out = _synthetic_run(n_steps)
            return np.full_like(out, np.nan) if n_steps == 8 else out

        with pytest.raises(ConvergenceError, match="frame displace run of 8 steps is not finite"):
            extrapolated_doubling(run, 4096, "frame", "displace")
        assert log == [2, 4, 8]


class TestExtrapolatedDoubling:
    def test_extrapolation_is_fourth_order(self):
        # the unitary half-steps are exact around one RK4 step, so the error
        # is even in dt and one extrapolation leaves dt^4
        rho, H = _squeeze_block(24)
        ops = _noise_operators(24, False, NoiseParams())
        runs = [_strang_run(rho.matrix, hermitian_eigh(H), ops, 2e-6, 4 * 2**k)
                for k in range(4)]
        extrapolated = [(4 * fine - coarse) / 3 for coarse, fine in zip(runs, runs[1:])]
        d = [trace_distance(a, b) for a, b in zip(extrapolated, extrapolated[1:])]
        assert 12 < d[0] / d[1] < 20

    def test_sequence_near_tight_run_and_closer_than_plain_doubling(self, monkeypatch):
        initial = vacuum(FockSpace(40))
        noise = NoiseParams()
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_TOL", 1e-12)
            tight = run_sequence(DENSE_SEQUENCE, noise, initial).matrix
        got = run_sequence(DENSE_SEQUENCE, noise, initial).matrix
        monkeypatch.setattr(lindblad, "lindblad_evolve", _plain_doubling_evolve)
        plain = run_sequence(DENSE_SEQUENCE, noise, initial).matrix
        assert trace_distance(got, tight) <= 1e-9
        assert trace_distance(got, tight) < trace_distance(plain, tight)

    @pytest.mark.parametrize("t, max_doublings, expect", [
        (2e-6, 2, [2, 4, 8, 16, 32, 64]),  # ceiling 16 * 2^2
        (40e-6, 1, [2, 4, 8, 16, 32, 64, 128]),  # ceiling 40 * 2, passed at 128
    ])
    def test_too_tight_tol_raises_at_the_ceiling(self, t, max_doublings, expect,
                                                 monkeypatch):
        runs = _RecordedStrang()
        monkeypatch.setattr(lindblad, "_strang_run", runs)
        monkeypatch.setattr(lindblad, "_TOL", 1e-30)
        monkeypatch.setattr(lindblad, "_MAX_DOUBLINGS", max_doublings)
        rho, H = _squeeze_block(6, t)
        with pytest.raises(ConvergenceError, match=f"after {expect[-1]} steps"):
            lindblad_evolve(rho, H, NoiseParams(), t)
        # each run feeds two extrapolations, so no step count is run twice
        assert runs.log == expect

    def test_too_tight_tol_stops_at_the_roundoff_floor(self, monkeypatch):
        # at the default ceiling, 16 * 2^10 steps, a dense run's Romberg
        # distance stops falling long before it
        runs = _RecordedStrang()
        monkeypatch.setattr(lindblad, "_strang_run", runs)
        monkeypatch.setattr(lindblad, "_TOL", 1e-30)
        rho, H = _squeeze_block(6)
        with pytest.raises(ConvergenceError, match="roundoff floor"):
            lindblad_evolve(rho, H, NoiseParams(), 2e-6)
        assert runs.log == [2 * 2**k for k in range(len(runs.log))]
        assert runs.log[-1] <= 1024

    def test_logs_one_debug_record(self, caplog, monkeypatch):
        runs = _RecordedStrang()
        monkeypatch.setattr(lindblad, "_strang_run", runs)
        rho, H = _squeeze_block(24)
        with caplog.at_level(logging.DEBUG, logger=lindblad.__name__):
            lindblad_evolve(rho, H, NoiseParams(), 2e-6)
        records = [r for r in caplog.records if r.name == lindblad.__name__]
        assert len(records) == 1
        record = records[0]
        assert record.levelno == logging.DEBUG
        assert (record.engine, record.kind) == ("dense", None)
        assert record.steps == tuple(runs.log) and runs.log[0] == lindblad._MIN_STEPS
        assert record.distance < 1e-7
        message = record.getMessage()
        assert message.startswith("dense segment converged")
        assert "/".join(map(str, runs.log)) in message
