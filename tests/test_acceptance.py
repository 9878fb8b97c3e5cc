"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
so a plain `pytest -s tests/test_acceptance.py` doubles as a scorecard.
"""

import cmath
import contextlib
import math

import numpy as np

import oracles
from squeezeamp import fock, gaussian
from squeezeamp.experiments import (
    ExperimentConfig,
    run_contrast_vs_alpha,
    run_gain_curve,
    run_phase_scan,
    run_rwa_check,
    run_sensitivity_curve,
)
from squeezeamp.fitting import (
    BOHR_RADIUS,
    RabiTrace,
    alpha_to_length,
    fit_state_model,
    snr_and_enhancement,
    zero_point_extent,
)
from squeezeamp.gaussian import Displacement, SqueezeParam, squeeze_db
from squeezeamp.lindblad import NoiseParams, lindblad_evolve
from squeezeamp.spinmotion import bsb_signal, f_alpha, psrsb_contrast, psrsb_pdown_series

OMEGA_SB = 2 * math.pi * 1.1e3
OMEGA_R = 2 * math.pi * 6.3e6
G_PAPER = 2 * math.pi * 50.2e3


@contextlib.contextmanager
def scorecard(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def noiseless_config(**over):
    base = {"heating_quanta_per_s": 0.0, "dephasing_per_s": 0.0, "shots": 0}
    base.update(over)
    return ExperimentConfig(base)


def amplification_infidelities(dim):
    """Infidelity of anti-squeeze(displace(squeeze(vacuum))) vs the closed
    form, over a grid of amplitudes, squeeze magnitudes, and phases."""
    space = fock.FockSpace(dim)
    # each D(alpha) is built once and reused for all nine squeezes
    displacements = [
        (alpha, gaussian.displacement_operator(Displacement(alpha), space))
        for alpha in (mag * phase for mag in (0.05, 0.1, 0.2)
                      for phase in (1.0, cmath.exp(1j * math.pi / 4)))
    ]
    out = []
    for r in (0.5, 1.0, 1.5):
        for theta in (0.0, math.pi / 2, math.pi):
            xi = SqueezeParam(r, theta)
            S = oracles.squeeze_operator(xi, space)
            s_vac = S[:, 0]
            Sd = S.conj().T
            for alpha, D in displacements:
                psi = Sd @ (D @ s_vac)
                alpha_f = gaussian.amplify_displacement(alpha, xi)
                target = gaussian.coherent_state(
                    Displacement(alpha_f), space, check_tail=False
                ).amps
                out.append(1.0 - abs(np.vdot(target, psi)) ** 2)
    return np.array(out)


def closed_form_population_errors(nmax, dim_scale=1):
    """Max-abs difference between recurrence populations and the
    matrix-exponential construction, first `nmax` levels per case."""
    cases = [
        (0.0, 0.0, 0.0),
        (0.7, 0.0, 0.0),
        (2.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 2.54, 0.0),
        (0.7, 1.0, math.pi / 2),
        (2.0, 2.54, 0.0),
        (2.0, 2.54, math.pi / 3),
    ]
    errors = []
    for alpha_abs, r, theta in cases:
        xi = SqueezeParam(r, theta)
        d = Displacement(alpha_abs)
        closed = gaussian.displaced_squeezed_populations(d, xi, nmax)
        work = max(oracles.adequate_truncation(xi, alpha_abs), nmax + 64)
        oracle = oracles.displaced_squeezed_state(
            d, xi, fock.FockSpace(work * dim_scale), check_tail=False
        ).populations()[:nmax]
        errors.append(float(np.max(np.abs(closed - oracle))))
    return np.array(errors)


def readout_fringe_grid(dim):
    alphas = np.linspace(0.2, 2.0, 10)
    phis = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
    space = fock.FockSpace(dim)
    return np.array([
        [oracles.psrsb_exact_pdown(a, phi, space) for phi in phis] for a in alphas
    ])


class TestAcceptance:
    def test_01_amplification_identity(self):
        with scorecard("01 amplification identity on the (alpha, r, theta) grid"):
            infid = amplification_infidelities(256)
            assert infid.shape == (54,)
            assert float(infid.max()) < 1e-8

    def test_02_gain_law_and_noisy_amplitude(self):
        with scorecard("02 ideal gain law e^r and decoherence-limited amplitude"):
            ideal = run_gain_curve(noiseless_config())
            for row in ideal.rows:
                assert abs(row["gain"] - math.exp(row["r_ideal"])) <= 1e-3 * math.exp(
                    row["r_ideal"]
                )
            by_r = {row["r_ideal"]: row for row in ideal.rows}
            assert abs(by_r[2.26]["alpha_f_fit"] - 1.9165) <= 0.002
            noisy = run_gain_curve(ExperimentConfig({"squeeze_r_list": (2.26,)}))
            alpha_f = noisy.rows[0]["alpha_f_fit"]
            assert 1.75 <= alpha_f <= 1.92

    def test_03_population_closed_forms(self):
        with scorecard("03 closed-form Fock populations vs matrix exponential"):
            errors = closed_form_population_errors(256)
            assert float(errors.max()) < 1e-8
            pops = gaussian.displaced_squeezed_populations(
                Displacement(0.0), SqueezeParam(2.54), 256
            )
            assert np.all(pops[1::2] == 0.0)

    def test_04_phase_sensitive_readout(self):
        with scorecard("04 phase-sensitive readout fringe equivalence"):
            alphas = np.linspace(0.2, 2.0, 10)
            phis = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
            grid = readout_fringe_grid(96)
            series = np.array([
                [psrsb_pdown_series(a, phi) for phi in phis] for a in alphas
            ])
            assert float(np.max(np.abs(grid - series))) <= 1e-9
            assert f_alpha(0.0) == 1.0
            for alpha in np.linspace(0.01, 0.1, 10):
                assert abs(psrsb_contrast(alpha) - 2 * alpha) <= 2.0 * alpha**3

    def test_05_rotating_wave_validation(self):
        with scorecard("05 lab-frame drive vs rotating-wave squeezed vacuum"):
            res = run_rwa_check(ExperimentConfig({}))
            by_ratio = {row["g_over_omega_r"]: row for row in res.rows}
            assert by_ratio[0.008]["fidelity"] > 0.99
            assert res.summary["monotone_decreasing"]

    def test_06_decoherence_moment_laws(self):
        with scorecard("06 heating and dephasing moment laws"):
            sp = fock.FockSpace(24)
            rho0 = fock.DensityOperator.from_motional(fock.vacuum(sp))
            for t in (1e-3, 2.5e-3, 5e-3):
                out = lindblad_evolve(rho0, None, NoiseParams(20.0, 0.0), t)
                n_mean = oracles.expectation_value(out, fock.number_operator(sp)).real
                assert abs(n_mean - 20.0 * t) <= 0.01 * 20.0 * t
                assert abs(out.trace.real - 1.0) < 1e-8
            sp = fock.FockSpace(32)
            rho0 = fock.DensityOperator.from_motional(
                gaussian.coherent_state(Displacement(1.0), sp)
            )
            for t in (2e-3, 10e-3):
                out = lindblad_evolve(rho0, None, NoiseParams(0.0, 18.0), t)
                a_mean = abs(oracles.expectation_value(out, fock.ladder_lowering(sp)))
                expect = math.exp(-18.0 * t / 2)
                assert abs(a_mean - expect) <= 0.01 * expect
                assert abs(out.trace.real - 1.0) < 1e-8

    def test_07_metrology_numbers(self):
        with scorecard("07 metrology conversions and headline numbers"):
            assert abs(squeeze_db(2.37) - 20.6) <= 0.05
            assert abs(squeeze_db(2.54) - 22.06) <= 0.05
            assert abs(snr_and_enhancement(0.75, 0.1, 300)[2] - 17.50) <= 0.01
            assert abs(squeeze_db(G_PAPER * 1e-6) - 2.74) <= 0.02
            assert abs(zero_point_extent(25, OMEGA_R) * 1e9 - 5.66) <= 0.05
            length = alpha_to_length(0.00465, 25, OMEGA_R)
            assert abs(length - BOHR_RADIUS) <= 0.01 * BOHR_RADIUS
            ratio = alpha_to_length(0.5, 25, OMEGA_R) / length
            assert abs(ratio - 108) <= 1.0

    def test_08_fit_round_trips_and_error_bars(self):
        with scorecard("08 state-model fit round trips and stderr calibration"):
            times = np.arange(1, 301) * 1e-5

            def trace(pops, rng=None, shots=300, ts=times):
                sig = bsb_signal(pops, OMEGA_SB, 60.0, ts)
                if rng is not None:
                    sig = rng.binomial(shots, np.clip(sig, 0, 1)) / shots
                return RabiTrace(ts, sig, shots)

            pops = gaussian.displaced_squeezed_populations(
                Displacement(0.200), SqueezeParam(0.0), 20
            )
            res = fit_state_model(
                trace(pops), "coherent",
                {"alpha": 0.15, "omega": OMEGA_SB * 1.03, "gamma": 45.0},
            )
            assert abs(res.param("alpha") - 0.200) <= 1e-3

            pops = gaussian.displaced_squeezed_populations(
                Displacement(0.0), SqueezeParam(2.26), 400
            )
            res = fit_state_model(
                trace(pops), "squeezed",
                {"r": 2.0, "omega": OMEGA_SB * 1.02, "gamma": 50.0},
            )
            assert abs(res.param("r") - 2.26) <= 1e-3

            pops = gaussian.displaced_squeezed_populations(
                Displacement(1.83), SqueezeParam(0.0), 40
            )
            res = fit_state_model(
                trace(pops), "coherent",
                {"alpha": 1.5, "omega": OMEGA_SB * 0.97, "gamma": 70.0},
            )
            assert abs(res.param("alpha") - 1.83) <= 1e-3

            pops = gaussian.displaced_squeezed_populations(
                Displacement(0.5), SqueezeParam(0.0), 16
            )
            mc_times = np.arange(1, 81) * 2e-5
            fits, errs = [], []
            for rep in range(200):
                rng = np.random.default_rng(4000 + rep)
                res = fit_state_model(
                    trace(pops, rng=rng, ts=mc_times), "coherent",
                    {"alpha": 0.5, "omega": OMEGA_SB, "gamma": 60.0}, n_starts=1,
                )
                fits.append(res.param("alpha"))
                errs.append(res.error("alpha"))
            empirical = float(np.std(fits, ddof=1))
            reported = float(np.mean(errs))
            assert abs(empirical - reported) / empirical < 0.30

    def test_09_noisy_contrast_slope_and_sensitivity_peak(self):
        with scorecard("09 decoherence-limited contrast gain and sensitivity peak"):
            cfg = ExperimentConfig({"squeeze_durations_us": (8.0,)})
            slopes = run_contrast_vs_alpha(cfg).summary["slopes"]
            assert 5.0 <= slopes["8"]["contrast_gain"] <= 9.58
            sens = run_sensitivity_curve(ExperimentConfig({}))
            assert sens.summary["interior_maximum"]
            assert sens.summary["best_duration_us"] == 8.0

    def test_10_determinism_and_truncation_stability(self):
        with scorecard("10 byte-identical reruns and truncation-doubling stability"):
            cfg = ExperimentConfig(
                {"alpha_i": 0.055, "shots": 250, "seed": 17,
                 "heating_quanta_per_s": 0.0, "dephasing_per_s": 0.0}
            )
            a, b = run_phase_scan(cfg), run_phase_scan(cfg)
            assert a.to_csv() == b.to_csv()
            assert a.to_json() == b.to_json()

            inf_n = amplification_infidelities(256)
            inf_2n = amplification_infidelities(512)
            assert float(np.max(np.abs(inf_n - inf_2n))) < 1e-8

            err_n = closed_form_population_errors(128)
            err_2n = closed_form_population_errors(128, dim_scale=2)
            assert float(np.max(np.abs(err_n - err_2n))) < 1e-8

            grid_n = readout_fringe_grid(96)
            grid_2n = readout_fringe_grid(192)
            assert float(np.max(np.abs(grid_n - grid_2n))) < 1e-8
