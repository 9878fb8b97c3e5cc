import math

import pytest

from squeezeamp import experiments
from squeezeamp.errors import ConfigError, ConvergenceError
from squeezeamp.experiments import (
    ExperimentConfig,
    run_contrast_vs_alpha,
    run_gain_curve,
    run_phase_scan,
    run_rwa_check,
    run_sensitivity_curve,
    run_squeeze_phase_scan,
    run_unitarity_check,
    sample_probability,
)
from squeezeamp.gaussian import Displacement, SqueezeParam, displaced_squeezed_populations
from squeezeamp.spinmotion import bsb_signal, f_alpha


def noiseless(**over):
    base = {"heating_quanta_per_s": 0.0, "dephasing_per_s": 0.0, "shots": 0}
    base.update(over)
    return ExperimentConfig(base)


class TestConfig:
    def test_defaults_are_paper_values(self):
        cfg = ExperimentConfig({})
        assert cfg["omega_r_mhz"] == 6.3
        assert cfg["g_khz"] == 50.2
        assert cfg.noise.heating_rate == 20.0
        assert cfg.noise.dephasing_rate == 18.0

    def test_round_trip_preserves_hash(self):
        cfg = noiseless(alpha_i=0.055, seed=42)
        cfg2 = ExperimentConfig.from_text(cfg.to_text())
        assert cfg2.hash == cfg.hash

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"coupling_mhz": 1.0})
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_text("made_up_key = 3\n")
        assert exc.value.line == 1

    def test_rejects_malformed_line(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("g_khz 50.2\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("g_khz = fast\n")

    def test_comments_and_blanks_ignored(self):
        cfg = ExperimentConfig.from_text("# comment\n\nalpha_i = 0.1\n")
        assert cfg["alpha_i"] == 0.1


class TestSampling:
    def test_exact_when_shots_zero(self):
        assert sample_probability(0.37, 0, 1, "gain_curve", 0) == (0.37, 0.0)

    def test_deterministic_and_order_independent(self):
        a = sample_probability(0.4, 300, 7, "phase_scan", 5)
        b = sample_probability(0.4, 300, 7, "phase_scan", 5)
        assert a == b
        c = sample_probability(0.4, 300, 7, "phase_scan", 6)
        assert c != a  # overwhelmingly likely distinct draws

    def test_streams_differ_across_experiments(self):
        a = sample_probability(0.4, 300, 7, "phase_scan", 5)
        b = sample_probability(0.4, 300, 7, "gain_curve", 5)
        assert a != b

    def test_tuple_index(self):
        assert sample_probability(0.4, 300, 7, "phase_scan", (5,)) == sample_probability(
            0.4, 300, 7, "phase_scan", 5
        )
        a = sample_probability(0.4, 300, 7, "contrast_alpha", (0, 1, 0))
        b = sample_probability(0.4, 300, 7, "contrast_alpha", (1, 0, 0))
        assert a != b


class TestGainCurve:
    def test_noiseless_matches_exponential(self):
        cfg = noiseless(squeeze_r_list=(0.5, 1.0, 1.5, 2.0, 2.54))
        res = run_gain_curve(cfg)
        for row in res.rows:
            assert row["gain"] == pytest.approx(math.exp(row["r_ideal"]), rel=1e-3)

    def test_fig2_alpha_f(self):
        cfg = noiseless(squeeze_r_list=(2.26,), alpha_i=0.2)
        res = run_gain_curve(cfg)
        assert res.rows[0]["alpha_f_fit"] == pytest.approx(1.9165, abs=0.002)

    def test_r_zero_gain_one(self):
        cfg = noiseless(squeeze_r_list=(0.0,))
        res = run_gain_curve(cfg)
        assert res.rows[0]["gain"] == pytest.approx(1.0, abs=1e-6)

    def test_failed_fit_records_reason(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("no minimum")

        monkeypatch.setattr(experiments, "fit_state_model", fail)
        res = run_gain_curve(noiseless(squeeze_r_list=(1.0, 0.5)))
        assert [row["fit_ok"] for row in res.rows] == [0, 0]
        assert all(math.isnan(row["gain"]) for row in res.rows)
        assert res.summary["fit_failures"] == [
            {"r_ideal": 0.5, "error": "ConvergenceError: no minimum"},
            {"r_ideal": 1.0, "error": "ConvergenceError: no minimum"},
        ]

    def test_exact_trace_rounding_past_one_still_builds(self):
        # populations that sum to 1 + 1.3e-15, at a 1 ps step without decay,
        # put the exact signal one ulp above 1, where RabiTrace refuses it
        cfg = noiseless(bsb_decay_per_s=0.0, trace_dt_us=1e-6, trace_points=1)
        pops = displaced_squeezed_populations(Displacement(6.0), SqueezeParam(0.0), 104)
        assert bsb_signal(pops, cfg.omega_sb, 0.0, [1e-12])[0] > 1.0
        trace = experiments._synthetic_trace(cfg, pops, "gain_curve", 0)
        assert trace.pdown.max() == 1.0

    def test_successful_fits_add_no_failure_key(self):
        res = run_gain_curve(noiseless(squeeze_r_list=(0.5,)))
        assert "fit_failures" not in res.summary
        assert "fit_failures" not in res.to_json()


class TestPhaseScan:
    def test_noiseless_small_alpha_amplitude(self):
        cfg = noiseless(alpha_i=0.055)
        res = run_phase_scan(cfg)
        assert abs(res.summary["a"]) == pytest.approx(0.055 * f_alpha(0.055), abs=1e-6)
        assert res.summary["b"] == pytest.approx(0.5, abs=1e-9)

    def test_alpha_zero_flat(self):
        cfg = noiseless(alpha_i=0.0)
        res = run_phase_scan(cfg)
        assert abs(res.summary["a"]) < 1e-12
        assert all(row["p_down"] == pytest.approx(0.5) for row in res.rows)

    def test_rejects_too_few_points(self):
        with pytest.raises(ConfigError):
            run_phase_scan(noiseless(phi_points=4))


class TestSqueezePhaseScan:
    def test_r_zero_is_theta_independent(self):
        cfg = noiseless(alpha_i=0.05, theta_points=8)
        res = run_squeeze_phase_scan(cfg, r=0.0)
        cs = [row["contrast"] for row in res.rows]
        assert max(cs) - min(cs) < 1e-12

    def test_max_min_ratio_is_e2r(self):
        cfg = noiseless(alpha_i=0.01, theta_points=32)
        res = run_squeeze_phase_scan(cfg, r=1.0)
        assert res.summary["max_over_min"] == pytest.approx(math.e**2, rel=0.02)

    def test_aligned_phase_is_maximum(self):
        cfg = noiseless(alpha_i=0.01, theta_points=16)
        res = run_squeeze_phase_scan(cfg, r=1.0)
        assert res.summary["theta_at_max"] == pytest.approx(0.0)


class TestContrastVsAlpha:
    def test_no_squeezing_slope_two(self):
        cfg = noiseless(squeeze_durations_us=(0.0,), alpha_list=(0.005, 0.01, 0.02, 0.04))
        res = run_contrast_vs_alpha(cfg)
        assert res.summary["slopes"]["0"]["slope"] == pytest.approx(2.0, rel=5e-3)

    def test_noiseless_slope_scales_with_gain(self):
        g = ExperimentConfig({})["g_khz"]
        duration_us = 1.0 / (2 * math.pi * g * 1e3) * 1e6  # r = 1
        cfg = noiseless(
            squeeze_durations_us=(duration_us,),
            alpha_list=(0.002, 0.005, 0.01, 0.02),
        )
        res = run_contrast_vs_alpha(cfg)
        (slope_info,) = res.summary["slopes"].values()
        assert slope_info["slope"] == pytest.approx(2 * math.e, rel=0.02)

    def test_exact_contrast_has_zero_error(self):
        cfg = noiseless(squeeze_durations_us=(0.0, 2.0), alpha_list=(0.005, 0.01))
        assert {row["contrast_err"] for row in run_contrast_vs_alpha(cfg).rows} == {0.0}

    def test_sampling_keys_do_not_collide(self, monkeypatch):
        # durations that agree to 1 ns once shared every packed integer key
        keys = []
        sample = experiments.sample_probability

        def spy(p, shots, seed, experiment, index):
            keys.append(index)
            return sample(p, shots, seed, experiment, index)

        monkeypatch.setattr(experiments, "sample_probability", spy)
        cfg = noiseless(shots=200, squeeze_durations_us=(2.0001, 2.0009),
                        alpha_list=(0.002, 0.005, 0.01))
        run_contrast_vs_alpha(cfg)
        assert len(keys) == 12
        assert len(set(keys)) == len(keys)


class TestSensitivity:
    def test_noiseless_matches_ideal_gain_db(self):
        cfg = noiseless(squeeze_durations_us=(2.0, 6.0), sensitivity_alpha=0.001)
        res = run_sensitivity_curve(cfg)
        for row in res.rows:
            assert row["enhancement_db"] == pytest.approx(
                row["ideal_enhancement_db"], abs=0.05
            )

    def test_r_zero_is_zero_db(self):
        cfg = noiseless(squeeze_durations_us=(0.0,), sensitivity_alpha=0.005)
        res = run_sensitivity_curve(cfg)
        assert res.rows[0]["enhancement_db"] == pytest.approx(0.0, abs=1e-9)


class TestUnitarity:
    def test_noiseless_one_minus_background(self):
        cfg = noiseless(squeeze_durations_us=(0.0, 8.0))
        res = run_unitarity_check(cfg)
        for row in res.rows:
            assert row["p_down_noisy"] == pytest.approx(0.98)

    def test_zero_duration_zero_background(self):
        cfg = noiseless(squeeze_durations_us=(0.0,), preparation_background=0.0)
        res = run_unitarity_check(cfg)
        assert res.rows[0]["p_down_noisy"] == 1.0

    def test_paper_noise_r237_ground_population(self):
        g = ExperimentConfig({}).g
        duration_us = 2.37 / g * 1e6
        cfg = ExperimentConfig(
            {"squeeze_durations_us": (duration_us,), "shots": 0}
        )
        res = run_unitarity_check(cfg)
        assert 0.90 <= res.rows[0]["ground_population"] < 1.0


class TestRwaCheck:
    def test_paper_ratio_fidelity(self):
        cfg = ExperimentConfig({"rwa_ratio_list": (0.008,)})
        res = run_rwa_check(cfg)
        assert res.rows[0]["fidelity"] > 0.99
        assert res.rows[0]["r_effective"] == pytest.approx(0.63, abs=0.01)


class TestDeterminism:
    def test_sampled_outputs_byte_identical(self):
        cfg = ExperimentConfig(
            {"alpha_i": 0.055, "shots": 200, "seed": 9,
             "heating_quanta_per_s": 0.0, "dephasing_per_s": 0.0}
        )
        r1, r2 = run_phase_scan(cfg), run_phase_scan(cfg)
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()

    def test_seed_changes_output(self):
        base = {"alpha_i": 0.055, "shots": 200,
                "heating_quanta_per_s": 0.0, "dephasing_per_s": 0.0}
        r1 = run_phase_scan(ExperimentConfig(dict(base, seed=1)))
        r2 = run_phase_scan(ExperimentConfig(dict(base, seed=2)))
        assert r1.to_csv() != r2.to_csv()

    def test_write_produces_config_echo(self, tmp_path):
        cfg = noiseless(alpha_i=0.02)
        res = run_phase_scan(cfg)
        res.write(str(tmp_path))
        echoed = (tmp_path / "config.txt").read_text()
        assert cfg.hash in echoed
        assert ExperimentConfig.from_text(
            "\n".join(ln for ln in echoed.splitlines() if not ln.startswith("#"))
        ).hash == cfg.hash
