import json
import logging
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from squeezeamp import cli, fock, frame
from squeezeamp.fitting import RabiTrace
from squeezeamp.gaussian import Displacement, coherent_state
from squeezeamp.spinmotion import bsb_signal

NOISELESS = "heating_quanta_per_s = 0\ndephasing_per_s = 0\n"


def write_config(tmp_path, extra=""):
    path = tmp_path / "cfg.txt"
    path.write_text(NOISELESS + extra)
    return str(path)


class TestSweepCommands:
    def test_phase_scan_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "alpha_i = 0.055\n")
        out = tmp_path / "runs"
        code = cli.main(["phase-scan", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "phase_scan.csv" in capsys.readouterr().out
        csv_text = (out / "phase_scan.csv").read_text()
        assert csv_text.startswith("phi_rad,p_down,p_down_err\n")
        payload = json.loads((out / "phase_scan.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 16
        assert "sha256" in (out / "config.txt").read_text()

    def test_default_config_used_when_omitted(self, tmp_path):
        cfg = write_config(tmp_path, "squeeze_durations_us = 0,2\nrwa_ratio_list = 0.008\n")
        code = cli.main(["unitarity", "--config", cfg, "--out", str(tmp_path / "u")])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "u" / "unitarity.json").read_text())
        assert payload["rows"][0]["p_down_noisy"] == pytest.approx(0.98)

    def test_gain_curve_matches_exponential(self, tmp_path):
        cfg = write_config(tmp_path, "squeeze_r_list = 0.5,1\n")
        code = cli.main(["gain-curve", "--config", cfg, "--out", str(tmp_path / "g")])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "g" / "gain_curve.json").read_text())
        for row in payload["rows"]:
            assert row["gain"] == pytest.approx(math.exp(row["r_ideal"]), rel=1e-3)

    def test_squeeze_phase_scan_r_flag(self, tmp_path):
        cfg = write_config(tmp_path, "alpha_i = 0.01\ntheta_points = 8\n")
        code = cli.main([
            "squeeze-phase-scan", "--config", cfg, "--r", "1.0",
            "--out", str(tmp_path / "s"),
        ])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "s" / "squeeze_phase_scan.json").read_text())
        assert payload["summary"]["r"] == 1.0
        assert payload["summary"]["max_over_min"] == pytest.approx(math.e**2, rel=0.05)


    def test_noiseless_contrast_alpha_default_config(self, tmp_path):
        # at 12 us (r = 3.78) only one default contrast stays below 0.25
        code = cli.main(["contrast-alpha", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "c")])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "c" / "contrast_alpha.json").read_text())
        summary = payload["summary"]
        assert [f["t_us"] for f in summary["slope_failures"]] == [12.0]
        assert sorted(summary["slopes"], key=float) == ["2", "4", "6", "8", "10"]
        assert len(payload["rows"]) == 6 * 7

    def test_noiseless_phase_scan_at_large_r(self, tmp_path):
        # |alpha_f| = 0.2 e^10: f_alpha sums a window of ~9e4 Poisson terms
        code = cli.main(["phase-scan", "--r", "10", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "p")])
        assert code == cli.EXIT_OK


class TestFitCommand:
    def make_trace(self, tmp_path, alpha=0.7):
        pops = coherent_state(Displacement(alpha), fock.FockSpace(30)).populations()
        times = np.arange(1, 121) * 20e-6
        pdown = bsb_signal(pops, 2 * math.pi * 1.1e3, 60.0, times)
        path = tmp_path / "trace.csv"
        path.write_text(RabiTrace(times, pdown, 300).to_csv())
        return str(path)

    def test_fit_recovers_alpha(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        code = cli.main(["fit", "--model", "coherent", "--trace", trace,
                         "--init", "alpha=0.6"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_tag"] == "coherent"
        assert payload["params"]["alpha"] == pytest.approx(0.7, abs=1e-4)

    def test_bad_init_syntax_is_runtime_error(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        code = cli.main(["fit", "--model", "coherent", "--trace", trace,
                         "--init", "alpha"])
        assert code == cli.EXIT_RUNTIME
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"

    @pytest.mark.parametrize("rows, message", [
        ("", "at least one row"),
        ("20,nan,300\n", "row 1 "),
        ("20,0.4,300\n40,1.7,300\n", "row 2 "),
        ("20,0.4,300\nnan,0.5,300\n", "times must be finite"),
    ])
    def test_unusable_trace_is_runtime_error(self, tmp_path, capsys, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text("t_us,p_down,shots\n" + rows)
        code = cli.main(["fit", "--model", "coherent", "--trace", str(path)])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "ValueError" and message in record["message"]

    def test_missing_trace_file(self, tmp_path, capsys):
        code = cli.main(["fit", "--model", "coherent",
                         "--trace", str(tmp_path / "nope.csv")])
        assert code == cli.EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


class TestSimulateCommand:
    def test_amplification_sequence(self, tmp_path):
        g = 2 * math.pi * 50.2e3
        tau = 1.0 / g
        # alpha_i 0.055 over 5 us, then r = 1 amplification
        seq = (
            f"parametric {tau * 1e6:.12g} 0 {g:.12g}\n"
            f"displace 5 0 {0.055 / 5e-6:.12g}\n"
            f"parametric {tau * 1e6:.12g} {math.pi:.12g} {g:.12g}\n"
        )
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text(seq)
        cfg = write_config(tmp_path, "lab_truncation = 80\n")
        out = tmp_path / "sim"
        code = cli.main(["simulate", "--sequence", str(seq_path),
                         "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "simulate.json").read_text())
        alpha_f = 0.055 * math.e
        assert payload["mean_phonon_number"] == pytest.approx(alpha_f**2, rel=1e-3)
        assert payload["ground_population"] == pytest.approx(
            math.exp(-alpha_f**2), rel=1e-3
        )
        assert payload["trace"] == pytest.approx(1.0, abs=1e-8)
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[0] == "n,population"
        assert len(lines) == 81

    def test_under_resolved_truncation_is_runtime_error(self, tmp_path, capsys):
        # r = 0.95 squeezing leaves a top-4 tail of 3.6e-5 at 32 levels
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text(
            "parametric 3 0 315412.3\n"
            "displace 5 0 40000\n"
            f"parametric 3 {math.pi!r} 315412.3\n"
            "rsb 200 0 20000\n"
        )
        cfg = write_config(tmp_path, "lab_truncation = 32\n")
        code = cli.main(["simulate", "--sequence", str(seq_path),
                         "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "TruncationError"

    def test_malformed_sequence_is_config_error(self, tmp_path, capsys):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("displace notanumber 0 1\n")
        code = cli.main(["simulate", "--sequence", str(seq_path),
                         "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["line"] == 1

    @pytest.mark.parametrize("segment, noiseless", [
        ("free nan 0 0", True),
        ("displace inf 0 1000", True),
        ("displace inf 0 1000", False),
    ])
    def test_non_finite_duration_is_config_error(self, tmp_path, capsys, segment, noiseless):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text(f"rsb 10 0 1000\n{segment}\n")
        argv = ["simulate", "--sequence", str(seq_path), "--out", str(tmp_path / "x")]
        if noiseless:
            argv += ["--config", write_config(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["line"] == 2
        assert not (tmp_path / "x" / "simulate.json").exists()


class TestErrorHandling:
    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("bogus_key = 1\n")
        code = cli.main(["gain-curve", "--config", str(bad),
                         "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["key"] == "bogus_key"
        assert record["line"] == 1

    def test_gain_curve_with_zero_alpha_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "alpha_i = 0\nsqueeze_r_list = 0.5\n")
        code = cli.main(["gain-curve", "--config", cfg, "--out", str(tmp_path / "g")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["key"] == "alpha_i"

    @pytest.mark.parametrize("command", ["gain-curve", "rwa-check", "sensitivity"])
    @pytest.mark.parametrize("key, value", [
        ("g_khz", "0"),
        ("g_khz", "nan"),
        ("omega_sb_khz", "0"),
        ("omega_r_mhz", "0"),
        ("omega_r_mhz", "-6.3"),
        ("rwa_ratio_list", "0"),
        ("rwa_ratio_list", "0.05,-0.1"),
    ])
    def test_non_positive_rate_is_config_error(self, tmp_path, capsys, command, key,
                                               value):
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["key"] == key

    @pytest.mark.parametrize("command, key, value", [
        ("contrast-alpha", "alpha_list", "0.01"),
        ("contrast-alpha", "alpha_list", ""),
        ("sensitivity", "squeeze_durations_us", ""),
        ("unitarity", "squeeze_durations_us", "-2"),
        ("unitarity", "squeeze_durations_us", "2,nan"),
        ("contrast-alpha", "squeeze_durations_us", "inf"),
        ("gain-curve", "trace_points", "0"),
        # the gain curve keys trace sample i of block b as b * 100_000 + i
        ("gain-curve", "trace_points", "100001"),
        ("squeeze-phase-scan", "theta_points", "0"),
        ("sensitivity", "phi_points", "4"),
        ("gain-curve", "alpha_i", "nan"),
        ("phase-scan", "alpha_i", "inf"),
        ("squeeze-phase-scan", "alpha_i", "-inf"),
        ("sensitivity", "sensitivity_alpha", "nan"),
        ("gain-curve", "squeeze_r_list", "0.5,inf"),
        # |alpha_f| = 0.2 e^1000: the coherent model's populations underflow
        ("gain-curve", "squeeze_r_list", "1,1000"),
    ])
    def test_unusable_sweep_key_is_config_error(self, tmp_path, capsys, command, key,
                                                value):
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["key"] == key
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, key", [
        (["fit", "--model", "coherent", "--omega-khz", "0"], "--omega-khz"),
        (["fit", "--model", "coherent", "--omega-khz", "-1"], "--omega-khz"),
        (["fit", "--model", "squeezed", "--init", "r=inf"], "--init r"),
        (["fit", "--model", "coherent", "--init", "alpha=nan"], "--init alpha"),
        (["fit", "--model", "coherent", "--gamma", "nan"], "--gamma"),
        (["fit", "--model", "coherent", "--gamma", "inf"], "--gamma"),
        (["fit", "--model", "coherent", "--init", "beta=1"], "--init beta"),
        (["squeeze-phase-scan", "--r", "inf"], "--r"),
        (["phase-scan", "--r", "nan"], "--r"),
        (["phase-scan", "--r", "-1"], "--r"),
    ])
    def test_unusable_flag_is_config_error(self, tmp_path, capsys, argv, key):
        if argv[0] == "fit":
            trace = tmp_path / "trace.csv"
            trace.write_text(RabiTrace(np.arange(1, 41) * 2e-5, np.full(40, 0.5), 300).to_csv())
            argv = argv + ["--trace", str(trace)]
        else:
            argv = argv + ["--config", write_config(tmp_path), "--out", str(tmp_path / "x")]
        code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["key"] == key
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["phase-scan", "squeeze-phase-scan"])
    def test_overflow_is_runtime_error(self, tmp_path, capsys, command):
        # cosh(1000) overflows a double in gaussian.amplify_displacement
        code = cli.main([command, "--r", "1000", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "OverflowError"
        assert not (tmp_path / "x").exists()

    def test_fringe_past_the_term_budget_is_runtime_error(self, tmp_path, capsys):
        # |alpha_f| = 0.2 e^20 ~ 1e8 would need ~2e9 Poisson terms in f_alpha
        code = cli.main(["phase-scan", "--r", "20", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ValueError"
        assert not (tmp_path / "x").exists()

    def test_squeeze_float64_cannot_undo_is_floating_point_error(self, tmp_path, capsys):
        # at r = 30 the noiseless map keeps |nu| ~ 3.5e9 after the
        # anti-squeeze: refused before any noisy step
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["phase-scan", "--r", "30", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_RUNTIME
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "FloatingPointError"
        assert "cannot be undone in float64" in record["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("r", [9.0, 12.0])
    def test_squeeze_residual_refused_at_once(self, r, tmp_path, capsys):
        # the residual |nu| is 2.0e-9 at r = 9 and 1.5e-8 at r = 10, past
        # the 1e-9 that lab_density accepts
        start = time.perf_counter()
        code = cli.main(["phase-scan", "--r", f"{r:g}", "--out", str(tmp_path / "x")])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_RUNTIME
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FloatingPointError"
        assert f"r = {r:g} " in record["message"]
        nu = float(record["message"].split("|nu| = ")[1].split(",")[0])
        assert nu > frame.SQUEEZE_RESIDUAL_TOL
        assert not (tmp_path / "x").exists()

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["make-coffee"])
        assert exc.value.code == 2


@pytest.fixture
def blas_at_two(monkeypatch):
    """Every loaded OpenBLAS at 2 threads, no thread variable set and the
    policy not yet run in this process; each library's count is restored
    afterwards, since the suite runs at one thread."""
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    libraries = cli._openblas_libraries()
    counts = [get_threads() for _, _, get_threads in libraries]
    cli._one_blas_thread.cache_clear()
    try:
        for _, set_threads, _ in libraries:
            set_threads(2)
        yield libraries
    finally:
        for (_, set_threads, _), n in zip(libraries, counts):
            set_threads(n)
        cli._one_blas_thread.cache_clear()


class TestBlasThreads:
    def policy_records(self, tmp_path, caplog):
        """The policy's DEBUG records from one CLI call."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="squeezeamp.cli"):
            cli.main(["fit", "--model", "coherent", "--trace", str(tmp_path / "none.csv")])
        return [r for r in caplog.records if hasattr(r, "blas_libraries")]

    def test_one_thread_per_library(self, tmp_path, caplog, blas_at_two):
        [record] = self.policy_records(tmp_path, caplog)
        assert [get_threads() for _, _, get_threads in blas_at_two] == [1] * len(blas_at_two)
        assert record.blas_libraries == [os.path.basename(p) for p, _, _ in blas_at_two]
        assert record.kept is None
        # once a process
        assert self.policy_records(tmp_path, caplog) == []

    def test_thread_variable_overrides(self, tmp_path, caplog, monkeypatch, blas_at_two):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        [record] = self.policy_records(tmp_path, caplog)
        assert [get_threads() for _, _, get_threads in blas_at_two] == [2] * len(blas_at_two)
        assert record.blas_libraries == []
        assert record.kept == "OPENBLAS_NUM_THREADS"

    def test_numpy_openblas_is_found(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas" or not os.path.exists("/proc/self/maps"):
            pytest.skip("no scipy-openblas in numpy, or no /proc/self/maps")
        site = os.path.dirname(os.path.dirname(np.__file__))
        paths = [p for p, _, _ in cli._openblas_libraries()]
        assert any(p.startswith(os.path.join(site, "numpy")) for p in paths), paths

    def test_import_leaves_threads_alone(self):
        code = ("import squeezeamp, squeezeamp.cli as cli; "
                "assert cli._one_blas_thread.cache_info().misses == 0")
        env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
