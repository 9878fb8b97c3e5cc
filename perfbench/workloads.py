"""The four benchmark workloads.

Each workload writes its inputs (config, trace and sequence files) from
the seed when it is constructed, runs one round of operations through the
package's public entry points in `run_round`, and judges every operation
of a round against `reference` in `check`.  A round always attempts the same
operations, so the share of failed operations does not depend on the run
length.
"""

import contextlib
import functools
import io
import json
import math
import os

import numpy as np

import reference as ref

from squeezeamp import cli, experiments, fitting, frame

TWO_PI = 2 * math.pi
BSB_OMEGA = TWO_PI * 1.1e3  # rad/s, the fit command's default starting value
BSB_GAMMA = 60.0  # 1/s
SHOTS = 300
TRACE_DT = 20e-6  # s


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _config_text(values):
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _main(argv):
    """squeezeamp.cli.main in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_rows(path):
    with open(path) as fh:
        return json.load(fh)["rows"]


class Capture:
    """Records values that pass one package boundary during a round.

    Installed for the whole run, timed or traced: it only appends to a
    list, so it adds no measurable time.
    """

    def __init__(self, owner, name, keep):
        self.owner, self.name = owner, name
        self.original = getattr(owner, name)
        self.items = []

        @functools.wraps(self.original)
        def wrapper(*args, **kwargs):
            out = self.original(*args, **kwargs)
            self.items.append(keep(args, kwargs, out))
            return out

        setattr(owner, name, wrapper)

    def take(self):
        items, self.items = self.items, []
        return items

    def close(self):
        setattr(self.owner, self.name, self.original)


class Verdicts:
    """Per-operation outcome of one round: op name -> list of failed checks."""

    def __init__(self):
        self.ops = {}

    def check(self, name, ok, message):
        self.ops.setdefault(name, [])
        if not ok:
            self.ops[name].append(message)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for msgs in self.ops.values() if msgs)


class Workload:
    """`install` and `close` put in and take out a workload's captures."""

    def install(self):
        pass

    def close(self):
        pass


# --- noisy-sensitivity ------------------------------------------------------

class NoisySensitivity(Workload):
    """`squeezeamp sensitivity` with heating and dephasing on.

    The inputs are fixed: the 8 us point fails every time through the
    frame engine's unchecked truncation, and a counted failure must not
    depend on the seed.  The frame space has 32 levels, not the default 48:
    at 48, two BLAS threads make the 8 us point alone swing between 7 and
    11 s from one call to the next, while at 32 a round repeats within a
    few percent and the same points (8, 10 and 12 us) fail.
    """

    DURATIONS_US = (2.0, 4.0, 6.0, 8.0)
    CONFIG = {
        "g_khz": 50.2,
        "heating_quanta_per_s": 20.0,
        "dephasing_per_s": 18.0,
        "displace_duration_us": 5.0,
        "sensitivity_alpha": 0.005,
        "frame_truncation": 32,
        "lab_truncation": 96,
        "squeeze_durations_us": ",".join(f"{d:g}" for d in DURATIONS_US),
    }

    def __init__(self, seed, workdir):
        self.config = _write(os.path.join(workdir, "sensitivity.cfg"),
                             _config_text(self.CONFIG))
        self.frames = self.labs = None

    def install(self):
        # (alpha, r, FrameResult) at the experiments -> frame boundary, and
        # the lab density each FrameResult reconstructs.
        self.frames = Capture(experiments, "amplify_with_noise",
                              lambda a, kw, out: (a[0], a[1], out))
        self.labs = Capture(frame.FrameResult, "lab_density",
                            lambda a, kw, out: out.matrix)

    def close(self):
        self.frames.close()
        self.labs.close()

    def run_round(self, out):
        code, _ = _main(["sensitivity", "--config", self.config, "--out", out])
        rows = _read_rows(os.path.join(out, "sensitivity.json")) if code == 0 else []
        return code, rows, self.frames.take(), self.labs.take()

    def check(self, result):
        v = Verdicts()
        code, rows, frames, labs = result
        names = ["r=0"] + [f"t={d:g}us" for d in self.DURATIONS_US]
        if code != 0 or len(frames) != len(names) or len(labs) != len(names) \
                or len(rows) != len(self.DURATIONS_US):
            for name in names:
                v.check(name, False, f"exit code {code}, {len(rows)} rows")
            return v
        c = self.CONFIG
        g = TWO_PI * c["g_khz"] * 1e3
        tau = c["displace_duration_us"] * 1e-6
        contrasts = [ref.rsb_fringe_contrast(lab) for lab in labs]
        for i, (name, (alpha, r, res), lab) in enumerate(zip(names, frames, labs)):
            want = ref.amplified_mean_abs(alpha, r, g, c["dephasing_per_s"], tau)
            got = abs(ref.lowering_mean(lab))
            rel = abs(got - want) / want
            v.check(name, rel <= 1e-8, f"|<a>| off the first-moment law by {rel:.2e} relative")
            tail = ref.tail_mass(np.real(np.diag(res.rho)))
            v.check(name, tail < ref.TAIL_EPS, f"frame-state tail {tail:.2e}")
            if i == 0:
                continue
            row = rows[i - 1]
            err = abs(row["contrast"] - contrasts[i])
            v.check(name, err <= 1e-12, f"contrast off the O(N) readout sum by {err:.2e}")
            want_db = 20 * math.log10(contrasts[i] / contrasts[0])
            err_db = abs(row["enhancement_db"] - want_db)
            v.check("r=0", err_db <= 1e-9, f"enhancement off by {err_db:.2e} dB")
        return v


# --- trace-fits -------------------------------------------------------------

def _sample_trace(populations, n_points, rng):
    times = np.arange(1, n_points + 1) * TRACE_DT
    ideal = ref.bsb_trace(populations, BSB_OMEGA, BSB_GAMMA, times)
    return times, rng.binomial(SHOTS, ideal) / SHOTS


def _trace_csv(times, pdown):
    lines = ["t_us,p_down,shots"]
    lines += [f"{t * 1e6:.12g},{p:.12g},{SHOTS}" for t, p in zip(times, pdown)]
    return "\n".join(lines) + "\n"


def _angle_gap(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


class TraceFits(Workload):
    """Gain curve, state-model fits and population extraction on BSB traces.

    The cost of a Levenberg-Marquardt fit swings by 10x between traces that
    differ only in their shot noise, so the gain curve and the fits use fixed
    traces: seed-dependent fits would bury any change in that scatter.  The
    seed draws the extraction traces, whose cost does not depend on them.
    """

    GAIN_R = (1.0, 1.5, 2.26)
    GAIN_SEED = 1
    # (name, model, truth, start, trace points, sample stream)
    FITS = (
        ("coherent", "coherent", {"alpha": 1.0}, {"alpha": 0.9}, 150, 11),
        ("squeezed", "squeezed", {"r": 0.7}, {"r": 0.63}, 150, 12),
        ("displaced_squeezed", "displaced_squeezed", {"alpha": 0.5, "r": 0.75, "theta": 1.5},
         {"alpha": 0.45, "r": 0.68, "theta": 1.35}, 150, 13),
        # Started at (0.45, 0.7, 0.2), this fit converges to theta = 0, where
        # d/dtheta of every population vanishes; the pseudo-inverse then
        # reports a theta stderr near 1e-6 and the 5-sigma check fails.
        ("pinv-case", "displaced_squeezed", {"alpha": 0.5, "r": 0.8, "theta": 0.3},
         {"alpha": 0.45, "r": 0.7, "theta": 0.2}, 300, 7),
    )
    EXTRACT_NMAX = 12

    def __init__(self, seed, workdir):
        self.gain_config = _write(os.path.join(workdir, "gain.cfg"), _config_text({
            "heating_quanta_per_s": 0, "dephasing_per_s": 0, "shots": SHOTS,
            "seed": self.GAIN_SEED, "alpha_i": 0.2,
            "squeeze_r_list": ",".join(f"{r:g}" for r in self.GAIN_R),
        }))
        self.fits = []  # (name, truth, argv)
        for name, model, truth, start, points, stream in self.FITS:
            pops = ref.state_populations(truth.get("alpha", 0.0), truth.get("r", 0.0),
                                         truth.get("theta", 0.0), 64)
            times, pdown = _sample_trace(pops, points, np.random.default_rng(stream))
            path = _write(os.path.join(workdir, f"{name}.csv"), _trace_csv(times, pdown))
            argv = ["fit", "--model", model, "--trace", path]
            for k, x in start.items():
                argv += ["--init", f"{k}={x!r}"]
            self.fits.append((name, dict(truth, omega=BSB_OMEGA, gamma=BSB_GAMMA), argv))
        rng = np.random.default_rng([seed, 2])
        self.extractions = []  # (name, truth populations, stderr, trace path)
        for name, alpha, r in (("extract-coherent", rng.uniform(0.6, 1.0), 0.0),
                               ("extract-squeezed", rng.uniform(0.3, 0.6), rng.uniform(0.2, 0.4))):
            pops = ref.state_populations(alpha, r, 0.0, 64)
            times, pdown = _sample_trace(pops, 150, rng)
            path = _write(os.path.join(workdir, f"{name}.csv"), _trace_csv(times, pdown))
            truth = pops[:self.EXTRACT_NMAX]
            stderr = ref.population_stderr(truth, BSB_OMEGA, BSB_GAMMA, times, SHOTS)
            self.extractions.append((name, truth, stderr, path))

    def run_round(self, out):
        code, _ = _main(["gain-curve", "--config", self.gain_config, "--out", out])
        rows = _read_rows(os.path.join(out, "gain_curve.json")) if code == 0 else []
        fits = [_main(argv) for _, _, argv in self.fits]
        extracted = []
        for _, _, _, path in self.extractions:
            with open(path) as fh:
                trace = fitting.RabiTrace.from_csv(fh.read())
            extracted.append(fitting.extract_populations(
                trace, BSB_OMEGA, BSB_GAMMA, self.EXTRACT_NMAX).params)
        return code, rows, fits, extracted

    def check(self, result):
        v = Verdicts()
        code, rows, fits, extracted = result
        for i, r in enumerate(self.GAIN_R):
            name = f"gain-r={r:g}"
            if code != 0 or len(rows) != len(self.GAIN_R):
                v.check(name, False, f"gain-curve exit code {code}")
                continue
            row = rows[i]
            v.check(name, row["fit_ok"] == 1, "fit_ok = 0")
            z = abs(row["gain"] - math.exp(r)) / row["gain_err"]
            v.check(name, z <= 5, f"gain off e^r by {z:.1f} sigma")
        for (name, truth, _), (fcode, text) in zip(self.fits, fits):
            if fcode != 0:
                v.check(name, False, f"fit exit code {fcode}")
                continue
            payload = json.loads(text)
            for k, want in truth.items():
                got, err = payload["params"][k], payload["stderr"][k]
                gap = (min(_angle_gap(got, want), _angle_gap(-got, want)) if k == "theta"
                       else abs(got - want))
                v.check(name, gap <= 5 * err,
                        f"{k} = {got:.6g} +- {err:.2g}, truth {want:.6g}")
        for (name, truth, stderr, _), got in zip(self.extractions, extracted):
            v.check(name, bool(np.all(got >= -1e-12)), "negative population")
            v.check(name, got.sum() <= 1 + 1e-9, f"populations sum to {got.sum():.6g}")
            gap = float(np.max(np.abs(got - truth)))
            tol = 5 * float(np.max(stderr))
            v.check(name, gap <= tol, f"population off truth by {gap:.3g} > {tol:.3g}")
        return v


# --- lab-drive ----------------------------------------------------------------

class LabDrive(Workload):
    """`squeezeamp rwa-check`: the lab-frame drive integrated in Fock space.

    The ratios g/omega_r are fixed: at some ratios, such as 0.12889 at
    gt = 0.025, the command's Nelder-Mead search stops at an r_effective 50%
    off the state it integrated, so seed-drawn ratios would fail now and
    then.  The seed draws omega_r, which rescales time without changing the
    dimensionless dynamics or the step count.
    """

    RATIOS = (0.05, 0.1, 0.2)
    GT = 0.025

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.omega_r_mhz = float(rng.uniform(5.0, 8.0))
        self.config = _write(os.path.join(workdir, "rwa.cfg"), _config_text({
            "omega_r_mhz": repr(self.omega_r_mhz), "rwa_gt": self.GT,
            "rwa_ratio_list": ",".join(repr(x) for x in self.RATIOS),
        }))

    def run_round(self, out):
        code, _ = _main(["rwa-check", "--config", self.config, "--out", out])
        rows = _read_rows(os.path.join(out, "rwa_check.json")) if code == 0 else []
        return code, rows

    def check(self, result):
        v = Verdicts()
        code, rows = result
        omega_r = TWO_PI * self.omega_r_mhz * 1e6
        for i, ratio in enumerate(self.RATIOS):
            name = f"ratio={ratio:g}"
            if code != 0 or len(rows) != len(self.RATIOS):
                v.check(name, False, f"rwa-check exit code {code}")
                continue
            fid, r_eff = ref.rwa_check_reference(omega_r, ratio * omega_r, self.GT)
            row = rows[i]
            err = abs(row["fidelity"] - fid)
            # the command's own step-halving tolerance on the fidelity
            v.check(name, err <= 1e-6, f"fidelity off the Mathieu flow by {err:.2e}")
            # a state within infidelity 1e-6 can move the best-fit r by ~1e-3
            err = abs(row["r_effective"] - r_eff)
            v.check(name, err <= 1e-3, f"r_effective off asinh sqrt(nbar) by {err:.2e}")
        return v


# --- dense-sequence -------------------------------------------------------------

class DenseSequence(Workload):
    """`squeezeamp simulate`: the dense master equation at joint dimension 192."""

    G = 315412.3  # rad/s: 50.2 kHz
    SQUEEZE_US = 2.0
    DISPLACE_US = 5.0
    FREE_US = 20.0
    NOISE = {"heating_quanta_per_s": 20.0, "dephasing_per_s": 18.0}
    LAB_TRUNCATION = 96

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        strength = float(rng.uniform(30000.0, 50000.0))
        phase = float(rng.uniform(0.0, TWO_PI))
        self.segments = (
            ("parametric", self.SQUEEZE_US * 1e-6, 0.0, self.G),
            ("displace", self.DISPLACE_US * 1e-6, phase, strength),
            ("parametric", self.SQUEEZE_US * 1e-6, math.pi, self.G),
            ("free", self.FREE_US * 1e-6, 0.0, 0.0),
        )
        text = "# kind duration_us phase_rad strength\n" + "".join(
            f"{k} {d * 1e6!r} {p!r} {s!r}\n" for k, d, p, s in self.segments)
        self.sequence = _write(os.path.join(workdir, "sequence.txt"), text)
        self.config = _write(os.path.join(workdir, "simulate.cfg"), _config_text(
            dict(self.NOISE, lab_truncation=self.LAB_TRUNCATION)))
        self.final = None

    def install(self):
        self.final = Capture(cli, "run_sequence", lambda a, kw, out: out.matrix)

    def close(self):
        self.final.close()

    def run_round(self, out):
        code, _ = _main(["simulate", "--sequence", self.sequence, "--config", self.config,
                         "--out", out])
        summary = None
        if code == 0:
            with open(os.path.join(out, "simulate.json")) as fh:
                summary = json.load(fh)
        return code, summary, self.final.take()

    def check(self, result):
        v = Verdicts()
        code, summary, finals = result
        name = "sequence"
        if code != 0 or len(finals) != 1:
            v.check(name, False, f"simulate exit code {code}")
            return v
        joint = finals[0]
        d = self.LAB_TRUNCATION
        motional = joint[:d, :d] + joint[d:, d:]
        want = ref.sequence_moments(self.segments, self.NOISE["heating_quanta_per_s"],
                                    self.NOISE["dephasing_per_s"])
        got = ref.density_moments(motional)
        # 10x the integrator's trace-distance tolerance of 1e-7
        for label, g, w in zip(("<a>", "<a^2>", "<n>"), got, want):
            v.check(name, abs(g - w) <= 1e-6, f"{label} off the moment ODE by {abs(g - w):.2e}")
        err = abs(summary["mean_phonon_number"] - want[2])
        v.check(name, err <= 1e-6, f"reported <n> off the moment ODE by {err:.2e}")
        v.check(name, abs(summary["trace"] - 1) <= 1e-9, f"trace {summary['trace']!r}")
        tail = ref.tail_mass(np.real(np.diag(motional)))
        v.check(name, tail < ref.TAIL_EPS, f"tail {tail:.2e}")
        return v


WORKLOADS = {
    "noisy-sensitivity": NoisySensitivity,
    "trace-fits": TraceFits,
    "lab-drive": LabDrive,
    "dense-sequence": DenseSequence,
}
