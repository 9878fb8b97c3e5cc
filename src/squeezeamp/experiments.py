"""Scripted experiments reproducing the amplification protocol's figures:
gain curves, fringe scans, contrast and sensitivity sweeps, unitarity and
rotating-wave checks, with seeded projection-noise sampling and
deterministic CSV/JSON output.
"""

from dataclasses import dataclass, field
import hashlib
import io
import json
import math
import os

import numpy as np

from . import __version__, fock, gaussian, spinmotion
from .drive import DriveParams, simulate_full_vs_rwa
from .errors import ConfigError, SqueezeAmpError
from .fitting import (
    RabiTrace,
    contrast_and_noise,
    fit_sinusoid,
    fit_state_model,
    snr_and_enhancement,
)
from .frame import amplify_with_noise
from .lindblad import NoiseParams

#: Stable per-experiment stream identifiers for counter-based sampling.
EXPERIMENT_IDS = {
    "gain_curve": 1,
    "phase_scan": 2,
    "squeeze_phase_scan": 3,
    "contrast_alpha": 4,
}

#: Flat config keys with units encoded in the names.
CONFIG_DEFAULTS = {
    "omega_r_mhz": 6.3,
    "g_khz": 50.2,
    "omega_sb_khz": 1.1,
    "heating_quanta_per_s": 20.0,
    "dephasing_per_s": 18.0,
    "displace_duration_us": 5.0,
    "bsb_decay_per_s": 60.0,
    "shots": 0,
    "seed": 0,
    "frame_truncation": 48,
    "lab_truncation": 96,
    "alpha_i": 0.2,
    "squeeze_r_list": (0.5, 1.0, 1.5, 2.0, 2.26, 2.54),
    "squeeze_durations_us": (2.0, 4.0, 6.0, 8.0, 10.0, 12.0),
    "alpha_list": (0.002, 0.005, 0.008, 0.011, 0.014, 0.017, 0.02),
    "phi_points": 16,
    "theta_points": 16,
    "trace_points": 150,
    "trace_dt_us": 20.0,
    "preparation_background": 0.02,
    "contrast_threshold": 0.25,
    "sensitivity_alpha": 0.005,
    "rwa_ratio_list": (0.008, 0.05, 0.2),
    "rwa_gt": 0.63,
}

_INT_KEYS = {"shots", "seed", "frame_truncation", "lab_truncation", "phi_points",
             "theta_points", "trace_points"}
_LIST_KEYS = {"squeeze_r_list", "squeeze_durations_us", "alpha_list", "rwa_ratio_list"}
# what the sweeps need: rates and steps to divide by, counts, rates, durations
# and probabilities >= 0, and enough points (or list entries)
_POSITIVE_KEYS = {"omega_r_mhz", "g_khz", "omega_sb_khz", "rwa_ratio_list", "rwa_gt",
                  "trace_dt_us"}
_NON_NEGATIVE_KEYS = _INT_KEYS | {"heating_quanta_per_s", "dephasing_per_s", "bsb_decay_per_s",
                                  "displace_duration_us", "squeeze_durations_us",
                                  "preparation_background"}
_MIN_POINTS = {"trace_points": 1, "theta_points": 1, "phi_points": 8,
               "squeeze_durations_us": 1, "alpha_list": 2, "squeeze_r_list": 1,
               "rwa_ratio_list": 1}
# the gain curve keys trace sample i of block b as b * 100_000 + i
_MAX_POINTS = {"trace_points": 100_000}


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat key=value experiment settings; unknown keys are rejected."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(CONFIG_DEFAULTS)
        for key, val in self.values.items():
            if key not in CONFIG_DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}", key=key)
            merged[key] = val = int(val) if key in _INT_KEYS else val
            entries = [float(x) for x in (val if key in _LIST_KEYS else (val,))]
            if not all(map(math.isfinite, entries)):
                raise ConfigError(f"config key {key!r} must be finite", key=key)
            if key in _POSITIVE_KEYS and any(x <= 0 for x in entries):
                raise ConfigError(f"config key {key!r} must be > 0", key=key)
            if key in _NON_NEGATIVE_KEYS and any(x < 0 for x in entries):
                raise ConfigError(f"config key {key!r} must be >= 0", key=key)
            points = val if key in _INT_KEYS else len(entries)
            least, most = _MIN_POINTS.get(key, 0), _MAX_POINTS.get(key, math.inf)
            if points < least:
                raise ConfigError(f"config key {key!r} needs >= {least} points", key=key)
            if points > most:
                raise ConfigError(f"config key {key!r} allows <= {most} points", key=key)
        object.__setattr__(self, "values", merged)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def g(self):
        return 2 * math.pi * self["g_khz"] * 1e3

    @property
    def omega_r(self):
        return 2 * math.pi * self["omega_r_mhz"] * 1e6

    @property
    def omega_sb(self):
        return 2 * math.pi * self["omega_sb_khz"] * 1e3

    @property
    def noise(self):
        return NoiseParams(self["heating_quanta_per_s"], self["dephasing_per_s"])

    @property
    def noiseless(self):
        return self.noise.is_zero

    def to_text(self):
        lines = [f"{k} = {_format_value(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    @property
    def hash(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    @classmethod
    def from_text(cls, text):
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"line {lineno}: expected 'key = value'", line=lineno
                )
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_DEFAULTS:
                raise ConfigError(
                    f"line {lineno}: unknown config key {key!r}", key=key, line=lineno
                )
            try:
                if key in _LIST_KEYS:
                    values[key] = tuple(float(v) for v in val.split(",") if v.strip())
                elif key in _INT_KEYS:
                    values[key] = int(val)
                else:
                    values[key] = float(val)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: bad value for {key!r}: {val!r}", key=key, line=lineno
                ) from None
        return cls(values)


def sample_probability(p, shots, seed, experiment, index):
    """Binomial projection-noise sample of a probability.

    Counter-based: the Philox stream is keyed by (seed, experiment id,
    point index), so results are independent of sweep order.  `index` is
    an int or a tuple of ints; one experiment must use tuples of one
    length, because SeedSequence ignores trailing zero words.  shots = 0
    returns the exact probability with zero error.
    """
    p = min(max(float(p), 0.0), 1.0)
    if shots == 0:
        return p, 0.0
    exp_id = EXPERIMENT_IDS[experiment]
    index = index if isinstance(index, tuple) else (index,)
    entropy = [int(seed), exp_id, *(int(i) for i in index)]
    bitgen = np.random.Philox(seed=np.random.SeedSequence(entropy))
    rng = np.random.Generator(bitgen)
    phat = rng.binomial(int(shots), p) / shots
    err = math.sqrt(max(phat * (1 - phat), 1e-6) / shots)
    return float(phat), float(err)


@dataclass(frozen=True)
class SweepResult:
    """Tabular sweep output plus traceability metadata."""

    name: str
    columns: tuple
    rows: tuple
    config: ExperimentConfig
    summary: dict = field(default_factory=dict)

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_format_value(row[c]) for c in self.columns) + "\n")
        return buf.getvalue()

    def to_json(self):
        payload = {
            "schema_version": 1,
            "experiment": self.name,
            "code_version": __version__,
            "config_hash": self.config.hash,
            "columns": list(self.columns),
            "rows": [{c: row[c] for c in self.columns} for row in self.rows],
            "summary": self.summary,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, outdir):
        """Write <name>.csv, <name>.json, and the resolved config echo."""
        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, self.name)
        with open(base + ".csv", "w") as fh:
            fh.write(self.to_csv())
        with open(base + ".json", "w") as fh:
            fh.write(self.to_json())
        with open(os.path.join(outdir, "config.txt"), "w") as fh:
            fh.write(f"# sha256 {self.config.hash}\n")
            fh.write(self.config.to_text())
        return base


def _amplified_density(cfg, alpha_i, r, theta=0.0):
    """Lab-frame density operator after noisy squeeze-displace-antisqueeze."""
    lab, frame_dim = cfg["lab_truncation"], cfg["frame_truncation"]
    if lab < frame_dim:
        raise ConfigError(f"lab_truncation {lab} must be >= frame_truncation {frame_dim}: "
                          "the lab density holds the frame state", key="lab_truncation")
    res = amplify_with_noise(
        alpha_i, r, cfg.noise, cfg.g,
        displace_duration=cfg["displace_duration_us"] * 1e-6,
        theta=theta, frame_space=fock.FockSpace(frame_dim),
    )
    return res.lab_density(fock.FockSpace(lab))


def _contrast(cfg, alpha_i, r, theta=0.0):
    """PSRSB fringe contrast after amplification: 2|alpha_f| f(|alpha_f|)
    without noise, else 2|tr rho_ud| of the noisy lab density."""
    if cfg.noiseless:
        return spinmotion.psrsb_contrast(
            gaussian.amplify_displacement(alpha_i, gaussian.SqueezeParam(r, theta)))
    _, t_ud = spinmotion.rsb_readout(_amplified_density(cfg, alpha_i, r, theta))
    return 2.0 * abs(t_ud)


def _sampled_contrast(cfg, contrast, experiment, key_max, key_min):
    """Contrast and error from the fringe extremes 1/2 +- C/2, sampled at the
    indices `key_max` and `key_min`; exact with zero error at shots = 0."""
    shots = cfg["shots"]
    if not shots:
        return contrast, 0.0
    pmax, _ = sample_probability(0.5 + contrast / 2, shots, cfg["seed"], experiment, key_max)
    pmin, _ = sample_probability(0.5 - contrast / 2, shots, cfg["seed"], experiment, key_min)
    return contrast_and_noise(pmax, pmin, shots)


def _synthetic_trace(cfg, populations, experiment, block_index):
    """Forward BSB signal, sampled with the configured shot count."""
    times = np.arange(1, cfg["trace_points"] + 1) * cfg["trace_dt_us"] * 1e-6
    ideal = spinmotion.bsb_signal(populations, cfg.omega_sb, cfg["bsb_decay_per_s"], times)
    shots = cfg["shots"]
    if shots == 0:  # exact probabilities, clipped to [0, 1] as `sample_probability` does
        return RabiTrace(times, np.clip(ideal, 0.0, 1.0), 300)
    sampled = np.empty_like(ideal)
    for i, p in enumerate(ideal):
        sampled[i], _ = sample_probability(
            p, shots, cfg["seed"], experiment, block_index * 100_000 + i
        )
    return RabiTrace(times, sampled, shots)


#: |alpha| past which the coherent populations of
#: `gaussian.displaced_squeezed_populations` underflow to 0: all of them start
#: from psi_0 = exp(-|alpha|^2/2) of `FrameMap.amplitudes`.
_MAX_FIT_ALPHA = math.sqrt(-2 * math.log(math.ulp(0.0)))


def run_gain_curve(cfg):
    """Gain G = alpha_f / alpha_i versus squeezing parameter r = g t."""
    alpha_i = cfg["alpha_i"]
    if alpha_i == 0:
        raise ConfigError("gain curve needs alpha_i != 0", key="alpha_i")
    # on the squeezed axis |alpha_f| = |alpha_i| e^r, so compare r in logs
    r_max = math.log(_MAX_FIT_ALPHA / abs(alpha_i))
    r_top = max(cfg["squeeze_r_list"])
    if r_top > r_max:
        raise ConfigError(
            f"r = {r_top:g} amplifies alpha_i = {alpha_i:g} past |alpha_f| = "
            f"{_MAX_FIT_ALPHA:.4g} (r > {r_max:.4g}), where every population of the "
            "coherent model underflows to 0", key="squeeze_r_list")
    rows = []
    failures = []
    for idx, r in enumerate(cfg["squeeze_r_list"]):
        alpha_f_ideal = abs(gaussian.amplify_displacement(alpha_i, gaussian.SqueezeParam(r)))
        nmax = int(math.ceil(alpha_f_ideal**2 + 8 * alpha_f_ideal + 20))
        if cfg.noiseless:
            pops = gaussian.displaced_squeezed_populations(
                gaussian.Displacement(alpha_f_ideal), gaussian.SqueezeParam(0.0), nmax
            )
        else:
            lab = _amplified_density(cfg, alpha_i, r)
            pops = np.clip(lab.motional_populations()[:nmax], 0.0, None)
        trace = _synthetic_trace(cfg, pops, "gain_curve", idx)
        row = {
            "t_us": r / cfg.g * 1e6,
            "r_ideal": r,
            "alpha_f_ideal": alpha_f_ideal,
        }
        try:
            fit = fit_state_model(
                trace, "coherent",
                {"alpha": alpha_f_ideal, "omega": cfg.omega_sb,
                 "gamma": cfg["bsb_decay_per_s"]},
                nmax=len(pops),
            )
            alpha_fit = fit.param("alpha")
            alpha_err = fit.error("alpha")
            row.update(
                alpha_f_fit=alpha_fit, alpha_f_err=alpha_err,
                gain=alpha_fit / alpha_i, gain_err=alpha_err / alpha_i, fit_ok=1,
            )
        except SqueezeAmpError as exc:
            row.update(alpha_f_fit=float("nan"), alpha_f_err=float("nan"),
                       gain=float("nan"), gain_err=float("nan"), fit_ok=0)
            failures.append({"r_ideal": r, "error": f"{type(exc).__name__}: {exc}"})
        rows.append(row)
    rows.sort(key=lambda r: r["r_ideal"])
    columns = ("t_us", "r_ideal", "alpha_f_ideal", "alpha_f_fit", "alpha_f_err",
               "gain", "gain_err", "fit_ok")
    summary = {"alpha_i": alpha_i, "noiseless": cfg.noiseless}
    if failures:
        summary["fit_failures"] = sorted(failures, key=lambda f: f["r_ideal"])
    return SweepResult("gain_curve", columns, tuple(rows), cfg, summary)


def run_phase_scan(cfg, r=0.0):
    """PSRSB fringe P_down(phi) for a displacement, optionally amplified."""
    phis = np.linspace(0.0, 2 * math.pi, cfg["phi_points"], endpoint=False)
    alpha_i = cfg["alpha_i"]
    if cfg.noiseless or (r == 0.0 and alpha_i == 0.0):
        alpha_f = abs(gaussian.amplify_displacement(alpha_i, gaussian.SqueezeParam(r)))
        ideal = np.array([spinmotion.psrsb_pdown_series(alpha_f, phi) for phi in phis])
    else:
        ideal = spinmotion.psrsb_fringe_density(_amplified_density(cfg, alpha_i, r), phis)
    rows = []
    sampled = []
    for i, (phi, p) in enumerate(zip(phis, ideal)):
        phat, err = sample_probability(p, cfg["shots"], cfg["seed"], "phase_scan", i)
        sampled.append(phat)
        rows.append({"phi_rad": float(phi), "p_down": phat, "p_down_err": err})
    fit = fit_sinusoid(phis, np.array(sampled), cfg["shots"] if cfg["shots"] else 10**9)
    summary = {
        "b": fit.param("b"), "b_err": fit.error("b"),
        "a": fit.param("a"), "a_err": fit.error("a"),
        "half_contrast": abs(fit.param("a")), "r": r,
    }
    return SweepResult("phase_scan", ("phi_rad", "p_down", "p_down_err"),
                       tuple(rows), cfg, summary)


def run_squeeze_phase_scan(cfg, r=None):
    """Fringe contrast versus the squeezing phase theta at fixed displacement."""
    thetas = np.linspace(0.0, 2 * math.pi, cfg["theta_points"], endpoint=False)
    if r is None:
        r = cfg["squeeze_r_list"][-1]
    alpha_i = cfg["alpha_i"]
    rows = []
    for i, theta in enumerate(thetas):
        alpha_f = abs(gaussian.amplify_displacement(alpha_i, gaussian.SqueezeParam(r, theta)))
        contrast, err = _sampled_contrast(
            cfg, _contrast(cfg, alpha_i, r, theta), "squeeze_phase_scan", 2 * i, 2 * i + 1
        )
        rows.append({
            "theta_rad": float(theta), "alpha_f_ideal": alpha_f,
            "contrast": contrast, "contrast_err": err,
        })
    cs = [row["contrast"] for row in rows]
    summary = {
        "r": r,
        "theta_at_max": rows[int(np.argmax(cs))]["theta_rad"],
        "theta_at_min": rows[int(np.argmin(cs))]["theta_rad"],
        "max_over_min": float(max(cs) / max(min(cs), 1e-12)),
    }
    return SweepResult(
        "squeeze_phase_scan",
        ("theta_rad", "alpha_f_ideal", "contrast", "contrast_err"),
        tuple(rows), cfg, summary,
    )


def _linear_slope(alphas, contrasts, errors, threshold):
    """Weighted zero-intercept slope of C(alpha) over the linear regime, or
    None when fewer than two contrasts lie at or below `threshold`."""
    alphas = np.asarray(alphas, dtype=float)
    contrasts = np.asarray(contrasts, dtype=float)
    keep = contrasts <= threshold
    if keep.sum() < 2:
        return None
    x, y = alphas[keep], contrasts[keep]
    w = 1.0 / np.clip(np.asarray(errors, dtype=float)[keep], 1e-6, None) ** 2
    slope = float(np.sum(w * x * y) / np.sum(w * x * x))
    slope_err = float(1.0 / math.sqrt(np.sum(w * x * x)))
    return slope, slope_err


def run_contrast_vs_alpha(cfg):
    """Contrast versus displacement amplitude per squeeze duration."""
    rows = []
    slopes = {}
    failures = []
    for k, duration_us in enumerate(cfg["squeeze_durations_us"]):
        r = cfg.g * duration_us * 1e-6
        block = []
        for j, alpha in enumerate(cfg["alpha_list"]):
            contrast, err = _sampled_contrast(
                cfg, _contrast(cfg, alpha, r), "contrast_alpha", (k, j, 0), (k, j, 1)
            )
            block.append({
                "t_us": duration_us, "alpha_i": alpha,
                "contrast": contrast, "contrast_err": err,
            })
        fit = _linear_slope(
            [row["alpha_i"] for row in block], [row["contrast"] for row in block],
            [row["contrast_err"] for row in block], cfg["contrast_threshold"],
        )
        if fit is None:
            failures.append({"t_us": duration_us, "error": (
                "fewer than 2 contrasts at or below contrast_threshold "
                f"{cfg['contrast_threshold']:g}: no linear-regime slope")})
        else:
            slope, slope_err = fit
            slopes[f"{duration_us:g}"] = {
                "slope": slope, "slope_err": slope_err, "contrast_gain": slope / 2.0,
            }
        rows += block
    summary = {"slopes": slopes}
    if failures:
        summary["slope_failures"] = failures
    return SweepResult(
        "contrast_alpha", ("t_us", "alpha_i", "contrast", "contrast_err"),
        tuple(rows), cfg, summary,
    )


def run_sensitivity_curve(cfg):
    """Sensitivity enhancement in dB versus squeeze duration."""
    alpha = cfg["sensitivity_alpha"]
    if alpha == 0:
        raise ConfigError("sensitivity curve needs sensitivity_alpha != 0",
                          key="sensitivity_alpha")
    c_ref = _contrast(cfg, alpha, 0.0)
    shots = cfg["shots"] if cfg["shots"] else 10**9
    rows = []
    for duration_us in cfg["squeeze_durations_us"]:
        r = cfg.g * duration_us * 1e-6
        gain_ideal = math.exp(r)
        c_amp = _contrast(cfg, alpha, r)
        s_amp, s_ref, enh = snr_and_enhancement(max(c_amp, 1e-12), c_ref, shots)
        rows.append({
            "t_us": duration_us, "r_ideal": r, "gain_ideal": gain_ideal,
            "contrast": c_amp, "enhancement_db": enh,
            "ideal_enhancement_db": 20 * math.log10(gain_ideal),
        })
    enhs = [row["enhancement_db"] for row in rows]
    best = int(np.argmax(enhs))
    summary = {
        "alpha": alpha,
        "best_duration_us": rows[best]["t_us"],
        "interior_maximum": bool(0 < best < len(rows) - 1),
    }
    columns = ("t_us", "r_ideal", "gain_ideal", "contrast", "enhancement_db",
               "ideal_enhancement_db")
    return SweepResult("sensitivity", columns, tuple(rows), cfg, summary)


def run_unitarity_check(cfg):
    """Ground-state return after squeeze then anti-squeeze, with and without noise."""
    background = cfg["preparation_background"]
    if background > 1:
        raise ConfigError("preparation_background is a probability: it must be <= 1",
                          key="preparation_background")
    rows = []
    for duration_us in cfg["squeeze_durations_us"]:
        r = cfg.g * duration_us * 1e-6
        if cfg.noiseless or r == 0:
            p0, p_down = 1.0, 1.0
        else:
            res = amplify_with_noise(0.0, r, cfg.noise, cfg.g,
                                     frame_space=fock.FockSpace(cfg["frame_truncation"]))
            rho = res.lab_density(res.space)
            p0 = float(rho.motional_populations()[0])
            p_down, _ = spinmotion.rsb_readout(rho)
        rows.append({
            "t_us": duration_us, "r_ideal": r,
            "p_down_noiseless": 1.0 - background,
            "p_down_noisy": (1.0 - background) * p_down,
            "ground_population": p0,
        })
    columns = ("t_us", "r_ideal", "p_down_noiseless", "p_down_noisy",
               "ground_population")
    return SweepResult("unitarity", columns, tuple(rows), cfg,
                       {"background": background})


def run_rwa_check(cfg):
    """Lab-frame versus rotating-wave fidelity per drive-strength ratio."""
    rows = []
    for ratio in cfg["rwa_ratio_list"]:
        g = ratio * cfg.omega_r
        gt = cfg["rwa_gt"]
        params = DriveParams(omega_r=cfg.omega_r, g=g, duration=gt / g)
        spp = max(64, int(math.ceil(2560 * ratio)))
        fid, r_eff = simulate_full_vs_rwa(params, steps_per_period=spp)
        rows.append({
            "g_over_omega_r": ratio, "gt": gt, "fidelity": fid,
            "r_effective": r_eff, "steps_per_period": spp,
        })
    fids = [row["fidelity"] for row in rows]
    summary = {"monotone_decreasing": bool(all(a > b for a, b in zip(fids, fids[1:])))}
    columns = ("g_over_omega_r", "gt", "fidelity", "r_effective", "steps_per_period")
    return SweepResult("rwa_check", columns, tuple(rows), cfg, summary)
