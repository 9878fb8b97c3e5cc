"""Command-line interface: scripted experiments, trace fitting, and raw
pulse-sequence simulation with deterministic file output.
"""

import argparse
import ctypes
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, fock
from .errors import ConfigError, SqueezeAmpError
from .experiments import (
    ExperimentConfig,
    run_contrast_vs_alpha,
    run_gain_curve,
    run_phase_scan,
    run_rwa_check,
    run_sensitivity_curve,
    run_squeeze_phase_scan,
    run_unitarity_check,
)
from .fitting import _MODEL_PARAMS, RabiTrace, fit_state_model
from .lindblad import PulseSequence, run_sequence

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

#: The variables OpenBLAS reads its thread count from; any of them set
#: overrides the CLI's one-thread policy.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the scipy-openblas wheels' symbols (numpy's copy has the 64-bit integer
# interface), then a system OpenBLAS's
_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads")

_SWEEPS = {
    "gain-curve": run_gain_curve,
    "contrast-alpha": run_contrast_vs_alpha,
    "sensitivity": run_sensitivity_curve,
    "unitarity": run_unitarity_check,
    "rwa-check": run_rwa_check,
}


def _openblas_libraries():
    """(path, set_num_threads, get_num_threads) of each OpenBLAS loaded in
    this process, found by name in /proc/self/maps; none where that is missing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rpartition("/")[2]})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _SET_THREADS if hasattr(lib, n)), None)
        if name is None:
            continue
        set_threads, get_threads = lib[name], lib[name.replace("_set_", "_get_")]
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        found.append((path, set_threads, get_threads))
    return found


@functools.cache
def _one_blas_thread():
    """Run every loaded OpenBLAS on one thread, once per process, unless
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set.

    The commands multiply and diagonalise matrices of 32-192 rows.  There a
    second thread adds CPU time and little speed, and after a call into the
    other library's OpenBLAS that pool's idle threads spin on the core this
    one needs: on 2 vCPUs, in a process that alternates the two, `simulate`
    at `lab_truncation` 96 takes 0.10 s at one thread against 0.18 s (0.36 s
    of CPU) at two.  Two threads win from `lab_truncation` ~192 up, where
    the variable is the override.  The policy lives here, not in the
    package, so that importing squeezeamp leaves a library user's BLAS
    settings alone.  Logs one DEBUG record whose attributes name the
    libraries set (`blas_libraries`) and the variable found (`kept`).
    """
    kept = next((v for v in _BLAS_THREAD_VARS if os.environ.get(v)), None)
    libraries = [] if kept else _openblas_libraries()
    for _, set_threads, _ in libraries:
        set_threads(1)
    names = [os.path.basename(path) for path, _, _ in libraries]
    _log.debug("one BLAS thread in %s; thread variable kept: %s", names, kept,
               extra=dict(blas_libraries=names, kept=kept))


def _load_config(path):
    if path is None:
        return ExperimentConfig({})
    with open(path) as fh:
        return ExperimentConfig.from_text(fh.read())


def _error_record(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("key", "line"):
        val = getattr(exc, attr, None)
        if val is not None:
            record[attr] = val
    return json.dumps(record, sort_keys=True)


def _check_flag(key, value, least=None, strict=False):
    """A flag's value, or ConfigError(key=...) when it is not finite or lies
    below `least` (or at it, when `strict`)."""
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}", key=key)
    if least is not None and (value < least or strict and value == least):
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {least:g}, got {value!r}",
                          key=key)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="squeezeamp",
        description="Simulator and analysis toolkit for squeezing-based "
        "amplification of oscillator displacements.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep(name, help_text, extra=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file (defaults apply)")
        p.add_argument("--out", default="runs", help="output directory")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        return p

    for name, fn in _SWEEPS.items():
        add_sweep(name, fn.__doc__.splitlines()[0])
    add_sweep(
        "phase-scan", "PSRSB fringe scan",
        extra=[("--r", {"type": float, "default": 0.0, "help": "squeeze parameter"})],
    )
    add_sweep(
        "squeeze-phase-scan", "contrast versus squeezing phase",
        extra=[("--r", {"type": float, "default": None, "help": "squeeze parameter"})],
    )

    fit = sub.add_parser("fit", help="fit a state model to a Rabi-trace CSV")
    fit.add_argument("--model", required=True,
                     choices=["coherent", "squeezed", "displaced_squeezed"])
    fit.add_argument("--trace", required=True, help="CSV with header t_us,p_down,shots")
    fit.add_argument("--omega-khz", type=float, default=1.1,
                     help="starting sideband Rabi frequency (kHz)")
    fit.add_argument("--gamma", type=float, default=60.0,
                     help="starting decay constant (1/s)")
    fit.add_argument("--init", action="append", default=[],
                     metavar="NAME=VALUE", help="starting value of a state parameter of the model")

    sim = sub.add_parser("simulate", help="run a pulse-sequence file with noise")
    sim.add_argument("--sequence", required=True,
                     help="plain-text segments: kind duration_us phase_rad strength")
    sim.add_argument("--config", help="key = value config file")
    sim.add_argument("--out", default="runs", help="output directory")
    return parser


def _cmd_fit(args):
    with open(args.trace) as fh:
        trace = RabiTrace.from_csv(fh.read())
    # alpha, r and gamma enter the model through their magnitudes: any sign will do
    omega_khz = _check_flag("--omega-khz", args.omega_khz, 0.0, strict=True)
    init = {"omega": 2 * math.pi * omega_khz * 1e3,
            "gamma": _check_flag("--gamma", args.gamma),
            "alpha": 0.5, "r": 1.0, "theta": 0.0}
    for item in args.init:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--init expects NAME=VALUE, got {item!r}")
        name = name.strip()
        key = f"--init {name}"
        if name not in _MODEL_PARAMS[args.model]:
            raise ConfigError(f"--init takes the {args.model} model's parameters "
                              f"{', '.join(_MODEL_PARAMS[args.model])}, not {name!r}", key=key)
        init[name] = _check_flag(key, float(value))
    result = fit_state_model(trace, args.model, init)
    sys.stdout.write(result.to_json())
    return EXIT_OK


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    with open(args.sequence) as fh:
        seq = PulseSequence.from_text(fh.read())
    space = fock.FockSpace(cfg["lab_truncation"])
    rho = run_sequence(seq, cfg.noise, fock.vacuum(space))
    pops = rho.motional_populations()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "simulate.csv"), "w") as fh:
        fh.write("n,population\n")
        for n, p in enumerate(pops):
            fh.write(f"{n},{format(float(p), '.12g')}\n")
    d = space.dim
    summary = {
        "schema_version": 1,
        "code_version": __version__,
        "config_hash": cfg.hash,
        "segments": len(seq),
        "total_duration_us": seq.total_duration * 1e6,
        "trace": float(rho.trace.real),
        "p_down": float(np.sum(np.real(np.diag(rho.matrix))[:d])),
        "mean_phonon_number": float(np.dot(np.arange(d), pops)),
        "ground_population": float(pops[0]),
    }
    with open(os.path.join(args.out, "simulate.json"), "w") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    with open(os.path.join(args.out, "config.txt"), "w") as fh:
        fh.write(f"# sha256 {cfg.hash}\n")
        fh.write(cfg.to_text())
    return EXIT_OK


def main(argv=None):
    _one_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if getattr(args, "r", None) is not None:
            _check_flag("--r", args.r, 0.0)
        cfg = _load_config(args.config)
        if args.command == "phase-scan":
            result = run_phase_scan(cfg, r=args.r)
        elif args.command == "squeeze-phase-scan":
            result = run_squeeze_phase_scan(cfg, r=args.r)
        else:
            result = _SWEEPS[args.command](cfg)
        base = result.write(args.out)
        sys.stdout.write(f"wrote {base}.csv and {base}.json\n")
        return EXIT_OK
    except SqueezeAmpError as exc:
        sys.stderr.write(_error_record(exc) + "\n")
        return EXIT_CONFIG if type(exc).__name__ == "ConfigError" else EXIT_RUNTIME
    except (OSError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(_error_record(exc) + "\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
