"""Analysis pipeline: Fock-population extraction from sideband Rabi traces,
parameterized state fits, fringe fits, and projection-noise statistics.

All weighted fits use binomial shot-noise weights sigma^2 = P(1-P)/shots and
report stderr as the square root of the diagonal of (J^T W J)^{-1} at the
optimum.  The one exception is a state-model fit where J^T W J misses the
curvature of some direction at the optimum: its covariance is the inverse of
the full Hessian of the cost, and a direction without positive curvature
gets an infinite variance.
"""

from dataclasses import dataclass, field
import io
import json
import logging
import math

import numpy as np
import scipy.optimize

from . import gaussian, spinmotion
from .errors import ConvergenceError, DimensionMismatchError, SqueezeAmpError

_log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

MODEL_TAGS = ("unconstrained", "coherent", "squeezed", "displaced_squeezed", "sinusoid")

#: Probability floor when converting P(1-P)/shots into weights.
_P_FLOOR = 1e-3

#: MINPACK's bound on the first Levenberg-Marquardt step, factor * ||D x||
#: with D the column norms of J: the low end of the documented (0.1, 100).
_LM_STEP_FACTOR = 0.1

#: Seed of the random perturbations that make `fit_state_model`'s later starts.
_START_SEED = 0


@dataclass(frozen=True)
class RabiTrace:
    """Sideband Rabi record: times (s), measured P_down, shots per point."""

    times: np.ndarray
    pdown: np.ndarray
    shots_per_point: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pdown = np.asarray(self.pdown, dtype=float)
        if times.shape != pdown.shape or times.ndim != 1:
            raise DimensionMismatchError("times and pdown must be equal-length vectors")
        if times.size == 0:
            raise ValueError("trace has no rows")
        bad = np.flatnonzero(~((pdown >= 0.0) & (pdown <= 1.0)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"trace row {i + 1} (t = {times[i] * 1e6:g} us): p_down = "
                             f"{float(pdown[i])!r} is not a probability in [0, 1]")
        if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be finite and strictly increasing")
        if self.shots_per_point < 1:
            raise ValueError("shots_per_point must be >= 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pdown", pdown)

    def to_csv(self):
        """CSV with header t_us,p_down,shots."""
        buf = io.StringIO()
        buf.write("t_us,p_down,shots\n")
        for t, p in zip(self.times, self.pdown):
            buf.write(f"{t * 1e6:.12g},{p:.12g},{self.shots_per_point}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != "t_us,p_down,shots":
            raise ValueError("trace CSV must start with header t_us,p_down,shots")
        times, pdown, shots = [], [], []
        for row, ln in enumerate(lines[1:], start=1):
            try:
                t_us, p, s = ln.split(",")
                times.append(float(t_us) * 1e-6)
                pdown.append(float(p))
                shots.append(int(s))
            except ValueError as exc:
                raise ValueError(f"trace row {row} ({ln.strip()!r}) needs the numbers "
                                 f"t_us,p_down,shots: {exc}") from None
        if len(set(shots)) != 1:
            raise ValueError("trace CSV must hold at least one row, all with one shots value")
        return cls(np.array(times), np.array(pdown), shots[0])


@dataclass(frozen=True)
class FitResult:
    """Fit output: named parameters, covariance, stderr, residual norm."""

    model_tag: str
    param_names: tuple
    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float

    def __post_init__(self):
        if self.model_tag not in MODEL_TAGS:
            raise ValueError(f"unknown model_tag {self.model_tag!r}")
        params = np.asarray(self.params, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        k = params.size
        if cov.shape != (k, k) or len(self.param_names) != k:
            raise DimensionMismatchError("params, names, and covariance sizes disagree")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "param_names", tuple(self.param_names))

    @property
    def stderr(self):
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def param(self, name):
        return float(self.params[self.param_names.index(name)])

    def error(self, name):
        return float(self.stderr[self.param_names.index(name)])

    def to_json(self):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "model_tag": self.model_tag,
            "params": {n: float(v) for n, v in zip(self.param_names, self.params)},
            "stderr": {n: float(v) for n, v in zip(self.param_names, self.stderr)},
            "param_order": list(self.param_names),
            "covariance_row_major": [float(v) for v in self.covariance.ravel()],
            "residual_norm": float(self.residual_norm),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported fit-result schema version")
        names = tuple(payload["param_order"])
        params = np.array([payload["params"][n] for n in names])
        k = len(names)
        cov = np.array(payload["covariance_row_major"], dtype=float).reshape(k, k)
        return cls(payload["model_tag"], names, params, cov, payload["residual_norm"])


def nyquist_check(times, omega, nmax):
    """Reject sampling too coarse for the fastest component Omega sqrt(nmax+1)."""
    dt = float(np.max(np.diff(np.asarray(times, dtype=float))))
    limit = math.pi / (omega * math.sqrt(nmax + 1.0))
    if dt > limit:
        raise ValueError(
            f"sampling interval {dt:.3e} s exceeds the Nyquist limit {limit:.3e} s "
            f"for n up to {nmax}"
        )


def _binomial_sigma(p, shots):
    p = np.clip(np.asarray(p, dtype=float), _P_FLOOR, 1.0 - _P_FLOOR)
    return np.sqrt(p * (1.0 - p) / shots)


def _weighted_design(trace, omega, gamma, nmax):
    """Shot-noise weighted design A and data b: A @ populations ~ b, with
    A = Re(E)/2 / sigma, so that P_down(t) - 1/2 = Re(E) populations / 2."""
    sigma = _binomial_sigma(trace.pdown, trace.shots_per_point)
    A = 0.5 * spinmotion.bsb_phasors(trace.times, omega, gamma, nmax)[0].real / sigma[:, None]
    return A, (trace.pdown - 0.5) / sigma


def _kkt_residual(A, b, x):
    """KKT residual of x for min ||Ax-b||^2 s.t. x >= 0, sum(x) <= 1.

    With grad = 2 A^T (Ax - b), stationarity is grad_i = -lam on the free
    set and grad_i >= -lam at zero, with lam >= 0 the multiplier of the sum
    constraint: the mean of -grad over the free set when the sum is active,
    else 0.  Weighted designs can be huge, so the residual is relative to
    max(2, max|2 A^T b|).
    """
    grad = 2 * (A.T @ (A @ x - b))
    scale = max(2.0, float(np.max(np.abs(2 * (A.T @ b)))))
    free = x > 1e-12
    lam = max(0.0, -float(np.mean(grad[free]))) if x.sum() >= 1.0 - 1e-10 else 0.0
    viol = (grad + lam) / scale
    return float(max(np.max(np.abs(viol[free]), initial=0.0), -np.min(viol[~free], initial=0.0)))


def extract_populations(trace, omega, gamma, nmax):
    """Nonnegative Fock populations from a sideband Rabi trace.

    Solves the linear model P_down(t) - 1/2 = sum_n p_n M_n(t), weighted by
    shot noise, as min ||Ap - b|| subject to p >= 0 and sum p <= 1, exactly
    with at most two NNLS calls.  First p = NNLS(A, b); if its sum is at
    most 1 it is optimal.  Otherwise, by convexity, the optimum lies on the
    face sum p = 1, where Ap - b = Bp with B = A - b 1^T.  For y = t p with
    p on that face and t >= 0, ||[B; 1^T] y - e||^2 = t^2 ||Bp||^2 + (t-1)^2
    (e = (0, ..., 0, 1)), whose minimum over t, ||Bp||^2 / (1 + ||Bp||^2),
    grows with ||Bp||; so y = NNLS([B; 1^T], e) gives the optimum p = y /
    sum(y).  Raises ConvergenceError if the KKT residual of the result
    exceeds 1e-8.
    """
    nyquist_check(trace.times, omega, nmax)
    A, b = _weighted_design(trace, omega, gamma, nmax)
    if np.linalg.matrix_rank(A) < min(A.shape) // 2:
        raise ValueError("design matrix is badly rank-deficient; add time points")
    x, _ = scipy.optimize.nnls(A, b)
    if x.sum() > 1.0:
        face = np.vstack([A - b[:, None], np.ones((1, nmax))])
        y, _ = scipy.optimize.nnls(face, np.append(np.zeros(b.size), 1.0))
        x = y / y.sum()
    kkt = _kkt_residual(A, b, x)
    if kkt > 1e-8:
        raise ConvergenceError(f"population fit KKT residual {kkt:.2e} > 1e-8")
    resid = A @ x - b
    cov = _pinv_covariance(A, free=x > 1e-12)
    names = tuple(f"p{n}" for n in range(nmax))
    return FitResult("unconstrained", names, x, cov, float(np.linalg.norm(resid)))


def _pinv_covariance(J, free=None):
    """(J^T J)^{-1} on the free columns, zero elsewhere (J already weighted)."""
    k = J.shape[1]
    cov = np.zeros((k, k))
    if free is None:
        free = np.ones(k, dtype=bool)
    idx = np.flatnonzero(free)
    if idx.size:
        block = J[:, idx]
        cov[np.ix_(idx, idx)] = np.linalg.pinv(block.T @ block)
    return cov


_MODEL_PARAMS = {
    "coherent": ("alpha",),
    "squeezed": ("r",),
    "displaced_squeezed": ("alpha", "r", "theta"),
}


#: Parameters that enter the model only through their magnitude.
_SIGN_SYMMETRIC = ("alpha", "r", "gamma")


def _sign(v):
    """d|v|/dv, taken as +1 at v = 0 (the one-sided derivative from above)."""
    return -1.0 if v < 0 else 1.0


def model_populations(model, params, nmax):
    """Ideal Fock populations of the named state model and their Jacobian.

    Returns (P, dP/dparams), of shapes (nmax,) and (nmax, len(params)).  The
    sign-symmetric parameters enter through |alpha| and |r|.
    """
    if model not in _MODEL_PARAMS:
        raise ValueError(f"unknown state model {model!r}")
    names = _MODEL_PARAMS[model]
    if len(params) != len(names):
        raise ValueError(f"{model} takes parameters {names}, got {len(params)} values")
    vals = dict(zip(names, params))
    alpha, r, theta = vals.get("alpha", 0.0), vals.get("r", 0.0), vals.get("theta", 0.0)
    pops, dpops = gaussian.displaced_squeezed_populations(
        gaussian.Displacement(abs(alpha)), gaussian.SqueezeParam(abs(r), theta), nmax, jac=True
    )
    cols = [("alpha", "r", "theta").index(n) for n in names]
    signs = [_sign(vals[n]) if n in _SIGN_SYMMETRIC else 1.0 for n in names]
    return pops, dpops[:, cols] * signs


class TraceResiduals:
    """Weighted residuals of a state model on a Rabi trace, with their Jacobian.

    The model signal is 1/2 + M(omega, gamma) P(state), with M the design
    matrix of `extract_populations` and P from `model_populations`.  With
    E = exp((-gamma + i omega) sqrt(n+1) t) from `spinmotion.bsb_phasors`,
    M = Re(E)/2 and the Jacobian is analytic: d/domega = -(sqrt(n+1) t Im E)
    P/2, d/dgamma = -sign(gamma) (sqrt(n+1) t Re E) P/2 and d/dstate =
    M dP/dstate.  One model evaluation
    at x serves both the residual and the Jacobian there.  At the zero of a
    sign-symmetric parameter the Jacobian takes the derivative from above,
    so a fit started there can still move it.

    `names` orders the fitted parameters: the state's, then omega and gamma.
    """

    def __init__(self, trace, model, init, nmax):
        if model not in _MODEL_PARAMS:
            raise ValueError(f"unknown state model {model!r}")
        self.model = model
        self.nmax = nmax
        self.names = _MODEL_PARAMS[model] + ("omega", "gamma")
        missing = [n for n in self.names if n not in init]
        if missing:
            raise ValueError(f"init missing parameters: {missing}")
        self.x0 = np.array([init[n] for n in self.names], dtype=float)
        self.times = trace.times
        self.pdown = trace.pdown
        self.sigma = _binomial_sigma(trace.pdown, trace.shots_per_point)
        self._key = self._cached = None

    def _evaluate(self, x):
        key = np.asarray(x, dtype=float).tobytes()
        if key != self._key:
            *state, omega, gamma = x
            pops, dpops = model_populations(self.model, state, self.nmax)
            E, root_t = spinmotion.bsb_phasors(self.times, omega, abs(gamma), self.nmax)
            self._key, self._cached = key, (pops, dpops, E, root_t, gamma)
        return self._cached

    def __call__(self, x):
        pops, _, E, _, _ = self._evaluate(x)
        return (0.5 + 0.5 * (E.real @ pops) - self.pdown) / self.sigma

    def jac(self, x):
        pops, dpops, E, root_t, gamma = self._evaluate(x)
        cols = [0.5 * (E.real @ dpops),
                -0.5 * ((root_t * E.imag) @ pops)[:, None],
                -0.5 * _sign(gamma) * ((root_t * E.real) @ pops)[:, None]]
        return np.hstack(cols) / self.sigma[:, None]


def fit_state_model(trace, model, init, nmax=None, n_starts=5):
    """Nonlinear least-squares fit of a parameterized state to a Rabi trace.

    `init` maps parameter names to finite starting values and must include
    the state parameters plus omega and gamma (shared nuisance parameters,
    fitted with them).  Multi-start Levenberg-Marquardt
    (MINPACK lmder) with the analytic Jacobian of `TraceResiduals`, scaled
    by its column norms.  The first step is bounded by 0.1 ||D x||, the low
    end of MINPACK's documented range, not the 100 ||D x|| of
    `scipy.optimize.least_squares`: a first step up to 100 times the
    start's scaled size can throw a start far outside the region where the
    truncated model means anything, to crawl there for hundreds of
    evaluations.  A
    start converges when MINPACK's `ier` is 1-4; the lowest-residual
    converged start wins, index order breaking ties.  Each start logs one
    DEBUG record whose attributes `model`, `start`, `nfev`, `cost` and
    `ier` say how it ended (None where the start raised).  alpha, r and
    gamma are reported as magnitudes and theta folded into [0, pi], with the
    covariance there.  Raises ConvergenceError, listing each start's
    reason, when no start converges.
    """
    bad = sorted(n for n, v in init.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"init values must be finite: {bad}")
    if nmax is None:
        nmax = _default_nmax(model, init)
    residuals = TraceResiduals(trace, model, init, nmax)
    nyquist_check(trace.times, init["omega"] * 1.2, nmax)

    rng = np.random.default_rng(_START_SEED)
    x0 = residuals.x0
    best = None
    failures = []
    for start in range(max(n_starts, 1)):
        if start == 0:
            guess = x0.copy()
        else:
            # additive where the start is 0: every population is stationary
            # in alpha at 0 and in theta at 0, so no gradient leaves there
            u = rng.uniform(-1, 1, size=x0.size)
            guess = x0 * (1.0 + 0.2 * u) + 0.2 * u * (x0 == 0)
        try:
            x, _, info, message, ier = scipy.optimize.leastsq(
                residuals, guess, Dfun=residuals.jac, full_output=True,
                xtol=1e-14, ftol=1e-14, gtol=1e-8, maxfev=4000, factor=_LM_STEP_FACTOR,
            )
        except (ValueError, SqueezeAmpError) as exc:
            failures.append(f"start {start}: {type(exc).__name__}: {exc}")
            _log.debug("%s start %d raised %s: %s", model, start, type(exc).__name__, exc,
                       extra=dict(model=model, start=start, nfev=None, cost=None, ier=None))
            continue
        fun = info["fvec"]
        cost = 0.5 * np.dot(fun, fun)
        record = dict(model=model, start=start, nfev=int(info["nfev"]), cost=float(cost), ier=ier)
        _log.debug("%s start %d: ier %d after %d evaluations, cost %.6g", model, start, ier,
                   record["nfev"], cost, extra=record)
        if ier not in (1, 2, 3, 4):
            failures.append(f"start {start}: ier {ier}: {' '.join(message.split())}")
            continue
        if best is None or cost < best[0] - 1e-15:
            best = cost, x, fun
    if best is None:
        raise ConvergenceError(
            f"{model} fit failed to converge from {n_starts} starts: " + "; ".join(failures)
        )
    _, x, fun = best
    # report magnitudes for sign-symmetric parameters, and theta folded into
    # [0, pi] since the populations are 2 pi-periodic and even in theta, with
    # the covariance taken there: the residuals do not change, J's columns
    # at most flip sign
    params = np.array([abs(v) if n in _SIGN_SYMMETRIC
                       else abs(math.remainder(v, 2 * math.pi)) if n == "theta" else v
                       for n, v in zip(residuals.names, x)])
    cov = _state_covariance(residuals, params, fun)
    return FitResult(model, residuals.names, params, cov, float(np.linalg.norm(fun)))


def _state_covariance(residuals, x, r):
    """Parameter covariance at an optimum x with weighted residuals r.

    (J^T J)^{-1} unless J^T J misses the curvature of some direction, in
    which case the inverse of the full Hessian of the cost |r|^2/2,
    H = J^T J + sum_i r_i Hess(r_i), is used instead (Nocedal and Wright,
    Numerical Optimization, 2nd ed., sec. 10.3).  The test runs in the
    coordinates where H has a unit diagonal, so it does not depend on the
    parameters' units: there, the smallest eigenvalue of J^T J must reach
    sqrt(eps) times its largest.  J's own column norms would not do as the
    scale: at theta = 0 every population is stationary in theta, so J's theta
    column is ~theta while H's curvature in theta is not, and normalizing
    that column would hide the missing curvature.

    Hess(r_i) comes from central differences of the analytic Jacobian.
    """
    eps = np.finfo(float).eps
    J = residuals.jac(x)
    H = J.T @ J
    for k in range(x.size):
        h = eps ** (1 / 3) * max(abs(x[k]), 1.0)
        step = np.zeros(x.size)
        step[k] = h
        dJ = (residuals.jac(x + step) - residuals.jac(x - step)) / (2 * h)
        H[:, k] += dJ.T @ r
    H = 0.5 * (H + H.T)
    d = np.sqrt(np.where(np.diag(H) > 0, np.diag(H), np.sum(J**2, axis=0)))
    Js = J / np.where(d > 0, d, 1.0)
    curv = np.linalg.eigvalsh(Js.T @ Js)
    if curv[0] >= math.sqrt(eps) * curv[-1]:
        return _pinv_covariance(J)
    return _hessian_covariance(H)


def _hessian_covariance(H):
    """H^{-1} for a symmetric Hessian, with infinite variance along flat directions.

    An eigendirection of the Jacobi-scaled H without positive curvature
    (eigenvalue below sqrt(eps) times the largest) has no finite variance:
    every parameter it moves gets an infinite variance and undefined (NaN)
    covariances.
    """
    tol = math.sqrt(np.finfo(float).eps)
    diag = np.diag(H)
    d = np.sqrt(np.where(diag > 0, diag, 1.0))
    w, V = np.linalg.eigh(H / np.outer(d, d))
    flat = w <= tol * max(w[-1], 0.0)
    pos = ~flat
    cov = (V[:, pos] / w[pos]) @ V[:, pos].T / np.outer(d, d)
    loose = np.sum(V[:, flat] ** 2, axis=1) > tol
    cov[loose, :] = np.nan
    cov[:, loose] = np.nan
    cov[loose, loose] = np.inf
    return cov


def _default_nmax(model, init):
    alpha = abs(init.get("alpha", 0.0))
    r = abs(init.get("r", 0.0))
    try:
        need = 10.0 * math.sinh(r) ** 2 + 4.0 * alpha**2 + 8 * alpha + 25.0
    except OverflowError:
        raise ValueError(f"no Fock truncation holds alpha = {alpha:g}, r = {r:g}") from None
    return int(math.ceil(need))


def fit_sinusoid(phis, pdown, shots):
    """Weighted linear fit of P_down(phi) = b + a cos(phi).

    The sign of `a` follows the data; |a| is the half-contrast.
    """
    phis = np.asarray(phis, dtype=float)
    pdown = np.asarray(pdown, dtype=float)
    if phis.size < 3 or np.unique(np.round(phis % math.pi, 12)).size < 2:
        raise ValueError("need at least 3 phases not all equal modulo pi")
    X = np.column_stack([np.ones_like(phis), np.cos(phis)])
    sigma = _binomial_sigma(pdown, shots)
    Xw = X / sigma[:, None]
    yw = pdown / sigma
    if np.linalg.matrix_rank(Xw) < 2:
        raise ValueError("phase design is rank-deficient (cos(phi) constant)")
    coef, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    cov = np.linalg.inv(Xw.T @ Xw)
    resid = Xw @ coef - yw
    return FitResult("sinusoid", ("b", "a"), coef, cov, float(np.linalg.norm(resid)))


def contrast_and_noise(pmax, pmin, shots):
    """Fringe contrast C = pmax - pmin and its projection-noise uncertainty."""
    for p in (pmax, pmin):
        if not 0.0 <= p <= 1.0:
            raise ValueError("fringe probabilities must lie in [0, 1]")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    c = pmax - pmin
    var = (pmax * (1 - pmax) + pmin * (1 - pmin)) / shots
    return c, math.sqrt(var)


def snr_and_enhancement(c_amp, c_ref, shots):
    """Signal-to-noise ratios of two contrasts and their ratio in dB.

    SNR uses the projection noise of a fringe centered at 1/2; the
    enhancement 20 log10(C_amp / C_ref) is the linear-regime sensitivity
    gain bound.
    """
    if c_ref <= 0:
        raise ValueError("reference contrast must be positive")
    pmax_a, pmin_a = 0.5 + c_amp / 2, 0.5 - c_amp / 2
    pmax_r, pmin_r = 0.5 + c_ref / 2, 0.5 - c_ref / 2
    _, sig_a = contrast_and_noise(pmax_a, pmin_a, shots)
    _, sig_r = contrast_and_noise(pmax_r, pmin_r, shots)
    s_amp = c_amp / sig_a
    s_ref = c_ref / sig_r
    return s_amp, s_ref, 20.0 * math.log10(c_amp / c_ref)


HBAR = 1.054571817e-34
AMU = 1.66053906892e-27
BOHR_RADIUS = 5.29177210544e-11


def zero_point_extent(mass_amu, omega_r):
    """Ground-state position spread x0 = sqrt(hbar / (2 m omega_r)) in meters."""
    if mass_amu <= 0 or omega_r <= 0:
        raise ValueError("mass and frequency must be positive")
    return math.sqrt(HBAR / (2.0 * mass_amu * AMU * omega_r))


def alpha_to_length(alpha_abs, mass_amu, omega_r):
    """Physical displacement 2 x0 |alpha| in meters."""
    if alpha_abs < 0:
        raise ValueError("alpha_abs must be >= 0")
    return 2.0 * zero_point_extent(mass_amu, omega_r) * alpha_abs
