import json
import logging
import math

import numpy as np
import pytest
import scipy.optimize

from squeezeamp import fitting
from squeezeamp.errors import ConvergenceError, DimensionMismatchError
from squeezeamp.fitting import (
    BOHR_RADIUS,
    FitResult,
    RabiTrace,
    TraceResiduals,
    _hessian_covariance,
    alpha_to_length,
    contrast_and_noise,
    extract_populations,
    fit_sinusoid,
    fit_state_model,
    model_populations,
    nyquist_check,
    snr_and_enhancement,
    zero_point_extent,
)
from squeezeamp.gaussian import Displacement, SqueezeParam, displaced_squeezed_populations
from squeezeamp.spinmotion import bsb_signal

OM = 2 * math.pi * 1.1e3
WR = 2 * math.pi * 6.3e6
TIMES = np.arange(1, 301) * 1e-5  # 10 us steps to 3 ms


def synthetic_trace(pops, gamma=60.0, shots=300, times=TIMES, rng=None):
    sig = bsb_signal(pops, OM, gamma, times)
    if rng is not None:
        sig = rng.binomial(shots, np.clip(sig, 0, 1)) / shots
    return RabiTrace(times, sig, shots)


def kkt_residual(trace, nmax, x, gamma=60.0):
    A, b = fitting._weighted_design(trace, OM, gamma, nmax)
    return fitting._kkt_residual(A, b, x)


def lsi_ldp_populations(A, b):
    """min ||Ax - b|| s.t. x >= 0, sum(x) <= 1 by the LSI -> LDP -> NNLS
    reduction (Lawson & Hanson, Solving Least Squares Problems, ch. 23).

    A test-only oracle: it needs S^-1 of A = U S V^T.  On the nmax 40 test
    trace (cond 7.8e7) it returns a population of -2.3e-4, and on the
    nmax 60 one (cond 1.2e15) populations of +-1.4e10, so it is kept out of
    the package and used here only on well-conditioned designs.
    """
    n = A.shape[1]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    G = np.vstack([np.eye(n), -np.ones((1, n))])  # G x >= h
    h = np.append(np.zeros(n), -1.0)
    E = G @ (Vt.T / s)
    f = h - E @ (U.T @ b)
    # least distance: min ||z|| s.t. E z >= f, with x = V S^-1 (z + U^T b)
    M = np.vstack([E.T, f])
    e = np.append(np.zeros(n), 1.0)
    u, _ = scipy.optimize.nnls(M, e)
    r = M @ u - e
    z = -r[:n] / r[n]
    return Vt.T @ ((z + U.T @ b) / s)


class TestRabiTrace:
    def test_csv_round_trip(self):
        tr = synthetic_trace([1.0])
        tr2 = RabiTrace.from_csv(tr.to_csv())
        assert np.allclose(tr2.times, tr.times, rtol=1e-12)
        assert np.allclose(tr2.pdown, tr.pdown, rtol=1e-12)
        assert tr2.shots_per_point == 300

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            RabiTrace([1e-5, 2e-5], [0.5], 100)
        with pytest.raises(ValueError):
            RabiTrace([2e-5, 1e-5], [0.5, 0.5], 100)

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            RabiTrace.from_csv("time,p,down\n1,0.5,100\n")


class TestFitResultSerialization:
    def test_json_round_trip(self):
        res = FitResult(
            "coherent", ("alpha", "omega"), [0.2, OM], np.diag([1e-4, 1.0]), 0.5
        )
        payload = json.loads(res.to_json())
        assert payload["model_tag"] == "coherent"
        assert payload["params"]["alpha"] == 0.2
        assert payload["stderr"]["alpha"] == pytest.approx(1e-2)
        cov = np.reshape(payload["covariance_row_major"], (2, 2))
        assert np.allclose(cov, res.covariance)

    def test_stderr_is_sqrt_diagonal(self):
        res = FitResult("sinusoid", ("b", "a"), [0.5, 0.1], np.diag([4e-6, 9e-6]), 0.0)
        assert res.stderr == pytest.approx([2e-3, 3e-3])


class TestNyquist:
    def test_passes_fine_sampling(self):
        nyquist_check(TIMES, OM, 200)

    def test_rejects_coarse_sampling(self):
        with pytest.raises(ValueError):
            nyquist_check(np.arange(1, 10) * 1e-3, OM, 200)


class TestExtractPopulations:
    def test_ground_state_recovery(self):
        tr = synthetic_trace([1.0])
        res = extract_populations(tr, OM, 60.0, 8)
        assert res.param("p0") == pytest.approx(1.0, abs=1e-6)
        assert res.params[1:].max() < 1e-6
        assert kkt_residual(tr, 8, res.params) <= 1e-12

    def test_exact_recovery_of_mixture(self):
        mix = np.zeros(12)
        mix[[0, 2, 5]] = [0.3, 0.5, 0.15]
        tr = synthetic_trace(mix)
        res = extract_populations(tr, OM, 60.0, 12)
        assert np.max(np.abs(res.params - mix)) < 1e-10
        assert res.residual_norm < 1e-10
        assert kkt_residual(tr, 12, res.params) <= 1e-12

    def test_coherent_populations_match(self):
        pops = displaced_squeezed_populations(Displacement(0.5), SqueezeParam(0.0), 10)
        tr = synthetic_trace(pops)
        res = extract_populations(tr, OM, 60.0, 10)
        assert np.max(np.abs(res.params - pops)) < 1e-4
        assert kkt_residual(tr, 10, res.params) <= 1e-12

    def test_nonnegativity_and_budget_with_noise(self):
        pops = displaced_squeezed_populations(Displacement(0.0), SqueezeParam(1.2), 40)
        rng = np.random.default_rng(7)
        tr = synthetic_trace(pops, rng=rng)
        res = extract_populations(tr, OM, 60.0, 40)
        assert np.all(res.params >= 0)
        assert res.params.sum() <= 1.0 + 1e-9
        assert kkt_residual(tr, 40, res.params) <= 1e-12

    def test_converges_when_budget_constraint_binds(self):
        # noisy short-trace case where the sum(p) = 1 face stays active at
        # the optimum; regression for an active-set sign error that cycled
        pops = displaced_squeezed_populations(Displacement(0.83), SqueezeParam(0.0), 24)
        for seed in range(7, 15):
            rng = np.random.default_rng(seed)
            tr = synthetic_trace(pops, rng=rng)
            res = extract_populations(tr, OM, 60.0, 12)
            assert np.all(res.params >= 0)
            assert res.params.sum() <= 1.0 + 1e-9
            assert abs(res.param("p0") - pops[0]) < 0.05
            assert kkt_residual(tr, 12, res.params) <= 1e-12

    def test_squeezed_monte_carlo_within_3_sigma(self):
        pops = displaced_squeezed_populations(Displacement(0.0), SqueezeParam(2.23), 300)
        rng = np.random.default_rng(12)
        tr = synthetic_trace(pops, rng=rng)
        res = extract_populations(tr, OM, 60.0, 60)
        err = np.sqrt(np.clip(np.diag(res.covariance), 1e-12, None))
        pulls = (res.params[:12] - pops[:12]) / np.maximum(err[:12], 1e-3)
        assert np.max(np.abs(pulls)) < 3.5
        assert kkt_residual(tr, 60, res.params) <= 1e-12

    def test_matches_the_lsi_ldp_oracle(self):
        mix = np.zeros(12)
        mix[[0, 2, 5]] = [0.3, 0.5, 0.15]
        traces = [synthetic_trace(mix)]
        pops = displaced_squeezed_populations(Displacement(0.83), SqueezeParam(0.0), 24)
        traces += [synthetic_trace(pops, rng=np.random.default_rng(seed)) for seed in range(7, 15)]
        binding = 0
        for tr in traces:
            A, b = fitting._weighted_design(tr, OM, 60.0, 12)
            assert np.linalg.cond(A) < 10
            x = extract_populations(tr, OM, 60.0, 12).params
            assert np.max(np.abs(x - lsi_ldp_populations(A, b))) <= 1e-12
            binding += x.sum() >= 1.0 - 1e-10
        assert binding >= 6  # the budget-active face is exercised

    def test_kkt_residual_flags_perturbed_points(self):
        pops = displaced_squeezed_populations(Displacement(0.83), SqueezeParam(0.0), 24)
        tr = synthetic_trace(pops, rng=np.random.default_rng(7))
        x = extract_populations(tr, OM, 60.0, 12).params
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert kkt_residual(tr, 12, x) <= 1e-12
        free = np.flatnonzero(x > 1e-3)
        moved = x.copy()
        moved[free[0]] += 1e-3
        moved[free[1]] -= 1e-3
        assert kkt_residual(tr, 12, moved) > 1e-8
        assert kkt_residual(tr, 12, 0.99 * x) > 1e-8

    def test_non_optimal_solver_point_raises(self, monkeypatch):
        def uniform(A, b, **_):
            return np.full(A.shape[1], 0.5 / A.shape[1]), 0.0

        monkeypatch.setattr(fitting.scipy.optimize, "nnls", uniform)
        with pytest.raises(ConvergenceError, match="KKT residual"):
            extract_populations(synthetic_trace([1.0]), OM, 60.0, 8)


class TestStateModelFits:
    def test_coherent_round_trip(self):
        pops = displaced_squeezed_populations(Displacement(0.200), SqueezeParam(0.0), 20)
        tr = synthetic_trace(pops)
        res = fit_state_model(tr, "coherent", {"alpha": 0.15, "omega": OM * 1.03, "gamma": 45.0})
        assert res.param("alpha") == pytest.approx(0.200, abs=1e-4)

    def test_squeezed_round_trip(self):
        pops = displaced_squeezed_populations(Displacement(0.0), SqueezeParam(2.26), 400)
        tr = synthetic_trace(pops)
        res = fit_state_model(tr, "squeezed", {"r": 2.0, "omega": OM * 1.02, "gamma": 50.0})
        assert res.param("r") == pytest.approx(2.26, abs=1e-3)

    def test_large_coherent_round_trip(self):
        pops = displaced_squeezed_populations(Displacement(1.83), SqueezeParam(0.0), 40)
        tr = synthetic_trace(pops)
        res = fit_state_model(tr, "coherent", {"alpha": 1.5, "omega": OM * 0.97, "gamma": 70.0})
        assert res.param("alpha") == pytest.approx(1.83, abs=1e-3)

    def test_displaced_squeezed_round_trip(self):
        pops = displaced_squeezed_populations(Displacement(0.4), SqueezeParam(0.8, 0.0), 60)
        tr = synthetic_trace(pops)
        init = {"alpha": 0.45, "r": 0.7, "theta": 0.0, "omega": OM, "gamma": 60.0}
        res = fit_state_model(tr, "displaced_squeezed", init)
        assert res.param("alpha") == pytest.approx(0.4, abs=2e-3)
        assert res.param("r") == pytest.approx(0.8, abs=2e-3)

    def test_perturbed_starts_recover(self):
        # +-20% perturbed start per the identifiability property
        pops = displaced_squeezed_populations(Displacement(0.0), SqueezeParam(1.5), 120)
        tr = synthetic_trace(pops)
        res = fit_state_model(
            tr, "squeezed", {"r": 1.5 * 1.2, "omega": OM * 0.8, "gamma": 60.0 * 1.2}
        )
        assert res.param("r") == pytest.approx(1.5, rel=1e-3)

    @pytest.mark.parametrize("model, truth, start", [
        ("coherent", {"alpha": 0.8}, {"alpha": 0.7, "gamma": 0.0}),
        ("coherent", {"alpha": 0.8}, {"alpha": 0.0, "gamma": 60.0}),
        ("displaced_squeezed", {"alpha": 0.5, "r": 0.75, "theta": 1.3},
         {"alpha": 0.45, "r": 0.0, "theta": 1.2, "gamma": 60.0}),
        ("displaced_squeezed", {"alpha": 0.5, "r": 0.75, "theta": 1.3},
         {"alpha": 0.0, "r": 0.7, "theta": 1.2, "gamma": 60.0}),
        # the fit command's default start
        ("displaced_squeezed", {"alpha": 0.5, "r": 0.75, "theta": 1.3},
         {"alpha": 0.5, "r": 1.0, "theta": 0.0, "gamma": 60.0}),
    ])
    def test_start_at_zero_moves(self, model, truth, start):
        # gamma, and r when alpha != 0, enter linearly through their
        # magnitudes; every population is stationary in alpha at 0 and in
        # theta at 0.  A start at exactly 0 must not pin any of them there.
        pops = model_populations(model, list(truth.values()), 40)[0]
        tr = synthetic_trace(pops)
        res = fit_state_model(tr, model, dict(start, omega=OM))
        for name, want in dict(truth, gamma=60.0).items():
            got = res.param(name)
            if name == "theta":
                # populations are even in theta when alpha is real
                got = abs(math.remainder(got, 2 * math.pi))
            assert got == pytest.approx(want, rel=1e-4), name
        assert np.all(np.isfinite(res.stderr)) and np.all(res.stderr > 0)

    def test_theta_reported_in_zero_to_pi(self):
        # Started at alpha = 0, this fit ends at theta = 55.25, which is -1.30
        # modulo 2 pi: the populations are 2 pi-periodic and even in theta.
        pops = model_populations("displaced_squeezed", [0.5, 0.75, 1.3], 40)[0]
        tr = synthetic_trace(pops)
        init = {"alpha": 0.0, "r": 0.7, "theta": 1.2, "omega": OM, "gamma": 60.0}
        res = fit_state_model(tr, "displaced_squeezed", init)
        assert res.param("theta") == pytest.approx(1.3, rel=1e-4)
        # the covariance is the one at the reported theta: at -1.30 the theta
        # row would change sign off the diagonal
        residuals = TraceResiduals(tr, "displaced_squeezed", init,
                                   fitting._default_nmax("displaced_squeezed", init))
        cov = fitting._state_covariance(residuals, res.params, residuals(res.params))
        std = np.sqrt(np.diag(cov))
        assert np.max(np.abs(res.covariance - cov) / np.outer(std, std)) < 1e-9

    def test_monte_carlo_stderr_calibration(self):
        # empirical spread of alpha-hat vs mean reported stderr within 30%
        pops = displaced_squeezed_populations(Displacement(0.5), SqueezeParam(0.0), 16)
        fits, errs = [], []
        times = np.arange(1, 81) * 2e-5
        for rep in range(200):
            rng = np.random.default_rng(1000 + rep)
            tr = synthetic_trace(pops, shots=300, times=times, rng=rng)
            res = fit_state_model(
                tr, "coherent", {"alpha": 0.5, "omega": OM, "gamma": 60.0}, n_starts=1
            )
            fits.append(res.param("alpha"))
            errs.append(res.error("alpha"))
        empirical = float(np.std(fits, ddof=1))
        reported = float(np.mean(errs))
        assert abs(empirical - reported) / empirical < 0.30

    def test_jacobian_consistency(self):
        # analytic Jacobian vs central differences of the residual, rebuilt
        # here from model_populations and bsb_signal
        nmax = 24
        for model, truth in (
            ("coherent", {"alpha": 0.8}),
            ("squeezed", {"r": 0.7}),
            ("displaced_squeezed", {"alpha": 0.5, "r": 0.75, "theta": 1.3}),
        ):
            pops = model_populations(model, list(truth.values()), nmax)[0]
            tr = synthetic_trace(pops, times=TIMES[:120], rng=np.random.default_rng(3))
            res = TraceResiduals(tr, model, dict(truth, omega=OM * 1.01, gamma=55.0), nmax)
            assert res.names == tuple(truth) + ("omega", "gamma")
            n_state = len(truth)

            def resid(vec):
                p = model_populations(model, vec[:n_state], nmax)[0]
                return bsb_signal(p, vec[n_state], abs(vec[n_state + 1]), tr.times) - tr.pdown

            # a generic point, one with negative sign-symmetric parameters,
            # and one at gamma = 0
            points = [res.x0, res.x0 * np.array([-1.0] * n_state + [1.0, -1.0]),
                      res.x0 * np.array([1.0] * n_state + [1.0, 0.0])]
            if "r" in truth:
                for r in (0.0, 1e-6):
                    x = res.x0.copy()
                    x[list(truth).index("r")] = r
                    points.append(x)
            if "theta" in truth:
                x = res.x0.copy()
                x[2] = 0.0
                points.append(x)
            for x in points:
                jac = res.jac(x) * res.sigma[:, None]
                if "theta" in truth and x[1] == 0:
                    # theta has no meaning at r = 0; a roundoff-sized column
                    # would set LM's column-norm scale for theta to ~1e-15
                    assert np.all(jac[:, 2] == 0)
                assert np.allclose(res(x) * res.sigma, resid(x), rtol=0, atol=1e-14)
                fd = np.empty_like(jac)
                for k in range(x.size):
                    h = 1e-7 * max(abs(x[k]), 1.0)
                    step = np.zeros(x.size)
                    step[k] = h
                    if x[k] == 0 and res.names[k] in ("alpha", "r", "gamma"):
                        # the residual depends on |x_k|: compare with the
                        # one-sided (second-order) derivative from above
                        step *= 100
                        fd[:, k] = (4 * resid(x + step) - resid(x + 2 * step)
                                    - 3 * resid(x)) / (2 * step[k])
                    else:
                        fd[:, k] = (resid(x + step) - resid(x - step)) / (2 * h)
                # columns in units of a relative parameter change
                size = np.maximum(np.abs(x), 1.0)
                err = np.max(np.abs(jac - fd) * size) / np.max(np.abs(jac) * size)
                assert err < 1e-6, (model, x, err)


def _least_squares_fit_norm(trace, model, init, n_starts=5):
    """Best residual norm of the same multi-start fit run through
    scipy.optimize.least_squares(method="lm"): MINPACK lmder with the
    column-norm scaling, the tolerances and the starts of `fit_state_model`,
    but with its first step bounded by 100 ||D x||."""
    res = TraceResiduals(trace, model, init, fitting._default_nmax(model, init))
    rng = np.random.default_rng(fitting._START_SEED)
    best = math.inf
    for start in range(n_starts):
        if start == 0:
            guess = res.x0.copy()
        else:
            u = rng.uniform(-1, 1, size=res.x0.size)
            guess = res.x0 * (1.0 + 0.2 * u) + 0.2 * u * (res.x0 == 0)
        sol = scipy.optimize.least_squares(res, guess, jac=res.jac, method="lm", x_scale="jac",
                                           xtol=1e-14, ftol=1e-14, max_nfev=4000)
        if sol.success:
            best = min(best, float(np.linalg.norm(sol.fun)))
    return best


class TestFirstStepBound:
    MODELS = (("coherent", ((0.3, 1.5),)), ("squeezed", ((0.3, 1.2),)),
              ("displaced_squeezed", ((0.3, 0.8), (0.3, 0.9), (0.2, 1.5))))

    @pytest.mark.parametrize("case", range(30))
    def test_no_worse_than_least_squares(self, case):
        # Seeded shot-noise traces, started off the truth by up to 30 % in
        # the state and gamma and 8 % in omega: the bounded first step must
        # find an optimum at least as good as least_squares' 100 ||D x||.
        rng = np.random.default_rng([2024, case])
        model, ranges = self.MODELS[case % 3]
        truth = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        pops = model_populations(model, truth, 80)[0]
        times = np.arange(1, 151) * 2e-5
        tr = synthetic_trace(pops, times=times, rng=rng)
        state = truth * (1 + rng.uniform(-0.3, 0.3, truth.size))
        init = dict(zip(fitting._MODEL_PARAMS[model], state),
                    omega=OM * (1 + rng.uniform(-0.08, 0.08)),
                    gamma=60.0 * (1 + rng.uniform(-0.3, 0.3)))
        oracle = _least_squares_fit_norm(tr, model, init)
        assert math.isfinite(oracle)
        assert fit_state_model(tr, model, init).residual_norm <= oracle * (1 + 1e-9)

    def test_evaluation_budget(self, monkeypatch):
        # The TestRankDeficientErrorBars trace: a first step of 100 ||D x||
        # throws one start to theta ~ 700 and gamma ~ 2000, where it crawls
        # for ~800 evaluations (~990 for the whole fit); 0.1 ||D x|| needs
        # ~190 for the same optimum.
        calls = []

        def counted(model, params, nmax):
            calls.append(model)
            return model_populations(model, params, nmax)

        pops = model_populations("displaced_squeezed", [0.5, 0.8, 0.3], 64)[0]
        tr = synthetic_trace(pops, times=np.arange(1, 301) * 2e-5, rng=np.random.default_rng(7))
        init = {"alpha": 0.45, "r": 0.7, "theta": 0.2, "omega": OM, "gamma": 60.0}
        monkeypatch.setattr(fitting, "model_populations", counted)
        res = fit_state_model(tr, "displaced_squeezed", init)
        assert abs(math.remainder(res.param("theta"), 2 * math.pi)) < 1e-5
        assert len(calls) <= 300

    def test_logs_one_debug_record_per_start(self, caplog):
        pops = model_populations("squeezed", [0.7], 40)[0]
        tr = synthetic_trace(pops, rng=np.random.default_rng(3))
        with caplog.at_level(logging.DEBUG, logger=fitting.__name__):
            res = fit_state_model(tr, "squeezed", {"r": 0.6, "omega": OM, "gamma": 60.0})
        records = [r for r in caplog.records if r.name == fitting.__name__]
        assert [r.start for r in records] == list(range(5))
        for record in records:
            assert record.levelno == logging.DEBUG
            assert record.model == "squeezed"
            assert record.ier in (1, 2, 3, 4)
            assert isinstance(record.nfev, int) and record.nfev > 0
            assert record.getMessage().startswith(f"squeezed start {record.start}: ier ")
        assert min(r.cost for r in records) == pytest.approx(0.5 * res.residual_norm**2,
                                                             rel=1e-12)


class TestFitFailures:
    def test_every_start_failing_lists_each_reason(self, monkeypatch):
        def broken(model, params, nmax):
            raise ValueError("populations unavailable")

        monkeypatch.setattr(fitting, "model_populations", broken)
        tr = synthetic_trace([1.0])
        with pytest.raises(ConvergenceError) as info:
            fit_state_model(tr, "coherent", {"alpha": 0.2, "omega": OM, "gamma": 60.0})
        message = str(info.value)
        for start in range(5):
            assert f"start {start}: ValueError: populations unavailable" in message

    def test_raising_start_logs_a_record_without_figures(self, monkeypatch, caplog):
        def broken(model, params, nmax):
            raise ValueError("populations unavailable")

        monkeypatch.setattr(fitting, "model_populations", broken)
        with caplog.at_level(logging.DEBUG, logger=fitting.__name__), \
                pytest.raises(ConvergenceError):
            fit_state_model(synthetic_trace([1.0]), "coherent",
                            {"alpha": 0.2, "omega": OM, "gamma": 60.0}, n_starts=2)
        records = [r for r in caplog.records if r.name == fitting.__name__]
        assert [(r.start, r.nfev, r.cost, r.ier) for r in records] == [
            (0, None, None, None), (1, None, None, None)]

    def test_stopped_start_reports_ier_and_message(self, monkeypatch):
        def stalled(func, x0, **kwargs):
            message = "Number of calls to function has reached maxfev = 4000."
            return x0, None, {"fvec": func(x0), "nfev": 4000}, message, 5

        monkeypatch.setattr(scipy.optimize, "leastsq", stalled)
        with pytest.raises(ConvergenceError) as info:
            fit_state_model(synthetic_trace([1.0]), "coherent",
                            {"alpha": 0.2, "omega": OM, "gamma": 60.0}, n_starts=2)
        for start in range(2):
            assert (f"start {start}: ier 5: Number of calls to function has reached "
                    "maxfev = 4000.") in str(info.value)

    @pytest.mark.parametrize("init", [
        {"alpha": math.nan, "omega": OM, "gamma": 60.0},
        {"alpha": 0.2, "omega": math.inf, "gamma": 60.0},
        {"alpha": 0.2, "omega": OM, "gamma": -math.inf},
        {"alpha": 1e200, "omega": OM, "gamma": 60.0},
    ])
    def test_unusable_start_is_value_error(self, init):
        with pytest.raises(ValueError):
            fit_state_model(synthetic_trace([1.0]), "coherent", init)

    def test_unexpected_errors_propagate(self, monkeypatch):
        def broken(model, params, nmax):
            raise ZeroDivisionError("a bug, not a failed start")

        monkeypatch.setattr(fitting, "model_populations", broken)
        with pytest.raises(ZeroDivisionError):
            fit_state_model(synthetic_trace([1.0]), "coherent",
                            {"alpha": 0.2, "omega": OM, "gamma": 60.0})


class TestRankDeficientErrorBars:
    def test_theta_stderr_matches_profile_likelihood(self):
        # At theta = 0 every population is stationary in theta, so J^T J is
        # singular there; the error bar must come from the full Hessian.
        pops = model_populations("displaced_squeezed", [0.5, 0.8, 0.3], 64)[0]
        times = np.arange(1, 301) * 2e-5
        tr = synthetic_trace(pops, gamma=60.0, times=times, rng=np.random.default_rng(7))
        init = {"alpha": 0.45, "r": 0.7, "theta": 0.2, "omega": OM, "gamma": 60.0}
        res = fit_state_model(tr, "displaced_squeezed", init)
        theta = res.param("theta")
        assert abs(math.remainder(theta, 2 * math.pi)) < 1e-5
        nmax = 36
        p_obs = np.clip(tr.pdown, 1e-3, 1 - 1e-3)
        sigma = np.sqrt(p_obs * (1 - p_obs) / tr.shots_per_point)

        def profile_cost(th):
            def resid(v):
                p = model_populations("displaced_squeezed", [v[0], v[1], th], nmax)[0]
                return (bsb_signal(p, v[2], abs(v[3]), tr.times) - tr.pdown) / sigma

            x0 = [res.param(n) for n in ("alpha", "r", "omega", "gamma")]
            return scipy.optimize.least_squares(resid, x0, xtol=1e-12, ftol=1e-12).cost

        dth = 0.2
        curvature = (profile_cost(theta + dth) + profile_cost(theta - dth)
                     - 2 * profile_cost(theta)) / dth**2
        width = 1.0 / math.sqrt(curvature)
        assert abs(res.error("theta") - width) / width < 0.30
        assert np.all(np.isfinite(res.stderr))

    @pytest.mark.parametrize("theta, start", [(0.3, 0.2), (1.3, 1.2)])
    def test_covariance_rule_does_not_depend_on_units(self, theta, start):
        # Every parameter but theta in new units: the covariance must follow
        # the change of units, both where the fit lands on theta = 0 (full
        # Hessian) and where it does not (Gauss-Newton).
        pops = model_populations("displaced_squeezed", [0.5, 0.8, theta], 64)[0]
        tr = synthetic_trace(pops, times=np.arange(1, 301) * 2e-5,
                             rng=np.random.default_rng(7))
        init = {"alpha": 0.45, "r": 0.7, "theta": start, "omega": OM, "gamma": 60.0}
        fit = fit_state_model(tr, "displaced_squeezed", init)
        res = TraceResiduals(tr, "displaced_squeezed", init, 36)
        scale = np.array([1e-6, 1e-6, 1.0, 1e-3, 1e-2])

        class Rescaled:
            def jac(self, y):
                return res.jac(y * scale) * scale

        x = fit.params
        r = res(x)
        covs = (fitting._state_covariance(res, x, r), fitting._state_covariance(
            Rescaled(), x / scale, r) * np.outer(scale, scale))
        # in units of the stderrs: theta's covariances with the rest are ~0
        std = np.sqrt(np.diag(covs[0]))
        assert np.max(np.abs(covs[1] - covs[0]) / np.outer(std, std)) < 1e-6
        assert np.array_equal(covs[0], fit.covariance)

    def test_flat_direction_has_infinite_variance(self):
        cov = _hessian_covariance(np.array([[4.0, 0.0], [0.0, 0.0]]))
        assert cov[0, 0] == pytest.approx(0.25)
        assert cov[1, 1] == math.inf
        cov = _hessian_covariance(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert np.allclose(cov, np.linalg.inv([[2.0, 1.0], [1.0, 3.0]]))


class TestSinusoidFit:
    def test_exact_fringe(self):
        phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        res = fit_sinusoid(phis, 0.5 - 0.055 * np.cos(phis), 300)
        assert res.param("b") == pytest.approx(0.5, abs=1e-12)
        assert res.param("a") == pytest.approx(-0.055, abs=1e-12)

    def test_constant_data_gives_zero_amplitude(self):
        phis = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        res = fit_sinusoid(phis, np.full(12, 0.37), 300)
        assert res.param("a") == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate_phases(self):
        with pytest.raises(ValueError):
            fit_sinusoid([0.1, 0.1, 0.1 + math.pi], [0.4, 0.4, 0.6], 100)

    def test_paper_amplified_scan_within_2_sigma(self):
        rng = np.random.default_rng(42)
        phis = np.linspace(0, 2 * math.pi, 20, endpoint=False)
        truth = 0.503 - 0.263 * np.cos(phis)
        shots = 10_000
        data = rng.binomial(shots, truth) / shots
        res = fit_sinusoid(phis, data, shots)
        assert abs(res.param("b") - 0.503) < 2 * res.error("b") + 1e-12
        assert abs(res.param("a") + 0.263) < 2 * res.error("a") + 1e-12


class TestMetrologyHelpers:
    def test_contrast_and_noise_center(self):
        c, sig = contrast_and_noise(0.5, 0.5, 100)
        assert c == 0.0
        assert sig == pytest.approx(math.sqrt(2 * 0.0025), rel=1e-12)

    def test_binomial_edge(self):
        assert contrast_and_noise(1.0, 0.0, 100) == (1.0, 0.0)

    def test_symmetry_under_complement(self):
        _, s1 = contrast_and_noise(0.8, 0.3, 200)
        _, s2 = contrast_and_noise(0.7, 0.2, 200)
        assert s1 == pytest.approx(s2)

    def test_snr_of_one_near_small_contrast(self):
        c = 0.0698
        s, _, _ = snr_and_enhancement(c, c, 100)[0], None, None
        assert s == pytest.approx(1.0, abs=0.02)

    def test_enhancement_values(self):
        assert snr_and_enhancement(0.2, 0.2, 100)[2] == pytest.approx(0.0)
        assert snr_and_enhancement(0.75, 0.1, 100)[2] == pytest.approx(17.50, abs=0.01)
        assert snr_and_enhancement(0.917, 0.1, 100)[2] == pytest.approx(19.25, abs=0.01)

    def test_zero_point_extent_paper_value(self):
        assert zero_point_extent(25, WR) * 1e9 == pytest.approx(5.66, abs=0.05)

    def test_bohr_radius_correspondence(self):
        length = alpha_to_length(0.00465, 25, WR)
        assert length == pytest.approx(BOHR_RADIUS, rel=0.01)
        ratio = 0.5 / 0.00465
        assert ratio == pytest.approx(108, abs=1)

    def test_vacuum_fluctuation_alpha(self):
        assert alpha_to_length(0.5, 25, WR) * 1e9 == pytest.approx(5.66, abs=0.05)
