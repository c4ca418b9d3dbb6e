import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, expit, log_expit

from policycate import (
    DomainError,
    Family,
    ScalarSurrogateProblem,
    SearchError,
    SurrogateSpec,
    ValidationError,
    cdf,
    d2loss_dtau2,
    dloss_dtau,
    kappa,
    loss_q,
    objective_curve,
    partial_mean,
    scalar_argmax,
    scalar_surrogate_value,
)
from policycate.surrogate import RowWork

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(u, c, s):
    return math.exp(-0.5 * ((u - c) / s) ** 2) / (s * math.sqrt(2 * math.pi))


def logistic_pdf(u, c, s):
    z = (u - c) / s
    e = math.exp(-abs(z))
    return e / (s * (1 + e) ** 2)


def random_specs(rng, n):
    specs = []
    for _ in range(n):
        fam = rng.choice(["normal", "logistic", "uniform"])
        c = float(rng.uniform(-3, 3))
        if fam == "uniform":
            lo = c - float(rng.uniform(0.5, 3))
            hi = c + float(rng.uniform(0.5, 3))
            specs.append(SurrogateSpec.uniform(lo, hi, cost=c))
        else:
            specs.append(SurrogateSpec(fam, c, float(rng.uniform(0.1, 4))))
    return specs


def _spec_of(family, cost, scale):
    if family == "uniform":
        return SurrogateSpec.uniform(cost - scale, cost + scale, cost=cost)
    return SurrogateSpec(family, cost, scale)


# every family; cost and scale (the uniform half-width) away from degenerate values
SPECS = st.builds(
    _spec_of,
    st.sampled_from(["normal", "logistic", "uniform"]),
    st.floats(-5.0, 5.0),
    st.floats(0.05, 5.0),
)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


# ---------------------------------------------------------------- construction


def test_spec_rejects_tiny_scale():
    with pytest.raises(ValidationError):
        SurrogateSpec.normal(1.0, 1e-9)
    with pytest.raises(ValidationError):
        SurrogateSpec.logistic(0.0, 0.0)


def test_spec_rejects_bad_uniform_support():
    with pytest.raises(ValidationError):
        SurrogateSpec.uniform(2.0, 2.0)
    with pytest.raises(ValidationError):
        SurrogateSpec.uniform(3.0, 1.0)


# ------------------------------------------------------------------------- cdf


def test_cdf_trivial_values():
    assert cdf(SurrogateSpec.logistic(0.0, 1.0), 0.0) == pytest.approx(0.5)
    assert cdf(SurrogateSpec.normal(1.0, 2.0), 1.0) == pytest.approx(0.5)
    assert cdf(SurrogateSpec.uniform(0.0, 2.0), 0.5) == pytest.approx(0.25)


def test_cdf_monotone_on_random_pairs():
    rng = np.random.default_rng(1)
    for spec in random_specs(rng, 30):
        u = np.sort(rng.uniform(-20, 20, size=40))
        vals = cdf(spec, u)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))


def test_cdf_limits():
    spec = SurrogateSpec.normal(0.5, 1.5)
    assert cdf(spec, -np.inf) == 0.0
    assert cdf(spec, np.inf) == 1.0
    u = SurrogateSpec.uniform(-1.0, 1.0)
    assert cdf(u, -1.0) == 0.0
    assert cdf(u, 1.0) == 1.0


# ----------------------------------------------------------------------- kappa


def test_kappa_normal_against_quadrature():
    # oracle: integrate u f(u) below tau and divide by the mass
    spec = SurrogateSpec.normal(0.0, 1.0)
    num, _ = quad(lambda u: u * normal_pdf(u, 0, 1), -50, 0.0)
    expected = num / 0.5
    assert expected == pytest.approx(-0.7978845608, abs=1e-8)
    assert kappa(spec, 0.0) == pytest.approx(expected, abs=1e-10)


def test_kappa_logistic_against_quadrature():
    spec = SurrogateSpec.logistic(0.5, 0.7)
    for tau in (-1.0, 0.5, 2.3):
        num, _ = quad(lambda u: u * logistic_pdf(u, 0.5, 0.7), -80, tau)
        expected = num / cdf(spec, tau)
        assert kappa(spec, tau) == pytest.approx(expected, abs=1e-9)


def test_kappa_uniform_midpoint_and_clamp():
    spec = SurrogateSpec.uniform(0.0, 2.0)
    assert kappa(spec, 1.0) == pytest.approx(0.5)
    # above the support the truncated mean saturates at the full mean
    assert kappa(spec, 5.0) == pytest.approx(1.0)


def test_kappa_untruncated_limit_is_mean():
    assert kappa(SurrogateSpec.normal(1.0, 1.0), 1e6) == pytest.approx(1.0, abs=1e-12)
    assert kappa(SurrogateSpec.logistic(-2.0, 0.5), 1e6) == pytest.approx(-2.0, abs=1e-12)


def test_kappa_domain_errors():
    with pytest.raises(DomainError):
        kappa(SurrogateSpec.uniform(0.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        kappa(SurrogateSpec.normal(0.0, 1.0), -np.inf)


def test_kappa_deep_normal_tail_is_stable():
    # phi/Phi ratio must not overflow or lose sign far below the mean
    spec = SurrogateSpec.normal(0.0, 1.0)
    val = kappa(spec, -40.0)
    assert -40.1 < val < -40.0


# ---------------------------------------------------------------------- loss_q


def test_loss_q_normal_example():
    spec = SurrogateSpec.normal(1.0, 1.0)
    assert loss_q(spec, 0.0, 2.0) == pytest.approx(0.5 * 1.0 + PHI0, abs=1e-12)


def test_loss_q_uniform_is_negative_squared_error():
    spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
    assert loss_q(spec, 1.0, 2.0) == -1.0
    # exact stationarity of the squared error at tau = y*
    ys = 0.37
    taus = np.linspace(-3, 3, 601)
    vals = loss_q(spec, taus, ys)
    assert loss_q(spec, ys, ys) == 0.0
    assert np.all(vals <= 0.0)


def test_loss_q_logistic_example_and_quadrature():
    spec = SurrogateSpec.logistic(1.0, 1.0)
    got = loss_q(spec, 0.0, 1.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-12)
    # oracle: integrate (y* - u) f(u) below tau on the money scale
    ys, tau = 1.0, 1.0  # tau_bar = 0
    expected, _ = quad(lambda u: (ys - u) * logistic_pdf(u, 1.0, 1.0), -120, tau)
    assert got == pytest.approx(expected, abs=1e-9)


def test_loss_q_matches_population_integral_normal():
    spec = SurrogateSpec.normal(0.5, 2.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        ys = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(-5, 5))
        expected, _ = quad(lambda u: (ys - u) * normal_pdf(u, 0.5, 2.0), -60, tau)
        got = loss_q(spec, spec.standardize(tau), ys)
        assert got == pytest.approx(expected, abs=1e-9)


def test_loss_q_extreme_arguments_stay_finite():
    for spec in (SurrogateSpec.normal(1.0, 0.5), SurrogateSpec.logistic(1.0, 0.5)):
        vals = loss_q(spec, np.array([-700.0, -50.0, 50.0, 700.0]), 3.0)
        assert np.all(np.isfinite(vals))


# ----------------------------------------------------------------- derivatives


def test_dloss_examples():
    assert dloss_dtau(SurrogateSpec.normal(1, 1), 0.0, 2.0) == pytest.approx(PHI0, abs=1e-12)
    assert dloss_dtau(SurrogateSpec.logistic(1, 1), 0.0, 2.0) == pytest.approx(0.25, abs=1e-12)
    assert dloss_dtau(SurrogateSpec.uniform(0, 5), 3.0, 3.0) == 0.0


def test_d2loss_examples():
    assert d2loss_dtau2(SurrogateSpec.uniform(0, 5), 1.7, -2.0) == -2.0
    assert d2loss_dtau2(SurrogateSpec.normal(1, 1), 0.0, 2.0) == pytest.approx(-PHI0, abs=1e-12)
    assert d2loss_dtau2(SurrogateSpec.logistic(1, 1), 0.0, 2.0) == pytest.approx(-0.25, abs=1e-12)


def test_gradient_consistency_random_sweep():
    # 1,000 random (family, c, sigma, tau_bar, y*) draws vs central differences
    rng = np.random.default_rng(42)
    specs = random_specs(rng, 1000)
    h1, h2 = 1e-6, 1e-4
    for spec in specs:
        tb = float(rng.uniform(-4, 4))
        ys = float(rng.uniform(-6, 6))
        d1 = dloss_dtau(spec, tb, ys)
        fd1 = (loss_q(spec, tb + h1, ys) - loss_q(spec, tb - h1, ys)) / (2 * h1)
        assert abs(d1 - fd1) / (1 + abs(d1)) < 1e-5
        d2 = d2loss_dtau2(spec, tb, ys)
        fd2 = (
            loss_q(spec, tb + h2, ys) - 2 * loss_q(spec, tb, ys) + loss_q(spec, tb - h2, ys)
        ) / h2**2
        assert abs(d2 - fd2) / (1 + abs(d2)) < 1e-4


@PROPERTY_SETTINGS
@given(SPECS, st.floats(-40.0, 40.0), st.floats(-10.0, 10.0))
def test_dloss_matches_central_differences_of_loss(spec, tau_bar, y_star):
    h = 1e-4
    up, down = loss_q(spec, tau_bar + h, y_star), loss_q(spec, tau_bar - h, y_star)
    d = dloss_dtau(spec, tau_bar, y_star)
    # rounding in the difference grows with |loss|, truncation with h^2
    assert abs(d - (up - down) / (2 * h)) <= 1e-6 * (1 + abs(d)) + 1e-14 * abs(up) / h


# ------------------------------------------------------------ row workspace


def reference_loss_q(spec, tau_bar, y_star):
    """``loss_q`` as one allocating expression per family, as it was written
    before the row workspace; the workspace must reproduce it bit for bit."""
    t, ys = np.asarray(tau_bar, dtype=float), np.asarray(y_star, dtype=float)
    if spec.family is Family.NORMAL:
        phi = PHI0 * np.exp(-0.5 * np.square(t))
        return 0.5 * erfc(-t / math.sqrt(2.0)) * (ys - spec.cost) + spec.scale * phi
    if spec.family is Family.LOGISTIC:
        tail = t * expit(-t) - log_expit(t)
        return expit(t) * (ys - spec.cost) + spec.scale * tail
    return -np.square(ys - t)


def reference_dloss_dtau(spec, tau_bar, y_star):
    """``dloss_dtau`` as written before the row workspace."""
    t, ys = np.asarray(tau_bar, dtype=float), np.asarray(y_star, dtype=float)
    if spec.family is Family.NORMAL:
        return PHI0 * np.exp(-0.5 * np.square(t)) * (ys - spec.cost - spec.scale * t)
    if spec.family is Family.LOGISTIC:
        return expit(t) * expit(-t) * (ys - spec.cost - spec.scale * t)
    return 2.0 * (ys - t)


def reference_d2loss_dtau2(spec, tau_bar, y_star):
    """``d2loss_dtau2`` as written before it joined the row workspace."""
    tau_bar = np.asarray(tau_bar, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    if spec.family is Family.NORMAL:
        resid = y_star - spec.cost - spec.scale * tau_bar
        phi = PHI0 * np.exp(-0.5 * np.square(tau_bar))
        return -phi * (tau_bar * resid + spec.scale)
    if spec.family is Family.LOGISTIC:
        G = expit(tau_bar)
        g = G * expit(-tau_bar)
        resid = y_star - spec.cost - spec.scale * tau_bar
        return -g * ((2.0 * G - 1.0) * resid + spec.scale)
    return np.broadcast_to(-2.0, np.broadcast_shapes(tau_bar.shape, y_star.shape)).copy()


DERIVATIVES = ((dloss_dtau, reference_dloss_dtau), (d2loss_dtau2, reference_d2loss_dtau2))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _rows(n):
    return st.lists(st.floats(-60.0, 60.0), min_size=n, max_size=n).map(np.array)


# y* and two to five trial score arrays of one length
ROW_DRAWS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(_rows(n), st.lists(_rows(n), min_size=2, max_size=5))
)


@PROPERTY_SETTINGS
@given(SPECS, ROW_DRAWS)
def test_workspace_calls_match_allocating_calls_bitwise(spec, draw):
    y_star, trials = draw
    work = RowWork(spec, y_star)
    for k, t in enumerate(trials):
        q = loss_q(spec, t, y_star, work=work)
        assert same_bits(q, reference_loss_q(spec, t, y_star))
        assert same_bits(q, loss_q(spec, t, y_star))
        # the slope and curvature of the array the last loss saw reuse that
        # loss's shared term, and the curvature leaves the slope's buffer alone
        d = dloss_dtau(spec, t, y_star, work=work)
        s = d2loss_dtau2(spec, t, y_star, work=work)
        assert same_bits(d, reference_dloss_dtau(spec, t, y_star))
        assert same_bits(s, reference_d2loss_dtau2(spec, t, y_star))
        if k:
            # any other array recomputes it: no stale reuse, in either direction
            prev = trials[k - 1]
            for fn, ref in DERIVATIVES:
                assert same_bits(fn(spec, prev, y_star, work=work), ref(spec, prev, y_star))
                assert same_bits(fn(spec, t, y_star, work=work), fn(spec, t, y_star))
            q = loss_q(spec, prev, y_star, work=work)
            assert same_bits(q, reference_loss_q(spec, prev, y_star))


@PROPERTY_SETTINGS
@given(SPECS, st.floats(-60.0, 60.0), st.floats(-10.0, 10.0), _rows(7))
def test_allocating_calls_keep_scalars_and_broadcasting(spec, tau_bar, y_star, row):
    for fn, ref in ((loss_q, reference_loss_q), *DERIVATIVES):
        got = fn(spec, tau_bar, y_star)
        assert type(got) is float and same_bits(got, ref(spec, tau_bar, y_star))
        for t, ys in ((row, y_star), (tau_bar, row), (row[:, None], row), ([tau_bar], row)):
            assert same_bits(fn(spec, t, ys), ref(spec, t, ys))


def test_workspace_is_bound_to_its_spec_and_y_star():
    spec, y_star = SurrogateSpec.normal(1.0, 0.5), np.array([0.5, 2.0, -1.0])
    work = RowWork(spec, y_star)
    t = np.array([0.1, -0.3, 2.0])
    with pytest.raises(ValidationError):
        loss_q(spec, t, y_star.copy(), work=work)
    with pytest.raises(ValidationError):
        dloss_dtau(SurrogateSpec.normal(1.0, 0.5), t, y_star, work=work)


# ------------------------------------------------------------- scalar obj


def test_scalar_value_limits():
    prob = ScalarSurrogateProblem(2.0, SurrogateSpec.normal(1.0, 1.0))
    assert scalar_surrogate_value(prob, -np.inf) == 0.0
    assert scalar_surrogate_value(prob, np.inf) == pytest.approx(1.0, abs=1e-12)
    assert scalar_surrogate_value(prob, -40.0) == pytest.approx(0.0, abs=1e-12)
    assert scalar_surrogate_value(prob, 40.0) == pytest.approx(1.0, abs=1e-12)


def test_scalar_value_peaks_at_tau0():
    prob = ScalarSurrogateProblem(2.0, SurrogateSpec.normal(1.0, 1.0))
    assert scalar_surrogate_value(prob, 2.0) > scalar_surrogate_value(prob, 1.5)


def test_non_division_identity():
    # partial_mean == F_C * kappa wherever the mass is non-negligible
    rng = np.random.default_rng(3)
    for spec in random_specs(rng, 60):
        if spec.family is Family.LOGISTIC:
            continue
        taus = rng.uniform(spec.cost - 6, spec.cost + 6, size=20)
        for tau in taus:
            F = cdf(spec, tau)
            if F <= 1e-6 or (spec.family is Family.UNIFORM and tau <= spec.uniform_lo):
                continue
            assert abs(partial_mean(spec, tau) - F * kappa(spec, tau)) < 1e-10


@PROPERTY_SETTINGS
@given(SPECS, st.floats(-6.0, 6.0))
def test_partial_mean_is_cdf_times_kappa(spec, z):
    # tau sits z scales (uniform: half-widths) from the cost; the identity is
    # checked where F_C is not vanishingly small, since kappa needs F_C > 0
    uniform = spec.family is Family.UNIFORM
    tau = spec.cost + z * (0.5 * (spec.uniform_hi - spec.uniform_lo) if uniform else spec.scale)
    F = cdf(spec, tau)
    assume(F > 1e-6)
    want = F * kappa(spec, tau)
    assert partial_mean(spec, tau) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_scalar_argmax_examples():
    got = scalar_argmax(
        ScalarSurrogateProblem(2.0, SurrogateSpec.normal(1.0, 1.0)), -6.0, 8.0, 1e-5
    )
    assert got == pytest.approx(2.0, abs=1e-4)
    got = scalar_argmax(
        ScalarSurrogateProblem(-1.0, SurrogateSpec.logistic(0.0, 0.5)), -5.0, 5.0, 1e-5
    )
    assert got == pytest.approx(-1.0, abs=1e-4)
    # tau0 exactly at the cost still has its maximum there
    got = scalar_argmax(
        ScalarSurrogateProblem(1.0, SurrogateSpec.normal(1.0, 2.0)), -6.0, 8.0, 1e-5
    )
    assert got == pytest.approx(1.0, abs=1e-4)


def test_scalar_argmax_grid_scan_cross_check():
    prob = ScalarSurrogateProblem(-1.0, SurrogateSpec.logistic(0.0, 0.5))
    grid = np.arange(-5.0, 5.0, 1e-5)
    vals = scalar_surrogate_value(prob, grid)
    brute = grid[int(np.argmax(vals))]
    assert scalar_argmax(prob, -5.0, 5.0, 1e-6) == pytest.approx(brute, abs=1e-4)


def fisher_grid():
    # The guarantee needs the threshold density to be positive near tau0;
    # numerically that means |tau0 - c| / sigma must stay moderate (here
    # <= 3.5), otherwise the objective is flat to double precision.
    for sigma in (0.25, 1.0, 4.0):
        for c in (-1.0, 0.0, 2.0):
            for m in (-3.5, 0.4, 3.5):
                tau0 = min(5.0, max(-5.0, c + m * sigma))
                yield tau0, c, sigma


def test_scalar_fisher_consistency_grid():
    for fam in ("normal", "logistic"):
        for tau0, c, sigma in fisher_grid():
            spec = SurrogateSpec(fam, c, sigma)
            prob = ScalarSurrogateProblem(tau0, spec)
            got = scalar_argmax(prob, tol=1e-6)
            assert abs(got - tau0) < 1e-3, (fam, tau0, c, sigma, got)


def test_scalar_argmax_rejects_boundary_maximum():
    # bracket entirely below tau0: value is increasing, endpoint dominates
    prob = ScalarSurrogateProblem(2.0, SurrogateSpec.normal(2.0, 1.0))
    with pytest.raises(SearchError):
        scalar_argmax(prob, -4.0, 0.0, 1e-6)


# -------------------------------------------------------------- curve emission


def test_objective_curve_stepwise_column():
    prob = ScalarSurrogateProblem(2.0, SurrogateSpec.normal(1.0, 1.0))
    rows = objective_curve(prob, [0.0])
    assert rows[0][2] == 0.0
    rows = objective_curve(prob, [5.0])
    assert rows[0][2] == 1.0
    rows = objective_curve(prob, [1.0])  # weak inequality at tau = c
    assert rows[0][2] == 1.0


def test_objective_curve_approaches_step_as_sigma_shrinks():
    # at fixed tau away from c, small sigma hugs the step value tau0 - c
    vals = {}
    for sigma in (1.0, 2.0, 3.0):
        prob = ScalarSurrogateProblem(2.0, SurrogateSpec.normal(1.0, sigma))
        vals[sigma] = scalar_surrogate_value(prob, 3.0)
    assert abs(vals[1.0] - 1.0) < abs(vals[2.0] - 1.0) < abs(vals[3.0] - 1.0)


def test_objective_curve_validates_grid():
    prob = ScalarSurrogateProblem(2.0, SurrogateSpec.normal(1.0, 1.0))
    with pytest.raises(ValidationError):
        objective_curve(prob, [])
    with pytest.raises(ValidationError):
        objective_curve(prob, [1.0, 0.5])
