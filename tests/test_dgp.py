import math

import numpy as np
import pytest
from scipy.integrate import quad

from policycate.dgp import (
    ComplexDgp,
    LabeledSample,
    SimpleDgp,
    gen_complex,
    gen_simple,
    oracle_policy_value,
)
from policycate.errors import DimensionError, ValidationError
from policycate.linear import Dataset


@pytest.fixture(scope="module")
def big_complex():
    return gen_complex(ComplexDgp(), 1_000_000, seed=990_000)


def test_seed_determinism_bitwise():
    a = gen_simple(SimpleDgp(), 500, seed=7)
    b = gen_simple(SimpleDgp(), 500, seed=7)
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.dataset.w, b.dataset.w)
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert np.array_equal(a.tau_true, b.tau_true)
    c = gen_simple(SimpleDgp(), 500, seed=8)
    assert not np.array_equal(a.dataset.y, c.dataset.y)


def test_streams_are_independent_per_variable():
    # turning noise off must not change the covariate or treatment draws
    a = gen_simple(SimpleDgp(noise_sd=0.1), 200, seed=3)
    b = gen_simple(SimpleDgp(noise_sd=0.0), 200, seed=3)
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.dataset.w, b.dataset.w)


def test_simple_tau_values():
    dgp = SimpleDgp()
    assert dgp.tau(0.0) == pytest.approx(1.0)
    assert dgp.tau(1.0) == pytest.approx(2.0)  # vertex of the quadratic


def test_simple_mean_tau_matches_integral():
    # analytic: (1/3) * int_{-1}^{2} (-x^2 + 2x + 1) dx = 1
    val, _ = quad(lambda x: (-x * x + 2 * x + 1) / 3.0, -1, 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    sample = gen_simple(SimpleDgp(), 400_000, seed=5)
    assert np.mean(sample.tau_true) == pytest.approx(1.0, abs=0.01)


def test_simple_fields_and_ranges():
    s = gen_simple(SimpleDgp(), 10_000, seed=11)
    assert s.dataset.x.shape == (10_000, 1)
    assert np.all((s.dataset.x >= -1) & (s.dataset.x <= 2))
    assert np.all(s.dataset.e == 0.5)
    assert set(np.unique(s.dataset.w)) <= {0.0, 1.0}


def test_complex_tau_values():
    dgp = ComplexDgp()
    assert np.linalg.norm(dgp.omega) == pytest.approx(1.0, abs=1e-12)
    assert dgp.tau(np.zeros((1, 10)))[0] == pytest.approx(1.3)
    z = 20.0 / math.sqrt(10.0)
    expected = z * math.sin(2.3 * z) + 1.3
    assert dgp.tau(np.full((1, 10), 2.0))[0] == pytest.approx(expected, abs=1e-12)


def test_complex_tau_names_rows_of_another_width():
    # numpy's matmul ValueError escaped before
    with pytest.raises(DimensionError, match="^x has 3 features, model expects 10$"):
        ComplexDgp().tau(np.ones((4, 3)))


def test_complex_treatment_share(big_complex):
    assert np.mean(big_complex.dataset.w) == pytest.approx(0.5, abs=0.01)


def test_oracle_policy_value_trivial(big_complex):
    zeros = np.zeros(big_complex.dataset.n)
    assert oracle_policy_value(big_complex, zeros, 1.0) == 0.0


def test_simple_oracle_policy_value_four_ninths():
    # (1/3) * int_0^2 (-x^2 + 2x) dx = 4/9
    val, _ = quad(lambda x: (-x * x + 2 * x) / 3.0, 0, 2)
    assert val == pytest.approx(4.0 / 9.0, abs=1e-12)
    sample = gen_simple(SimpleDgp(), 400_000, seed=21)
    policy = (sample.dataset.x[:, 0] >= 0).astype(int)
    assert oracle_policy_value(sample, policy, 1.0) == pytest.approx(4.0 / 9.0, abs=0.01)


def test_complex_oracle_policy_value(big_complex):
    policy = (big_complex.tau_true >= 1.0).astype(int)
    assert oracle_policy_value(big_complex, policy, 1.0) == pytest.approx(0.515, abs=0.01)


def test_complex_uniform_mail_value(big_complex):
    value = float(np.mean(big_complex.tau_true) - 1.0)
    assert -0.02 <= value <= 0.01


def test_oracle_policy_dominates_random_policies():
    sample = gen_simple(SimpleDgp(), 5_000, seed=17)
    best = oracle_policy_value(sample, (sample.tau_true >= 1.0).astype(int), 1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        policy = (rng.random(sample.dataset.n) < rng.random()).astype(int)
        assert oracle_policy_value(sample, policy, 1.0) <= best + 1e-12


def test_simple_boundary_matches_threshold_rule():
    x = np.linspace(-1 + 1e-9, 2 - 1e-9, 20_001)
    tau = SimpleDgp().tau(x)
    assert np.array_equal(tau >= 1.0, x >= 0.0)


def test_validation_errors():
    with pytest.raises(ValidationError):
        gen_simple(SimpleDgp(), 0, seed=1)
    with pytest.raises(ValidationError):
        SimpleDgp(noise_sd=-1.0)
    s = gen_simple(SimpleDgp(), 10, seed=1)
    with pytest.raises(ValidationError):
        LabeledSample(dataset=s.dataset, tau_true=np.ones(3))


# gen_simple and gen_complex are one routine, so the ids name them explicitly
@pytest.mark.parametrize(
    "generate, dgp",
    [(gen_simple, SimpleDgp()), (gen_complex, ComplexDgp())],
    ids=["gen_simple-dgp0", "gen_complex-dgp1"],
)
def test_a_draw_is_sealed_and_held_once(generate, dgp):
    s = generate(dgp, 50, seed=5)
    ds = s.dataset
    for a in (ds.x, ds.w, ds.y, ds.e, s.tau_true):
        assert not a.flags.writeable
    again = LabeledSample(dataset=ds, tau_true=s.tau_true)
    assert np.shares_memory(again.tau_true, s.tau_true)
    assert np.shares_memory(Dataset(x=ds.x, w=ds.w, y=ds.y, e=ds.e).x, ds.x)


def test_labeled_sample_copies_a_writable_tau():
    s = gen_simple(SimpleDgp(), 10, seed=1)
    tau = np.arange(10.0)
    labeled = LabeledSample(dataset=s.dataset, tau_true=tau)
    tau[:] = -1.0
    assert np.array_equal(labeled.tau_true, np.arange(10.0))
    assert not labeled.tau_true.flags.writeable
