import numpy as np
import pytest

from policycate import rng
from policycate.dgp import SimpleDgp, gen_simple
from policycate.errors import ValidationError


def test_stream_i_is_the_seeded_philox_jumped_i_times():
    for i, gen in enumerate(rng.streams(11, 4)):
        want = np.random.Generator(np.random.Philox(key=11).jumped(i)).random(5)
        assert np.array_equal(gen.random(5), want)
    # stream 0 is the unjumped generator, whatever the count
    want = np.random.Generator(np.random.Philox(key=11)).permutation(50)
    assert np.array_equal(rng.streams(11, 1)[0].permutation(50), want)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_a_seed_outside_the_philox_key_range_is_a_validation_error(seed):
    with pytest.raises(ValidationError, match=r"seed must lie in \[0, 2\^128\)"):
        rng.streams(seed, 1)
    with pytest.raises(ValidationError):
        gen_simple(SimpleDgp(), 10, seed=seed)


def test_the_largest_philox_key_is_a_seed():
    want = np.random.Generator(np.random.Philox(key=2**128 - 1)).random(3)
    assert np.array_equal(rng.streams(2**128 - 1, 1)[0].random(3), want)
