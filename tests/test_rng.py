import numpy as np

from policycate import rng


def test_stream_i_is_the_seeded_philox_jumped_i_times():
    for i, gen in enumerate(rng.streams(11, 4)):
        want = np.random.Generator(np.random.Philox(key=11).jumped(i)).random(5)
        assert np.array_equal(gen.random(5), want)
    # stream 0 is the unjumped generator, whatever the count
    want = np.random.Generator(np.random.Philox(key=11)).permutation(50)
    assert np.array_equal(rng.streams(11, 1)[0].permutation(50), want)
