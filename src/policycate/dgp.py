"""Seeded synthetic experiments with known treatment-effect functions.

Two generators: a one-covariate design whose effect function is the
quadratic ``-x^2 + 2x + 1`` (single decision threshold at x = 0 when the
cost is 1), and a ten-covariate design whose effect is a sine of the
averaged index, giving several decision cutoffs.

Both are drawn by one routine, ``generate`` (also named ``gen_simple`` and
``gen_complex``).  It reads the generator's width ``dim`` (1 or 10) and
its outcome rule ``outcome(x, effect)``, which adds the untreated mean
``1 + x`` (simple) or nothing (complex) to ``effect = w * tau``; the noise
is added last.

Randomness comes from ``policycate.rng.streams(seed, 3)``, one stream per
variable: covariates x at index 0, assignments w at 1, noise at 2.  Adding
a column or changing one stream never perturbs the others.  Identical
(config, n, seed) always yields bitwise identical samples.

The routine seals every array it draws (``setflags(write=False)``) before
building the ``Dataset``, which then shares them instead of copying them
(see ``policycate.linear.read_only``): a 1e6-row complex draw holds its
80 MB covariate matrix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import rng
from .errors import require
from .linear import Dataset, read_only, row_vector


@dataclass(frozen=True)
class _Dgp:
    """Noise scale and treatment cost, the fields every generator shares."""

    noise_sd: float = 0.1
    cost: float = 1.0
    dim: ClassVar[int]

    def __post_init__(self):
        require(self.noise_sd, "nonneg_num", "noise_sd")
        require(self.cost, "num", "cost")

    def outcome(self, x, effect):
        """The noise-free outcome of rows ``x`` given ``effect = w * tau``; no untreated mean."""
        return effect


class SimpleDgp(_Dgp):
    """y = 1 + x + w * tau0(x) + eps with tau0(x) = -x^2 + 2x + 1, x ~ U(-1, 2)."""

    dim = 1

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        return -np.square(x) + 2.0 * x + 1.0

    def outcome(self, x, effect):
        return 1.0 + x.reshape(effect.shape) + effect


class ComplexDgp(_Dgp):
    """y = w * tau0(x) + eps with tau0(x) = z sin(2.3 z) + 1.3, z the scaled mean index.

    Ten i.i.d. U(-1, 2) covariates; the index weights are (1, ..., 1)/sqrt(10),
    a unit vector.
    """

    dim = 10

    @property
    def omega(self):
        return np.full(self.dim, 1.0 / math.sqrt(self.dim))

    def tau(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = x @ self.omega
        return z * np.sin(2.3 * z) + 1.3


@dataclass(frozen=True)
class LabeledSample:
    """A generated dataset together with its oracle effect values.

    ``tau_true`` is stored through ``read_only``, as the dataset's arrays are.
    """

    dataset: Dataset
    tau_true: np.ndarray

    def __post_init__(self):
        tau = row_vector(self.tau_true, self.dataset.n, "tau_true", finite=True)
        object.__setattr__(self, "tau_true", read_only(tau))


def generate(dgp: SimpleDgp | ComplexDgp, n: int, seed: int) -> LabeledSample:
    """``n`` rows of ``dgp``'s experiment: x ~ U(-1, 2)^dim, w ~ Bernoulli(1/2)."""
    require(n, "pos_int", "n")
    rng_x, rng_w, rng_e = rng.streams(seed, 3)
    # an (n, 1) draw holds the same values in the same order as a length-n one
    x = rng_x.uniform(-1.0, 2.0, size=(n, dgp.dim))
    w = (rng_w.random(n) < 0.5).astype(float)
    eps = rng_e.normal(0.0, dgp.noise_sd, size=n) if dgp.noise_sd > 0 else np.zeros(n)
    tau = dgp.tau(x)  # (n, 1) for the simple generator, hence the (n,) view below
    y = dgp.outcome(x, w * tau.reshape(n)) + eps
    e = np.full(n, 0.5)
    for a in (x, w, y, e, tau):
        a.setflags(write=False)
    return LabeledSample(dataset=Dataset(x=x, w=w, y=y, e=e), tau_true=tau)


gen_simple = gen_complex = generate


def oracle_policy_value(sample: LabeledSample, policy, c: float) -> float:
    """Mean incremental profit of a 0/1 policy against the true effects."""
    policy = row_vector(policy, sample.dataset.n, "policy")
    return float(np.mean(policy * (sample.tau_true - c)))
