"""Seeded synthetic experiments with known treatment-effect functions.

Two generators: a one-covariate design whose effect function is the
quadratic ``-x^2 + 2x + 1`` (single decision threshold at x = 0 when the
cost is 1), and a ten-covariate design whose effect is a sine of the
averaged index, giving several decision cutoffs.

Randomness comes from ``policycate.rng.streams(seed, 3)``, one stream per
variable: covariates x at index 0, assignments w at 1, noise at 2.  Adding
a column or changing one stream never perturbs the others.  Identical
(config, n, seed) always yields bitwise identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ValidationError
from .linear import Dataset


@dataclass(frozen=True)
class SimpleDgp:
    """y = 1 + x + w * tau0(x) + eps with tau0(x) = -x^2 + 2x + 1, x ~ U(-1, 2)."""

    noise_sd: float = 0.1
    cost: float = 1.0

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be nonnegative")

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        return -np.square(x) + 2.0 * x + 1.0


@dataclass(frozen=True)
class ComplexDgp:
    """y = w * tau0(x) + eps with tau0(x) = z sin(2.3 z) + 1.3, z the scaled mean index.

    Ten i.i.d. U(-1, 2) covariates; the index weights are (1, ..., 1)/sqrt(10),
    a unit vector.
    """

    noise_sd: float = 0.1
    cost: float = 1.0
    dim: int = 10

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be nonnegative")
        if self.dim != 10:
            raise ValidationError("dim is fixed at 10")

    @property
    def omega(self):
        return np.full(self.dim, 1.0 / math.sqrt(self.dim))

    def tau(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = x @ self.omega
        return z * np.sin(2.3 * z) + 1.3


@dataclass(frozen=True)
class LabeledSample:
    """A generated dataset together with its oracle effect values."""

    dataset: Dataset
    tau_true: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_true, dtype=float).ravel()
        if tau.shape[0] != self.dataset.n:
            raise ValidationError("tau_true length must match the dataset")
        if not np.all(np.isfinite(tau)):
            raise ValidationError("non-finite tau_true")
        tau = tau.copy()
        tau.setflags(write=False)
        object.__setattr__(self, "tau_true", tau)


def gen_simple(dgp: SimpleDgp, n: int, seed: int) -> LabeledSample:
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng_x, rng_w, rng_e = rng.streams(seed, 3)
    x = rng_x.uniform(-1.0, 2.0, size=n)
    w = (rng_w.random(n) < 0.5).astype(float)
    eps = rng_e.normal(0.0, dgp.noise_sd, size=n) if dgp.noise_sd > 0 else np.zeros(n)
    tau = dgp.tau(x)
    y = 1.0 + x + w * tau + eps
    ds = Dataset(x=x[:, None], w=w, y=y, e=np.full(n, 0.5))
    return LabeledSample(dataset=ds, tau_true=tau)


def gen_complex(dgp: ComplexDgp, n: int, seed: int) -> LabeledSample:
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng_x, rng_w, rng_e = rng.streams(seed, 3)
    x = rng_x.uniform(-1.0, 2.0, size=(n, dgp.dim))
    w = (rng_w.random(n) < 0.5).astype(float)
    eps = rng_e.normal(0.0, dgp.noise_sd, size=n) if dgp.noise_sd > 0 else np.zeros(n)
    tau = dgp.tau(x)
    y = w * tau + eps
    ds = Dataset(x=x, w=w, y=y, e=np.full(n, 0.5))
    return LabeledSample(dataset=ds, tau_true=tau)


def oracle_policy_value(sample: LabeledSample, policy, c: float) -> float:
    """Mean incremental profit of a 0/1 policy against the true effects."""
    policy = np.asarray(policy, dtype=float).ravel()
    if policy.shape[0] != sample.dataset.n:
        raise ValidationError("policy length must match the sample")
    return float(np.mean(policy * (sample.tau_true - c)))
