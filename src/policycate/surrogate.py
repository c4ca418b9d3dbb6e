"""Stochastic-threshold surrogate objectives for treatment targeting.

The targeting payoff ``1{tau >= c} * (tau0 - c)`` is flat almost everywhere
in ``tau``: it rewards the correct treat/skip decision but carries no
information about the magnitude of the effect ``tau0``.  Replacing the fixed
cost ``c`` with a random threshold ``C ~ F_C`` smooths the payoff into

    F_C(tau) * (tau0 - kappa_C(tau)),    kappa_C(t) = E[C | C <= t],

which is maximized exactly at ``tau = tau0`` whenever the threshold density
is positive there.  Three threshold families are supported: normal and
logistic (location ``cost``, scale ``sigma``) and uniform on
``(uniform_lo, uniform_hi)``.  The uniform family makes the objective
equivalent to least squares on the transformed outcome; shrinking ``sigma``
moves it toward pure policy optimization.

Scale convention
----------------
For the normal and logistic families every per-observation function below
takes the *standardized* score ``tau_bar = (tau - cost) / sigma``; fitted
scores map back to money units via ``tau = tau_bar * sigma + cost``.
Derivatives are reported per unit of ``tau_bar``.  Dividing by ``sigma``
(first derivative) or ``sigma**2`` (curvature) converts them to
per-unit-money derivatives; the covariance code in ``policycate.linear``
relies on exactly that conversion.  The uniform family works on the money
scale directly, so ``tau_bar`` is ``tau`` itself and no conversion applies.

Row workspace
-------------
:func:`loss_q`, :func:`dloss_dtau` and :func:`d2loss_dtau2` take a
keyword-only ``work``, a :class:`RowWork` built on one ``spec`` and one
``y_star`` array.  The loss and the slope compute in its buffers and return
one of them, valid until its next call, so reduce or copy it first; the
curvature returns a fresh array.  It keeps the term the three share for the
score array it last saw, so the solver's slope and the sandwich's slope and
curvature pay for that term once.  Without ``work`` each call builds a fresh
workspace on its broadcast inputs and runs the same code, so both forms
return the same bits, and a scalar call still returns a float.

Special functions
-----------------
``scipy.special`` loads at the first special-function call, through the
cached :func:`special`, not when this module is imported; ``scipy.optimize``
loads inside :func:`scalar_argmax`.  Each import takes about a quarter
second (``scipy.special`` mostly for scipy's array-API layer), and
``import policycate``, ``simulate`` and ``evaluate`` (whose ``ols`` refit
uses the uniform family) call neither, so they load neither.  A hot kernel
pays one cached call per pass.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SearchError, ValidationError, require

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_MIN_SCALE = 1e-8


@functools.cache
def special():
    """The ``scipy.special`` module, imported at the first call (see the module note)."""
    import scipy.special

    return scipy.special


class Family(str, enum.Enum):
    NORMAL = "normal"
    LOGISTIC = "logistic"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class SurrogateSpec:
    """Threshold distribution: family, treatment cost, and spread.

    ``cost`` is the actual per-treatment cost in money units and doubles as
    the location of the normal/logistic families.  ``scale`` is the
    normal/logistic spread (ignored for uniform).  The uniform family is
    supported on ``(uniform_lo, uniform_hi)``; its objective does not depend
    on those bounds, but the scalar objective value and ``kappa`` do.
    """

    family: Family
    cost: float
    scale: float = 1.0
    uniform_lo: float = field(default=math.nan)
    uniform_hi: float = field(default=math.nan)

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        require(self.cost, "num", "cost")
        if self.family in (Family.NORMAL, Family.LOGISTIC):
            if not (math.isfinite(self.scale) and self.scale >= _MIN_SCALE):
                raise ValidationError(
                    f"scale must be >= {_MIN_SCALE:g} for {self.family.value}, "
                    f"got {self.scale!r}"
                )
        else:
            if not (math.isfinite(self.uniform_lo) and math.isfinite(self.uniform_hi)):
                raise ValidationError("uniform family needs finite uniform_lo/uniform_hi")
            if not self.uniform_hi > self.uniform_lo:
                raise ValidationError("uniform_hi must exceed uniform_lo")

    @classmethod
    def normal(cls, cost, scale):
        return cls(Family.NORMAL, cost, scale)

    @classmethod
    def logistic(cls, cost, scale):
        return cls(Family.LOGISTIC, cost, scale)

    @classmethod
    def uniform(cls, lo, hi, cost=None):
        if cost is None:
            cost = 0.5 * (lo + hi)
        return cls(Family.UNIFORM, cost, uniform_lo=lo, uniform_hi=hi)

    def standardize(self, tau):
        """Map a money-scale score to the internal scale (identity for uniform)."""
        if self.family is Family.UNIFORM:
            return tau
        return (tau - self.cost) / self.scale

    def unstandardize(self, tau_bar):
        """Map an internal-scale score back to money units."""
        if self.family is Family.UNIFORM:
            return tau_bar
        return tau_bar * self.scale + self.cost


@dataclass(frozen=True)
class ScalarSurrogateProblem:
    """No-covariate problem: one true effect ``tau0`` and one threshold spec."""

    tau0: float
    spec: SurrogateSpec

    def __post_init__(self):
        require(self.tau0, "num", "tau0")


def _phi(z, out=None):
    out = np.square(z, out=_buffer(z, out))
    out *= -0.5
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out


def _Phi(z, out=None):
    # complementary error function avoids cancellation in the lower tail;
    # z / -sqrt(2) rounds exactly as -z / sqrt(2) and takes one pass
    out = np.divide(z, -_SQRT2, out=_buffer(z, out))
    special().erfc(out, out=out)
    out *= 0.5
    return out


def _buffer(z, out):
    """``out``, or a fresh float array shaped like ``z`` (0-d for a scalar)."""
    return np.empty(np.shape(z)) if out is None else out


def _as_float(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def cdf(spec: SurrogateSpec, u):
    """Threshold distribution function F_C(u).  Accepts scalars or arrays."""
    z = spec.standardize(np.asarray(u, dtype=float))
    if spec.family is Family.NORMAL:
        out = _Phi(z)
    elif spec.family is Family.LOGISTIC:
        out = special().expit(z)
    else:
        out = np.clip((z - spec.uniform_lo) / (spec.uniform_hi - spec.uniform_lo), 0.0, 1.0)
    return _as_float(out)


def _logistic_tail(tau_bar):
    """Stable evaluation of t*G(t) - softplus(t) (the logistic partial-mean tail).

    The direct form cancels catastrophically for large |t|; each half-line
    gets the algebraically equivalent expression that stays additive there.
    """
    expit = special().expit
    tb = np.asarray(tau_bar, dtype=float)
    finite = np.isfinite(tb)
    safe = np.where(finite, tb, 0.0)
    neg = safe * expit(safe) - np.logaddexp(0.0, safe)
    pos = -safe * expit(-safe) - np.logaddexp(0.0, -safe)
    out = np.where(safe <= 0.0, neg, pos)
    return np.where(finite, out, 0.0)  # both infinite limits vanish


def partial_mean(spec: SurrogateSpec, tau):
    """Lower partial mean: integral of u * f_C(u) over u <= tau.

    Equals F_C(tau) * kappa_C(tau) but never divides by F_C, so it is exact
    down to F_C = 0.
    """
    z = spec.standardize(np.asarray(tau, dtype=float))
    if spec.family is Family.NORMAL:
        out = spec.cost * _Phi(z) - spec.scale * _phi(z)
    elif spec.family is Family.LOGISTIC:
        out = spec.cost * special().expit(z) + spec.scale * _logistic_tail(z)
    else:
        t = np.clip(z, spec.uniform_lo, spec.uniform_hi)
        out = (np.square(t) - spec.uniform_lo**2) / (2.0 * (spec.uniform_hi - spec.uniform_lo))
    return _as_float(out)


def kappa(spec: SurrogateSpec, tau):
    """Lower-truncated mean E[C | C <= tau].

    Requires F_C(tau) > 0; raises :class:`DomainError` where the
    conditioning event has probability exactly zero (uniform family with
    ``tau <= uniform_lo``, or ``tau = -inf``).
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(np.isneginf(tau)):
        raise DomainError("truncated mean undefined at tau = -inf")
    z = spec.standardize(tau)
    if spec.family is Family.NORMAL:
        # phi(z)/Phi(z) in log space stays accurate far into the lower tail
        log_cdf = special().log_ndtr(z)
        inv_mills = np.exp(-0.5 * np.square(z) - math.log(math.sqrt(2.0 * math.pi)) - log_cdf)
        out = spec.cost - spec.scale * inv_mills
    elif spec.family is Family.LOGISTIC:
        # E[C | C <= tau] = cost + scale * (z - softplus(z) / G(z))
        out = spec.cost + spec.scale * (z - np.logaddexp(0.0, z) / special().expit(z))
    else:
        if np.any(tau <= spec.uniform_lo):
            raise DomainError("F_C(tau) = 0 below the uniform support")
        out = 0.5 * (spec.uniform_lo + np.minimum(tau, spec.uniform_hi))
    return _as_float(out)


class RowWork:
    """Row buffers that the loss, its slope and its curvature reuse over one ``y*``.

    A workspace is bound to one ``spec`` and one ``y_star`` array: pass those
    same objects with ``work=`` (anything else raises ``ValidationError``),
    and scores of ``y_star``'s shape.  It holds ``y* - cost`` and the term
    the loss shares with its derivatives: ``phi(t)`` for the normal family,
    ``G(t)`` and ``G(-t)`` for the logistic family, ``y* - t`` for the
    uniform family.  The shared term belongs to the score array that last
    went through any of them; a call on that same object reuses it, a
    call on any other array recomputes it.  So do not write into a score
    array between the calls that share it.
    """

    def __init__(self, spec: SurrogateSpec, y_star):
        self.spec = spec
        self.y_star = np.asarray(y_star, dtype=float)
        uniform = spec.family is Family.UNIFORM
        self._resid0 = self.y_star if uniform else self.y_star - spec.cost
        shape = self.y_star.shape
        self._out = np.empty(shape)
        self._tmp = np.empty(shape)
        n_shared = 2 if spec.family is Family.LOGISTIC else 1
        self._shared = [np.empty(shape) for _ in range(n_shared)]
        self._scores = None  # the array self._shared was computed from

    def _share(self, t):
        if t is self._scores:
            return
        if self.spec.family is Family.NORMAL:
            _phi(t, out=self._shared[0])
        elif self.spec.family is Family.LOGISTIC:
            g_pos, g_neg = self._shared
            expit = special().expit
            expit(t, out=g_pos)
            expit(np.negative(t, out=g_neg), out=g_neg)
        else:
            np.subtract(self._resid0, t, out=self._shared[0])
        self._scores = t


def _bind(spec, tau_bar, y_star, work):
    """The workspace a call runs on, and its scores as a float array.

    Without ``work`` the inputs are broadcast against each other and a fresh
    workspace is built on them, so an allocating call runs the same code.
    """
    tau_bar = np.asarray(tau_bar, dtype=float)
    if work is None:
        tau_bar, y_star = np.broadcast_arrays(tau_bar, np.asarray(y_star, dtype=float))
        return RowWork(spec, y_star), tau_bar
    if work.spec is not spec or work.y_star is not y_star:
        raise ValidationError("workspace was built for another spec or y_star")
    return work, tau_bar


def loss_q(spec: SurrogateSpec, tau_bar, y_star, *, work: RowWork | None = None):
    """Per-observation objective term (to be maximized).

    ``tau_bar`` is the standardized score for normal/logistic, the raw money
    score for uniform.  Broadcasts over array inputs.  With ``work`` (see
    :class:`RowWork`) the terms are written into, and returned as, the
    workspace's output buffer, valid until its next call.

    Normal:   Phi(t) * (y* - cost) + sigma * phi(t)
    Logistic: G(t) * (y* - cost) + sigma * (t * (1 - G(t)) - ln G(t))
    Uniform:  -(y* - tau)^2   (constant offsets dropped; same argmax)
    """
    w, t = _bind(spec, tau_bar, y_star, work)
    w._share(t)
    out, tmp = w._out, w._tmp
    if spec.family is Family.NORMAL:
        _Phi(t, out=out)
        out *= w._resid0
        np.multiply(w._shared[0], spec.scale, out=tmp)
        out += tmp
    elif spec.family is Family.LOGISTIC:
        # 1 - G(t) = G(-t) and ln G(t) = -softplus(-t), both overflow-safe
        g_pos, g_neg = w._shared
        np.multiply(t, g_neg, out=out)
        out -= special().log_expit(t, out=tmp)
        out *= spec.scale
        out += np.multiply(g_pos, w._resid0, out=tmp)
    else:
        np.square(w._shared[0], out=out)
        np.negative(out, out=out)
    return _as_float(out)


def dloss_dtau(spec: SurrogateSpec, tau_bar, y_star, *, work: RowWork | None = None):
    """First derivative of :func:`loss_q` in its ``tau_bar`` argument.

    Reported per unit of the standardized score; divide by ``sigma`` for the
    per-unit-money gradient used in covariance estimation (see module note).
    ``work`` is as for :func:`loss_q`; called on the array the last
    ``loss_q`` saw, it reuses that call's shared term.
    """
    w, t = _bind(spec, tau_bar, y_star, work)
    w._share(t)
    out = w._out
    if spec.family is Family.UNIFORM:
        np.multiply(w._shared[0], 2.0, out=out)
        return _as_float(out)
    # (y* - cost) - sigma * t, times the density: phi(t), or G(t) * G(-t)
    np.multiply(t, spec.scale, out=out)
    np.subtract(w._resid0, out, out=out)
    if spec.family is Family.NORMAL:
        out *= w._shared[0]
    else:
        out *= np.multiply(*w._shared, out=w._tmp)
    return _as_float(out)


def d2loss_dtau2(spec: SurrogateSpec, tau_bar, y_star, *, work: RowWork | None = None):
    """Second derivative of :func:`loss_q` in its ``tau_bar`` argument.

    This is the scalar curvature factor ``s_i`` of a linear model fitted on
    the internal scale: its Hessian contribution is ``s_i * x x^T``.  Divide
    by ``sigma**2`` for the money-scale curvature.  ``work`` is as for
    :func:`loss_q`, but the result is a fresh array.
    """
    w, t = _bind(spec, tau_bar, y_star, work)
    if spec.family is Family.UNIFORM:
        return _as_float(np.full(t.shape, -2.0))
    w._share(t)
    resid = w._resid0 - spec.scale * t
    if spec.family is Family.NORMAL:
        out = -w._shared[0] * (t * resid + spec.scale)
    else:
        g_pos, g_neg = w._shared
        out = -(g_pos * g_neg) * ((2.0 * g_pos - 1.0) * resid + spec.scale)
    return _as_float(out)


def scalar_surrogate_value(prob: ScalarSurrogateProblem, tau):
    """Population surrogate objective F_C(tau) * (tau0 - kappa_C(tau)).

    Computed as ``F_C(tau) * tau0 - partial_mean(tau)``, which avoids any
    division by F_C and is therefore exact at both tails.
    """
    return _as_float(cdf(prob.spec, tau) * prob.tau0 - partial_mean(prob.spec, tau))


def default_bracket(spec: SurrogateSpec, tau0=None):
    """Search bracket with negligible threshold mass outside.

    Normal/logistic: ``cost +- 10 sigma``, widened to include ``tau0`` when
    given.  Uniform: the support itself, likewise widened.
    """
    if spec.family is Family.UNIFORM:
        lo, hi = spec.uniform_lo, spec.uniform_hi
    else:
        lo, hi = spec.cost - 10.0 * spec.scale, spec.cost + 10.0 * spec.scale
    if tau0 is not None:
        pad = max(1.0, spec.scale if spec.family is not Family.UNIFORM else 1.0)
        lo, hi = min(lo, tau0 - pad), max(hi, tau0 + pad)
    return lo, hi


def scalar_argmax(prob: ScalarSurrogateProblem, lo=None, hi=None, tol=1e-8):
    """Bounded Brent maximizer of :func:`scalar_surrogate_value`.

    Returns a point within about ``tol`` of the maximizer.  Raises
    :class:`SearchError` if an endpoint value strictly exceeds the value at
    the returned point, i.e. the bracket holds no interior maximum.
    """
    # imported here: scipy.optimize would add a quarter second to every
    # `import policycate`, and only this function needs it
    from scipy.optimize import minimize_scalar

    if lo is None or hi is None:
        d_lo, d_hi = default_bracket(prob.spec, prob.tau0)
        lo = d_lo if lo is None else lo
        hi = d_hi if hi is None else hi
    if not (lo < hi):
        raise ValidationError("need lo < hi")
    require(tol, "pos_num", "tol")

    def f(t):
        return scalar_surrogate_value(prob, t)

    res = minimize_scalar(
        lambda t: -f(t), bounds=(float(lo), float(hi)), method="bounded", options={"xatol": tol}
    )
    best = -res.fun
    if f(lo) > best or f(hi) > best:
        raise SearchError("no interior maximum: an endpoint dominates the interior optimum")
    return float(res.x)


def stepwise_value(prob: ScalarSurrogateProblem, tau):
    """Original stepwise payoff 1{tau >= cost} * (tau0 - cost)."""
    tau = np.asarray(tau, dtype=float)
    out = np.where(tau >= prob.spec.cost, prob.tau0 - prob.spec.cost, 0.0)
    return _as_float(out)


def objective_curve(prob: ScalarSurrogateProblem, grid):
    """Evaluate the surrogate and stepwise objectives on a sorted grid.

    Returns a list of ``(tau, surrogate_value, stepwise_value)`` triples,
    ready for CSV emission.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("grid must be nonempty")
    if np.any(np.diff(grid) < 0):
        raise ValidationError("grid must be sorted ascending")
    surr = np.atleast_1d(scalar_surrogate_value(prob, grid))
    step = np.atleast_1d(stepwise_value(prob, grid))
    return [(float(t), float(s), float(p)) for t, s, p in zip(grid, surr, step)]
