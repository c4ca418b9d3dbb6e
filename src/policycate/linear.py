"""Linear CATE models fitted by maximizing the smoothed targeting objective.

The model is ``tau(x) = x' theta`` on the internal scale of the chosen
threshold family (see ``policycate.surrogate``): for normal/logistic
families the fitted score is standardized and maps to money units via
``sigma * x' theta + cost``; for the uniform family the score is already in
money units and the fit coincides with least squares on the transformed
outcome.

The objective is smooth, and the optimizer is deterministic full-batch
gradient ascent from the least-squares start with a backtracking Armijo
line search (shrink 0.5, slope factor 1e-4).  The accepted objective
sequence is nondecreasing by construction and checked every iteration.
Each Armijo trial costs one loss evaluation; the accepted trial's scores
and loss are reused, so an iteration adds only the gradient pass on top of
its trials.  One ``surrogate.RowWork`` per fit holds every row buffer and
``y* - cost``, and the gradient pass reuses the accepted trial's density
term, so a trial allocates only its score vector.  An iteration is then
about two trials (a design product and a loss pass each) plus a slope pass
and a transposed product.  On 2,400-row folds with the normal family that
is about 215 us, and ``erfc`` is about 90 us of it (one BLAS thread, 2-core
x86 VM).

Arrays stored on a ``Dataset``, ``TransformedDataset`` or fit result are
read-only float64.  ``read_only`` keeps an array as it is when nothing can
write to it any more, and copies it otherwise, so a caller hands an array
over by sealing it (``a.setflags(write=False)``) and keeps a private copy
of anything it leaves writable.  ``row_vector`` reads every per-row vector
(an outcome, a policy, a prediction, an oracle effect) and checks its length;
``row_matrix`` reads every row matrix (covariates, a design, a model's input
rows) and checks its width.

Rows are walked in the blocks of ``row_blocks``, which the dataset writer
in ``policycate.dataio`` shares.  ``fork_map`` over ``fit_workers()``
processes is the one way work fans out: CV and frontier fits, ``table2``'s
replications and large scorings.  ``score_rows`` is the one scoring walk,
for ``predict_rows`` and the network scoring in ``policycate.mlp``; it owns
the fan-out floor :data:`FORK_MIN_MADDS`, the output array and the
floating-point policy.  Linear scoring stays below the floor at every size
the package scores (1e6 rows of 11 terms is 1.1e7): forked, it lost below
about 1e6 rows (10.1 against 2.8 ms at two blocks) and saved 10 ms at 1e6
rows (48 against 58 ms; one BLAS thread, 2-core x86 VM).
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import surrogate as sg
from .errors import (
    DimensionError,
    OverlapError,
    SingularDesignError,
    SingularHessianError,
    ValidationError,
    require,
)

OVERLAP_EPS = 1e-6
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
# Rows per scoring block.  Not below the largest split table2 trains on
# (8,500 rows), so each per-epoch network objective there is a single block.
BLOCK_ROWS = 16384
# A scoring fans out over ``fit_workers()`` processes from this many
# multiply-adds on: rows times those of a row (a design's width, a network's
# sum of fan_in * fan_out).  Below it a pool costs more than the second core
# saves: with one BLAS thread on a 2-core x86 VM, the 10-64-64-1 network took
# 18 ms inline and 20 ms forked at two blocks (1.6e8), 35 and 27 ms at three
# (2.4e8), and 0.50 and 0.30 s at 1e6 rows; a 10-16-1 relu network lost up to
# 131,072 rows (2.3e7) and at 1e6 rows (1.8e8) took 61 ms inline, 57 forked.
FORK_MIN_MADDS = 2e8


def read_only(a):
    """``a`` as a read-only, C-contiguous float64 array, copied only when needed.

    Such an array is kept as it is when it is read-only and so is the array
    that owns its memory: nobody can change it without first unsealing that
    owner, which the hand-over contract forbids.  Anything else, a writable
    array above all, is copied and the copy sealed.
    """
    if (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.c_contiguous
        and not a.flags.writeable
    ):
        owner = a
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if owner.base is None and not owner.flags.writeable:
            return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def row_vector(a, n=None, name="values", finite=False):
    """``a`` as a flat float64 vector, one value per row.

    Given ``n``, any other length raises :class:`DimensionError` naming
    ``name``; with ``finite``, a NaN or infinite value raises
    :class:`ValidationError`.  A contiguous float64 array is not copied.
    """
    v = np.asarray(a, dtype=float).ravel()
    if n is not None and v.shape[0] != n:
        raise DimensionError(f"{name} has {v.shape[0]} values for {n} rows")
    if finite and not np.all(np.isfinite(v)):
        raise ValidationError(f"non-finite {name}")
    return v


def row_matrix(a, k=None, name="x", finite=False):
    """``a`` as a 2-D float64 array of rows; a 1-D ``a`` is one row.

    Given ``k``, any other width raises :class:`DimensionError` naming
    ``name``; with ``finite``, a NaN or infinite entry raises
    :class:`ValidationError`.  A float64 array is not copied.
    """
    x = np.atleast_2d(np.asarray(a, dtype=float))
    if k is not None and x.shape[1] != k:
        raise DimensionError(f"{name} has {x.shape[1]} features, model expects {k}")
    if finite and not np.all(np.isfinite(x)):
        raise ValidationError(f"non-finite {name}")
    return x


@dataclass(frozen=True)
class Dataset:
    """One experiment: covariate rows, binary treatment, outcome, propensity.

    ``x`` may be raw covariates or an already-built design matrix.
    Propensities must respect the overlap band (eps, 1 - eps) with
    eps = 1e-6.

    Each field is stored through ``read_only``: a sealed float64 array whose
    owner is sealed too is shared, so a 1e6-row draw is not held twice, and
    anything writable is copied, so later writes by the caller cannot reach
    the dataset.
    """

    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        x = row_matrix(self.x, name="covariates", finite=True)
        n = x.shape[0]
        if n < 1:
            raise ValidationError("need at least one observation")
        w, e = row_vector(self.w, n, "w"), row_vector(self.e, n, "e")
        y = row_vector(self.y, n, "y", finite=True)
        if not np.all((w == 0.0) | (w == 1.0)):
            raise ValidationError("treatment indicator must be binary")
        # written so that a NaN propensity fails it
        if not (np.all(e > OVERLAP_EPS) and np.all(e < 1.0 - OVERLAP_EPS)):
            raise OverlapError(
                f"propensities must lie in ({OVERLAP_EPS:g}, {1 - OVERLAP_EPS:g})"
            )
        for name, arr in (("x", x), ("w", w), ("y", y), ("e", e)):
            object.__setattr__(self, name, read_only(arr))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class TransformedDataset:
    """Design rows plus the propensity-weighted transformed outcome.

    Arrays are stored through ``read_only``, as on ``Dataset``.
    """

    x: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        x = row_matrix(self.x, name="design rows", finite=True)
        ys = row_vector(self.y_star, x.shape[0], "y_star", finite=True)
        object.__setattr__(self, "x", read_only(x))
        object.__setattr__(self, "y_star", read_only(ys))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.x.shape[1]

    def subset(self, idx):
        # built past __post_init__: the rows were checked when this dataset was
        sub = object.__new__(TransformedDataset)
        for name in ("x", "y_star"):
            part = getattr(self, name)[idx]
            # sealed so that a fresh fancy-index copy is handed over, not copied again
            part.setflags(write=False)
            object.__setattr__(sub, name, read_only(part))
        return sub

    def with_design(self, x_design):
        return TransformedDataset(x_design, self.y_star)


def transform_outcomes(data: Dataset) -> TransformedDataset:
    """IPW outcome transform: y* = y * (w/e - (1-w)/(1-e)).

    The result is conditionally unbiased for the CATE under random
    assignment with known propensities; ``Dataset`` has already checked the
    overlap band.  The result shares the dataset's covariate rows.
    """
    e = data.e
    y_star = data.y * (data.w / e - (1.0 - data.w) / (1.0 - e))
    y_star.setflags(write=False)  # a fresh array, handed over rather than copied
    return TransformedDataset(data.x, y_star)


def _decimal(digits):
    """``int(digits)``, or 0 when ``digits`` is not decimal or too long for ``int``."""
    try:
        return int(digits) if digits.isdecimal() else 0
    except ValueError:
        return 0


def parse_design(terms):
    """The ``(J, P)`` pair of each design term: ``(None, None)`` for ``"1"`` (the
    intercept), ``(J, None)`` for ``"xJ"`` (column J >= 1) and ``(J, P)`` for
    ``"xJ^P"`` (power P >= 1), from a non-empty list or tuple of strings such as
    ``["1", "x1", "x1^2"]`` (whitespace around a term is ignored).  The one check
    of the grammar; only the rows can tell :func:`build_design` whether column J exists.
    """
    if not isinstance(terms, (list, tuple)):
        raise ValidationError(f"design {terms!r} is not a list of terms")
    parsed = []
    for term in terms:
        t = term.strip() if isinstance(term, str) else ""
        base, caret, power = t.partition("^")
        if t == "1":
            parsed.append((None, None))
        elif not (base.startswith("x") and _decimal(base[1:]) >= 1):
            raise ValidationError(f"unrecognized design term {term!r}")
        elif caret and not _decimal(power) >= 1:
            raise ValidationError(f"bad power in design term {term!r}")
        else:
            parsed.append((int(base[1:]), int(power) if caret else None))
    if not parsed:
        raise ValidationError("design needs at least one term")
    return parsed


def build_design(x_raw, terms):
    """Assemble a design matrix from the term strings of :func:`parse_design`."""
    x_raw = row_matrix(x_raw)
    cols = []
    for term, (j, power) in zip(terms, parse_design(terms)):
        if j is None:
            cols.append(np.ones(x_raw.shape[0]))
            continue
        if j > x_raw.shape[1]:
            raise DimensionError(f"design term {term!r} exceeds {x_raw.shape[1]} columns")
        col = x_raw[:, j - 1]
        if power is not None:
            with np.errstate(over="ignore"):  # row_matrix reports non-finite rows
                col = col**power
        cols.append(col)
    return np.column_stack(cols)


def ols_solution(x, y):
    """Closed-form least squares of y on x; errors on rank-deficient designs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # lstsq's rank cuts at eps * max(n, k) * s_max, matrix_rank's default
    theta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise SingularDesignError("design matrix is rank deficient")
    return theta


@dataclass(frozen=True)
class LinearFitConfig:
    spec: sg.SurrogateSpec
    max_iters: int = 10_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        require(self.max_iters, "pos_int", "max_iters")
        require(self.grad_tol, "pos_num", "grad_tol")


@dataclass(frozen=True)
class SandwichCovariance:
    """Plug-in pieces of the asymptotic covariance B^-1 M B^-1 / n."""

    b_hat: np.ndarray
    m_hat: np.ndarray
    sandwich: np.ndarray
    std_errors: np.ndarray


@dataclass(frozen=True)
class LinearFitResult:
    """A linear fit.  ``theta`` is on the internal scale; ``theta_external``
    holds money-scale coefficients, ``x @ theta_external`` the money-scale
    CATE, with the cost on the design's all-ones column.  It is None for a
    normal or logistic fit on a design without one."""

    theta: np.ndarray
    theta_external: Optional[np.ndarray]
    spec: sg.SurrogateSpec
    converged: bool
    iters: int
    final_gradient_norm: float
    objective: float
    std_errors: Optional[np.ndarray] = None


def _scores(theta, td: TransformedDataset):
    """The linear scores ``td.x @ theta``, once theta's length matches the design."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != td.k:
        raise DimensionError("theta length does not match design width")
    return td.x @ theta


def surrogate_objective(theta, td: TransformedDataset, spec: sg.SurrogateSpec):
    """Sample objective Q_n(theta): mean per-observation term at x' theta."""
    return float(np.mean(sg.loss_q(spec, _scores(theta, td), td.y_star)))


def surrogate_gradient(theta, td: TransformedDataset, spec: sg.SurrogateSpec):
    """Gradient of :func:`surrogate_objective` in theta (internal scale)."""
    scores = _scores(theta, td)
    return td.x.T @ np.asarray(sg.dloss_dtau(spec, scores, td.y_star)) / td.n


def _external_map(theta, spec, x):
    if spec.family is sg.Family.UNIFORM:
        return read_only(theta)
    ones = next((j for j in range(x.shape[1]) if np.all(x[:, j] == 1.0)), None)
    if ones is None:
        return None
    ext = spec.scale * theta
    ext[ones] += spec.cost
    return read_only(ext)


def fit_linear(td: TransformedDataset, cfg: LinearFitConfig) -> LinearFitResult:
    """Maximize Q_n(theta) over linear scores by smooth ascent from OLS.

    The start is the least-squares fit of the standardized outcome.
    Deterministic given inputs.  ``converged`` reports whether the sup-norm
    of the gradient reached ``grad_tol`` within ``max_iters``.  For the
    uniform family the maximizer is the closed-form least squares fit, which
    the start hits immediately.  The sandwich standard errors are attached
    when the fit converged.
    """
    x, y_star = td.x, td.y_star
    n, k = x.shape
    if k > n:
        raise DimensionError(f"need at least as many rows as columns (n={n}, k={k})")
    spec = cfg.spec

    # one workspace serves every row pass of the fit; np.add.reduce(q) / n is
    # np.mean(q) bit for bit, without the wrapper
    work = sg.RowWork(spec, y_star)

    def objective(s):
        return float(np.add.reduce(sg.loss_q(spec, s, y_star, work=work)) / n)

    def gradient(s):
        return x.T @ sg.dloss_dtau(spec, s, y_star, work=work) / n

    theta = ols_solution(x, spec.standardize(y_star))
    scores = x @ theta
    obj = objective(scores)
    grad = gradient(scores)
    gnorm = float(np.abs(grad).max(initial=0.0))
    step = 1.0
    iters = 0
    stalled = 0
    converged = gnorm <= cfg.grad_tol

    while not converged and iters < cfg.max_iters:
        iters += 1
        step = min(step * 2.0, 1e12)  # optimistic restart, then backtrack
        accepted = False
        while step > 1e-20:
            cand = theta + step * grad
            delta = cand - theta
            cand_scores = x @ cand
            obj_new = objective(cand_scores)
            if obj_new >= obj + ARMIJO_SLOPE * float(delta @ delta) / step:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break  # flat to machine precision; no ascent step exists
        if obj_new < obj:
            raise AssertionError("line search produced a decreasing objective")
        # near the optimum the per-step gain drops below float resolution of
        # the objective; stop once steps carry no representable progress
        stalled = stalled + 1 if obj_new == obj else 0
        # the accepted trial's scores and loss are the new point's, and it was
        # the last loss call, so the gradient reuses that call's shared term
        theta, obj, scores = cand, obj_new, cand_scores
        grad = gradient(scores)
        gnorm = float(np.abs(grad).max(initial=0.0))
        converged = gnorm <= cfg.grad_tol
        if stalled >= 5 or not delta.any():
            break

    std_errors = None
    if converged:
        try:
            std_errors = sandwich_covariance(theta, td, spec).std_errors
        except SingularHessianError:
            pass  # report the fit without inference
    return LinearFitResult(
        theta=read_only(theta),
        theta_external=_external_map(theta, spec, x),
        spec=spec,
        converged=bool(converged),
        iters=iters,
        final_gradient_norm=gnorm,
        objective=obj,
        std_errors=std_errors,
    )


def sandwich_covariance(theta_hat, td: TransformedDataset, spec: sg.SurrogateSpec):
    """Asymptotic covariance of the money-scale coefficients.

    Builds B-hat from per-observation curvatures and M-hat from squared
    per-observation gradients, both on the money scale (internal-scale
    derivatives divided by sigma and sigma^2; identity for uniform), so the
    standard errors apply to ``theta_external``.  For the uniform family
    this reduces exactly to the heteroskedasticity-robust least-squares
    covariance.
    """
    x, y_star = td.x, td.y_star
    n = x.shape[0]
    scores = _scores(theta_hat, td)
    work = sg.RowWork(spec, y_star)
    g_i = sg.dloss_dtau(spec, scores, y_star, work=work)
    s_i = sg.d2loss_dtau2(spec, scores, y_star, work=work)
    if spec.family is not sg.Family.UNIFORM:
        g_i = g_i / spec.scale
        s_i = s_i / spec.scale**2
    b_hat = x.T @ (s_i[:, None] * x) / n
    m_hat = x.T @ (np.square(g_i)[:, None] * x) / n
    if not np.all(np.isfinite(b_hat)) or np.linalg.cond(b_hat) > 1e12:
        raise SingularHessianError("curvature matrix is numerically singular")
    b_inv_m = np.linalg.solve(b_hat, m_hat)
    sandwich = np.linalg.solve(b_hat, b_inv_m.T).T / n
    sandwich = 0.5 * (sandwich + sandwich.T)
    std_errors = np.sqrt(np.maximum(np.diag(sandwich), 0.0))
    return SandwichCovariance(
        b_hat=read_only(b_hat),
        m_hat=read_only(m_hat),
        sandwich=read_only(sandwich),
        std_errors=read_only(std_errors),
    )


def row_blocks(n):
    """``(start, stop)`` blocks of ``BLOCK_ROWS`` rows that cover ``range(n)``.

    A lone last row joins the block before it: numpy takes a one-row
    product through ``dot``, which may round differently.
    """
    start = 0
    while start < n:
        stop = n if n - start <= BLOCK_ROWS + 1 else start + BLOCK_ROWS
        yield start, stop
        start = stop


# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fit_workers():
    """How many processes fits and large scorings use: usable cores // BLAS threads.

    BLAS threads are the first positive integer among
    :data:`BLAS_THREAD_VARS`, else the usable core count (OpenBLAS's own
    default), so with none of them set this is 1 and BLAS keeps every core.
    Callers look it up here at call time, so replacing it reaches them all.
    """
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        usable = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            return max(1, usable // int(value))
    return 1


_task = None  # a fork_map worker's fn, inherited from the parent


def _adopt(fn):
    global _task
    _task = fn


def _run_task(i):
    return _task(i)


def fork_map(fn, n, workers):
    """``[fn(i) for i in range(n)]``, over up to ``workers`` forked processes.

    A worker inherits ``fn`` and all it refers to, so closures need not
    pickle: only the index goes in, and only the result, which must pickle,
    comes back.  It runs inline with one worker, inside a worker (pools
    never nest) and where fork is unavailable.  A forked worker inherits the
    caller's BLAS set-up, so the results are those of the inline run.
    """
    workers = min(workers, n)
    if (
        workers <= 1
        or multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [fn(i) for i in range(n)]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(fn,),
    )
    try:
        return list(pool.map(_run_task, range(n)))
    finally:
        # a failed task must not leave queued work or live workers
        pool.shutdown(cancel_futures=True)


def score_rows(n, madds_per_row, score_run):
    """The ``n`` scores that ``score_run(blocks, out)`` writes, one block at a time.

    ``score_run`` writes each ``(start, stop)`` block of :func:`row_blocks` it
    is given into ``out[start:stop]``, in buffers of its own.  From
    :data:`FORK_MIN_MADDS` (``n * madds_per_row``) on, with more than one
    ``fit_workers()``, each forked worker takes one contiguous run of the
    blocks and writes into ``out``, one shared anonymous mapping, so nothing
    is pickled back.  The blocks and their code are the inline walk's, so the
    scores are bitwise its.  Overflow is not reported: callers check finiteness.
    """
    blocks = list(row_blocks(n))
    workers = 1
    if n * madds_per_row >= FORK_MIN_MADDS:
        workers = min(fit_workers(), len(blocks))
    out = np.empty(n) if workers == 1 else np.frombuffer(mmap.mmap(-1, 8 * n))  # MAP_SHARED
    runs = np.array_split(blocks, workers)

    def run(i):
        with np.errstate(over="ignore", invalid="ignore"):
            score_run(runs[i], out)

    fork_map(run, workers, workers)
    return out


def predict_rows(theta, spec: sg.SurrogateSpec, x, design=None):
    """Money-scale scores ``spec.unstandardize(xd @ theta)``, through :func:`score_rows`.

    ``xd`` is ``build_design(x, design)`` for raw rows ``x``, or ``x`` itself
    when ``design`` is None.  The width is checked once, before any block is
    built and multiplied, so temporaries grow with the block, not with the
    row count.  The result equals a one-thread whole-array product bitwise.
    """
    theta = np.asarray(theta, dtype=float)
    x = row_matrix(x)
    row_matrix(x[:0] if design is None else build_design(x[:0], design), theta.shape[0])

    def score_run(blocks, out):
        for start, stop in blocks:
            xd = x[start:stop] if design is None else build_design(x[start:stop], design)
            out[start:stop] = spec.unstandardize(xd @ theta)

    return score_rows(x.shape[0], theta.shape[0], score_run)


def predict_cate(result: LinearFitResult, x_new, design=None):
    """Money-scale CATE predictions for new rows, as :func:`predict_rows` reads them.

    ``x_new`` holds design rows, or raw covariate rows when ``design`` gives
    the terms the fit was made on.
    """
    return predict_rows(result.theta, result.spec, x_new, design=design)


def policy_from_cate(tau_hat, c):
    """Treat exactly the units with predicted effect at or above the cost."""
    return (np.asarray(tau_hat, dtype=float) >= c).astype(np.int64)
