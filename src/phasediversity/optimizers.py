"""Line-search minimization of real-valued functions of complex variables.

All directional quantities use the real part of the complex inner
product: a direction d is a descent direction when Re(d* g) < 0, and an
accepted step length alpha must satisfy both Wolfe conditions

    f(z + alpha d) <= f(z) + c1 alpha Re(d* g)
    Re(d* g_new)   >= c2 Re(d* g)

with 0 < c1 < c2 < 1.  The search sees only the slice phi(alpha) =
f(z + alpha d): it takes phi(0) = f(z) and phi'(0) = Re(d* g), not the
gradient.  It is one bracketing loop with cubic interpolation, initial
trial alpha = 1, expansion factor 2 and a fixed budget of 50
function/gradient evaluations per search; a trial with a non-finite
value or slope counts as a step too long.

Methods, all run by :func:`solve` and selected by ``SolverConfig.method``:
steepest descent, Hestenes-Stiefel nonlinear conjugate gradient,
limited-memory BFGS (two-loop recursion on the complex gradient) and
truncated Newton with matrix-free inner CG.  They share one iteration
body and differ only in the search direction; a failed search retries
once along -g, unless the failed direction already equals -g.
:func:`misell_iterate` runs the Misell alternating-projection baseline.
Every run records one :class:`TraceRecord` per iteration in a
:class:`RunTrace`, written as CSV by ``fields.write_csv``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .fields import aligned_rms, blocked_vdot, write_csv
from .forward import (
    DiversityPlan,
    PupilGrid,
    diversity_adjoint,
    diversity_forward,
)
from .objectives import MeasurementSet

__all__ = [
    "LINE_SEARCH_METHODS",
    "METHODS",
    "SolverConfig",
    "TraceRecord",
    "RunTrace",
    "LineSearchError",
    "LineSearchResult",
    "wolfe_line_search",
    "LbfgsMemory",
    "lbfgs_direction",
    "hestenes_stiefel_beta",
    "solve",
    "modulus_residual",
    "misell_iterate",
]

LINE_SEARCH_METHODS = ("SD", "NCG", "LBFGS", "TN")  # the methods solve runs
METHODS = (*LINE_SEARCH_METHODS, "MISELL")
_MAX_EVALS = 50  # function/gradient evaluations per line search


def _redot(a: np.ndarray, b: np.ndarray) -> float:
    """Re(a* b), the real inner product underlying all direction tests."""
    return float(blocked_vdot(a, b).real)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm ||x|| = sqrt(Re(x* x))."""
    return math.sqrt(_redot(x, x))


@dataclass
class SolverConfig:
    """Solver settings; defaults follow the benchmark protocol."""

    method: str = "LBFGS"
    max_iters: int = 150
    tol_fun: float = 1e-12
    tol_x: float = 1e-12
    grad_tol: float = 1e-12
    c1: float = 1e-4
    c2: float = 0.9
    lbfgs_memory: int = 2
    tn_cg_max: int | None = None  # default 2N, set at run time
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"solver.method must be one of {METHODS}, "
                             f"got {self.method!r}")
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError(f"solver.c1 and solver.c2 must satisfy 0 < c1 < "
                             f"c2 < 1, got {self.c1} and {self.c2}")
        for name, least in (("lbfgs_memory", 1), ("max_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"solver.{name} must be >= {least}, "
                                 f"got {value}")
        for name in ("tol_fun", "tol_x", "grad_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"solver.{name} must be a finite number >= 0, "
                                 f"got {value}")
        if self.tn_cg_max is not None and self.tn_cg_max < 1:
            raise ValueError(f"solver.tn_cg_max must be >= 1 or none, "
                             f"got {self.tn_cg_max}")


class TraceRecord(NamedTuple):
    """One trace row; ``TRACE_COLUMNS`` gives each field's CSV column."""

    iteration: int
    f_value: float
    grad_norm: float
    step_alpha: float
    rms: float
    fft_calls: int
    negative_curvature: bool


# one CSV column per TraceRecord field, in order; a new column adds both
TRACE_COLUMNS = ("iter", "f", "grad_norm", "alpha", "rms", "fft_calls",
                 "neg_curv")


@dataclass
class RunTrace:
    """Per-iteration history of one solver run."""

    records: list = field(default_factory=list)
    stop_reason: str = ""

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    @property
    def f_values(self) -> np.ndarray:
        return np.array([r.f_value for r in self.records])

    @property
    def rms_values(self) -> np.ndarray:
        return np.array([r.rms for r in self.records])

    @property
    def fft_calls(self) -> int:
        return self.records[-1].fft_calls if self.records else 0

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    def to_csv(self, path, header: dict) -> None:
        """Write the records as a ``fields.write_csv`` table of TRACE_COLUMNS."""
        write_csv(path, self.records, header, TRACE_COLUMNS)


class LineSearchError(RuntimeError):
    """Raised when no Wolfe point is found within the evaluation budget."""


class LineSearchResult(NamedTuple):
    alpha: float
    z_new: np.ndarray
    f_new: float
    g_new: np.ndarray
    evaluations: int


def _cubic_minimizer(a, fa, da, b, fb, db):
    """Minimizer of the cubic Hermite interpolant on [a, b]; None if degenerate."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0 or not math.isfinite(disc):
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    cand = b - (b - a) * (db + d2 - d1) / denom
    if not math.isfinite(cand):
        return None
    return cand


def wolfe_line_search(f_and_grad: Callable, z: np.ndarray, d: np.ndarray,
                      f0: float, dphi0: float, c1: float = SolverConfig.c1,
                      c2: float = SolverConfig.c2) -> LineSearchResult:
    """Find a step length satisfying both Wolfe conditions along ``d``.

    Accepted steps satisfy the strong form |Re(d* g_new)| <= -c2 dphi0,
    which implies the curvature inequality Re(d* g_new) >= c2 dphi0;
    the strong form keeps near-exact minimizers on quadratic slices, which
    conjugate-gradient directions rely on.

    ``f_and_grad`` maps a point to (value, gradient); ``f0`` and ``dphi0``
    are the slice's value f(z) and slope Re(d* g) at ``z``, which the
    caller has already computed.  One loop narrows the bracket
    [lo, hi], with hi = inf until a trial is too long or the slope turns:
    the trials are 1, 2 lo, ... while hi = inf, then the safeguarded cubic
    minimizer on [lo, hi].  A trial is too long if its value or directional
    derivative is not finite (More & Thuente 1994), if it fails sufficient
    decrease, or if, after the first trial, it is no lower than lo.  Raises
    ValueError for a non-finite start value or slope or a non-descent
    direction (dphi0 >= 0) and LineSearchError, saying which, when the
    bracket collapses or 50 evaluations find no Wolfe point.
    """
    if not (math.isfinite(f0) and math.isfinite(dphi0)):
        raise ValueError("wolfe_line_search needs a finite value and slope "
                         "at the start point")
    if not dphi0 < 0.0:
        raise ValueError("wolfe_line_search requires a descent direction (Re(d*g) < 0)")

    lo, f_lo, d_lo = 0.0, f0, dphi0
    hi = f_hi = d_hi = math.inf
    for evals in range(1, _MAX_EVALS + 1):
        if math.isinf(hi):
            alpha = 1.0 if evals == 1 else 2.0 * lo
        else:
            width = abs(hi - lo)
            if width <= 1e-18 * max(1.0, abs(lo)):
                raise LineSearchError(f"line search bracket collapsed after "
                                      f"{evals - 1} evaluations")
            alpha = _cubic_minimizer(lo, f_lo, d_lo, hi, f_hi, d_hi)
            if alpha is None or not (min(lo, hi) + 0.1 * width <= alpha
                                     <= max(lo, hi) - 0.1 * width):
                alpha = 0.5 * (lo + hi)
        z_a = z + d if alpha == 1.0 else z + alpha * d
        f_a, g_a = f_and_grad(z_a)
        dphi_a = _redot(d, g_a)
        if (not (math.isfinite(f_a) and math.isfinite(dphi_a))
                or f_a > f0 + c1 * alpha * dphi0 or (evals > 1 and f_a >= f_lo)):
            hi, f_hi, d_hi = alpha, f_a, dphi_a
        elif abs(dphi_a) <= -c2 * dphi0:
            return LineSearchResult(alpha, z_a, f_a, g_a, evals)
        else:  # with hi = inf, a turned slope closes the bracket at lo
            if dphi_a * (hi - lo) >= 0.0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = alpha, f_a, dphi_a
    raise LineSearchError(f"line search exhausted its evaluation budget "
                          f"of {_MAX_EVALS}")


def hestenes_stiefel_beta(g: np.ndarray, g_prev: np.ndarray,
                          d_prev: np.ndarray) -> float:
    """Conjugate-gradient coefficient Re(g*(g-g_prev)) / Re(d_prev*(g-g_prev)).

    Returns 0 (a steepest-descent reset) when the denominator is
    smaller than 1e-30 in magnitude, e.g. when consecutive gradients
    coincide.
    """
    y = g - g_prev
    denom = _redot(d_prev, y)
    if abs(denom) < 1e-30:
        return 0.0
    return _redot(g, y) / denom


class LbfgsMemory:
    """Ring buffer of curvature pairs (s_i, y_i, rho_i, ys_i), with
    ys_i = Re(y_i* s_i) and rho_i = 1/ys_i.

    Pairs with Re(y* s) <= 0 are rejected so the implicit inverse-Hessian
    approximation stays positive definite.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("memory capacity must be >= 1")
        self.pairs = deque(maxlen=capacity)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        ys = _redot(y, s)
        if ys <= 0.0:
            return False
        self.pairs.append((s, y, 1.0 / ys, ys))
        return True

    def __len__(self) -> int:
        return len(self.pairs)


def lbfgs_direction(g: np.ndarray, memory: LbfgsMemory) -> np.ndarray:
    """Two-loop recursion; empty memory gives -g (cold start, gamma = 1)."""
    d = -np.asarray(g, dtype=complex)
    if len(memory) == 0:
        return d
    alphas = []
    for s, y, rho, _ in reversed(memory.pairs):
        a_i = rho * _redot(s, d)
        d = d - a_i * y
        alphas.append(a_i)
    _, y_l, _, ys_l = memory.pairs[-1]
    d = d * (ys_l / _redot(y_l, y_l))
    for (s, y, rho, _), a_i in zip(memory.pairs, reversed(alphas)):
        b = rho * _redot(y, d)
        d = d + (a_i - b) * s
    return d


def _newton_cg_direction(obj, z, g, cg_max):
    """Inexact Newton direction from matrix-free CG on H d = -g.

    Stops at the forcing tolerance min(0.5, sqrt(||g||)) ||g|| or on
    nonpositive curvature, in which case the current CG iterate (or -g
    on the first step) is returned with the curvature flag set.
    """
    apply_h = obj.hessian_operator(z)
    d = np.zeros_like(g)
    r = -g
    p = r.copy()
    rr = _redot(r, r)
    gnorm = math.sqrt(rr)
    tol = min(0.5, math.sqrt(gnorm)) * gnorm
    negative = False
    for _ in range(cg_max):
        Hp = apply_h(p)
        pHp = _redot(p, Hp)
        if pHp <= 0.0:
            negative = True
            break
        step = rr / pHp
        d = d + step * p
        r = r - step * Hp
        rr_new = _redot(r, r)
        if math.sqrt(rr_new) <= tol:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    if not np.any(d):
        d = -g
    return d, negative


def _rms_or_nan(truth, point, truth_norm=None) -> float:
    """Aligned RMS of ``point`` against ``truth``, whose norm may be given;
    NaN without a truth."""
    if truth is None:
        return float("nan")
    return aligned_rms(truth, point, u_norm=truth_norm)


def solve(obj, config: SolverConfig, z0: np.ndarray,
          truth: np.ndarray | None = None):
    """Minimize with the method named in ``config``; returns (z, RunTrace).

    ``obj`` provides ``value_and_gradient(z) -> (value, gradient)`` and
    an ``fft_calls`` count recorded per iteration; TN also calls
    ``hessian_operator(z)``, which returns the Hessian action h -> H h at
    ``z``.  :class:`~phasediversity.objectives.DataMisfit` provides all
    three.

    ``truth`` (optional) enables the per-iteration aligned-RMS column.
    Each iteration records the current point, then stops on the first of
    tol_fun, tol_x, grad_zero and max_iters that holds.  Each searched
    direction d gets its slope Re(d* g) once, which the search takes with
    f; a direction with slope >= 0 is replaced by -g, whose slope is
    -||g||^2.  A failed line search retries once along -g, unless the
    failed direction already equals -g, in which case the run stops with
    line_search_fail.
    """
    method = config.method
    if method not in LINE_SEARCH_METHODS:
        raise ValueError(f"solve runs {', '.join(LINE_SEARCH_METHODS)}, not "
                         f"{method!r}; misell_iterate runs MISELL")

    z = np.array(z0, dtype=complex)
    truth_norm = None
    if truth is not None:
        truth = np.asarray(truth, dtype=complex)
        truth_norm = _norm(truth)
    trace = RunTrace()
    f, g = obj.value_and_gradient(z)
    memory = LbfgsMemory(config.lbfgs_memory)
    cg_max = config.tn_cg_max if config.tn_cg_max is not None else 2 * z.size
    alpha, negative_curvature = float("nan"), False

    for k in range(config.max_iters + 1):
        gg = _redot(g, g)
        gnorm = math.sqrt(gg)
        trace.append(TraceRecord(k, f, gnorm, alpha,
                                 _rms_or_nan(truth, z, truth_norm),
                                 obj.fft_calls, negative_curvature))
        if k > 0 and abs(f_old - f) <= config.tol_fun * max(1.0, abs(f_old)):
            trace.stop_reason = "tol_fun"
        elif k > 0 and _norm(s) <= config.tol_x * max(1.0, z_old_norm):
            trace.stop_reason = "tol_x"
        elif gnorm <= config.grad_tol:
            trace.stop_reason = "grad_zero"
        elif k == config.max_iters:
            trace.stop_reason = "max_iters"
        if trace.stop_reason:
            return z, trace

        if method == "LBFGS":
            d = lbfgs_direction(g, memory)
        elif method == "TN":
            d, negative_curvature = _newton_cg_direction(obj, z, g, cg_max)
        elif method == "NCG" and k > 0:
            beta = hestenes_stiefel_beta(g, g_prev, d)
            d = beta * d - g if beta != 0.0 else -g
        else:  # SD, and NCG's first step
            d = -g
        slope = _redot(d, g)
        if slope >= 0.0:  # a NaN slope goes on to the search, which rejects it
            d, slope = -g, -gg

        while True:  # at most twice: d, then -g
            try:
                ls = wolfe_line_search(obj.value_and_gradient, z, d, f, slope,
                                       c1=config.c1, c2=config.c2)
                break
            except LineSearchError:
                steepest = -g
                if np.array_equal(d, steepest):
                    trace.stop_reason = "line_search_fail"
                    return z, trace
                d, slope = steepest, -gg

        # the step and LBFGS's gradient change are written over the old z
        # and the direction, arrays solve made and does not use again
        f_old, z_old_norm = f, _norm(z)
        s = np.subtract(ls.z_new, z, out=z)
        if method == "LBFGS":
            memory.push(s, np.subtract(ls.g_new, g, out=d))
        g_prev = g if method == "NCG" else None
        z, f, g, alpha = ls.z_new, ls.f_new, ls.g_new, ls.alpha


def _defocus_amplitudes(plan: DiversityPlan, data: MeasurementSet):
    """(defocus, measured amplitude) of the planes after the pupil plane;
    fewer than two is a ValueError, as Misell's projections need two."""
    planes = list(zip(plan.defocus, data.amplitudes[plan.amplitude_plane:]))
    if len(planes) < 2:
        raise ValueError("the projection baseline needs at least two defocus planes")
    return planes


def modulus_residual(u: np.ndarray, plan: DiversityPlan, data: MeasurementSet,
                     grid: PupilGrid) -> float:
    """sum_m || |F_m u| - M_m ||^2 over the defocus planes of ``plan``."""
    total = 0.0
    for plane, amp in _defocus_amplitudes(plan, data):
        w = diversity_forward(u, plane, grid)
        total += float(np.sum((np.abs(w) - amp) ** 2))
    return total


def misell_iterate(u0: np.ndarray, plan: DiversityPlan, data: MeasurementSet,
                   grid: PupilGrid, iters: int,
                   truth: np.ndarray | None = None):
    """Cyclic modulus projections over the defocus planes of ``plan`` (one
    sweep per iteration).

    For each defocus plane in order: transform, replace the modulus by the
    measured amplitude (pixels with zero modulus are left unchanged),
    transform back.  The recorded f column is the modulus residual
    sum_m || |F_m u| - M_m ||^2 accumulated over the sweep as each plane
    is visited; gradient and alpha columns are not applicable (NaN).  With
    P defocus planes, the start residual costs P transforms and each sweep
    2P, so sweep k records (2k + 1) P FFT calls.  The pupil amplitude plane
    is an object-domain constraint, left to the misfit solvers.
    """
    planes = _defocus_amplitudes(plan, data)
    u = np.array(u0, dtype=complex)
    trace = RunTrace()
    trace.append(TraceRecord(0, modulus_residual(u, plan, data, grid),
                             float("nan"), float("nan"), _rms_or_nan(truth, u),
                             len(planes), False))
    for k in range(1, iters + 1):
        sweep_residual = 0.0
        for plane, amp in planes:
            v = diversity_forward(u, plane, grid)
            mod = np.abs(v)
            sweep_residual += float(np.sum((mod - amp) ** 2))
            safe = mod > 0.0
            v = np.where(safe, amp * np.divide(v, mod, out=np.ones_like(v),
                                               where=safe), v)
            u = diversity_adjoint(v, plane, grid)
        trace.append(TraceRecord(k, sweep_residual, float("nan"), float("nan"),
                                 _rms_or_nan(truth, u),
                                 (2 * k + 1) * len(planes), False))
    trace.stop_reason = "max_iters"
    return u, trace
