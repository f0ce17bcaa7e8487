"""Line-search minimization of real-valued functions of complex variables.

All directional quantities use the real part of the complex inner
product: a direction d is a descent direction when Re(d* g) < 0, and an
accepted step length alpha must satisfy both Wolfe conditions

    f(z + alpha d) <= f(z) + c1 alpha Re(d* g)
    Re(d* g_new)   >= c2 Re(d* g)

with 0 < c1 < c2 < 1.  The search procedure is bracket-and-zoom with
cubic interpolation, initial trial alpha = 1, expansion factor 2 and a
hard cap of 50 function/gradient evaluations per search; a trial with a
non-finite value or slope counts as a step too long.

Methods, all run by :func:`solve` and selected by ``SolverConfig.method``:
steepest descent, Hestenes-Stiefel nonlinear conjugate gradient,
limited-memory BFGS (two-loop recursion on the complex gradient) and
truncated Newton with matrix-free inner CG; :func:`misell_iterate` runs
the Misell alternating-projection baseline.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .fields import aligned_rms, atomic_open, key_value_lines, parse_key_values
from .forward import (
    DiversityPlan,
    PupilGrid,
    TransformCounter,
    diversity_adjoint,
    diversity_forward,
)
from .objectives import MeasurementSet

__all__ = [
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
    "FunctionObjective",
    "solve",
    "misell_iterate",
]

METHODS = ("SD", "NCG", "LBFGS", "TN", "MISELL")

TRACE_COLUMNS = ("iter", "f", "grad_norm", "alpha", "rms", "fft_calls", "neg_curv")


def _redot(a: np.ndarray, b: np.ndarray) -> float:
    """Re(a* b), the real inner product underlying all direction tests."""
    return float(np.real(np.vdot(a, b)))


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
            raise ValueError(f"unknown method {self.method!r}")
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError("Wolfe constants must satisfy 0 < c1 < c2 < 1")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass
class TraceRecord:
    iteration: int
    f_value: float
    grad_norm: float
    step_alpha: float
    rms: float
    fft_calls: int
    negative_curvature: bool


@dataclass
class RunTrace:
    """Per-iteration history of one solver run."""

    method: str = ""
    records: list = field(default_factory=list)
    stop_reason: str = ""
    zoutendijk_sum: float = 0.0

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

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

    def negative_curvature_fraction(self) -> float:
        steps = [r for r in self.records if r.iteration > 0]
        if not steps:
            return 0.0
        return sum(r.negative_curvature for r in steps) / len(steps)

    def to_csv(self, path, header: dict | None = None) -> None:
        """Write the trace; optional header entries become '# key = value' lines."""
        with atomic_open(path) as fh:
            fh.write(key_value_lines(header or {}, "# "))
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r in self.records:
                fh.write(
                    f"{r.iteration},{r.f_value:.17g},{r.grad_norm:.17g},"
                    f"{r.step_alpha:.17g},{r.rms:.17g},{r.fft_calls},"
                    f"{int(r.negative_curvature)}\n")

    @classmethod
    def from_csv(cls, path):
        """Read a trace written by :meth:`to_csv`; returns (trace, header dict)."""
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        header = parse_key_values(ln[1:] for ln in lines if ln.startswith("#"))
        body = [ln for ln in lines if ln and not ln.startswith("#")]
        if not body or body[0].split(",") != list(TRACE_COLUMNS):
            raise ValueError(f"unrecognized trace schema in {path}")
        trace = cls(method=header.get("method", ""),
                    stop_reason=header.get("stop_reason", ""))
        for ln in body[1:]:
            it, f, gn, al, rms, fft, nc = ln.split(",")
            trace.append(TraceRecord(int(it), float(f), float(gn), float(al),
                                     float(rms), int(fft), bool(int(nc))))
        return trace, header


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
                      g: np.ndarray, f0: float | None = None,
                      c1: float = 1e-4, c2: float = 0.9,
                      max_evals: int = 50) -> LineSearchResult:
    """Find a step length satisfying both Wolfe conditions along ``d``.

    Accepted steps satisfy the strong form |Re(d* g_new)| <= -c2 Re(d* g),
    which implies the curvature inequality Re(d* g_new) >= c2 Re(d* g);
    the strong form keeps near-exact minimizers on quadratic slices, which
    conjugate-gradient directions rely on.

    ``f_and_grad`` maps a point to (value, gradient).  ``g`` is the
    gradient at ``z``; ``f0`` the value at ``z`` (evaluated if omitted).
    A trial step whose value or directional derivative is not finite is
    treated as too long and shrinks the bracket (More & Thuente 1994).
    Raises ValueError for a non-finite start point or a non-descent
    direction and LineSearchError when the evaluation budget is exhausted.
    """
    evals = 0
    if f0 is None:
        f0, g = f_and_grad(z)
        evals += 1
    if not (math.isfinite(f0) and np.isfinite(g).all()):
        raise ValueError("wolfe_line_search needs a finite value and gradient "
                         "at the start point")
    dphi0 = _redot(d, g)
    if not dphi0 < 0.0:
        raise ValueError("wolfe_line_search requires a descent direction (Re(d*g) < 0)")

    def evaluate(alpha):
        nonlocal evals
        z_a = z + alpha * d
        f_a, g_a = f_and_grad(z_a)
        evals += 1
        return z_a, f_a, g_a, _redot(d, g_a)

    def too_long(alpha, f_a, dphi_a, f_ref):
        return (not (math.isfinite(f_a) and math.isfinite(dphi_a))
                or f_a > f0 + c1 * alpha * dphi0 or f_a >= f_ref)

    def zoom(lo, f_lo, d_lo, hi, f_hi, d_hi):
        nonlocal evals
        while evals < max_evals:
            width = hi - lo
            if abs(width) <= 1e-18 * max(1.0, abs(lo)):
                break
            cand = _cubic_minimizer(lo, f_lo, d_lo, hi, f_hi, d_hi)
            lo_m = min(lo, hi) + 0.1 * abs(width)
            hi_m = max(lo, hi) - 0.1 * abs(width)
            if cand is None or not (lo_m <= cand <= hi_m):
                cand = 0.5 * (lo + hi)
            z_j, f_j, g_j, dphi_j = evaluate(cand)
            if too_long(cand, f_j, dphi_j, f_lo):
                hi, f_hi, d_hi = cand, f_j, dphi_j
            else:
                if abs(dphi_j) <= -c2 * dphi0:
                    return LineSearchResult(cand, z_j, f_j, g_j, evals)
                if dphi_j * (hi - lo) >= 0.0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = cand, f_j, dphi_j
        raise LineSearchError("line search exhausted its evaluation budget")

    alpha_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    alpha = 1.0
    first = True
    while evals < max_evals:
        z_a, f_a, g_a, dphi_a = evaluate(alpha)
        if too_long(alpha, f_a, dphi_a, math.inf if first else f_prev):
            return zoom(alpha_prev, f_prev, dphi_prev, alpha, f_a, dphi_a)
        if abs(dphi_a) <= -c2 * dphi0:
            return LineSearchResult(alpha, z_a, f_a, g_a, evals)
        if dphi_a >= 0.0:
            return zoom(alpha, f_a, dphi_a, alpha_prev, f_prev, dphi_prev)
        alpha_prev, f_prev, dphi_prev = alpha, f_a, dphi_a
        alpha *= 2.0
        first = False
    raise LineSearchError("line search exhausted its evaluation budget")


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
    """Ring buffer of curvature pairs (s_i, y_i, rho_i = 1/Re(y_i* s_i)).

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
        self.pairs.append((s, y, 1.0 / ys))
        return True

    def __len__(self) -> int:
        return len(self.pairs)


def lbfgs_direction(g: np.ndarray, memory: LbfgsMemory) -> np.ndarray:
    """Two-loop recursion; empty memory gives -g (cold start, gamma = 1)."""
    d = -np.asarray(g, dtype=complex)
    if len(memory) == 0:
        return d
    alphas = []
    for s, y, rho in reversed(memory.pairs):
        a_i = rho * _redot(s, d)
        d = d - a_i * y
        alphas.append(a_i)
    s_l, y_l, _ = memory.pairs[-1]
    d = d * (_redot(y_l, s_l) / _redot(y_l, y_l))
    for (s, y, rho), a_i in zip(memory.pairs, reversed(alphas)):
        b = rho * _redot(y, d)
        d = d + (a_i - b) * s
    return d


class FunctionObjective:
    """Plain callables as a :func:`solve` objective: ``fg(z) -> (value,
    gradient)`` backs ``value_and_gradient`` and the optional
    ``hvp(z, h)`` backs ``hessian_operator``, which TN needs."""

    def __init__(self, fg: Callable, hvp: Callable | None = None):
        self._fg = fg
        self._hvp = hvp

    @property
    def fft_calls(self) -> int:
        return 0

    def value_and_gradient(self, z):
        return self._fg(z)

    def hessian_operator(self, z):
        if self._hvp is None:
            raise NotImplementedError("objective provides no Hessian action")
        return lambda h: self._hvp(z, h)


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
    for i in range(cg_max):
        Hp = apply_h(p)
        pHp = _redot(p, Hp)
        if pHp <= 0.0:
            if i == 0:
                d = -g
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


def solve(obj, config: SolverConfig, z0: np.ndarray,
          truth: np.ndarray | None = None):
    """Minimize with the method named in ``config``; returns (z, RunTrace).

    ``obj`` provides ``value_and_gradient(z) -> (value, gradient)`` and
    an ``fft_calls`` count recorded per iteration; TN also calls
    ``hessian_operator(z)``, which returns the Hessian action h -> H h at
    ``z``.  :class:`~phasediversity.objectives.DataMisfit` and
    :class:`FunctionObjective` both provide all three.

    ``truth`` (optional) enables the per-iteration aligned-RMS column.
    Line-search failure on a non-gradient direction falls back to the
    steepest descent direction once per iteration; a failure on the
    gradient direction terminates the run.
    """
    method = config.method
    if method not in ("SD", "NCG", "LBFGS", "TN"):
        raise ValueError(f"solve runs SD, NCG, LBFGS or TN, not {method!r}; "
                         "misell_iterate runs the projection baseline")

    z = np.array(z0, dtype=complex)

    def rms_of(point):
        return aligned_rms(truth, point) if truth is not None else float("nan")

    trace = RunTrace(method=method)
    f, g = obj.value_and_gradient(z)
    gnorm = float(np.linalg.norm(g.ravel()))
    trace.append(TraceRecord(0, f, gnorm, float("nan"), rms_of(z),
                             obj.fft_calls, False))
    if gnorm <= config.grad_tol:
        trace.stop_reason = "grad_zero"
        return z, trace

    memory = LbfgsMemory(config.lbfgs_memory) if method == "LBFGS" else None
    d_prev = None
    g_prev = None
    cg_max = config.tn_cg_max if config.tn_cg_max is not None else 2 * z.size

    for k in range(1, config.max_iters + 1):
        negative_curvature = False
        if method == "SD":
            d = -g
            is_gradient_dir = True
        elif method == "NCG":
            is_gradient_dir = False
            if d_prev is None:
                d = -g
                is_gradient_dir = True
            else:
                beta = hestenes_stiefel_beta(g, g_prev, d_prev)
                if beta == 0.0:
                    d = -g
                    is_gradient_dir = True
                else:
                    d = -g + beta * d_prev
        elif method == "LBFGS":
            d = lbfgs_direction(g, memory)
            is_gradient_dir = len(memory) == 0
        else:  # TN
            d, negative_curvature = _newton_cg_direction(obj, z, g, cg_max)
            is_gradient_dir = False

        if _redot(d, g) >= 0.0:
            d = -g
            is_gradient_dir = True

        try:
            ls = wolfe_line_search(obj.value_and_gradient, z, d, g, f0=f,
                                   c1=config.c1, c2=config.c2)
        except LineSearchError:
            if is_gradient_dir:
                trace.stop_reason = "line_search_fail"
                return z, trace
            d = -g
            try:
                ls = wolfe_line_search(obj.value_and_gradient, z, d, g, f0=f,
                                       c1=config.c1, c2=config.c2)
            except LineSearchError:
                trace.stop_reason = "line_search_fail"
                return z, trace

        dg = _redot(d, g)
        trace.zoutendijk_sum += dg * dg / float(np.real(np.vdot(d, d)))

        s = ls.z_new - z
        if memory is not None:
            memory.push(s, ls.g_new - g)

        g_prev, d_prev = g, d
        f_old, z_old = f, z
        z, f, g = ls.z_new, ls.f_new, ls.g_new
        gnorm = float(np.linalg.norm(g.ravel()))
        trace.append(TraceRecord(k, f, gnorm, ls.alpha, rms_of(z),
                                 obj.fft_calls, negative_curvature))

        if abs(f_old - f) <= config.tol_fun * max(1.0, abs(f_old)):
            trace.stop_reason = "tol_fun"
            return z, trace
        if float(np.linalg.norm(s.ravel())) <= config.tol_x * max(
                1.0, float(np.linalg.norm(z_old.ravel()))):
            trace.stop_reason = "tol_x"
            return z, trace
        if gnorm <= config.grad_tol:
            trace.stop_reason = "grad_zero"
            return z, trace

    trace.stop_reason = "max_iters"
    return z, trace


def misell_iterate(u0: np.ndarray, plan: DiversityPlan, data: MeasurementSet,
                   grid: PupilGrid, iters: int,
                   truth: np.ndarray | None = None,
                   counter: TransformCounter | None = None):
    """Cyclic modulus projections over all planes (one sweep per iteration).

    For each plane in order: transform, replace the modulus by the
    measured amplitude (pixels with zero modulus are left unchanged),
    transform back.  The recorded f column is the modulus residual
    sum_m || |F_m u| - M_m ||^2 accumulated over the sweep as each plane
    is visited; gradient and alpha columns are not applicable (NaN).
    """
    if len(plan) < 2:
        raise ValueError("the projection baseline needs at least two planes")
    counter = counter if counter is not None else TransformCounter()
    u = np.array(u0, dtype=complex)
    amplitudes = data.amplitudes

    def rms_of(point):
        return aligned_rms(truth, point) if truth is not None else float("nan")

    def residual(point):
        total = 0.0
        for plane, amp in zip(plan, amplitudes):
            w = diversity_forward(point, plane, grid, counter=counter)
            total += float(np.sum((np.abs(w) - amp) ** 2))
        return total

    trace = RunTrace(method="MISELL")
    trace.append(TraceRecord(0, residual(u), float("nan"), float("nan"),
                             rms_of(u), counter.count, False))
    for k in range(1, iters + 1):
        sweep_residual = 0.0
        for plane, amp in zip(plan, amplitudes):
            v = diversity_forward(u, plane, grid, counter=counter)
            mod = np.abs(v)
            sweep_residual += float(np.sum((mod - amp) ** 2))
            safe = mod > 0.0
            v = np.where(safe, amp * np.divide(v, mod, out=np.ones_like(v),
                                               where=safe), v)
            u = diversity_adjoint(v, plane, grid, counter=counter)
        trace.append(TraceRecord(k, sweep_residual, float("nan"), float("nan"),
                                 rms_of(u), counter.count, False))
    trace.stop_reason = "max_iters"
    return u, trace
