"""Numerical audits of nonresonance hypotheses for -Delta_p u = f(x, u) + h.

With G(x, s) = F(x, s) - lambda1 |s|^p / p, the solvability theorems
checked here rest on the asymptotic size of G normalized three ways:

  sign theorem          limsup G / |s|^p  <= 0 a.e., strictly negative on
                        a set of positive measure (both directions);
  comparison theorem    limsup G / phi(s) dominated by a weight in the
                        X_alpha integrability class, with strictly
                        negative phi_1^alpha-weighted integrals;
  Landesman-Lazer       limsup G / |s| dominated by a Y_1 weight, with
                        the bracket int G_1^- phi_1 < <h, phi_1>
                        < -int G_1^+ phi_1.

Limits in s are estimated on geometric grids s_k = +-2^k, k <= K, by
tail maxima.  Estimates beyond +-1e12 are reported as the +-inf
sentinels.  f and G meet a grid of s only in `_s_blocks`, once per block
of s.  check_theorems makes one tail pass per spec (`_tail_limsups`): G
on the tail levels K//2..K of +s and then -s, each normalizer once per
level, with K the requested depth lowered to the deepest level at which
every normalizer is finite.  Each spatial weight is evaluated once per
point set, and f and G once per distinct value of the spec's
coefficient (`_quad_coefficient`), not once per point.
"a.e." and "positive measure" are read through quadrature weight: a
set matters when it carries more than 1e-6 of the total weight.
Strict inequalities require a 1e-9 margin; non-strict comparisons
accept a 1e-3 residue, the convergence floor of the tail estimates
(finite grids leave positive power-law residues for limits that
approach zero from above).

Checker verdicts are "holds", "fails" or "inconclusive".  Decisive
failure evidence (for example an +inf sentinel on visible weight)
outranks isolated non-converged estimates elsewhere; "inconclusive" is
reported only when no decisive outcome exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .assembly import DualVector, _reduce, pairing, values_at_quad
from .eigen import EigenResult
from .meshing import Mesh, refine_structured
from .nonlinearity import (
    NonlinearitySpec,
    SpatialWeight,
    _f_at,
    _G_at,
    _quad_x,
    _spatial,
)

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "Verdict",
    "HypothesisReport",
    "LimsupEstimate",
    "ComparisonFunction",
    "power_comparison",
    "log_power_comparison",
    "estimate_limsup",
    "check_growth",
    "check_f0",
    "verify_comparison_function",
    "check_class_membership",
    "check_theorems",
    "check_superlinear_negativity",
    "incomparability_suite",
    "IncomparabilityTable",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

SENTINEL = 1e12
WEIGHT_FRACTION = 1e-6     # quadrature-weight fraction defining "positive measure"
STRICT_MARGIN = 1e-9       # margin for strict inequalities
ZERO_TOL = 1e-3            # residue allowed in non-strict "<= 0" comparisons
UNIFORM_MARGIN = 1e-6      # slack in pointwise domination by a declared weight
CHECKER_LEVELS = 200       # default grid depth for the theorem-level checkers
F0_SAMPLES = 2001          # values of s on [-R, R] in the envelope sup_{|s| <= R} |f|
# bytes in one (samples x distinct values) block of f values, and the bound
# on the working set of one block of tail levels of G (_tail_limsups)
F0_BLOCK_BYTES = 1 << 17
F0_RADIUS = 10.0           # R of the envelope sup_{|s| <= R} |f| in check_theorems


@dataclass(frozen=True)
class Verdict:
    """Outcome of one sub-hypothesis with its numeric evidence."""

    status: str
    evidence: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == HOLDS


def _combine(statuses) -> str:
    statuses = set(statuses)
    return FAILS if FAILS in statuses else INCONCLUSIVE if INCONCLUSIVE in statuses else HOLDS


@dataclass(frozen=True)
class HypothesisReport:
    """Bundle of sub-hypothesis verdicts for one solvability theorem."""

    name: str
    conditions: dict
    overall: str

    def rows(self):
        yield from ((k, v.status) for k, v in self.conditions.items())


def make_report(name: str, conditions: dict) -> HypothesisReport:
    return HypothesisReport(name, conditions,
                            _combine(v.status for v in conditions.values()))


# ---------------------------------------------------------------------------
# limsup estimation on geometric grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimsupEstimate:
    """Tail-maximum estimate of limsup g(s) as s -> +-infinity.

    value       max over the last half of the sampled sequence, mapped to
                +-inf once it passes +-1e12
    converged   the tail maxima of the K- and (K-1)-grids agree to 1e-3
                (relative with an absolute floor of 1e-3), or both sit at
                the same sentinel
    """

    value: float
    converged: bool
    direction: int
    s_values: np.ndarray
    samples: np.ndarray


def _tail_verdict(m_cur, m_prev):
    """(value, converged) arrays from the tail maxima of the K-grid (levels
    (K+1)//2..K) and of the (K-1)-grid (levels K//2..K-1).

    A maximum past +-SENTINEL reads +-inf.  Two estimates have converged
    when they agree to 1e-3 (relative, with an absolute floor of 1e-3) or
    sit at the same sentinel; a nan never converges.
    """
    v_cur, v_prev = (np.where(np.abs(m) > SENTINEL, np.copysign(np.inf, m), m)
                     for m in (m_cur, m_prev))
    with np.errstate(invalid="ignore"):
        gap = v_cur - v_prev
    return v_cur, (v_cur == v_prev) | np.isfinite(gap) & (
        np.abs(gap) <= 1e-3 * np.abs([v_cur, v_prev]).max(0, initial=1.0))


def _geometric_grid(levels: int) -> np.ndarray:
    """The magnitudes 2^k, k = 0..levels."""
    if levels < 8:
        raise ValueError(f"need at least 8 grid levels, got {levels}")
    if levels > 1000:
        raise ValueError("grid levels capped at 1000")
    return np.exp2(np.arange(levels + 1, dtype=float))


def estimate_limsup(g, direction: int = 1, levels: int = 40) -> LimsupEstimate:
    """Estimate limsup_{s -> direction * inf} g(s) on the grid +-2^k.

    g is called once with the whole grid and must return an array of
    the grid's shape; any other shape raises ValueError.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    s_values = direction * _geometric_grid(levels)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        samples = np.asarray(g(s_values), dtype=float)
    if samples.shape != s_values.shape:
        raise ValueError(f"g returned shape {samples.shape} on a grid of shape "
                         f"{s_values.shape}")
    value, converged = _tail_verdict(np.max(samples[(levels + 1) // 2:]),
                                     np.max(samples[levels // 2:levels]))
    return LimsupEstimate(value=float(value), converged=bool(converged),
                          direction=direction, s_values=s_values, samples=samples)


def _quad_coefficient(spec: NonlinearitySpec, mesh: Mesh):
    """The distinct entries of c = _spatial(spec, x) at the x of
    `nonlinearity._quad_x` on the mesh, and the inverse map from the
    quadrature nodes to them.

    f, F and G see x only through c, so evaluating them on the distinct
    entries and indexing the results with the inverse gives their values
    at every node.  An autonomous spec has one entry, at the first
    quadrature point, and sorts nothing.  Otherwise entries (rows of the
    (m, ndim) points) merge only when their float64 bit patterns agree,
    so 0.0 and -0.0 stay apart, as do NaNs, and every mapped-back value
    is bit for bit the one the full c gives.
    """
    c = np.ascontiguousarray(_spatial(spec, _quad_x(spec, mesh)), dtype=float)
    if spec.autonomous:
        return c, np.zeros(mesh.quad_weights.size, dtype=np.intp)
    _, index, inverse = np.unique(c.view(np.uint64), axis=0, return_index=True,
                                  return_inverse=True)
    return c[index], inverse.reshape(-1)


def _s_blocks(width: int, s, evaluate, spec: NonlinearitySpec, c, *args):
    """(i, evaluate(spec, c, s[i:i + rows, None], *args)) for each block of
    rows = F0_BLOCK_BYTES // (width * len(c)) (at least 1) entries of the
    1-D s, the values broadcast to (rows, len(c)), so an f that ignores s
    may return (len(c),).  c is _spatial(spec, points) or its distinct
    entries (`_quad_coefficient`); the sampler keeps no block's values.
    """
    rows = max(1, F0_BLOCK_BYTES // (width * len(c)))
    for i in range(0, len(s), rows):
        block = s[i:i + rows, None]
        yield i, np.broadcast_to(evaluate(spec, c, block, *args), (len(block), len(c)))


def _tail_limsups(spec: NonlinearitySpec, c, denoms, lambda1: float, p: float,
                  levels: int):
    """Per-point limsup of G(x, s)/denom(|s|) for each denom and direction.

    Each denom maps |s| to a positive scalar (|s|^p, phi(|s|), or |s|) and
    is called once per level, on that scalar (an array power such as
    2^k ** 1.1 can differ in the last bit), for both directions.  The depth
    K is `levels`, lowered (to 8 at least) to the deepest level at which
    every denom is finite: past it a normalizer such as |s|^p overflows
    (p = 8, s >= 2^128) and G/denom reads 0 or nan whatever G does.  G is
    sampled by `_s_blocks` on the tail levels K//2..K, +s then -s.  Each
    block's quotients are reduced to their part of the two windows,
    levels (K+1)//2..K and K//2..K-1, and folded into running maxima.  G,
    its temporaries and one quotient take about four blocks of G, so a
    block of G holds a quarter of F0_BLOCK_BYTES (width 32).
    Returns K and, per direction (+ then -), one (values, converged) pair
    of arrays of length len(c) per denom.
    """
    grid = _geometric_grid(levels)
    tops = np.empty((len(denoms), 2, len(c)))
    tails = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        last = [d(grid[levels]) for d in denoms]
        while levels > 8 and not np.all(np.isfinite(last)):
            levels -= 1
            last = [d(grid[levels]) for d in denoms]
        mags = grid[levels // 2:levels + 1]
        scales = np.array([[d(mag) for d in denoms] for mag in mags[:-1]] + [last]).T
        for direction in (1, -1):
            tops.fill(-np.inf)
            for i, g in _s_blocks(32, direction * mags, _G_at, spec, c, lambda1, p):
                for (cur, prev), scale in zip(tops, scales):
                    q = g / scale[i:i + len(g), None]
                    # the block's levels in (K+1)//2..K and in K//2..K-1
                    np.maximum(cur, q[max(levels % 2 - i, 0):].max(0, initial=-np.inf), out=cur)
                    np.maximum(prev, q[:len(mags) - 1 - i].max(0, initial=-np.inf), out=prev)
                del g, q  # before the next block's G is made
            tails.append([_tail_verdict(*top) for top in tops])
    return levels, tails


# ---------------------------------------------------------------------------
# growth and local integrability
# ---------------------------------------------------------------------------


def _box_points(box, per_dim: int) -> np.ndarray:
    axes = [np.linspace(lo + 0.5 * (hi - lo) / per_dim,
                        hi - 0.5 * (hi - lo) / per_dim, per_dim)
            for lo, hi in box]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def check_growth(spec: NonlinearitySpec, q: float, box, per_dim: int = 9,
                 levels: int = 40) -> Verdict:
    """Test the polynomial bound |f(x, s)| <= a |s|^(q-1) + b(x).

    The normalized ratio max_x |f| / (|s|^(q-1) + 1) over s = +-|s| is
    tracked along the geometric grid; the bound fails when the ratio at
    the largest |s| exceeds 1e6 times the ratio at the smallest (or
    overflows).  A point where |f| is nan (0 * inf where a weight
    vanishes) is skipped, and a level with no other value reads 0.
    When the bound holds, the tail maximum of the ratio is reported as
    the fitted coefficient a.
    """
    if not (q > 1.0):
        raise ValueError(f"growth exponent q must exceed 1, got {q}")
    c = _spatial(spec, _box_points(box, per_dim))
    grid = _geometric_grid(levels)
    worst = np.empty(2 * grid.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, fv in _s_blocks(8, np.concatenate([grid, -grid]), _f_at, spec, c):
            worst[i:i + len(fv)] = np.fmax.reduce(np.abs(fv), axis=1, initial=0.0)
    ratios = np.fmax(worst[:grid.size], worst[grid.size:]) \
        / np.array([mag ** (q - 1.0) + 1.0 for mag in grid])
    first, last = ratios[0], ratios[-1]
    unbounded = not np.isfinite(last) or last > 1e6 * max(first, 1e-300)
    tail_a = float(np.max(ratios[grid.size // 2:])) if np.all(np.isfinite(ratios)) \
        else math.inf
    status = FAILS if unbounded else HOLDS
    return Verdict(status, {
        "q": q, "ratio_first": float(first), "ratio_last": float(last),
        "fitted_a": tail_a,
    })


def _f0_value(spec: NonlinearitySpec, R: float, mesh: Mesh, coefficient=None) -> float:
    c, inverse = _quad_coefficient(spec, mesh) if coefficient is None else coefficient
    env = np.zeros(len(c))
    with np.errstate(over="ignore", invalid="ignore"):
        for _, fv in _s_blocks(8, np.linspace(-R, R, F0_SAMPLES), _f_at, spec, c):
            env = np.maximum(env, np.abs(fv).max(axis=0))
    w = mesh.quad_weights
    return _reduce(w * env[inverse].reshape(w.shape))


def check_f0(spec: NonlinearitySpec, R: float, mesh: Mesh,
             refinements: int = 0, *, _coefficient=None) -> Verdict:
    """Quadrature value of int_Omega sup_{|s| <= R} |f(x, s)| dx.

    The sup is a maximum over F0_SAMPLES equispaced s in [-R, R], taken
    in blocks.  The spec's spatial coefficient is evaluated once per
    mesh, before the blocks, and f takes its values (see
    `nonlinearity._spatial`), once per distinct value (`_quad_coefficient`): each
    evaluation of f gets a column of s values and fills a (samples x
    distinct values) block of at most F0_BLOCK_BYTES.  The envelope is
    mapped back to the quadrature points before the weighted sum.
    check_theorems passes its `_quad_coefficient` as the private `_coefficient`.

    Fails on a non-finite value.  With refinements > 0 the integral is
    recomputed on nested bisections; the verdict fails when the
    increments do not shrink (last increment still >= half the first and
    above tolerance), the signature of a non-integrable envelope.
    """
    if not (R > 0.0):
        raise ValueError(f"truncation radius R must be positive, got {R}")
    values = [_f0_value(spec, R, mesh, _coefficient)]
    m = mesh
    for _ in range(refinements):
        m = refine_structured(m)
        values.append(_f0_value(spec, R, m))
    evidence = {"R": R, "values": values}
    if not all(np.isfinite(values)):
        return Verdict(FAILS, evidence)
    if refinements >= 2:
        inc = np.diff(values)
        if inc[-1] > 1e-8 * (1.0 + abs(values[-1])) and inc[-1] > 0.5 * inc[0]:
            return Verdict(FAILS, evidence)
    return Verdict(HOLDS, evidence)


# ---------------------------------------------------------------------------
# comparison functions
# ---------------------------------------------------------------------------


class ComparisonFunction:
    """Even, nonnegative normalization function of order alpha.

    The order is the homogeneity degree in axiom (iii):
    phi(s_n)/phi(t_n) -> rho^alpha whenever s_n/t_n -> rho.  Evenness and
    nonnegativity are validated on a sample grid at construction.
    """

    def __init__(self, fn: Callable, order: float, derivative: Optional[Callable] = None,
                 label: str = ""):
        self.fn = fn
        self.order = float(order)
        self.derivative = derivative
        self.label = label or f"order-{order:g} comparison"
        s = np.linspace(-80.0, 80.0, 641)
        vals = np.asarray(fn(s), dtype=float)
        if np.any(vals < -1e-12):
            raise ValueError("comparison function must be nonnegative")
        mirrored = np.asarray(fn(-s), dtype=float)
        if np.max(np.abs(vals - mirrored)) > 1e-12 * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError("comparison function must be even (within 1e-12)")

    def __call__(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=float)), dtype=float)


def power_comparison(alpha: float) -> ComparisonFunction:
    """phi(s) = |s|^alpha."""
    return ComparisonFunction(
        lambda s: np.abs(s) ** alpha, alpha,
        derivative=lambda s: alpha * np.sign(s) * np.abs(s) ** (alpha - 1.0),
        label=f"|s|^{alpha:g}")


def log_power_comparison(alpha: float) -> ComparisonFunction:
    """phi(s) = |s|^alpha log(e + |s|), useful at the endpoint order alpha = 1."""
    def fn(s):
        a = np.abs(s)
        return a ** alpha * np.log(np.e + a)

    def deriv(s):
        a = np.abs(s)
        sgn = np.sign(s)
        return sgn * (alpha * a ** (alpha - 1.0) * np.log(np.e + a)
                      + a ** alpha / (np.e + a))

    return ComparisonFunction(fn, alpha, derivative=deriv,
                              label=f"|s|^{alpha:g} log(e+|s|)")


def verify_comparison_function(phi, p: float, levels: int = 40) -> HypothesisReport:
    """Check the four comparison-function axioms for phi against exponent p.

    (i)   phi(s)/|s|^p -> 0          (decaying tail on the geometric grid)
    (ii)  phi(s)/|s|   -> infinity   (growing tail)
    (iii) phi(r t)/phi(t) -> r^alpha for five ratios r in [0.1, 10],
          drawn with seed 0
    (iv)  phi(t s)/phi(t) <= a s^beta + b at beta = alpha + 0.5, fitted
          over t in [10, 1e6]

    The order must lie in [1, p].  Slowly varying borderline cases (for
    example orders within ~0.05 of 1 or p) can fail the finite-grid
    trend tests even when the axiom holds in the limit.
    """
    alpha = float(phi.order)
    grid = _geometric_grid(levels)
    conditions = {}

    order_ok = 1.0 <= alpha <= p
    conditions["order_range"] = Verdict(
        HOLDS if order_ok else FAILS, {"alpha": alpha, "p": p})

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(phi(grid), dtype=float)

        ratio_p = vals / grid ** p
        first, mid, last = ratio_p[0], ratio_p[levels // 2], ratio_p[-1]
        decays = np.isfinite(last) and (last < 0.7 * mid or last < 1e-9 * (1.0 + first))
        conditions["vanishes_vs_power_p"] = Verdict(
            HOLDS if decays else FAILS,
            {"first": float(first), "mid": float(mid), "last": float(last)})

        ratio_1 = vals / grid
        first1, mid1, last1 = ratio_1[0], ratio_1[levels // 2], ratio_1[-1]
        grows = (not np.isfinite(last1)) or (last1 > 1.4 * mid1 and last1 > 4.0 * first1)
        conditions["superlinear"] = Verdict(
            HOLDS if grows else FAILS,
            {"first": float(first1), "mid": float(mid1), "last": float(last1)})

        # five draws of default_rng(0).uniform(0.1, 10.0), written out
        rhos = (6.405920704482398, 2.770888466262316, 0.5056378869683275,
                0.26362359173243805, 8.151375368082697)
        worst_dev = 0.0
        for rho in rhos:
            ratio = float(phi(rho * grid[-1])) / float(phi(grid[-1]))
            worst_dev = max(worst_dev, abs(ratio / rho ** alpha - 1.0))
        conditions["ratio_homogeneity"] = Verdict(
            HOLDS if worst_dev <= 0.15 else FAILS,
            {"worst_relative_deviation": float(worst_dev)})

        beta = alpha + 0.5
        ts = np.geomspace(10.0, 1e6, 13)
        ss = np.concatenate([np.linspace(0.0, 1.0, 9), np.geomspace(1.25, 16.0, 13)])
        a_of_t = np.empty(ts.size)
        b_of_t = np.empty(ts.size)
        for i, t in enumerate(ts):
            phit = float(phi(t))
            ratios = np.asarray(phi(ss * t), dtype=float) / phit
            small = ss <= 1.0
            b_of_t[i] = float(np.max(ratios[small]))
            a_of_t[i] = float(np.max((ratios[~small] - b_of_t[i])
                                     / ss[~small] ** beta))
        a_last, a_first = a_of_t[-1], a_of_t[0]
        dominated = np.all(np.isfinite(a_of_t)) and \
            a_last <= 1e6 * max(a_first, 1e-300)
        conditions["scaled_domination"] = Verdict(
            HOLDS if dominated else FAILS,
            {"beta": beta, "fitted_a": float(np.max(a_of_t)),
             "fitted_b": float(np.max(b_of_t))})

    return make_report(f"comparison axioms for {getattr(phi, 'label', 'phi')}",
                       conditions)


def check_class_membership(exponent: float | None, alpha: float, p: float,
                           ndim: int, kind: str = "X") -> Verdict:
    """Integrability-class test from a declared L^q exponent.

    For p > N membership needs L^1; for p = N it needs L^q with q > 1;
    for p < N the threshold is the conjugate exponent of p*/alpha, where
    p* = N p / (N - p): class X requires q strictly above it, class Y
    admits equality.  Only q = +inf (an L^inf weight) belongs
    unconditionally; -inf is compared like any other number and fails.
    """
    if kind not in ("X", "Y"):
        raise ValueError("kind must be 'X' or 'Y'")
    if exponent is None:
        return Verdict(INCONCLUSIVE, {"reason": "no declared integrability exponent"})
    if p > ndim:
        threshold, strict = 1.0, False
    elif p == ndim:
        threshold, strict = 1.0, True
    else:
        pstar = ndim * p / (ndim - p)
        ratio = pstar / alpha
        threshold = ratio / (ratio - 1.0)
        strict = (kind == "X")
    if exponent == math.inf:
        ok = True
    elif math.isclose(exponent, threshold, rel_tol=1e-12, abs_tol=0.0):
        ok = not strict
    else:
        ok = exponent > threshold
    return Verdict(HOLDS if ok else FAILS,
                   {"kind": kind, "declared_exponent": exponent,
                    "threshold": threshold, "strict": strict})


# ---------------------------------------------------------------------------
# theorem-level checkers
# ---------------------------------------------------------------------------


def _weight_fraction(mask, weights) -> float:
    """The share of the weights (row, total) of `check_theorems` on a flat
    per-point mask, read from the one row at the points' columns in point
    order, so with the bits of a selection on `Mesh.quad_weights`."""
    row, total = weights
    columns = np.flatnonzero(mask)
    columns %= row.size
    return float(np.sum(row[columns])) / total


def _strict_negative_set(values, converged, weights) -> Verdict:
    """'strictly negative on a set of positive measure'."""
    with np.errstate(invalid="ignore"):
        strict = converged & (values < -STRICT_MARGIN)
    frac = _weight_fraction(strict, weights)
    if frac > WEIGHT_FRACTION:
        return Verdict(HOLDS, {"strict_weight_fraction": frac})
    frac_uncv = _weight_fraction(~converged, weights)
    if frac_uncv > WEIGHT_FRACTION:
        return Verdict(INCONCLUSIVE, {"unconverged_weight_fraction": frac_uncv})
    return Verdict(FAILS, {"strict_weight_fraction": frac})


def _dominated_by(values, converged, weights, bound_vals,
                  margin: float = UNIFORM_MARGIN) -> Verdict:
    """Pointwise 'limsup <= bound' a.e., up to `margin`."""
    with np.errstate(invalid="ignore"):
        violating = converged & ~(values <= bound_vals + margin)
    frac_viol = _weight_fraction(violating, weights)
    frac_uncv = _weight_fraction(~converged, weights)
    if frac_viol > WEIGHT_FRACTION:
        return Verdict(FAILS, {"violating_weight_fraction": frac_viol})
    if frac_uncv > WEIGHT_FRACTION:
        return Verdict(INCONCLUSIVE, {"unconverged_weight_fraction": frac_uncv})
    return Verdict(HOLDS, {"violating_weight_fraction": frac_viol})


def _unless_unconverged(ok: bool, converged, weights) -> str:
    """FAILS unless ok; a holding verdict resting on more than the
    positive-measure fraction of unconverged weight is INCONCLUSIVE."""
    if not ok:
        return FAILS
    if max(_weight_fraction(~c, weights) for c in converged) > WEIGHT_FRACTION:
        return INCONCLUSIVE
    return HOLDS


def _both_directions(parts, depth: int) -> Verdict:
    return Verdict(_combine(v.status for v in parts),
                   {"pos": parts[0].evidence, "neg": parts[1].evidence,
                    "levels_used": depth})


def _weighted_integral(values, weights, density) -> float:
    """Sum w * value * density with sentinel values short-circuiting to +-inf.

    A +inf contribution wins over -inf: the integral is then reported as
    +inf, the conservative answer when certifying strict negativity.
    """
    values, visible = values.reshape(weights.shape), weights * density > 0
    for inf in (math.inf, -math.inf):
        if np.any((values == inf) & visible):
            return inf
    finite = np.isfinite(values)
    return _reduce(weights[finite] * values[finite] * density[finite])


def _declared_weight(spec: NonlinearitySpec) -> SpatialWeight | None:
    w = spec.params.get("eta")
    return w if isinstance(w, SpatialWeight) else None


def _best_domination(values, converged, weights, eta, eta_q, order: float, p: float,
                     ndim: int, kind: str) -> Verdict:
    """Pointwise domination of the limsup by a weight of class `kind`.

    Candidates are the declared eta (if any, with its values eta_q at the
    quadrature points and its class membership at `order`) and the zero
    weight.  The first candidate that holds wins; otherwise an
    inconclusive verdict outranks a failing one.
    """
    candidates = []
    if eta is not None:
        candidates.append(("declared eta", eta_q,
                           check_class_membership(eta.exponent, order, p, ndim, kind)))
    candidates.append(("zero", 0.0,
                       Verdict(HOLDS, {"kind": kind, "candidate": "zero"})))
    best = None
    for label, bound_vals, membership in candidates:
        bounded = _dominated_by(values, converged, weights, bound_vals)
        verdict = Verdict(_combine([bounded.status, membership.status]),
                          {"candidate": label, "bound": bounded.evidence,
                           "membership": membership.evidence})
        if verdict.status == HOLDS:
            return verdict
        if best is None or (best.status == FAILS and verdict.status == INCONCLUSIVE):
            best = verdict
    return best


def _agreed(name: str, stored: float | None, passed: float | None) -> float | None:
    """The entry's stored value, else the passed one; both given must agree."""
    if None not in (passed, stored) and passed != stored:
        raise ValueError(f"{name} = {passed} disagrees with the entry's {name} = {stored}")
    return stored if stored is not None else passed


def check_theorems(spec: NonlinearitySpec, eigenpair: EigenResult, h: DualVector,
                   mesh: Mesh, p: float | None = None, *, phi=None,
                   levels: int = CHECKER_LEVELS) -> dict:
    """The sign, comparison and Landesman-Lazer reports from one pass over G.

    One tail pass (`_tail_limsups`) samples G on both directions and
    normalizes it by |s|^p, phi(s) and |s|; the envelope check check_f0
    runs once, at R = F0_RADIUS, and is shared by the three reports.
    The spec's spatial coefficient is evaluated once at the quadrature
    points and serves the envelope, the tail pass and the domination
    candidates; G is sampled once per distinct coefficient value, at one
    point for an autonomous spec (`_quad_coefficient`).  The tail
    verdicts record the depth of the grid as "levels_used".  p is the
    entry's, else the passed one, and lambda1 the entry's, else the
    eigenpair's; both given must agree (ValueError).  phi defaults to the
    entry's declared comparison function, else |s|^((1 + p)/2).
    Returns {"sign", "comparison", "landesman_lazer": HypothesisReport}.
    """
    lam = _agreed("lambda1", spec.lambda1, eigenpair.lambda1)
    pp = _agreed("p", spec.p, p)
    if pp is None:
        raise ValueError("p is needed (stored on the entry or passed explicitly)")
    if phi is None:
        phi = spec.params.get("phi")
    if phi is None:
        phi = power_comparison((1.0 + pp) / 2.0)
    alpha = float(phi.order)
    c_distinct, inverse = _quad_coefficient(spec, mesh)
    # the envelope first, so that its temporaries do not stack on the
    # per-point arrays below (audit_rect's traced peak: 1.93 -> 1.75 MB)
    envelope = check_f0(spec, F0_RADIUS, mesh, _coefficient=(c_distinct, inverse))
    w = mesh.quad_weights[0], float(np.sum(mesh.quad_weights))  # row, total
    phi1q = np.abs(values_at_quad(mesh, eigenpair.phi1))
    eta = _declared_weight(spec)
    eta_q = (None if eta is None else c_distinct[inverse] if spec.coefficient == "eta"
             else eta(mesh.quad_points_flat()))
    denoms = (lambda mag: mag ** pp, lambda mag: float(phi(mag)), lambda mag: mag)
    depth, tails = _tail_limsups(spec, c_distinct, denoms, lam, pp, levels)

    def one_direction(tail):
        (vals_p, conv_p), (vals_phi, conv_phi), (vals_1, conv_1) = (
            (vals[inverse], conv[inverse]) for vals, conv in tail)
        tail.clear()  # the distinct values, once mapped to the points
        return (_dominated_by(vals_p, conv_p, w, 0.0, ZERO_TOL),
                _strict_negative_set(vals_p, conv_p, w),
                _best_domination(vals_phi, conv_phi, w, eta, eta_q, alpha, pp, mesh.ndim, "X"),
                _weighted_integral(vals_phi, mesh.quad_weights, phi1q ** alpha), conv_phi,
                _best_domination(vals_1, conv_1, w, eta, eta_q, 1.0, pp, mesh.ndim, "Y"),
                _weighted_integral(vals_1, mesh.quad_weights, phi1q), conv_1)

    ae, strict, dom_x, (I_pos, I_neg), convs_phi, dom_y, (I_plus, I_minus), convs_1 = \
        zip(*map(one_direction, tails))

    axioms = verify_comparison_function(phi, pp)
    neg_ok = I_pos < -STRICT_MARGIN and I_neg < -STRICT_MARGIN
    h_phi1 = pairing(h, eigenpair.phi1)
    bracket_ok = (I_minus < h_phi1 - STRICT_MARGIN) and (h_phi1 < -I_plus - STRICT_MARGIN)
    return {
        "sign": make_report("sign theorem", {
            "nonpositive_ae": _both_directions(ae, depth),
            "strictly_negative_set": _both_directions(strict, depth),
            "local_envelope_integrable": envelope,
        }),
        "comparison": make_report("comparison theorem", {
            "comparison_axioms": Verdict(axioms.overall, dict(axioms.rows())),
            "dominated_in_X": _both_directions(dom_x, depth),
            "negative_weighted_integrals": Verdict(
                _unless_unconverged(neg_ok, convs_phi, w),
                {"pos": I_pos, "neg": I_neg, "levels_used": depth}),
            "local_envelope_integrable": envelope,
        }),
        "landesman_lazer": make_report("Landesman-Lazer theorem", {
            "dominated_in_Y": _both_directions(dom_y, depth),
            "bracket": Verdict(_unless_unconverged(bracket_ok, convs_1, w), {
                "lower": I_minus, "pairing": h_phi1, "upper": -I_plus,
                "levels_used": depth}),
            "local_envelope_integrable": envelope,
        }),
    }


def check_superlinear_negativity(spec: NonlinearitySpec,
                                 levels: int = CHECKER_LEVELS,
                                 lambda1: float | None = None,
                                 p: float | None = None) -> Verdict:
    """lim G(s)/|s| = -infinity in both directions (autonomous specs).

    Holds when both directional tail estimates reach the -inf sentinel;
    inconclusive when an estimate has not converged.  The grid stops at
    the deepest level at which |s| is finite, recorded as "levels_used".
    lambda1 and p are the entry's, else the passed ones; both given must
    agree (ValueError).
    """
    if not spec.autonomous:
        raise ValueError("superlinear-negativity check needs an autonomous spec")
    lam, pp = _agreed("lambda1", spec.lambda1, lambda1), _agreed("p", spec.p, p)
    if lam is None or pp is None:
        raise ValueError("lambda1 and p are needed (spec metadata or arguments)")
    c = _spatial(spec, np.zeros((1, 1)))
    depth, tails = _tail_limsups(spec, c, (lambda mag: mag,), lam, pp, levels)
    results = {"levels_used": depth}
    statuses = []
    for tag, [(vals, conv)] in zip(("pos", "neg"), tails):
        results[tag] = {"value": float(vals[0]), "converged": bool(conv[0])}
        statuses.append(INCONCLUSIVE if not conv[0]
                        else HOLDS if np.isneginf(vals[0]) else FAILS)
    return Verdict(_combine(statuses), results)


# ---------------------------------------------------------------------------
# incomparability suite
# ---------------------------------------------------------------------------


THEOREMS = ("sign", "comparison", "landesman_lazer")


@dataclass(frozen=True)
class IncomparabilityTable:
    """3x3 verdict table: catalog cases against the three theorems."""

    cases: tuple
    verdicts: dict          # verdicts[case][theorem] -> status
    reports: dict           # reports[case][theorem] -> HypothesisReport
    designed: dict          # case -> the theorem it is built to satisfy

    def matrix(self):
        return [[self.verdicts[c][t] for t in THEOREMS] for c in self.cases]

    def is_exclusive_diagonal(self) -> bool:
        """Each case holds exactly its designed theorem; nothing inconclusive."""
        for c in self.cases:
            for t in THEOREMS:
                expected = HOLDS if self.designed[c] == t else FAILS
                if self.verdicts[c][t] != expected:
                    return False
        return True

    def rows(self):
        yield from zip(self.cases, self.matrix())


def _unit_coords(mesh: Mesh, pts: np.ndarray) -> np.ndarray:
    lo, hi = mesh.bounds
    return (pts - lo) / (hi - lo)


def _tilted_weight(mesh: Mesh) -> SpatialWeight:
    """Weight positive on a thin slab near one face, negative elsewhere,
    with a strictly negative phi_1-weighted integral."""
    def fn(pts):
        u = _unit_coords(mesh, np.atleast_2d(pts))
        return u[:, 0] - 0.9
    return SpatialWeight(fn)


def _plateau_bump(mesh: Mesh) -> SpatialWeight:
    """Smooth a <= 0 with support inside [0.15, 0.55] (unit coordinates)
    in each axis, so {a = 0} and {a < 0} both have positive measure."""
    def mollifier(t):
        u = (t - 0.35) / 0.2
        out = np.zeros_like(t)
        inside = np.abs(u) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    def fn(pts):
        u = _unit_coords(mesh, np.atleast_2d(pts))
        prof = mollifier(u[:, 0])
        for d in range(1, u.shape[1]):
            prof = prof * mollifier(u[:, d])
        return -prof
    return SpatialWeight(fn)


def incomparability_suite(p: float, mesh: Mesh, *, levels: int = CHECKER_LEVELS,
                          eigenpair: EigenResult | None = None) -> IncomparabilityTable:
    """Run the three canonical catalog cases through all three theorem
    checkers with h = 0.

    Each case is built so that exactly one set of hypotheses holds:

      comparison_case      F = lambda1 |s|^p/p + eta(x) phi(s)
      landesman_case       F = lambda1 |s|^p/p + eta(x) |s|
      sign_case            F = (lambda1/p + a(x)) |s|^p + sqrt(phi(s) |s|^p)

    The expected verdict matrix is a permutation: one "holds" per row
    and per column (see is_exclusive_diagonal).  `eigenpair` is the first
    eigenpair of (mesh, p); it is computed only when none is passed.
    """
    from .assembly import zero_dual
    from .eigen import first_eigenpair
    from .nonlinearity import modulated_resonance, weighted_absval, weighted_comparison

    eig = eigenpair if eigenpair is not None else first_eigenpair(mesh, p)
    lam = eig.lambda1
    h = zero_dual(mesh)
    alpha = (1.0 + p) / 2.0
    phi = power_comparison(alpha)
    eta = _tilted_weight(mesh)
    a = _plateau_bump(mesh)

    specs = {
        "comparison_case": weighted_comparison(eta, phi, lam, p),
        "landesman_case": weighted_absval(eta, lam, p),
        "sign_case": modulated_resonance(a, phi, lam, p),
    }
    designed = {
        "comparison_case": "comparison",
        "landesman_case": "landesman_lazer",
        "sign_case": "sign",
    }

    reports = {case: check_theorems(spec, eig, h, mesh, p, levels=levels)
               for case, spec in specs.items()}
    verdicts = {case: {t: rep.overall for t, rep in reps.items()}
                for case, reps in reports.items()}
    return IncomparabilityTable(cases=tuple(specs), verdicts=verdicts,
                                reports=reports, designed=designed)
