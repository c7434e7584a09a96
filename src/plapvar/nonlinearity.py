"""Caratheodory nonlinearities f(x, s) and their potentials F(x, s) = int_0^s f.

A NonlinearitySpec bundles the evaluators with the metadata the
hypothesis checkers need: autonomy, spatial weights with their
declared integrability exponents, and for catalog members the closed
form of the shifted potential

    G(x, s) = F(x, s) - lambda1 |s|^p / p.

Closed-form G matters numerically: at large |s| the two terms of the
difference agree to every stored bit, so the subtraction returns 0 and
the asymptotic signal is lost exactly where the limsup estimators look.

Every spec carries its potential F in closed form.  Potential values
are IEEE extended reals: divergent integrals surface as +-inf, never as
exceptions.

Evaluator conventions: spatial callables take point arrays of shape
(m, ndim) and return (m,).  The first argument of a spec's f/F/G is what
`_spatial(spec, points)` returns.  A catalog entry with a spatial
coefficient (d, eta or a) names its params key in `coefficient`, and its
f/F/G take that coefficient's (m,) values, not the points, so a caller
that evaluates f at many s on one point set evaluates the weight once
(the hypothesis checkers do; eval_f/eval_F/eval_G evaluate it once per
call).  A spec with no declared coefficient, a user's
NonlinearitySpec(f=lambda x, s: ...) included, receives the (m, ndim)
points.  The hypothesis checkers pass only the distinct entries of that
first argument (`conditions._distinct`), so f/F/G must act on it entry
by entry (row by row for points).  An autonomous spec with no declared
coefficient ignores x (`_ignores_x`): every caller, the checkers and the
energy descent alike, passes it the mesh's first quadrature point alone,
shape (1, ndim), against all its s, and broadcasts a result of shape
(1,) to the shape of s.  s may be a scalar or a (k, 1) column of samples
(check_f0 passes blocks of s against the distinct values that way), so
f/F/G must broadcast it against the (n,) values into a (k, n) result; a
result that ignores x or s may keep the shape of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SpatialWeight",
    "NonlinearitySpec",
    "as_weight",
    "eval_f",
    "eval_F",
    "eval_G",
    "sine_exp",
    "power_perturbation",
    "weighted_comparison",
    "weighted_absval",
    "modulated_resonance",
    "power_potential",
]


@dataclass(frozen=True)
class SpatialWeight:
    """Spatial coefficient with a declared L^q integrability exponent.

    Integrability is declared metadata, never inferred numerically; use
    math.inf for (essentially) bounded weights.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    exponent: float = math.inf

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(pts)), dtype=float)


def as_weight(w, exponent: Optional[float] = None) -> SpatialWeight:
    """SpatialWeight from a weight, a callable of points or a constant.

    `exponent` is the declared L^q exponent of a callable (default
    math.inf).  A SpatialWeight keeps its own; an explicit exponent that
    disagrees with it is an error rather than silently dropped.
    """
    if isinstance(w, SpatialWeight):
        if exponent is not None and exponent != w.exponent:
            raise ValueError(f"exponent {exponent} disagrees with the weight's "
                             f"declared exponent {w.exponent}")
        return w
    if callable(w):
        return SpatialWeight(w, math.inf if exponent is None else exponent)
    c = float(w)
    return SpatialWeight(lambda pts, c=c: np.full(pts.shape[0], c))


def _odd_power(s, q):
    """sign(s) |s|^(q-1), finite at 0 for q > 1."""
    return np.sign(s) * np.abs(s) ** (q - 1.0)


def _as_phi(phi):
    if not callable(phi) or not hasattr(phi, "order") \
            or not hasattr(phi, "derivative"):
        raise TypeError("phi must expose __call__, `derivative` and `order`")
    return phi


@dataclass(frozen=True)
class NonlinearitySpec:
    """Evaluators plus checker metadata for one right-hand side f(x, s)."""

    name: str
    f: Callable
    F: Callable
    G: Optional[Callable] = None
    p: Optional[float] = None
    lambda1: Optional[float] = None
    autonomous: bool = False
    params: dict = field(default_factory=dict)
    coefficient: Optional[str] = None  # params key of the weight f/F/G take


def _spatial(spec: NonlinearitySpec, x):
    """The first argument of spec.f/F/G at the points x: the values of the
    declared coefficient, or the (m, ndim) points when there is none."""
    x = np.atleast_2d(x)
    if spec.coefficient is None:
        return x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return spec.params[spec.coefficient](x)


def _ignores_x(spec: NonlinearitySpec) -> bool:
    """Whether f/F/G ignore x: the spec is autonomous and declares no
    coefficient.  Callers then evaluate them at one point, the mesh's first
    quadrature point, and make no other."""
    return spec.autonomous and spec.coefficient is None


def _f_at(spec: NonlinearitySpec, c, s):
    """f with its first argument c = _spatial(spec, x) already evaluated."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.asarray(spec.f(c, np.asarray(s, dtype=float)))


def _F_at(spec: NonlinearitySpec, c, s):
    """F with its first argument c = _spatial(spec, x) already evaluated."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(spec.F(c, np.asarray(s, dtype=float)))


def _G_at(spec: NonlinearitySpec, c, s, lam: float, p: float):
    """G at lambda1 = lam and p, with c = _spatial(spec, x) already evaluated."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.G is not None and lam == spec.lambda1 and p == spec.p:
            return np.asarray(spec.G(c, s))
        return _F_at(spec, c, s) - lam * np.abs(s) ** p / p


def eval_f(spec: NonlinearitySpec, x, s):
    """f(x, s); broadcasts the weight values against s."""
    return _f_at(spec, _spatial(spec, x), s)


def eval_F(spec: NonlinearitySpec, x, s):
    """F(x, s) from the spec's closed form; broadcasts like eval_f."""
    return _F_at(spec, _spatial(spec, x), s)


def eval_G(spec: NonlinearitySpec, x, s, lambda1: float | None = None,
           p: float | None = None):
    """G(x, s) = F(x, s) - lambda1 |s|^p / p.

    lambda1 and p default to the values stored on the spec object.
    When the entry carries a closed form for G and the arguments match
    the stored constants, the closed form is used (see the module
    docstring for why); otherwise the difference is computed from F.
    """
    lam = spec.lambda1 if lambda1 is None else lambda1
    pp = spec.p if p is None else p
    if lam is None or pp is None:
        raise ValueError(
            "eval_G needs lambda1 and p (as arguments or stored on the entry)")
    return _G_at(spec, _spatial(spec, x), s, lam, pp)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def sine_exp(d=1.0) -> NonlinearitySpec:
    """Sine-exponential nonlinearity with nonpositive potential.

    For |s| >= 1:
        f(x, s) = d(x) (sin(pi s / 2) - sign(s)/2)
                  exp(2 cos(pi s / 2)/pi + (|s| - 1)/2)
        F(x, s) = -d(x) exp(2 cos(pi s / 2)/pi) exp((|s| - 1)/2)
    For |s| <= 1:
        f(x, s) = d(x) (s/2)(10 s^2 - 9)
        F(x, s) = -d(x) (s^2/4)(9 - 5 s^2)

    |f| grows like exp(|s|/2), so no polynomial growth bound of any
    order holds, yet F <= 0 everywhere for d >= 0.  Both branches agree
    at |s| = 1 (f -> d/2, F -> -d).
    """
    w = as_weight(d)

    def f(dd, s):
        inner = 0.5 * s * (10.0 * s * s - 9.0)
        env = np.exp(2.0 * np.cos(np.pi * s / 2.0) / np.pi
                     + (np.abs(s) - 1.0) / 2.0)
        outer = (np.sin(np.pi * s / 2.0) - 0.5 * np.sign(s)) * env
        return dd * np.where(np.abs(s) <= 1.0, inner, outer)

    def F(dd, s):
        inner = -(s * s / 4.0) * (9.0 - 5.0 * s * s)
        outer = -np.exp(2.0 * np.cos(np.pi * s / 2.0) / np.pi) \
            * np.exp((np.abs(s) - 1.0) / 2.0)
        return dd * np.where(np.abs(s) <= 1.0, inner, outer)

    return NonlinearitySpec(
        name="sine_exp", f=f, F=F, autonomous=not callable(d),
        params={"d": w}, coefficient="d",
    )


def power_perturbation(lambda1: float, beta: float, p: float) -> NonlinearitySpec:
    """f(s) = lambda1 |s|^(p-2) s - beta |s|^(beta-2) s with 1 < beta < p.

    F(s) = lambda1 |s|^p / p - |s|^beta, so G(s) = -|s|^beta: the
    shifted potential drifts to -infinity while p F / |s|^p still tends
    to lambda1 (resonance at the top order).
    """
    if not (1.0 < beta < p):
        raise ValueError(f"power_perturbation needs 1 < beta < p, got beta={beta}, p={p}")

    def f(x, s):
        return lambda1 * _odd_power(s, p) - beta * _odd_power(s, beta)

    def F(x, s):
        return lambda1 * np.abs(s) ** p / p - np.abs(s) ** beta

    def G(x, s):
        return -np.abs(s) ** beta

    return NonlinearitySpec(
        name="power_perturbation", f=f, F=F, G=G, p=p, lambda1=lambda1,
        autonomous=True,
        params={"beta": beta},
    )


def weighted_comparison(eta, phi, lambda1: float, p: float,
                        eta_exponent: Optional[float] = None) -> NonlinearitySpec:
    """F(x, s) = lambda1 |s|^p / p + eta(x) phi(s).

    phi is a comparison-type function: any object with __call__,
    `derivative` and `order`, such as conditions.power_comparison(alpha).
    The shifted potential is G = eta(x) phi(s), so G/phi recovers eta
    exactly while G/|s|^p decays to zero.
    """
    w = as_weight(eta, eta_exponent)
    ph = _as_phi(phi)

    def f(eta, s):
        return lambda1 * _odd_power(s, p) + eta * ph.derivative(s)

    def F(eta, s):
        return lambda1 * np.abs(s) ** p / p + eta * ph(s)

    def G(eta, s):
        return eta * ph(s)

    return NonlinearitySpec(
        name="weighted_comparison", f=f, F=F, G=G, p=p, lambda1=lambda1,
        autonomous=False,
        params={"eta": w, "phi": ph}, coefficient="eta",
    )


def weighted_absval(eta, lambda1: float, p: float,
                    eta_exponent: Optional[float] = None) -> NonlinearitySpec:
    """F(x, s) = lambda1 |s|^p / p + eta(x) |s|, so G = eta(x) |s|.

    f(x, s) = lambda1 |s|^(p-2) s + eta(x) sign(s), defined a.e.: it
    jumps at s = 0.
    """
    w = as_weight(eta, eta_exponent)

    def f(eta, s):
        return lambda1 * _odd_power(s, p) + eta * np.sign(s)

    def F(eta, s):
        return lambda1 * np.abs(s) ** p / p + eta * np.abs(s)

    def G(eta, s):
        return eta * np.abs(s)

    return NonlinearitySpec(
        name="weighted_absval", f=f, F=F, G=G, p=p, lambda1=lambda1,
        autonomous=False,
        params={"eta": w}, coefficient="eta",
    )


def modulated_resonance(a, phi, lambda1: float, p: float) -> NonlinearitySpec:
    """F(x, s) = (lambda1/p + a(x)) |s|^p + (phi(s) |s|^p)^(1/2).

    a <= 0 is a smooth compactly supported modulation that vanishes on a
    set of positive measure.  G = a(x) |s|^p + sqrt(phi(s) |s|^p):
    normalizing by |s|^p recovers a(x), while normalizing by phi or |s|
    blows up to +infinity wherever a = 0.
    """
    w = as_weight(a)
    ph = _as_phi(phi)

    # sqrt(phi(s)) |s|^(p/2) rather than sqrt(phi(s) |s|^p): the product
    # overflows once |s|^(p + order) does, long before the root term does
    def _root_term(s):
        return np.sqrt(ph(s)) * np.abs(s) ** (p / 2.0)

    def _root_term_deriv(s):
        root, a = np.sqrt(ph(s)), np.abs(s)
        live = (root > 0.0) & (a > 0.0)
        root_l, a_l = np.where(live, root, 1.0), np.where(live, a, 1.0)
        d = ph.derivative(s) / root_l + p * root_l * np.sign(s) / a_l
        return np.where(live, 0.5 * a_l ** (p / 2.0) * d, 0.0)

    def f(a, s):
        return (lambda1 + p * a) * _odd_power(s, p) + _root_term_deriv(s)

    def F(a, s):
        return (lambda1 / p + a) * np.abs(s) ** p + _root_term(s)

    def G(a, s):
        return a * np.abs(s) ** p + _root_term(s)

    return NonlinearitySpec(
        name="modulated_resonance", f=f, F=F, G=G, p=p, lambda1=lambda1,
        autonomous=False,
        params={"a": w, "phi": ph}, coefficient="a",
    )


def power_potential(mu: float, p: float, lambda1: float | None = None) -> NonlinearitySpec:
    """F(s) = mu |s|^p / p (pure power at level mu).

    With mu < lambda1 this is the model strictly-coercive family; the
    closed-form G is (mu - lambda1) |s|^p / p when lambda1 is given.
    """

    def f(x, s):
        return mu * _odd_power(s, p)

    def F(x, s):
        return mu * np.abs(s) ** p / p

    G = None
    if lambda1 is not None:
        def G(x, s):
            return (mu - lambda1) * np.abs(s) ** p / p

    return NonlinearitySpec(
        name="power_potential", f=f, F=F, G=G, p=p, lambda1=lambda1,
        autonomous=True,
        params={"mu": mu},
    )
