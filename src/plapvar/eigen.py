"""First Dirichlet eigenpair of the p-Laplacian by Rayleigh-quotient descent.

The discrete first eigenvalue is the minimum of

    R(u) = int |grad u|^p / int |u|^p

over nonzero P1 fields with zero trace.  The minimizer is the positive
first eigenfunction, normalized by int |phi_1|^p = 1.

The iteration is projected descent on R: renormalize after every
accepted step (R is scale invariant, so projection is free for the line
search), with step lengths from the shared Armijo search `solver.armijo`,
started at t = 1.  Its sufficient-decrease test allows for the quotient's
rounding error, p PHI_NOISE sum_j |u_j| (|A'(u)_j| + lambda |B'(u)_j|), as
the energy descent's allows for Phi's: without the band, trials whose
quotient changes at rounding level are rejected near the stop (128 x 128,
p = 3: 14 trials for 10 steps instead of 7 for 7).  The direction is
the energy descent's damped inexact Newton step (`solver._newton_step`)
for the eigen residual r = A'(u) - lambda B'(u), with
A'(u)_j = int |grad u|^(p-2) grad u . grad psi_j and
B'(u)_j = int |u|^(p-2) u psi_j: PCG, preconditioned by the closed-form
inverse of the p = 2 stiffness matrix K (`solver._poisson_solve`), on a
matrix assembled once per step as grid arrays (`assembly._hessian_stencil`
of `assembly._flux_weights`' coefficient).  That matrix is the Hessian
of the Lagrangian (1/p) int |grad u|^p - lambda (1/p) int |u|^p, A''(u) -
lambda B''(u), whose mass weight lambda (p-1) |u|^(p-2) is written at
the quadrature nodes into the trial buffer, free until the line search;
where u = 0 (the corner triangles of a rectangle) the weight is 0, and 1
at p = 2, the floor rule of `assembly._flux_weights`.  Since
(A'' - lambda B'') u = (p-1) r, the system has the useless solution
u / (p-1), so PCG runs on the K-orthogonal complement of u
(`solver._pcg`, with uKu = int |grad u|^2): the Jacobi-Davidson
correction equation (Sleijpen, van der Vorst, SIAM J. Matrix Anal. Appl.
17, 1996), which converges superlinearly.  The mass term enters only
after a step accepted at t = 1, so never on the first step: far from the
eigenpair the Lagrangian's Hessian is a poor model (with it on every
step, 32 x 32 at p = 4 took 20 trials for 9 steps).  The other steps
solve with A''(u) alone and no projection, a preconditioned inverse
iteration, which converges linearly.  At p = 2, A'' is K and the first
step is the gradient in the H^1_0 inner product.  For p >= 2 the step
count hardly grows under refinement (p = 3 on the unit interval: 7 steps
at n = 64, 9 at n = 4096; A'' alone took 10 and 11; the 128 x 128 square
takes 7 against 10), whereas the raw coefficient-space gradient needs
O(h^-2) steps.  For 1 < p < 2 it does grow (p = 1.5: 27 steps at n = 64,
176 at n = 1024; A'' alone took 31 and 191).

The descent stops when the relative residual
max_j |A'(u)_j - lambda B'(u)_j| / max_j (|A'(u)_j| + lambda |B'(u)_j|),
the norm of `solver._residual_norms`, falls below RESIDUAL_STOP
(`EigenResult.residual_history` keeps it at every iterate).  Both
terms scale alike under u -> c u and under a dilation of the domain, so
the stop does not depend on the domain's size.

Trials run on a cached line.  The iterate u carries its element
gradients D u and its values at the quadrature nodes, and once per step
the direction d gets its gradients D d.  A trial at t combines them
linearly: D u - t D d, into a buffer made per line search (so none sits
idle under the Newton step, where 128 x 128 peaks), and the values of u
minus t times those of d, which it gathers block by block
(`assembly._quad_blocks`) straight into a trial buffer allocated once
per descent.  So a trial costs one quotient and one gather, with no
gradient stencil.  A gather of u - t d would round differently, and at
small p the step counts follow the rounding (p = 1.2, interval n = 128:
142 steps here, 112 with it).  Besides the iterate's and the trial
buffer, the descent keeps no (ne, nq) array: int |u|^p, B' and the mass
weights work block by block.
The accepted trial's arrays are rescaled to int |u|^p = 1, and the
quotient and the eigen residual are then evaluated afresh at the
normalized iterate: reusing the accepted trial's quotient would bias
lambda low, since Armijo accepts the first trial that rounds below its
threshold.

The start iterate is the interpolant of the positive product bubble
prod_i sin(pi (x_i - a_i) / (b_i - a_i)), which lies in the symmetry
class of the first eigenfunction and avoids sign-changing stationary
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    DiscreteField,
    _blocks,
    _check_p,
    _energy,
    _flux,
    _flux_weights,
    _grad,
    _hessian_stencil,
    _lp,
    _lp_load,
    _quad_blocks,
    dirichlet_energy,
    gradients_on_elements,
    lp_integral,
    lp_residual,
    plap_residual,
    values_at_quad,
)
from .meshing import Mesh
from .solver import _newton_step, _poisson_solve, _residual_norms, _rounding_band, armijo

__all__ = ["EigenResult", "EigenConvergenceError", "rayleigh_quotient",
           "collatz_wielandt_bracket", "first_eigenpair"]

RESIDUAL_STOP = 1e-9  # relative eigen residual that ends the descent


@dataclass(frozen=True)
class EigenResult:
    """First eigenpair, converged unless carried by EigenConvergenceError.

    lambda1   discrete first eigenvalue (Rayleigh quotient at phi1)
    phi1      eigenfunction, int |phi1|^p = 1, positive at free vertices
    iterations  accepted descent steps
    trials    line-search trials (Rayleigh quotients on the cached line),
              summed over all steps
    cg_iterations  Hessian products of the Newton directions
    residual  relative eigen residual max_j |A'_j - lambda1 B'_j| /
              max_j (|A'_j| + lambda1 |B'_j|) at phi1, with
              A'_j = int |grad phi1|^(p-2) grad phi1 . grad psi_j and
              B'_j = int |phi1|^(p-2) phi1 psi_j
    stop_reason  why the descent stopped.  A returned result carries
              "residual" (residual below RESIDUAL_STOP).  The result inside
              EigenConvergenceError carries "max-iter" (max_iter steps used
              up) or "line-search" (no acceptable step).
    residual_history  the relative residual of every iterate, the start
              first and phi1 last, so its last entry is residual
    """

    lambda1: float
    phi1: DiscreteField
    iterations: int
    trials: int
    cg_iterations: int
    residual: float
    stop_reason: str
    residual_history: tuple


class EigenConvergenceError(RuntimeError):
    """Raised when the descent does not converge; carries the last iterate
    and `bracket`, the Collatz-Wielandt estimate (lo, hi) of lambda1 at it
    (see `collatz_wielandt_bracket`)."""

    def __init__(self, message: str, result: EigenResult, bracket: tuple):
        super().__init__(message)
        self.result = result
        self.bracket = bracket


def rayleigh_quotient(mesh: Mesh, u: DiscreteField, p: float) -> float:
    """int |grad u|^p / int |u|^p; rejects u = 0."""
    denom = lp_integral(mesh, u, p)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero field")
    return p * dirichlet_energy(mesh, u, p) / denom


def collatz_wielandt_bracket(mesh: Mesh, u: DiscreteField, p: float) -> tuple:
    """Estimate (lo, hi) of lambda1: the min and max over free nodes of
    A'(u)_j / B'(u)_j, with A' = plap_residual and B' = lp_residual.

    The Collatz-Wielandt ratios of nonlinear Perron-Frobenius theory
    (Lemmens, Nussbaum, CUP 2012).  It is an estimate, not a proven bound
    on the discrete eigenvalue.  For a positive u the Rayleigh quotient
    sum_j A'_j u_j / sum_j B'_j u_j is an average of the ratios and lies
    in the bracket; at an eigenpair both ends equal lambda1.  A free node
    with B'(u)_j <= 0 leaves nothing to bracket: (-inf, inf).
    """
    a = plap_residual(mesh, u, p).values
    b = lp_residual(mesh, u, p).values
    if not np.all(b > 0.0):
        return -np.inf, np.inf
    ratios = a / b
    return float(np.min(ratios)), float(np.max(ratios))


def _bubble_start(mesh: Mesh) -> np.ndarray:
    coords = mesh.free_coordinates()
    lo, hi = mesh.bounds
    vals = np.prod(np.sin(np.pi * (coords - lo) / (hi - lo)), axis=1)
    return np.maximum(vals, 1e-12)


def _normalized(mesh: Mesh, values: np.ndarray, p: float):
    """values scaled to int |u|^p = 1, with its gradients D u and quadrature values."""
    field = DiscreteField(mesh, values)
    g, q = gradients_on_elements(mesh, field), values_at_quad(mesh, field)
    s = _lp(mesh, q, p) ** (1.0 / p)
    return field.values / s, g / s, q / s


def _eigen_residual(mesh: Mesh, u: np.ndarray, g: np.ndarray, q: np.ndarray, p: float):
    """Rayleigh quotient, eigen-residual vector, relative residual and the
    quotient's rounding band p PHI_NOISE sum_j |u_j| (|A'_j| + lambda |B'_j|)
    (`solver._rounding_band`) of the field u with element gradients g and
    quadrature values q."""
    lam = p * _energy(mesh, g, p) / _lp(mesh, q, p)
    a, b = _flux(mesh, g, p), lam * _lp_load(mesh, q, p)
    r, _, _, rel = _residual_norms(a, b)
    return lam, r, rel, p * _rounding_band(u, (a, b))


def _line(mesh: Mesh, p: float, g_u: np.ndarray, q_u: np.ndarray, d: np.ndarray,
          g: np.ndarray, q: np.ndarray):
    """Trial function at(t) on the line u - t d, for `solver.armijo`.

    g_u, q_u are u's gradients and quadrature values; d's gradients are
    computed here, once, and its quadrature values block by block in
    each trial.  at(t) writes the trial's arrays into the buffers g and
    q and returns (quotient, (t, int |u - t d|^p)), or None for the zero
    field.  The buffers hold the last trial evaluated, which is the
    accepted one when the search succeeds.
    """
    g_d = _grad(mesh, d)

    def at(t):
        for sl, d_q in _quad_blocks(mesh, d):
            np.add(np.multiply(d_q, -t, out=d_q), q_u[sl], out=q[sl])
        b = _lp(mesh, q, p)
        if b == 0.0:
            return None
        np.add(np.multiply(g_d, -t, out=g), g_u, out=g)
        return p * _energy(mesh, g, p) / b, (t, b)

    return at


def first_eigenpair(mesh: Mesh, p: float, *, max_iter: int = 2000) -> EigenResult:
    """Minimize the Rayleigh quotient; see the module docstring.

    Converges when the relative eigen residual drops below RESIDUAL_STOP;
    it is tested at every iterate, the last one included.  Any other stop
    raises EigenConvergenceError carrying the last iterate;
    EigenResult.stop_reason says which rule fired.
    """
    _check_p(p)
    solve = _poisson_solve(mesh)
    u, g, q = _normalized(mesh, _bubble_start(mesh), p)
    q_buf = np.empty_like(q)
    iterations = trials = cg_iterations = 0
    history = []
    newton = False

    while True:
        lam, r, res, noise = _eigen_residual(mesh, u, g, q, p)
        history.append(res)
        if res < RESIDUAL_STOP:
            stop = "residual"
            break
        if iterations == max_iter:
            stop = "max-iter"
            break

        mass_q = None
        if newton:
            for sl in _blocks(mesh):
                m = np.abs(q[sl], out=q_buf[sl])
                np.power(m, p - 2.0, out=m, where=(m > 0.0) | (p == 2.0))
                m *= lam * (p - 1.0)
            mass_q = q_buf
        # u . K u = int |grad u|^2; the pair is built in the call, so no name
        # keeps this u alive after the step
        d, products = _newton_step(_hessian_stencil(mesh, _flux_weights(mesh, g, p), mass_q),
                                   r, solve, res,
                                   (u, 2.0 * _energy(mesh, g, 2.0)) if newton else None)
        cg_iterations += products
        slope = float(np.dot(r, d)) * p  # B = 1 after normalization
        g_trial = np.empty_like(g)  # per line search (module docstring)
        _, accepted, rejected = armijo(_line(mesh, p, g, q, d, g_trial, q_buf),
                                       lam + noise, slope)
        trials += rejected + (accepted is not None)
        if accepted is None:
            stop = "line-search"
            break
        t, b = accepted
        newton = t == 1.0  # the mass term enters after a full step (module docstring)
        s = b ** (1.0 / p)
        u = (u - t * d) / s
        g = g_trial
        q, q_buf = q_buf, q
        g /= s
        q /= s
        iterations += 1

    if u.size and float(np.sum(u)) < 0.0:
        u = -u  # lambda and the residual norm are even in u
    result = EigenResult(lambda1=lam, phi1=DiscreteField(mesh, u), iterations=iterations,
                         trials=trials, cg_iterations=cg_iterations, residual=res,
                         stop_reason=stop, residual_history=tuple(history))
    if stop != "residual":
        lo, hi = collatz_wielandt_bracket(mesh, result.phi1, p)
        raise EigenConvergenceError(
            f"eigen descent did not converge in {iterations} accepted steps "
            f"(residual {res:.3e}, stop {stop}; Collatz-Wielandt estimate "
            f"lambda1 in [{lo:.6g}, {hi:.6g}])", result, (lo, hi))
    return result
