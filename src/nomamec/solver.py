"""Bisection search over the auxiliary delay with a convex feasibility oracle.

The outer loop halves a bracket on the common delay until it is narrower
than ``eps``; each step asks whether any (beta, p) satisfies the rate,
local-time, box and energy constraints at the trial delay. Feasibility
is monotone in the delay (a witness at some delay scales down its powers
to witness any larger delay), so the bracket always contains the optimum
and convergence is geometric.

The inner oracle minimizes the maximum normalized constraint violation,
a convex function of (beta, p) for a fixed trial delay. It screens a few
structured candidate points (least offload, full offload, the previous
step's witness) and, when none of them certifies feasibility, runs an
SLSQP epigraph polish from the best one with the analytic Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .model import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    UsageError,
)

__all__ = [
    "FeasibilityReport",
    "SolveResult",
    "InfeasibleScenarioError",
    "init_bounds",
    "constraint_violations",
    "max_violation",
    "check_feasibility",
    "bss_solve",
]

_LN2 = math.log(2.0)


class InfeasibleScenarioError(RuntimeError):
    """The scenario admits no allocation even at the upper delay bound."""


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict of one oracle call.

    uncertain marks an infeasible verdict that SLSQP reached without
    converging. inner_iterations is always 0: the oracle has no iterative
    stage of its own; the field stays for callers that read it.
    """

    feasible: bool
    witness: Optional[Allocation]
    residual: float
    inner_iterations: int
    uncertain: bool = False


@dataclass(frozen=True)
class SolveResult:
    """Bisection outcome.

    uncertain_verdicts counts the oracle calls of the bisection steps and
    the certification whose report was uncertain.
    """

    optimal_delay: float
    allocation: Allocation
    iterations: int
    trace: tuple
    converged: bool
    feasibility_residual: float
    uncertain_verdicts: int


def init_bounds(config: ScenarioConfig) -> tuple[float, float]:
    """Bisection bracket: zero to the worst fully-local compute time."""
    return 0.0, max(u.local_full_time for u in config.users)


class _Problem:
    """Precomputed scenario arrays shared by the inner-solver hot path."""

    def __init__(self, gains, config: ScenarioConfig):
        g = gains.gains if isinstance(gains, ChannelRealization) else gains
        self.g = np.asarray(g, dtype=float)
        self.n = len(self.g)
        if len(config.users) != self.n:
            raise UsageError("gains and users must have matching length")
        self.bandwidth = config.bandwidth
        self.p_max = config.p_max
        self.e_max = config.e_max
        self.task_bits = np.array([u.task_bits for u in config.users])
        self.local_coef = np.array([u.local_full_time for u in config.users])
        self.energy_coef = np.array([u.local_full_energy for u in config.users])
        self.prefix_bits_scale = np.cumsum(self.task_bits)
        self.tril = np.tril(np.ones((self.n, self.n)))
        self.alpha_scale = float(self.local_coef.max())
        if config.server is not None:
            self.server_coef = config.server.cycles_per_bit / config.server.cpu_freq
        else:
            self.server_coef = 0.0

    def residuals(self, alpha: float, beta: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Normalized (rate, local, energy) residuals; <= 0 means satisfied."""
        bits = np.cumsum(beta * self.task_bits)
        snr = np.cumsum(self.g * p)
        rate = self.bandwidth * np.log2(1.0 + snr)
        t_srv = self.server_coef * float(np.dot(beta, self.task_bits))
        rate_res = (bits - (alpha - t_srv) * rate) / self.prefix_bits_scale
        local_res = (self.local_coef * (1.0 - beta) - alpha) / self.alpha_scale
        energy_res = (self.energy_coef * (1.0 - beta) + alpha * p - self.e_max) / self.e_max
        return np.concatenate([rate_res, local_res, energy_res])

    def jacobian(self, alpha: float, beta: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(3M x 2M) Jacobian of residuals with respect to (beta, p)."""
        n = self.n
        snr = 1.0 + np.cumsum(self.g * p)
        rate = self.bandwidth * np.log2(snr)
        t_srv = self.server_coef * float(np.dot(beta, self.task_bits))
        scale = self.prefix_bits_scale[:, None]
        # rate row m depends on (beta_j, p_j) for j <= m, and on every
        # beta_j through the server time
        srv_b = np.outer(rate, self.server_coef * self.task_bits)
        rate_b = (self.tril * self.task_bits + srv_b) / scale
        rate_p = self.tril * (-(alpha - t_srv) * self.bandwidth * self.g)
        rate_p = rate_p / (snr[:, None] * _LN2) / scale
        return np.block([
            [rate_b, rate_p],
            [np.diag(-self.local_coef / self.alpha_scale), np.zeros((n, n))],
            [np.diag(-self.energy_coef / self.e_max), np.diag(np.full(n, alpha / self.e_max))],
        ])

    def power_cap(self, alpha: float, beta: np.ndarray) -> np.ndarray:
        """Max per-user power the energy budget allows at this delay."""
        head = (self.e_max - self.energy_coef * (1.0 - beta)) / alpha
        return np.clip(head, 0.0, self.p_max)

    def beta_floor(self, alpha: float) -> np.ndarray:
        """Least offload share meeting the local-time constraint."""
        return np.clip(1.0 - alpha / self.local_coef, 0.0, 1.0)


def constraint_violations(
    alpha: float,
    alloc: Allocation,
    gains,
    config: ScenarioConfig,
) -> np.ndarray:
    """Signed normalized residuals of every constraint instance at alpha.

    Order: rate prefixes (M), local times (M), energy budgets (M), then
    box bounds beta >= 0, beta <= 1, p >= 0, p <= p_max (M each).
    A residual <= 0 means the constraint holds.
    """
    if alpha <= 0:
        raise UsageError("alpha must be > 0")
    prob = _Problem(gains, config)
    beta = np.asarray(alloc.betas, dtype=float)
    p = np.asarray(alloc.powers, dtype=float)
    core = prob.residuals(alpha, beta, p)
    box = np.concatenate([-beta, beta - 1.0, -p / prob.p_max, p / prob.p_max - 1.0])
    return np.concatenate([core, box])


def max_violation(alpha: float, alloc: Allocation, gains, config: ScenarioConfig) -> float:
    """Max constraint violation; the function the inner oracle minimizes."""
    return float(np.max(constraint_violations(alpha, alloc, gains, config)))


def _slsqp_polish(prob: _Problem, alpha: float, x0: np.ndarray, phi0: float):
    """Epigraph form min s s.t. residuals <= s over the box; returns (x, phi, ok)."""
    n = prob.n
    nx = len(x0)

    def split(x):
        return x[:n], x[n:] * prob.p_max

    def cons_f(z):
        beta, p = split(z[:nx])
        return z[nx] - prob.residuals(alpha, beta, p)

    def cons_jac(z):
        beta, p = split(z[:nx])
        jac = np.ones((3 * n, nx + 1))  # last column: the epigraph variable s
        jac[:, :nx] = -prob.jacobian(alpha, beta, p)
        jac[:, n:nx] *= prob.p_max
        return jac

    z0 = np.concatenate([x0, [phi0 + 1e-6]])
    bounds = [(0.0, 1.0)] * nx + [(None, None)]
    res = minimize(
        lambda z: z[nx],
        z0,
        jac=lambda z: np.concatenate([np.zeros(nx), [1.0]]),
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        method="SLSQP",
        options={"maxiter": 250, "ftol": 1e-14},
    )
    x = np.clip(res.x[:nx], 0.0, 1.0)
    beta, p = split(x)
    phi = float(np.max(prob.residuals(alpha, beta, p)))
    return x, phi, bool(res.success)


def check_feasibility(
    alpha: float,
    gains,
    config: ScenarioConfig,
    eps_feas: float = 1e-8,
    warm: Optional[Allocation] = None,
    fixed_betas: Optional[Sequence[float]] = None,
) -> FeasibilityReport:
    """Decide whether any allocation meets every constraint at delay alpha.

    Returns a report whose witness attains the reported max violation.
    With ``fixed_betas`` the search runs over powers only; the per-user
    energy cap then decides feasibility exactly with no iterations.
    """
    if not (math.isfinite(eps_feas) and eps_feas > 0):
        raise UsageError("eps_feas must be finite and > 0")
    prob = _Problem(gains, config)
    n = prob.n
    if alpha <= 0.0:
        zero = Allocation(betas=(0.0,) * n, powers=(0.0,) * n)
        return FeasibilityReport(False, zero, math.inf, 0)

    free_beta = fixed_betas is None
    fixed = None if free_beta else np.asarray(fixed_betas, dtype=float)

    def phi_at(beta, p):
        return float(np.max(prob.residuals(alpha, beta, p)))

    # structured candidates: least-offload and full-offload, powers at the
    # energy cap, plus the warm start from the previous bisection step
    candidates = []
    if free_beta:
        floor = prob.beta_floor(alpha)
        candidates.append((floor, prob.power_cap(alpha, floor)))
        ones = np.ones(n)
        candidates.append((ones, prob.power_cap(alpha, ones)))
        if warm is not None:
            wb = np.clip(np.asarray(warm.betas, dtype=float), 0.0, 1.0)
            wp = np.clip(np.asarray(warm.powers, dtype=float), 0.0, prob.p_max)
            candidates.append((wb, wp))
    else:
        candidates.append((fixed, prob.power_cap(alpha, fixed)))

    best_beta, best_p = candidates[0]
    best_phi = phi_at(best_beta, best_p)
    for cb, cp in candidates[1:]:
        phi = phi_at(cb, cp)
        if phi < best_phi:
            best_phi, best_beta, best_p = phi, cb, cp

    target = 0.5 * eps_feas
    uncertain = False

    if not free_beta:
        # rate residuals are monotone decreasing in power and the energy
        # cap is the componentwise max power, so the candidate decides
        feasible = best_phi <= eps_feas
        witness = Allocation(betas=tuple(fixed), powers=tuple(best_p))
        return FeasibilityReport(feasible, witness, best_phi, 0)

    if best_phi > target:
        x0 = np.concatenate([best_beta, best_p / prob.p_max])
        x, phi, ok = _slsqp_polish(prob, alpha, x0, best_phi)
        if phi < best_phi:
            best_phi = phi
            best_beta, best_p = x[:n], x[n:] * prob.p_max
        uncertain = not ok and best_phi > eps_feas

    witness = Allocation(
        betas=tuple(np.clip(best_beta, 0.0, 1.0)),
        powers=tuple(np.clip(best_p, 0.0, prob.p_max)),
    )
    return FeasibilityReport(best_phi <= eps_feas, witness, best_phi, 0, uncertain)


def bss_solve(
    gains,
    config: ScenarioConfig,
    eps: float = 1e-4,
    eps_feas: float = 1e-8,
    fixed_betas: Optional[Sequence[float]] = None,
    alpha_max: Optional[float] = None,
) -> SolveResult:
    """Globally optimal common delay by bisection on the feasibility oracle.

    Performs ceil(log2(bracket / eps)) halvings, then certifies the
    returned allocation with one extra feasibility solve at the reported
    delay plus eps so the stored residual is meaningful at that level.

    Raises InfeasibleScenarioError when even the upper bound (every task
    computed locally, or the caller-supplied bracket top) is infeasible.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise UsageError("eps must be finite and > 0")
    lo, hi = init_bounds(config)
    if alpha_max is not None:
        hi = alpha_max
    top = check_feasibility(hi, gains, config, eps_feas, fixed_betas=fixed_betas)
    if not top.feasible:
        raise InfeasibleScenarioError(
            f"no feasible allocation at the delay upper bound {hi:.6g} s "
            f"(max violation {top.residual:.3g}); energy budget too small"
        )
    witness = top.witness
    trace = []
    uncertain = 0
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        rep = check_feasibility(
            mid, gains, config, eps_feas, warm=witness, fixed_betas=fixed_betas
        )
        trace.append((mid, rep.feasible))
        uncertain += rep.uncertain
        if rep.feasible:
            hi = mid
            witness = rep.witness
        else:
            lo = mid
    alpha_star = 0.5 * (lo + hi)

    cert = check_feasibility(
        alpha_star + eps, gains, config, eps_feas, warm=witness, fixed_betas=fixed_betas
    )
    uncertain += cert.uncertain
    if cert.feasible:
        witness = cert.witness
        residual = cert.residual
        converged = True
    else:
        core = constraint_violations(alpha_star + eps, witness, gains, config)
        residual = float(core.max())
        converged = residual <= eps_feas
    return SolveResult(
        optimal_delay=alpha_star,
        allocation=witness,
        iterations=len(trace),
        trace=tuple(trace),
        converged=converged,
        feasibility_residual=residual,
        uncertain_verdicts=uncertain,
    )
