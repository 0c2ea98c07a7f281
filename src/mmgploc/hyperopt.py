"""Maximum-likelihood learning of kernel widths and label noise.

The labelled positions are modelled per coordinate as zero-mean (after
centering) Gaussians with covariance Sigma_L(eps) + sigma2*I, and the
kernel widths are learned by gradient ascent on the summed log-likelihood.
Ascent runs in log-space so every iterate stays strictly positive, with a
backtracking line search that only ever accepts improvements.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dataio import atomic_write
from .kernels import Hyperparameters, median_heuristic, sq_dists
from .mmgp_model import labelled_pool

_LN_2PI = math.log(2.0 * math.pi)


@dataclass
class OptimizerConfig:
    """Gradient-ascent settings; the widths and the shared noise variance are learned."""

    max_iters: int = 200
    initial_step: float = 0.5
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    grad_tol: float = 1e-4

    def __post_init__(self):
        if self.initial_step <= 0 or self.grad_tol <= 0:
            raise ValueError("step size and gradient tolerance must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if self.max_iters < 1 or self.max_backtracks < 1:
            raise ValueError("iteration limits must be >= 1")


@dataclass
class OptimizeResult:
    """Learned hyperparameters plus the accepted-iterate trace."""

    hyperparameters: Hyperparameters
    log_likelihood: float
    trace: list                      # rows: (iteration, L, eps_1..eps_M, sigma2)
    converged: bool
    warning: str | None = None


class _Problem:
    """Precomputed geometry: everything that does not depend on (eps, sigma2)."""

    def __init__(self, training_set, labelled_positions, num_nodes: int):
        self.pool, positions = labelled_pool(training_set, labelled_positions, num_nodes)
        self.n_l = positions.shape[0]
        self.num_nodes = num_nodes
        self.y = positions - positions.mean(axis=0)   # (n_L, C)
        self.num_coords = self.y.shape[1]
        # per-node squared distances labelled x pool, fixed across iterates
        self.d2 = np.stack([
            sq_dists(self.pool[: self.n_l, m, :], self.pool[:, m, :])
            for m in range(self.num_nodes)
        ])

    def _cov_parts(self, eps: np.ndarray):
        grams = np.exp(-self.d2 / eps[:, None, None])
        s = grams.sum(axis=0)      # (n_L, n_D) node-summed Gram
        cov = (s @ s.T) / self.num_nodes**2
        return 0.5 * (cov + cov.T), grams, s

    def evaluate(self, eps: np.ndarray, sig2: float, want_grad: bool):
        """Log-likelihood and (optionally) gradients w.r.t. eps and sigma2.

        The coordinates share the noise variance ``sig2``, so one Cholesky
        factor serves them all.  Gradients come from the rectangular Gram
        derivative: d Sigma_L / d eps_m = (dK S^T + S dK^T) / M^2, with the
        sum over the whole pool, not just the labelled block.
        """
        cov, grams, s = self._cov_parts(eps)
        n = self.n_l
        eye = np.eye(n)
        a_mat = cov + sig2 * eye
        try:
            cf = cho_factor(a_mat, lower=True)
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(a_mat).min())
            raise ValueError(f"covariance not positive definite "
                             f"(smallest eigenvalue {smallest:.3e})") from None
        logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        gamma = cho_solve(cf, eye)
        gamma = 0.5 * (gamma + gamma.T)
        total = 0.0
        alphas = np.empty_like(self.y)
        for c in range(self.num_coords):
            alphas[:, c] = cho_solve(cf, self.y[:, c])
            total += (-0.5 * float(self.y[:, c] @ alphas[:, c])
                      - 0.5 * logdet - 0.5 * n * _LN_2PI)
        if not want_grad:
            return total, None, None

        g_eps = np.empty(self.num_nodes)
        m2 = self.num_nodes**2
        for m in range(self.num_nodes):
            dk = (self.d2[m] / eps[m] ** 2) * grams[m]
            half = dk @ s.T
            d_cov = (half + half.T) / m2
            acc = 0.0
            for c in range(self.num_coords):
                acc += 0.5 * (alphas[:, c] @ d_cov @ alphas[:, c]
                              - float(np.sum(gamma * d_cov)))
            g_eps[m] = acc
        g_sig = np.array([
            0.5 * (float(alphas[:, c] @ alphas[:, c]) - float(np.trace(gamma)))
            for c in range(self.num_coords)
        ]).sum()
        return total, g_eps, g_sig


def log_likelihood(hp: Hyperparameters, training_set, labelled_positions) -> float:
    """Summed per-coordinate Gaussian log-density of the centered labels."""
    prob = _Problem(training_set, labelled_positions, hp.num_nodes)
    value, _, _ = prob.evaluate(hp.eps, hp.sigma2, want_grad=False)
    return value


def grad_eps(hp: Hyperparameters, training_set, labelled_positions, m: int) -> float:
    """d log-likelihood / d eps_m for the 1-based node index ``m``."""
    prob = _Problem(training_set, labelled_positions, hp.num_nodes)
    if not 1 <= m <= prob.num_nodes:
        raise ValueError("node index is 1-based")
    _, g_eps, _ = prob.evaluate(hp.eps, hp.sigma2, want_grad=True)
    return float(g_eps[m - 1])


def grad_sigma2(hp: Hyperparameters, training_set, labelled_positions) -> float:
    """d log-likelihood / d sigma2, summed over coordinates."""
    prob = _Problem(training_set, labelled_positions, hp.num_nodes)
    _, _, g_sig = prob.evaluate(hp.eps, hp.sigma2, want_grad=True)
    return float(g_sig)


def default_initial_hyperparameters(training_set, labelled_positions) -> Hyperparameters:
    """Median-heuristic widths and a noise floor from the label spread."""
    eps = median_heuristic(training_set)
    _, positions = labelled_pool(training_set, labelled_positions, eps.size)
    spread = float(positions.var(axis=0).mean())
    return Hyperparameters(eps=eps, sigma2=max(0.05 * spread, 1e-4))


def optimize(training_set, labelled_positions, cfg: OptimizerConfig | None = None,
             hp0: Hyperparameters | None = None) -> OptimizeResult:
    """Gradient ascent on the labelled log-likelihood in log-parameter space.

    Returns the best accepted iterate; the trace holds one row per accepted
    step (starting at the initial point) and is non-decreasing in L.  When
    the iteration budget runs out with a large gradient the result carries
    a warning and the best parameters seen.
    """
    cfg = cfg or OptimizerConfig()
    if hp0 is None:
        hp0 = default_initial_hyperparameters(training_set, labelled_positions)
    prob = _Problem(training_set, labelled_positions, hp0.num_nodes)
    if hp0.sigma2 <= 0:
        raise ValueError("learning sigma2 in log-space needs a positive start")

    eps = hp0.eps.copy()
    sig2 = np.full(1, hp0.sigma2)
    value, g_eps, g_sig = prob.evaluate(eps, sig2[0], want_grad=True)
    trace = [(0, value, *eps, *sig2)]
    best = (value, eps.copy(), sig2.copy())
    step = cfg.initial_step
    warning = None
    converged = False

    for it in range(1, cfg.max_iters + 1):
        theta = np.log(np.concatenate([eps, sig2]))
        params = np.exp(theta)
        g_theta = np.append(g_eps, g_sig) * params   # chain rule to log-space
        if np.abs(g_theta).max() <= cfg.grad_tol:
            converged = True
            break

        accepted = False
        s = step
        for _ in range(cfg.max_backtracks):
            cand = np.exp(theta + s * g_theta)
            cand_eps, cand_sig = cand[: prob.num_nodes], cand[prob.num_nodes:]
            try:
                cand_val, cg_eps, cg_sig = prob.evaluate(cand_eps, cand_sig[0], want_grad=True)
            except ValueError:
                s *= cfg.backtrack_factor
                continue
            if cand_val > value:
                eps, sig2, value = cand_eps, cand_sig, cand_val
                g_eps, g_sig = cg_eps, cg_sig
                accepted = True
                break
            s *= cfg.backtrack_factor
        if not accepted:
            # no uphill move found along the gradient: numerically at an optimum
            converged = bool(np.abs(g_theta).max() <= 100 * cfg.grad_tol)
            if not converged:
                warning = "line search stalled before reaching the gradient tolerance"
            break

        step = min(s * 2.0, 10.0 * cfg.initial_step)  # re-expand after success
        trace.append((it, value, *eps, *sig2))
        if value > best[0]:
            best = (value, eps.copy(), sig2.copy())
    else:
        warning = "maximum iterations reached before the gradient tolerance"

    value, eps, sig2 = best
    hp = Hyperparameters(eps=eps, sigma2=float(sig2[0]), jitter=hp0.jitter)
    return OptimizeResult(hyperparameters=hp, log_likelihood=value, trace=trace,
                          converged=converged, warning=warning)


def write_trace_csv(result: OptimizeResult, path) -> None:
    """Accepted-iterate trace as CSV: iteration, L, widths, noise."""
    num_nodes = result.hyperparameters.num_nodes
    header = (["iteration", "log_likelihood"]
              + [f"eps_{m}" for m in range(1, num_nodes + 1)] + ["sigma2"])
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(result.trace)
