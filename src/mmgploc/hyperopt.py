"""Maximum-likelihood learning of kernel widths and label noise.

The labelled positions are modelled per coordinate as zero-mean (after
centering) Gaussians with covariance Sigma_L(eps) + sigma2*I, and the
kernel widths and noise variance are learned by maximising the summed
log-likelihood with L-BFGS-B in log-space, so every iterate stays strictly
positive.  sigma2 is bounded below by ``_SIGMA2_FLOOR``, which keeps
Sigma_L + sigma2*I positive definite at every iterate.

The likelihood and its gradient share one factor of Sigma_L + sigma2*I from
``mmgp_model.spd_factor``, the step the model's posterior conditions through
(Rasmussen & Williams 2006, Alg. 2.1 and section 5.4.1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from .dataio import atomic_write
from .kernels import Hyperparameters, fused_from_sums, median_heuristic, sq_dists
from .mmgp_model import labelled_pool, spd_factor

_LN_2PI = math.log(2.0 * math.pi)

# lower bound on the label-noise variance, in m^2; also the start's floor
_SIGMA2_FLOOR = 1e-4

# L-BFGS-B limits: iterations, and the largest projected log-space gradient
_MAX_ITERS = 200
_GRAD_TOL = 1e-4


@dataclass
class OptimizeResult:
    """Learned hyperparameters plus the per-iterate trace."""

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

    def evaluate(self, eps: np.ndarray, sig2: float):
        """Log-likelihood and its gradients w.r.t. eps (M,) and sigma2.

        The coordinates share the noise variance ``sig2``, so one Cholesky
        factor serves them all.  Gradients come from the rectangular Gram
        derivative: d Sigma_L / d eps_m = (dK S^T + S dK^T) / M^2, with the
        sum over the whole pool, not just the labelled block.
        """
        grams = np.exp(-self.d2 / eps[:, None, None])
        s = grams.sum(axis=0)      # (n_L, n_D) node-summed Gram
        n = self.n_l
        cf, gamma = spd_factor(fused_from_sums(s, None, self.num_nodes), sig2)
        logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        total = 0.0
        alphas = np.empty_like(self.y)
        for c in range(self.num_coords):
            alphas[:, c] = cho_solve(cf, self.y[:, c])
            total += (-0.5 * float(self.y[:, c] @ alphas[:, c])
                      - 0.5 * logdet - 0.5 * n * _LN_2PI)

        g_eps = np.empty(self.num_nodes)
        m2 = self.num_nodes**2
        for m in range(self.num_nodes):
            dk = (self.d2[m] / eps[m] ** 2) * grams[m]
            half = dk @ s.T
            d_cov = (half + half.T) / m2
            trace_term = float(np.sum(gamma * d_cov))
            acc = 0.0
            for c in range(self.num_coords):
                acc += 0.5 * (alphas[:, c] @ d_cov @ alphas[:, c] - trace_term)
            g_eps[m] = acc
        trace_gamma = float(np.trace(gamma))
        g_sig = np.array([
            0.5 * (float(alphas[:, c] @ alphas[:, c]) - trace_gamma)
            for c in range(self.num_coords)
        ]).sum()
        return total, g_eps, g_sig


def log_likelihood_and_grad(hp: Hyperparameters, training_set, labelled_positions) -> tuple:
    """(L, dL/deps as an (M,) array, dL/dsigma2) for the centered labels.

    L is summed over coordinates; ``optimize`` runs this same evaluation.
    """
    prob = _Problem(training_set, labelled_positions, hp.num_nodes)
    value, g_eps, g_sig = prob.evaluate(hp.eps, hp.sigma2)
    return value, g_eps, float(g_sig)


def default_initial_hyperparameters(training_set, labelled_positions) -> Hyperparameters:
    """Median-heuristic widths and a noise floor from the label spread."""
    eps = median_heuristic(training_set)
    _, positions = labelled_pool(training_set, labelled_positions, eps.size)
    spread = float(positions.var(axis=0).mean())
    return Hyperparameters(eps=eps, sigma2=max(0.05 * spread, _SIGMA2_FLOOR))


def optimize(training_set, labelled_positions,
             hp0: Hyperparameters | None = None) -> OptimizeResult:
    """Maximise the labelled log-likelihood with L-BFGS-B in log-parameter space.

    sigma2 is bounded below by ``_SIGMA2_FLOOR`` and a start below it is
    raised to it; a learned sigma2 at the floor means the bound is active.
    The trace holds the start, then one row per L-BFGS-B iterate.  When the
    optimizer stops short of convergence (say, at ``_MAX_ITERS``) the result
    carries its message as a warning and the last iterate.
    """
    if hp0 is None:
        hp0 = default_initial_hyperparameters(training_set, labelled_positions)
    prob = _Problem(training_set, labelled_positions, hp0.num_nodes)
    if hp0.sigma2 <= 0:
        raise ValueError("learning sigma2 in log-space needs a positive start")

    m = prob.num_nodes
    start = np.append(hp0.eps, max(hp0.sigma2, _SIGMA2_FLOOR))
    trace = [(0, prob.evaluate(start[:m], start[m])[0], *start)]

    def negative(theta):
        params = np.exp(theta)
        value, g_eps, g_sig = prob.evaluate(params[:m], params[m])
        return -value, -np.append(g_eps, g_sig) * params   # chain rule to log-space

    def record(intermediate_result):
        trace.append((len(trace), -intermediate_result.fun, *np.exp(intermediate_result.x)))

    res = minimize(negative, np.log(start), jac=True, method="L-BFGS-B",
                   bounds=[(None, None)] * m + [(math.log(_SIGMA2_FLOOR), None)],
                   callback=record, options={"maxiter": _MAX_ITERS, "gtol": _GRAD_TOL})
    params = np.exp(res.x)
    hp = Hyperparameters(eps=params[:m], sigma2=float(params[m]), jitter=hp0.jitter)
    return OptimizeResult(hyperparameters=hp, log_likelihood=-float(res.fun), trace=trace,
                          converged=bool(res.success),
                          warning=None if res.success else str(res.message))


def write_trace_csv(result: OptimizeResult, path) -> None:
    """Optimizer trace as CSV: iteration, L, widths, noise."""
    num_nodes = result.hyperparameters.num_nodes
    header = (["iteration", "log_likelihood"]
              + [f"eps_{m}" for m in range(1, num_nodes + 1)] + ["sigma2"])
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(result.trace)
