"""Stock-pool selection, moment shrinkage, and the constrained mean-variance solve.

The solve maximizes <w, mu> - <w, Sigma w> over per-coordinate boxes given by
the manager's direction labels: long -> [0, 1], short -> [-1, 0],
neutral -> {0}. Projected gradient ascent with step 1/(2B), B the Gershgorin
bound on Sigma's largest eigenvalue, is monotone and convergent for this
concave objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    InsufficientCandidates,
    InsufficientSamples,
    NonPositivePrice,
    NonPSDMatrix,
    SolverNonConvergence,
)

DIRECTION_BOXES = {
    "long": (0.0, 1.0),
    "short": (-1.0, 0.0),
    "neutral": (0.0, 0.0),
}


@dataclass(frozen=True)
class ReturnPanel:
    """T x N matrix of daily log returns, dates by rows, tickers by columns."""

    tickers: tuple[str, ...]
    dates: tuple
    returns: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2 or r.shape != (len(self.dates), len(self.tickers)):
            raise ValueError("returns must be T x N matching dates and tickers")
        if not np.all(np.isfinite(r)):
            raise ValueError("returns contain non-finite entries")
        object.__setattr__(self, "returns", r)


@dataclass(frozen=True)
class MVInputs:
    mu: np.ndarray
    sigma: np.ndarray
    directions: tuple[str, ...]


def shrink_estimates(panel: ReturnPanel, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrunk mean and covariance of the panel's daily returns.

    The sample covariance S (ddof=1) shrinks toward its own diagonal,
    Sigma = (1-lam) S + lam diag(S); the sample mean shrinks toward its
    grand mean, mu = (1-lam) mu_hat + lam mean(mu_hat) 1.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
    r = panel.returns
    if r.shape[0] < 2:
        raise InsufficientSamples(f"need T >= 2 rows, got {r.shape[0]}")
    mu_hat = r.mean(axis=0)
    centered = r - mu_hat
    s = centered.T @ centered / (r.shape[0] - 1)
    sigma = (1.0 - lam) * s + lam * np.diag(np.diag(s))
    mu = (1.0 - lam) * mu_hat + lam * float(mu_hat.mean()) * np.ones_like(mu_hat)
    return mu, sigma


def direction_bounds(directions) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty(len(directions))
    hi = np.empty(len(directions))
    for i, d in enumerate(directions):
        try:
            lo[i], hi[i] = DIRECTION_BOXES[d]
        except KeyError:
            raise ValueError(f"unknown direction {d!r}") from None
    return lo, hi


def _check_psd(sigma: np.ndarray, tol: float = 1e-10) -> None:
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NonPSDMatrix(f"sigma must be square, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise NonPSDMatrix("sigma contains non-finite entries")
    if float(np.max(np.abs(sigma - sigma.T))) > tol:
        raise NonPSDMatrix("sigma is not symmetric within 1e-10")
    min_eig = float(np.linalg.eigvalsh(sigma).min())
    if min_eig < -tol:
        raise NonPSDMatrix(f"sigma has negative eigenvalue {min_eig}")


def gershgorin_bound(sigma: np.ndarray) -> float:
    """Upper bound on the largest eigenvalue: max absolute row sum."""
    return float(np.max(np.sum(np.abs(sigma), axis=1)))


def mv_objective(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    return float(w @ mu - w @ (sigma @ w))


def _box_qp(mu: np.ndarray, sigma: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            step: float, obj_tol: float, step_tol: float, max_iter: int):
    """Projected gradient ascent for max <w,mu> - <w,sigma w> over a box.

    Starts from w = 0 (feasible for every direction box). Stops when both the
    objective change and the infinity-norm step fall under their tolerances,
    or after ``max_iter`` iterations. Returns (w, objective).
    """
    w = np.zeros_like(mu)
    obj = 0.0
    for _ in range(max_iter):
        grad = mu - 2.0 * (sigma @ w)
        wn = np.clip(w + step * grad, lo, hi)
        new_obj = mv_objective(wn, mu, sigma)
        dw = float(np.max(np.abs(wn - w)))
        done = abs(new_obj - obj) < obj_tol and dw < step_tol
        w = wn
        obj = new_obj
        if done:
            break
    return w, obj


def solve_mean_variance(inputs: MVInputs, obj_tol: float = 1e-10,
                        step_tol: float = 1e-8, max_iter: int = 10_000) -> np.ndarray:
    """Maximizer of <w,mu> - <w,Sigma w> over the direction boxes.

    Deterministic: starts from w = 0 and runs projected gradient ascent until
    both the objective change and the step size fall under tolerance (the
    step-size condition pins w itself, not just the objective). Hitting the
    iteration cap returns the current iterate; only a non-finite objective
    raises SolverNonConvergence.
    """
    mu = np.asarray(inputs.mu, dtype=float)
    sigma = np.asarray(inputs.sigma, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu contains non-finite entries")
    _check_psd(sigma)
    if len(inputs.directions) != mu.shape[0]:
        raise ValueError("directions length must match mu")
    lo, hi = direction_bounds(inputs.directions)
    step = 1.0 / (2.0 * max(gershgorin_bound(sigma), 1e-12))
    w, obj = _box_qp(mu, sigma, lo, hi, step, obj_tol, step_tol, max_iter)
    if not math.isfinite(obj):
        raise SolverNonConvergence(f"objective became non-finite: {obj}")
    return w


def scale_to_positions(w: np.ndarray, capital: float, prices: np.ndarray) -> np.ndarray:
    """Fractional target share counts w_n * capital / price_n (sign follows the weight)."""
    prices = np.asarray(prices, dtype=float)
    if capital <= 0:
        raise ValueError(f"capital must be positive, got {capital}")
    if np.any(prices <= 0):
        raise NonPositivePrice("all prices must be positive")
    return np.asarray(w, dtype=float) * capital / prices


def _abs_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """|Pearson correlation|; zero-variance series count as uncorrelated."""
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return abs(float(da @ db) / math.sqrt(va * vb))


def correlation_table(candidates: list[tuple[str, np.ndarray]]) -> dict[tuple[str, str], float]:
    table: dict[tuple[str, str], float] = {}
    for (ta, ra), (tb, rb) in combinations(candidates, 2):
        table[(ta, tb)] = table[(tb, ta)] = _abs_correlation(ra, rb)
    return table


def mean_abs_correlation(tickers, table) -> float:
    pairs = list(combinations(sorted(tickers), 2))
    if not pairs:
        return 0.0
    return sum(table[p] for p in pairs) / len(pairs)


EXACT_SUBSET_CAP = 200  # subsets; C(8,3)=56, so small pools solve exactly


def select_stocks(candidates: list[tuple[str, int, np.ndarray]], n: int,
                  min_news: int = 800) -> list[str]:
    """Pick ``n`` tickers from (ticker, news_count, return_history) candidates.

    Filters to candidates with at least ``min_news`` news items, then picks
    the pool minimizing average pairwise absolute return correlation. Small
    instances (up to ``EXACT_SUBSET_CAP`` subsets) are solved by exhaustive
    subset search; larger pools use a greedy build-up seeded with the
    lowest-correlation pair. Ties resolve to the lexicographically smaller
    ticker/pool; the result is returned sorted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    survivors = [(t, np.asarray(r, dtype=float)) for t, c, r in candidates if c >= min_news]
    if len(survivors) < n:
        raise InsufficientCandidates(
            f"{len(survivors)} candidates pass the news filter, need {n}")
    lengths = {len(r) for _, r in survivors}
    if len(lengths) > 1:
        raise ValueError("return histories must have equal lengths")
    survivors.sort(key=lambda x: x[0])
    names = [t for t, _ in survivors]
    if n == 1:
        if len(survivors) == 1:
            return [names[0]]
        table = correlation_table(survivors)
        best = min(
            names,
            key=lambda t: (sum(table[(t, o)] for o in names if o != t), t),
        )
        return [best]
    table = correlation_table(survivors)
    if math.comb(len(names), n) <= EXACT_SUBSET_CAP:
        best = min(
            (tuple(sub) for sub in combinations(names, n)),
            key=lambda s: (mean_abs_correlation(s, table), s),
        )
        return sorted(best)
    seed = min(combinations(names, 2), key=lambda p: (table[p], p))
    chosen = set(seed)
    while len(chosen) < n:
        remaining = [t for t in names if t not in chosen]
        best = min(
            remaining,
            key=lambda t: (mean_abs_correlation(chosen | {t}, table), t),
        )
        chosen.add(best)
    return sorted(chosen)
