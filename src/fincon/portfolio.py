"""Direction rule, stock-pool selection, moment shrinkage, and the
constrained mean-variance solve.

``DIRECTION_BOXES`` maps each of the manager's direction labels to a weight
box. A single-stock run holds the box's nonzero end; a portfolio run
maximizes <w, mu> - <w, Sigma w> over the boxes. Projected gradient ascent
with step 1/(2B), B the Gershgorin bound on Sigma's largest eigenvalue, is
monotone and convergent for this concave objective.

Every sum of products runs in numpy's own loops in one fixed order
(``np.einsum``, or ``np.add.reduce`` of the products), not in BLAS, so
weights keep their bits whatever BLAS kernel the host loads.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import (
    InsufficientCandidates,
    InsufficientSamples,
    LengthMismatch,
    NonPositivePrice,
    NonPSDMatrix,
    SolverNonConvergence,
)

DIRECTION_BOXES = {
    "long": (0.0, 1.0),
    "short": (-1.0, 0.0),
    "neutral": (0.0, 0.0),
}
"""The one table of the manager's direction labels, each with its weight box
(lo, hi). The manager's prompt and decision schema, the single-stock sign,
the weight-sign check and the solver's bounds all read it."""


def single_stock_weights(directions: dict[str, str],
                         position_size: float = 1.0) -> dict[str, float]:
    """Signed unit positions for single-stock runs: each box's nonzero end
    (lo + hi) times ``position_size``."""
    return {t: sum(DIRECTION_BOXES[d]) * position_size for t, d in directions.items()}


def check_weight_signs(directions: dict[str, str], weights: dict[str, float]) -> None:
    """ValueError unless each ticker's weight lies in its direction's box,
    with a 1e-12 relative slack past a nonzero end and none past 0."""
    for ticker, direction in directions.items():
        lo, hi = DIRECTION_BOXES[direction]
        w = weights[ticker]
        if not lo - 1e-12 * abs(lo) <= w <= hi + 1e-12 * abs(hi):
            raise ValueError(f"{ticker}: weight {w} inconsistent with {direction}")


def shrink_estimates(returns, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrunk mean and covariance of a T x N matrix of daily log returns,
    dates by rows, tickers by columns.

    The sample covariance S (ddof=1) shrinks toward its own diagonal,
    Sigma = (1-lam) S + lam diag(S); the sample mean shrinks toward its
    grand mean, mu = (1-lam) mu_hat + lam mean(mu_hat) 1.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"returns must be a T x N matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("returns contain non-finite entries")
    if r.shape[0] < 2:
        raise InsufficientSamples(f"need T >= 2 rows, got {r.shape[0]}")
    mu_hat = r.mean(axis=0)
    # each ticker's centered returns as one contiguous row
    centered = np.ascontiguousarray((r - mu_hat).T)
    s = np.einsum("it,jt->ij", centered, centered) / (r.shape[0] - 1)
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b>."""
    return float(np.add.reduce(a * b))


def _sigma_times(sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sigma w."""
    return np.einsum("ij,j->i", sigma, w)


def _objective(w: np.ndarray, mu: np.ndarray, sigma_w: np.ndarray) -> float:
    """<w,mu> - <w,sigma w>, given sigma w."""
    return _dot(w, mu) - _dot(w, sigma_w)


def mv_objective(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    return _objective(w, mu, _sigma_times(sigma, w))


def _box_qp(mu: np.ndarray, sigma: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            step: float, obj_tol: float, step_tol: float, max_iter: int):
    """Projected gradient ascent for max <w,mu> - <w,sigma w> over a box.

    Starts from w = 0 (feasible for every direction box). Stops when both the
    objective change and the infinity-norm step fall under their tolerances,
    or after ``max_iter`` iterations. Returns (w, objective). Each iterate's
    sigma w serves its objective and the next gradient.
    """
    w = np.zeros_like(mu)
    sigma_w = _sigma_times(sigma, w)
    obj = 0.0
    for _ in range(max_iter):
        grad = mu - 2.0 * sigma_w
        wn = np.clip(w + step * grad, lo, hi)
        sigma_w = _sigma_times(sigma, wn)
        new_obj = _objective(wn, mu, sigma_w)
        dw = float(np.max(np.abs(wn - w)))
        done = abs(new_obj - obj) < obj_tol and dw < step_tol
        w = wn
        obj = new_obj
        if done:
            break
    return w, obj


def solve_mean_variance(mu, sigma, directions, obj_tol: float = 1e-10,
                        step_tol: float = 1e-8, max_iter: int = 10_000) -> np.ndarray:
    """Maximizer of <w,mu> - <w,Sigma w> over the direction boxes.

    Deterministic: starts from w = 0 and runs projected gradient ascent until
    both the objective change and the step size fall under tolerance (the
    step-size condition pins w itself, not just the objective). Hitting the
    iteration cap returns the current iterate; only a non-finite objective
    raises SolverNonConvergence.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu contains non-finite entries")
    _check_psd(sigma)
    if len(directions) != mu.shape[0]:
        raise ValueError("directions length must match mu")
    lo, hi = direction_bounds(directions)
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
    va = _dot(da, da)
    vb = _dot(db, db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return abs(_dot(da, db) / math.sqrt(va * vb))


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
    lengths = {t: len(r) for t, r in survivors}
    if len(set(lengths.values())) > 1:
        raise LengthMismatch("return histories differ in length: " + ", ".join(
            f"{t} {n}" for t, n in sorted(lengths.items())))
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
