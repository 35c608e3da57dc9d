from itertools import combinations

import numpy as np
import pytest

from fincon.errors import InsufficientCandidates, InsufficientSamples, NonPositivePrice, NonPSDMatrix
from fincon.portfolio import (
    DIRECTION_BOXES,
    check_weight_signs,
    correlation_table,
    direction_bounds,
    gershgorin_bound,
    mean_abs_correlation,
    mv_objective,
    scale_to_positions,
    select_stocks,
    shrink_estimates,
    solve_mean_variance,
)

from fixtures import oracle_grid, oracle_pg


# --- independent oracles -----------------------------------------------------

def oracle_shrink(returns, lam):
    """Loop-written moment shrinkage, independent of the implementation."""
    t_len, n = returns.shape
    mu_hat = [sum(returns[t][i] for t in range(t_len)) / t_len for i in range(n)]
    s = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s[i][j] = sum((returns[t][i] - mu_hat[i]) * (returns[t][j] - mu_hat[j])
                          for t in range(t_len)) / (t_len - 1)
    grand = sum(mu_hat) / n
    mu = [(1 - lam) * mu_hat[i] + lam * grand for i in range(n)]
    sigma = [[(1 - lam) * s[i][j] + (lam * s[i][j] if i == j else 0.0)
              for j in range(n)] for i in range(n)]
    return np.array(mu), np.array(sigma)


def random_instance(rng, n):
    a = rng.standard_normal((n, n))
    sigma = a.T @ a / n
    scale = rng.choice([0.05, 1.0, 4.0])
    return rng.standard_normal(n), sigma * scale, [
        str(rng.choice(["long", "short", "neutral"])) for _ in range(n)]


class TestDirectionBoxes:
    def test_labels_are_the_decision_vocabulary(self):
        assert tuple(DIRECTION_BOXES) == ("long", "short", "neutral")

    @pytest.mark.parametrize("direction, weight", [
        ("long", 0.0), ("long", 1.0), ("long", 1.0 + 1e-13),
        ("short", 0.0), ("short", -1.0), ("short", -1.0 - 1e-13),
        ("neutral", 0.0), ("neutral", -0.0),
    ])
    def test_weight_inside_its_box_passes(self, direction, weight):
        check_weight_signs({"A": direction}, {"A": weight})

    @pytest.mark.parametrize("direction, weight", [
        ("long", -1e-300), ("long", 1.0 + 1e-11),
        ("short", 1e-300), ("short", -1.0 - 1e-11),
        ("neutral", 1e-300), ("neutral", -1e-300), ("long", float("nan")),
    ])
    def test_weight_outside_its_box_is_rejected(self, direction, weight):
        with pytest.raises(ValueError, match=f"A: weight .* inconsistent with {direction}"):
            check_weight_signs({"B": "neutral", "A": direction}, {"B": 0.0, "A": weight})


class TestShrinkEstimates:
    def test_lambda_zero_is_identity(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal((50, 4)) * 0.01
        mu, sigma = shrink_estimates(r, 0.0)
        want_mu, want_sigma = oracle_shrink(r, 0.0)
        assert np.allclose(mu, want_mu, atol=1e-14)
        assert np.allclose(sigma, want_sigma, atol=1e-14)

    def test_lambda_one_full_shrink(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal((40, 3)) * 0.02
        mu, sigma = shrink_estimates(r, 1.0)
        assert np.allclose(mu, mu.mean())
        off_diag = sigma - np.diag(np.diag(sigma))
        assert np.all(off_diag == 0.0)

    def test_intermediate_lambda_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((100, 3)) * 0.015
        mu, sigma = shrink_estimates(r, 0.3)
        want_mu, want_sigma = oracle_shrink(r, 0.3)
        assert np.allclose(mu, want_mu, atol=1e-12)
        assert np.allclose(sigma, want_sigma, atol=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            shrink_estimates(np.zeros((1, 1)), 0.3)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            shrink_estimates(np.zeros((2, 1)), 1.5)

    @pytest.mark.parametrize("returns, message", [
        (np.zeros(5), "T x N matrix"),
        (np.zeros((3, 2, 2)), "T x N matrix"),
        (np.array([[0.01, 0.0], [np.nan, 0.0], [0.0, 0.02]]), "non-finite"),
        (np.array([[0.01], [np.inf], [0.0]]), "non-finite"),
    ])
    def test_non_matrix_or_non_finite_returns_rejected(self, returns, message):
        with pytest.raises(ValueError, match=message):
            shrink_estimates(returns, 0.3)


class TestSolveMeanVariance:
    def test_separable_worked_case(self):
        w = solve_mean_variance(np.array([0.4, 1.2]), np.eye(2), ("long", "long"))
        assert abs(w[0] - 0.2) < 1e-6
        assert abs(w[1] - 0.6) < 1e-6

    def test_short_box(self):
        w = solve_mean_variance(np.array([-0.5]), np.array([[1.0]]), ("short",))
        assert abs(w[0] + 0.25) < 1e-6

    def test_neutral_coordinate_pinned_to_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        w = solve_mean_variance(np.array([5.0, -5.0, 5.0]), a.T @ a,
                                ("long", "neutral", "short"))
        assert w[1] == 0.0

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            n = int(rng.integers(1, 7))
            mu, sigma, directions = random_instance(rng, n)
            lo, hi = direction_bounds(directions)
            w = solve_mean_variance(mu, sigma, directions)
            got = mv_objective(w, mu, sigma)
            want = oracle_pg(mu, sigma, lo, hi)
            assert abs(got - want) < 1e-6, f"trial {trial}"

    def test_matches_grid_search_for_small_n(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            n = int(rng.integers(1, 3))
            mu, sigma, directions = random_instance(rng, n)
            lo, hi = direction_bounds(directions)
            w = solve_mean_variance(mu, sigma, directions)
            got = mv_objective(w, mu, sigma)
            want = oracle_grid(mu, sigma, lo, hi)
            assert got >= want - 1e-9
            assert abs(got - want) < 1e-5

    def test_box_constraints_hold_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            mu, sigma, directions = random_instance(rng, n)
            lo, hi = direction_bounds(directions)
            w = solve_mean_variance(mu, sigma, directions)
            assert np.all(w >= lo)
            assert np.all(w <= hi)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            mu, sigma, directions = random_instance(rng, n)
            lo, hi = direction_bounds(directions)
            w = solve_mean_variance(mu, sigma, directions)
            grad = mu - 2.0 * sigma @ w
            for i in range(n):
                if lo[i] == hi[i]:
                    continue
                if lo[i] + 1e-9 < w[i] < hi[i] - 1e-9:
                    assert abs(grad[i]) <= 1e-6
                elif w[i] >= hi[i] - 1e-9:
                    assert grad[i] >= -1e-6
                else:
                    assert grad[i] <= 1e-6

    def test_asymmetric_sigma_rejected(self):
        sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NonPSDMatrix):
            solve_mean_variance(np.zeros(2), sigma, ("long", "long"))

    def test_negative_eigenvalue_rejected(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NonPSDMatrix):
            solve_mean_variance(np.zeros(2), sigma, ("long", "long"))

    def test_deterministic(self):
        mu = np.array([0.3, -0.2, 0.8])
        a = np.array([[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 0.9]])
        directions = ("long", "short", "long")
        w1 = solve_mean_variance(mu, a, directions)
        w2 = solve_mean_variance(mu, a, directions)
        assert np.array_equal(w1, w2)

    def test_gershgorin_bounds_largest_eigenvalue(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            sigma = a.T @ a
            assert gershgorin_bound(sigma) >= np.linalg.eigvalsh(sigma).max() - 1e-9


class TestScaleToPositions:
    def test_all_zero_weights(self):
        got = scale_to_positions(np.zeros(3), 10_000.0, np.array([10.0, 20.0, 30.0]))
        assert list(got) == [0.0, 0.0, 0.0]

    def test_long_arithmetic(self):
        got = scale_to_positions(np.array([0.5]), 10_000.0, np.array([100.0]))
        assert got[0] == 50.0

    def test_short_arithmetic(self):
        got = scale_to_positions(np.array([-0.25]), 10_000.0, np.array([50.0]))
        assert got[0] == -50.0

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            scale_to_positions(np.array([0.5]), 1000.0, np.array([0.0]))

    def test_non_positive_capital(self):
        with pytest.raises(ValueError):
            scale_to_positions(np.array([0.5]), 0.0, np.array([10.0]))


def series_from_loadings(rng, loadings, t_len=60, noise=0.1):
    factor = rng.standard_normal(t_len)
    return [(name, count, load * factor + noise * rng.standard_normal(t_len))
            for name, count, load in loadings]


class TestSelectStocks:
    def test_default_min_news_is_800(self):
        import inspect
        sig = inspect.signature(select_stocks)
        assert sig.parameters["min_news"].default == 800

    def test_news_filter(self):
        rng = np.random.default_rng(21)
        candidates = series_from_loadings(rng, [("AAA", 900, 1.0), ("BBB", 100, -1.0),
                                                ("CCC", 850, 0.5)])
        got = select_stocks(candidates, 2, min_news=800)
        assert got == ["AAA", "CCC"]

    def test_perfectly_correlated_pair_avoided(self):
        rng = np.random.default_rng(23)
        base = rng.standard_normal(60)
        candidates = [
            ("AAA", 1000, base),
            ("BBB", 1000, 2.0 * base),           # perfectly correlated with AAA
            ("CCC", 1000, rng.standard_normal(60)),
        ]
        got = select_stocks(candidates, 2, min_news=800)
        assert "CCC" in got
        assert got != ["AAA", "BBB"]

    def test_insufficient_candidates(self):
        rng = np.random.default_rng(25)
        candidates = series_from_loadings(rng, [("AAA", 900, 1.0), ("BBB", 100, 0.5)])
        with pytest.raises(InsufficientCandidates):
            select_stocks(candidates, 2, min_news=800)

    def test_equals_exhaustive_search_small_instances(self):
        rng = np.random.default_rng(27)
        for trial in range(60):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, 4))
            if n > m:
                continue
            factors = rng.standard_normal((40, 2))
            candidates = []
            for i in range(m):
                load = rng.standard_normal(2)
                r = factors @ load + rng.uniform(0.2, 2.0) * rng.standard_normal(40)
                candidates.append((f"T{i}", 1000, r))
            got = select_stocks(candidates, n, min_news=0)
            table = correlation_table([(c[0], c[2]) for c in candidates])
            names = [c[0] for c in candidates]
            want = min((tuple(sorted(sub)) for sub in combinations(names, n)),
                       key=lambda s: (mean_abs_correlation(s, table), s))
            assert tuple(got) == want, f"trial {trial}"

    def test_single_ticker_pool(self):
        rng = np.random.default_rng(29)
        candidates = series_from_loadings(
            rng, [("AAA", 900, 1.0), ("BBB", 900, 1.0), ("CCC", 900, 0.0)])
        got = select_stocks(candidates, 1, min_news=800)
        assert got == ["CCC"]  # least correlated with the others

    def test_zero_variance_counts_as_uncorrelated(self):
        flat = np.zeros(30)
        wavy = np.sin(np.arange(30.0))
        candidates = [("AAA", 900, wavy), ("BBB", 900, 2 * wavy), ("CCC", 900, flat)]
        got = select_stocks(candidates, 2, min_news=800)
        assert "CCC" in got
