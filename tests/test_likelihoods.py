import math
from types import SimpleNamespace

import numpy as np
import pytest

from pbnet import likelihoods
from pbnet.errors import (
    InvalidObservationError,
    UnboundedLikelihoodError,
    ValidationError,
)
from pbnet.likelihoods import (
    DiscreteFamily,
    GaussianFamily,
    MixtureSpec,
    gauss_hermite_kl,
    kl_divergence,
    likelihood,
    likelihood_bound,
    log_likelihood,
    log_likelihood_row,
    log_likelihood_rows,
    mixture_log_density,
    sample_observation,
)

GAUSS3 = GaussianFamily([0.0, 0.2, 1.0])
DISC = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def trapezoid_kl(means, p_weights, q_weights, lo=-14.0, hi=15.0, n=2_000_001):
    """Dense-grid KL between two Gaussian mixtures; independent of quad."""
    x = np.linspace(lo, hi, n)
    dens = np.array(
        [np.exp(-0.5 * (x - m) ** 2) / math.sqrt(2 * math.pi) for m in means]
    )
    p = p_weights @ dens
    q = q_weights @ dens
    return np.trapezoid(p * (np.log(p) - np.log(q)), x)


def brute_kl_discrete(p_vec, q_vec):
    total = 0.0
    for ps, qs in zip(p_vec, q_vec):
        if ps > 0:
            total += ps * math.log(ps / qs)
    return total


def brute_bound(pmf, excluded):
    h, s = pmf.shape
    best = 0.0
    for a in range(h):
        for b in range(h):
            if a == excluded or b == excluded or a == b:
                continue
            for xi in range(s):
                best = max(best, abs(math.log(pmf[a, xi] / pmf[b, xi])))
    return best


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_discrete_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="row 0"):
            DiscreteFamily([[0.5, 0.3, 0.1], [0.2, 0.3, 0.5]])

    def test_discrete_rows_must_be_positive(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            DiscreteFamily([[1.0, 0.0], [0.5, 0.5]])
        # test-only bypass keeps the row-sum check
        fam = DiscreteFamily([[1.0, 0.0], [0.5, 0.5]], validate=False)
        assert fam.support_size == 2

    def test_gaussian_means_finite(self):
        with pytest.raises(ValidationError):
            GaussianFamily([0.0, math.inf])

    def test_mixture_validation(self):
        MixtureSpec(0, np.array([0.0, 0.4, 0.6]))
        with pytest.raises(ValidationError):
            MixtureSpec(0, np.array([0.1, 0.4, 0.5]))  # weight on excluded
        with pytest.raises(ValidationError):
            MixtureSpec(1, np.array([0.5, 0.0, 0.4]))  # does not sum to 1
        with pytest.raises(ValidationError):
            MixtureSpec(1, np.array([-0.1, 0.0, 1.1]))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

class TestLikelihood:
    def test_gaussian_density_at_mean(self):
        assert likelihood(GaussianFamily([0.0]), 0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )
        assert likelihood(GaussianFamily([1.0]), 0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )

    def test_discrete_table_lookup(self):
        assert likelihood(DISC, 0, 2) == 0.2

    def test_discrete_rejects_out_of_support(self):
        with pytest.raises(InvalidObservationError):
            likelihood(DISC, 0, 3)
        with pytest.raises(InvalidObservationError):
            log_likelihood(DISC, 0, -1)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("score", [
        lambda xi: log_likelihood(DISC, 0, xi),
        lambda xi: likelihood(DISC, 0, xi),
        lambda xi: log_likelihood_row(DISC, xi),
    ], ids=["log_likelihood", "likelihood", "log_likelihood_row"])
    def test_discrete_rejects_non_finite(self, score, xi):
        with pytest.raises(InvalidObservationError):
            score(xi)

    @pytest.mark.parametrize("score", [
        lambda: log_likelihood(DISC, 0, None),
        lambda: log_likelihood(GAUSS3, 0, None),
        lambda: likelihood(DISC, 0, None),
        lambda: log_likelihood_row(GAUSS3, "x"),
        lambda: log_likelihood_row(DISC, "x"),
    ], ids=["discrete-log_likelihood", "gaussian-log_likelihood", "discrete-likelihood",
            "gaussian-row", "discrete-row"])
    def test_non_numeric_observation_is_invalid(self, score):
        with pytest.raises(InvalidObservationError):
            score()

    @pytest.mark.parametrize("xi", ["1.5", b"2", bytearray(b"0.3")], ids=["str", "bytes", "bytearray"])
    @pytest.mark.parametrize("score", [
        lambda xi: log_likelihood(GAUSS3, 0, xi),
        lambda xi: likelihood(GAUSS3, 0, xi),
        lambda xi: log_likelihood_row(GAUSS3, xi),
        lambda xi: mixture_log_density(GAUSS3, MixtureSpec.uniform_complement(3, 0), xi),
    ], ids=["log_likelihood", "likelihood", "log_likelihood_row", "mixture_log_density"])
    def test_gaussian_rejects_numeric_text(self, score, xi):
        # float() parses these, but text is no observation
        with pytest.raises(InvalidObservationError):
            score(xi)

    def test_gaussian_rejects_non_finite(self):
        with pytest.raises(InvalidObservationError):
            log_likelihood(GAUSS3, 0, math.nan)

    def test_row_matches_scalar(self):
        row = log_likelihood_row(GAUSS3, 0.37)
        for theta in range(3):
            assert row[theta] == pytest.approx(log_likelihood(GAUSS3, theta, 0.37))
        rows = log_likelihood_rows(DISC, np.array([0, 2, 1]))
        assert rows.shape == (3, 2)
        assert rows[1, 0] == pytest.approx(math.log(0.2))

    def test_mixture_density_h2_equals_other_likelihood(self):
        # with H=2 the complement "mixture" is exactly the other hypothesis
        fam = DiscreteFamily([[0.7, 0.3], [0.4, 0.6]])
        spec = MixtureSpec.uniform_complement(2, 0)
        for xi in range(2):
            assert mixture_log_density(fam, spec, xi) == pytest.approx(
                log_likelihood(fam, 1, xi), abs=1e-15
            )
        g = GaussianFamily([0.0, 1.3])
        gspec = MixtureSpec.uniform_complement(2, 1)
        for xi in (-2.0, 0.0, 0.9):
            assert mixture_log_density(g, gspec, xi) == pytest.approx(
                log_likelihood(g, 0, xi), abs=1e-12
            )


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------

class TestKLDivergence:
    def test_gaussian_point_closed_form(self):
        assert kl_divergence(GAUSS3, 0, 2) == pytest.approx(0.5, abs=1e-15)
        assert kl_divergence(GAUSS3, 2, 0) == pytest.approx(0.5, abs=1e-15)

    def test_self_kl_is_zero(self):
        assert kl_divergence(DISC, 0, 0) == 0.0
        assert kl_divergence(GAUSS3, 1, 1) == 0.0
        spec = MixtureSpec.uniform_complement(3, 0)
        assert kl_divergence(GAUSS3, spec, spec) <= 1e-6

    def test_discrete_exact_sum_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pmf = rng.dirichlet(np.ones(4) * 2.0, size=3)
            fam = DiscreteFamily(pmf / pmf.sum(axis=1, keepdims=True), validate=False)
            spec = MixtureSpec.uniform_complement(3, 1)
            got = kl_divergence(fam, 0, spec)
            want = brute_kl_discrete(fam.pmf[0], (fam.pmf[0] + fam.pmf[2]) / 2)
            assert got == pytest.approx(want, abs=1e-9)
            got_pp = kl_divergence(fam, 0, 2)
            assert got_pp == pytest.approx(
                brute_kl_discrete(fam.pmf[0], fam.pmf[2]), abs=1e-9
            )

    @pytest.mark.parametrize("fam", [GAUSS3, DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])])
    def test_vertex_mixture_is_the_point_bitwise(self, fam):
        for p in range(3):
            for q in range(3):
                if q == p:
                    continue
                vertex = MixtureSpec(p, np.eye(3)[q])
                assert kl_divergence(fam, p, vertex) == kl_divergence(fam, p, q)
                assert kl_divergence(fam, vertex, p) == kl_divergence(fam, q, p)

    def test_kl_nonnegative_random_families(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            means = rng.normal(0, 2, size=3)
            fam = GaussianFamily(means)
            spec = MixtureSpec.uniform_complement(3, int(rng.integers(3)))
            assert kl_divergence(fam, 0, spec) >= 0.0
            assert kl_divergence(fam, spec, 0) >= 0.0

    def test_quadrature_matches_dense_grid(self):
        # mixture as q
        got = kl_divergence(GAUSS3, 0, MixtureSpec.uniform_complement(3, 1))
        want = trapezoid_kl(
            [0.0, 0.2, 1.0], np.array([1.0, 0, 0]), np.array([0.5, 0, 0.5])
        )
        assert got == pytest.approx(want, abs=5e-6)
        # mixture as p
        got = kl_divergence(GAUSS3, MixtureSpec.uniform_complement(3, 0), 0)
        want = trapezoid_kl(
            [0.0, 0.2, 1.0], np.array([0, 0.5, 0.5]), np.array([1.0, 0, 0])
        )
        assert got == pytest.approx(want, abs=5e-6)

    @pytest.mark.parametrize("h", [3, 5, 10])
    def test_rule_matches_quadrature(self, h):
        rng = np.random.default_rng(h)
        point = np.eye(h)
        for _ in range(3):
            fam = GaussianFamily(rng.normal(0.0, 1.0, h))
            for tx in range(h):
                mix = MixtureSpec.uniform_complement(h, tx)
                for p, q, p_w, q_w in ((0, mix, point[0], mix.weights),
                                       (mix, tx, mix.weights, point[tx])):
                    got = gauss_hermite_kl(fam.means, p_w, q_w)
                    assert got is not None  # certified
                    assert got == pytest.approx(fam._quad_kl(p, q), abs=1e-8)

    def test_uncertified_rule_falls_back_to_quadrature(self, monkeypatch):
        # the complement's dominant component switches at x = 3, under p's mass
        fam = GaussianFamily([0.0, 3.0, 6.0])
        mix = MixtureSpec.uniform_complement(3, 1)
        assert gauss_hermite_kl(fam.means, np.eye(3)[1], mix.weights) is None
        want = fam._quad_kl(1, mix)
        calls = []

        def counted_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        quad = likelihoods.integrate.quad
        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=counted_quad))
        assert kl_divergence(fam, 1, mix) == want
        assert len(calls) == 1

    def test_uncertified_case_matches_dense_grid(self):
        mix = MixtureSpec.uniform_complement(3, 1)
        got = kl_divergence(GaussianFamily([0.0, 3.0, 6.0]), 1, mix)
        want = trapezoid_kl([0.0, 3.0, 6.0], np.array([0, 1.0, 0]), mix.weights)
        assert got == pytest.approx(want, abs=5e-6)

    def test_reported_gaussian_margins(self):
        # unit-variance means (0, 0.2, 1): the two shared-hypothesis margins
        d_true_tx = kl_divergence(GAUSS3, 0, 1)
        d_true_mix = kl_divergence(GAUSS3, 0, MixtureSpec.uniform_complement(3, 1))
        assert d_true_tx - d_true_mix == pytest.approx(-0.091, abs=0.001)
        d_true_tx3 = kl_divergence(GAUSS3, 0, 2)
        d_true_mix3 = kl_divergence(GAUSS3, 0, MixtureSpec.uniform_complement(3, 2))
        assert d_true_tx3 - d_true_mix3 == pytest.approx(0.494, abs=0.002)


# ---------------------------------------------------------------------------
# boundedness constant
# ---------------------------------------------------------------------------

class TestLikelihoodBound:
    def test_example_rows(self):
        fam = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
        got = likelihood_bound(fam, 2)
        assert got == pytest.approx(math.log(0.5 / 0.2), abs=1e-12)
        assert got == pytest.approx(brute_bound(fam.pmf, 2), abs=1e-12)

    def test_single_pair_vacuous(self):
        fam = DiscreteFamily([[0.7, 0.3], [0.4, 0.6]])
        assert likelihood_bound(fam, 1) == 0.0

    def test_unvalidated_zero_against_positive_is_infinite(self):
        # xi = 2 gives log 0 against log 0.5; xi = 1 is zero in both rows
        fam = DiscreteFamily([[1, 0, 0], [0.5, 0, 0.5], [0.2, 0.3, 0.5]], validate=False)
        assert likelihood_bound(fam, 2) == math.inf
        # a column that is zero in both rows carries no ratio
        fam = DiscreteFamily([[0.5, 0, 0.5], [0.2, 0, 0.8], [1, 0, 0]], validate=False)
        assert likelihood_bound(fam, 2) == pytest.approx(math.log(0.5 / 0.2), abs=1e-12)

    def test_gaussian_unbounded(self):
        with pytest.raises(UnboundedLikelihoodError):
            likelihood_bound(GAUSS3, 0)

    def test_matches_brute_force_and_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pmf = rng.dirichlet(np.ones(4), size=4)
            fam = DiscreteFamily(pmf, validate=True)
            excluded = int(rng.integers(4))
            got = likelihood_bound(fam, excluded)
            assert got == pytest.approx(brute_bound(fam.pmf, excluded), abs=1e-12)
            # permuting the non-excluded rows leaves the bound unchanged
            keep = [h for h in range(4) if h != excluded]
            perm = list(keep)
            rng.shuffle(perm)
            table = fam.pmf.copy()
            table[keep] = fam.pmf[perm]
            fam2 = DiscreteFamily(table)
            assert likelihood_bound(fam2, excluded) == pytest.approx(got, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_point_mass_row(self):
        fam = DiscreteFamily([[1.0, 0.0, 0.0], [0.1, 0.1, 0.8]], validate=False)
        rng = np.random.default_rng(0)
        draws = sample_observation(fam, 0, rng, size=1000)
        assert np.all(draws == 0)

    def test_deterministic_given_seed(self):
        a = sample_observation(GAUSS3, 1, np.random.default_rng(42), size=8)
        b = sample_observation(GAUSS3, 1, np.random.default_rng(42), size=8)
        np.testing.assert_array_equal(a, b)
        c = sample_observation(DISC, 0, np.random.default_rng(42), size=8)
        d = sample_observation(DISC, 0, np.random.default_rng(42), size=8)
        np.testing.assert_array_equal(c, d)

    def test_gaussian_empirical_mean(self):
        rng = np.random.default_rng(123)
        draws = sample_observation(GaussianFamily([0.0]), 0, rng, size=1_000_000)
        assert abs(draws.mean()) < 0.005  # 3 sigma / sqrt(n) = 0.003

    def test_discrete_empirical_frequencies(self):
        rng = np.random.default_rng(456)
        draws = sample_observation(DISC, 0, rng, size=1_000_000)
        freq = np.bincount(draws, minlength=3) / 1e6
        np.testing.assert_allclose(freq, [0.5, 0.3, 0.2], atol=0.005)

    @pytest.mark.parametrize("fam", [GAUSS3, DISC], ids=["gaussian", "discrete"])
    def test_shaped_draw_is_the_flat_draw_reshaped(self, fam):
        flat = sample_observation(fam, 1, np.random.default_rng(4), size=6)
        shaped = sample_observation(fam, 1, np.random.default_rng(4), size=(2, 3))
        np.testing.assert_array_equal(shaped, flat.reshape(2, 3))

    def test_scalar_draw(self):
        rng = np.random.default_rng(1)
        xi = sample_observation(DISC, 1, rng)
        assert isinstance(xi, int)
        assert 0 <= xi < 3

    def test_uniform_above_the_last_cumulative_sum_draws_the_last_point(self):
        # the cumulative sum of ten 0.1s ends at the largest double below 1,
        # which a uniform draw can reach
        class TopUniform:
            def random(self, size=None):
                u = 1.0 - 2.0**-53
                return u if size is None else np.full(size, u)

        fam = DiscreteFamily([[0.1] * 10, [0.5] + [0.5 / 9] * 9])
        assert np.cumsum(fam.pmf[0])[-1] <= 1.0 - 2.0**-53
        np.testing.assert_array_equal(sample_observation(fam, 0, TopUniform(), size=3), [9] * 3)
        assert sample_observation(fam, 0, TopUniform()) == 9
