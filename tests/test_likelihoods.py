import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbnet import likelihoods
from pbnet.analysis import KL_MARGIN_TOL, predict_partial_regime, theoretical_rate
from pbnet.errors import (
    InvalidObservationError,
    UnboundedLikelihoodError,
    ValidationError,
)
from pbnet.likelihoods import (
    DiscreteFamily,
    GaussianFamily,
    gauss_hermite_kl,
    kl_divergence,
    likelihood_bound,
    log_likelihood_row,
    log_likelihood_rows,
    mixture_kl,
    sample_observation,
    stack_models,
)

GAUSS3 = GaussianFamily([0.0, 0.2, 1.0])
DISC = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])


def uniform_complement(count, excluded):
    """Weights 1/(H-1) on every hypothesis other than ``excluded``."""
    return np.where(np.arange(count) == excluded, 0.0, 1.0 / (count - 1))


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

    def test_discrete_nan_row_rejected(self):
        with pytest.raises(ValidationError, match="row 0"):
            DiscreteFamily([[math.nan, 0.5], [0.5, 0.5]])

    def test_discrete_tables_are_read_only(self):
        fam = DiscreteFamily([[0.5, 0.5], [0.2, 0.8]])
        for table in (fam.pmf, fam.log_pmf, fam.cdf):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_stacked_group_tables_are_read_only(self):
        # a stack is built once and reused across steps, so no write may change it
        d = DiscreteFamily([[0.5, 0.5], [0.2, 0.8]])
        g = GaussianFamily([0.0, 1.0])
        discrete, gaussian = stack_models([d, g, d], 3)
        tables = [discrete.cdf, discrete.log_pmf, discrete.support_size, discrete.agents,
                  gaussian.means, gaussian.agents]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0

    def test_stack_repr_and_family_tables(self):
        d = DiscreteFamily([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        np.testing.assert_array_equal(d.log_pmf, np.log(d.pmf)[None])
        cdf = np.cumsum(d.pmf, axis=1)
        cdf[:, -1] = np.inf
        np.testing.assert_array_equal(d.cdf, cdf[:, :, None])

    def test_discrete_rows_must_be_positive(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            DiscreteFamily([[1.0, 0.0], [0.5, 0.5]])

    def test_gaussian_means_finite(self):
        with pytest.raises(ValidationError):
            GaussianFamily([0.0, math.inf])

    def test_mixture_validation(self):
        for fam in (GAUSS3, DISC3):
            mixture_kl(fam, [1.0, 0.0, 0.0], [0.0, 0.4, 0.6])
            with pytest.raises(ValidationError, match="sum to 0.9"):
                mixture_kl(fam, [1.0, 0.0, 0.0], [0.5, 0.0, 0.4])  # does not sum to 1
            with pytest.raises(ValidationError, match="nonnegative"):
                mixture_kl(fam, [-0.1, 0.0, 1.1], [1.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="hypothesis index must be an integer"):
            theoretical_rate(GAUSS3, 0, 1.5)

    def test_mixture_nan_weight_rejected(self):
        for fam in (GAUSS3, DISC3):
            with pytest.raises(ValidationError, match="finite"):
                mixture_kl(fam, [1.0, 0.0, 0.0], np.array([0.0, math.nan, 0.5]))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

class TestLikelihood:
    def test_gaussian_density_at_mean(self):
        assert log_likelihood_row(GaussianFamily([0.0]), 0.0)[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-12
        )
        assert log_likelihood_row(GaussianFamily([1.0]), 1.0)[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-12
        )

    def test_discrete_rejects_out_of_support(self):
        with pytest.raises(InvalidObservationError):
            log_likelihood_row(DISC, 3)[0]
        with pytest.raises(InvalidObservationError):
            log_likelihood_row(DISC, -1)[0]

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("score", [
        lambda xi: log_likelihood_row(DISC, xi)[0],
        lambda xi: log_likelihood_row(DISC, xi),
    ], ids=["log_likelihood", "log_likelihood_row"])
    def test_discrete_rejects_non_finite(self, score, xi):
        with pytest.raises(InvalidObservationError):
            score(xi)

    @pytest.mark.parametrize("score", [
        lambda: log_likelihood_row(DISC, None)[0],
        lambda: log_likelihood_row(GAUSS3, None)[0],
        lambda: log_likelihood_row(GAUSS3, "x"),
        lambda: log_likelihood_row(DISC, "x"),
    ], ids=["discrete-log_likelihood", "gaussian-log_likelihood", "gaussian-row",
            "discrete-row"])
    def test_non_numeric_observation_is_invalid(self, score):
        with pytest.raises(InvalidObservationError):
            score()

    @pytest.mark.parametrize("xi", ["1.5", b"2", bytearray(b"0.3")], ids=["str", "bytes", "bytearray"])
    @pytest.mark.parametrize("score", [
        lambda xi: log_likelihood_row(GAUSS3, xi)[0],
        lambda xi: log_likelihood_row(GAUSS3, xi),
    ], ids=["log_likelihood", "log_likelihood_row"])
    def test_gaussian_rejects_numeric_text(self, score, xi):
        # float() parses these, but text is no observation
        with pytest.raises(InvalidObservationError):
            score(xi)

    def test_gaussian_rejects_non_finite(self):
        with pytest.raises(InvalidObservationError):
            log_likelihood_row(GAUSS3, math.nan)[0]

    def test_row_matches_scalar(self):
        row = log_likelihood_row(GAUSS3, 0.37)
        for theta in range(3):
            assert row[theta] == pytest.approx(log_likelihood_rows(GAUSS3, [0.37])[0, theta])
        rows = log_likelihood_rows(DISC, np.array([0, 2, 1]))
        assert rows.shape == (3, 2)
        assert rows[1, 0] == pytest.approx(math.log(0.2))

    @pytest.mark.parametrize("kind", ["gaussian", "discrete"])
    def test_scalar_scores_are_the_batch_row_bitwise(self, kind):
        rng = np.random.default_rng(11)
        for h in (2, 3, 7):
            if kind == "gaussian":
                fam = GaussianFamily(rng.normal(0.0, 3.0, h))
                observations = rng.normal(0.0, 5.0, 50)
            else:
                fam = DiscreteFamily(0.5 * rng.dirichlet(np.ones(4), h) + 0.125)
                observations = rng.integers(0, 4, 50)
            for xi in observations:
                want = log_likelihood_rows(fam, [xi])[0]
                row = log_likelihood_row(fam, xi)
                scalars = np.array([log_likelihood_row(fam, xi)[theta] for theta in range(h)])
                for got in (row, scalars):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model, xi, bad", [
        (DISC, [0, 1.5, 0.0], 1.5),
        (DISC, [2.0, math.nan], math.nan),
        (DISC, [0, 3], 3),
        (GAUSS3, [0.1, math.nan, math.inf], math.nan),
        (GAUSS3, [[0.0, 1.0], [-math.inf, 2.0]], -math.inf),
    ], ids=["discrete-fraction", "discrete-nan", "discrete-off-support", "gaussian-nan",
            "gaussian-block-inf"])
    def test_batch_obeys_the_scalar_value_rules(self, model, xi, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidObservationError, match=rf"^observation {bad!r} "):
                log_likelihood_rows(model, xi)
            with pytest.raises(InvalidObservationError):  # the scalar rule it follows
                log_likelihood_row(model, bad)

    def test_grouped_batch_names_the_first_bad_value(self):
        group = stack_models([DISC, DiscreteFamily([[0.5, 0.5], [0.1, 0.9]])], 2)[0]
        # agent 1's support is {0, 1}: its 2.0 is off support, agent 0's is not
        np.testing.assert_array_equal(log_likelihood_rows(group, [2.0, 1.0]),
                                      [DISC.log_pmf[0, :, 2], np.log([0.5, 0.9])])
        with pytest.raises(InvalidObservationError, match=r"^observation 2\.0 "):
            log_likelihood_rows(group, [[2.0, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("xi", [[1.0], bytearray(b"1")], ids=["list", "bytearray"])
    @pytest.mark.parametrize("model", [GAUSS3, DISC], ids=["gaussian", "discrete"])
    def test_scalar_scorers_take_one_observation(self, model, xi):
        for score in (lambda: log_likelihood_row(model, xi),
                      lambda: log_likelihood_row(model, xi)[0]):
            with pytest.raises(InvalidObservationError):
                score()


GAUSS2 = GaussianFamily([0.0, 1.0])
GROUPS = {
    "gaussian_group": stack_models([GAUSS2, DISC], 2)[0],
    "discrete_group": stack_models([GAUSS2, DISC], 2)[1],
}


@pytest.mark.parametrize("entry", [
    lambda m: kl_divergence(m, 0, 1),
    lambda m: likelihood_bound(m, 0),
    lambda m: log_likelihood_row(m, 0),
], ids=["kl_divergence", "likelihood_bound", "log_likelihood_row"])
@pytest.mark.parametrize("name", list(GROUPS))
def test_single_model_entry_points_reject_stacked_models(entry, name):
    with pytest.raises(ValidationError, match="expected one likelihood family"):
        entry(GROUPS[name])


DISC3 = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])


@pytest.mark.parametrize("entry", [
    lambda m, i: kl_divergence(m, i, 1),
    lambda m, i: kl_divergence(m, 0, i),
    lambda m, i: sample_observation(m, i, np.random.default_rng(0)),
    lambda m, i: likelihood_bound(m, i),
], ids=["kl_divergence-p", "kl_divergence-q", "sample_observation",
        "likelihood_bound"])
@pytest.mark.parametrize("index", [0.9, 1.5, 2.7, True, np.array([0.0, 1.0, 0.0])],
                         ids=["0.9", "1.5", "2.7", "True", "weights"])
@pytest.mark.parametrize("model", [GAUSS3, DISC3], ids=["gaussian", "discrete"])
def test_hypothesis_index_must_be_an_integer(model, index, entry):
    # a fraction is not truncated to an index, a bool is no index, and a
    # weight vector is a mixture_kl operand
    with pytest.raises(ValidationError, match="hypothesis index must be an integer"):
        entry(model, index)


def test_numpy_integer_is_a_hypothesis_index():
    assert kl_divergence(GAUSS3, np.int64(0), np.int32(2)) == kl_divergence(GAUSS3, 0, 2)
    assert likelihood_bound(DISC3, np.int8(2)) == likelihood_bound(DISC3, 2)


@pytest.mark.parametrize("p, q", [
    ([1.0, 0.0], [0.0, 1.0]),
    ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    ([1.0, 0.0, 0.0], [-0.5, 1.0, 0.5]),
    ([math.nan, 1.0, 0.0], [0.0, 1.0, 0.0]),
    ([[[1.0, 0.0, 0.0]]], [0.0, 1.0, 0.0]),
], ids=["wrong-length", "zero-sum", "negative", "nan", "three-axes"])
@pytest.mark.parametrize("entry", [
    lambda p, q: gauss_hermite_kl(GAUSS3.means, p, q),
    lambda p, q: mixture_kl(GAUSS3, p, q),
    lambda p, q: mixture_kl(DISC3, p, q),
], ids=["gauss_hermite_kl", "mixture_kl-gaussian", "mixture_kl-discrete"])
def test_bad_mixture_weights_rejected(entry, p, q):
    # each was a wrong value, an IndexError, a RuntimeWarning or None before
    with pytest.raises(ValidationError, match="^mixture weights"):
        entry(p, q)


@pytest.mark.parametrize("means", [
    [0.0, 0.2, 1.0],
    [0.0, math.inf, 1.0],
    [0.0, math.nan, 1.0],
    [[0.0, 0.2, 1.0]],
    0.5,
], ids=["list", "inf", "nan", "two-axes", "scalar"])
def test_gauss_hermite_kl_checks_means(means):
    # before, a list or a scalar raised TypeError, an inf mean gave 1.1931, a
    # NaN one None, and two axes a weights error that said "H = 1"
    p, q = [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]
    if np.ndim(means) == 1 and np.isfinite(means).all():
        assert gauss_hermite_kl(means, p, q) == gauss_hermite_kl(np.array(means), p, q)
    else:
        with pytest.raises(ValidationError, match="^means"):
            gauss_hermite_kl(means, p, q)


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
        mix = uniform_complement(3, 0)
        assert mixture_kl(GAUSS3, mix, mix) <= 1e-6

    def test_discrete_exact_sum_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pmf = rng.dirichlet(np.ones(4) * 2.0, size=3)
            fam = DiscreteFamily(pmf / pmf.sum(axis=1, keepdims=True))
            got = fam.complement[0, 1]
            want = brute_kl_discrete(fam.pmf[0], (fam.pmf[0] + fam.pmf[2]) / 2)
            assert got == pytest.approx(want, abs=1e-9)
            got_pp = kl_divergence(fam, 0, 2)
            assert got_pp == pytest.approx(
                brute_kl_discrete(fam.pmf[0], fam.pmf[2]), abs=1e-9
            )

    @pytest.mark.parametrize("fam", [GAUSS3, DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])])
    def test_vertex_mixture_is_the_point(self, fam):
        # exact sums match bitwise; the rule is exact on two single Gaussians
        # up to rounding
        vertex = np.eye(3)
        for p in range(3):
            for q in range(3):
                want = kl_divergence(fam, p, q)
                got = mixture_kl(fam, vertex[p], vertex[q])
                if isinstance(fam, DiscreteFamily):
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_underflowed_mixture_entry_is_zero_mass(self):
        # each mixed entry 0.5 * 5e-324 rounds to 0, so p = (0, 1): 0 log 0 = 0
        fam = DiscreteFamily([[5e-324, 1.0], [5e-324, 1.0], [0.5, 0.5]])
        p, point = [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mixture_kl(fam, p, point) == pytest.approx(math.log(2), rel=1e-15)
            assert mixture_kl(fam, point, p) == math.inf

    def test_kl_nonnegative_random_families(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            means = rng.normal(0, 2, size=3)
            fam = GaussianFamily(means)
            mix = uniform_complement(3, int(rng.integers(3)))
            assert mixture_kl(fam, [1.0, 0.0, 0.0], mix) >= 0.0
            assert mixture_kl(fam, mix, [1.0, 0.0, 0.0]) >= 0.0

    def test_quadrature_matches_dense_grid(self):
        # mixture as q
        got = mixture_kl(GAUSS3, [1.0, 0, 0], uniform_complement(3, 1))
        want = trapezoid_kl(
            [0.0, 0.2, 1.0], np.array([1.0, 0, 0]), np.array([0.5, 0, 0.5])
        )
        assert got == pytest.approx(want, abs=5e-6)
        # mixture as p
        got = mixture_kl(GAUSS3, uniform_complement(3, 0), [1.0, 0, 0])
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
                mix = uniform_complement(h, tx)
                for p_w, q_w in ((point[0], mix), (mix, point[tx])):
                    got = gauss_hermite_kl(fam.means, p_w, q_w)
                    assert got is not None  # certified
                    assert got == pytest.approx(fam._quad_kl(p_w, q_w), abs=1e-8)

    def test_uncertified_rule_falls_back_to_quadrature(self, monkeypatch):
        # the complement's dominant component switches at x = 3, under p's mass
        fam = GaussianFamily([0.0, 3.0, 6.0])
        mix = uniform_complement(3, 1)
        assert gauss_hermite_kl(fam.means, np.eye(3)[1], mix) is None
        want = fam._quad_kl(np.eye(3)[1], mix)
        calls = []

        def counted_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        quad = likelihoods.integrate.quad
        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=counted_quad))
        assert mixture_kl(fam, np.eye(3)[1], mix) == want
        assert len(calls) == 1

    def test_uncertified_case_matches_dense_grid(self):
        mix = uniform_complement(3, 1)
        got = GaussianFamily([0.0, 3.0, 6.0]).complement[1, 1]
        want = trapezoid_kl([0.0, 3.0, 6.0], np.array([0, 1.0, 0]), mix)
        assert got == pytest.approx(want, abs=5e-6)

    def test_reported_gaussian_margins(self):
        # unit-variance means (0, 0.2, 1): the two shared-hypothesis margins
        d_true_tx = kl_divergence(GAUSS3, 0, 1)
        d_true_mix = GAUSS3.complement[0, 1]
        assert d_true_tx - d_true_mix == pytest.approx(-0.091, abs=0.001)
        d_true_tx3 = kl_divergence(GAUSS3, 0, 2)
        d_true_mix3 = GAUSS3.complement[0, 2]
        assert d_true_tx3 - d_true_mix3 == pytest.approx(0.494, abs=0.002)


# ---------------------------------------------------------------------------
# divergence tables
# ---------------------------------------------------------------------------

class TestDivergenceTables:
    def test_constructing_a_family_builds_no_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a divergence table was built at construction")

        for cls in (GaussianFamily, DiscreteFamily):
            for rule in ("_point_table", "_mixture_table"):
                monkeypatch.setattr(cls, rule, no_table)
        for rule in ("gauss_hermite_kl", "_exact_kl", "_log_mix"):
            monkeypatch.setattr(likelihoods, rule, no_table)
        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=no_table))
        families = [GaussianFamily([0.0, 0.2, 1.0]), DiscreteFamily(DISC3.pmf)]
        stack_models(families + families, 4)
        for fam in families:
            assert not {"point", "complement", "bound"} & vars(fam).keys()

    @pytest.mark.parametrize("fam", [GaussianFamily([0.0, 0.2, 1.0, -0.7]),
                                     DiscreteFamily(DISC3.pmf)], ids=["gaussian", "discrete"])
    def test_tables_are_read_only_and_built_once(self, fam):
        tables = [fam.point, fam.complement]
        if isinstance(fam, DiscreteFamily):
            tables.append(fam.bound)
            assert fam.bound is fam.bound
        assert fam.point is fam.point
        for table in tables:
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            fam.point[0, 1] = 1.0

    def test_entries_are_the_per_pair_divergences_bitwise(self):
        for fam in (GaussianFamily([0.0, 0.2, 1.0, -0.7]), DiscreteFamily(DISC3.pmf)):
            h = fam.hypothesis_count
            complements = np.stack([uniform_complement(h, x) for x in range(h)])
            assert mixture_kl(fam, np.eye(h), complements).tobytes() == fam.complement.tobytes()
            for t in range(h):
                for x in range(h):
                    assert kl_divergence(fam, t, x) == fam.point[t, x]

    def test_uncertified_entries_are_resolved_once_on_the_first_read(self, monkeypatch):
        # two complement entries sit on a kink of log q; reading any entry
        # builds the table, which runs the quadrature for both
        fam = GaussianFamily([0.0, 3.0, 6.0, 9.0])
        calls = []

        def counted_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        quad = likelihoods.integrate.quad
        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=counted_quad))
        assert theoretical_rate(fam, 1, 1) < 0.0  # reads complement[1, 1]
        assert len(calls) == 2
        table = fam.complement
        assert len(calls) == 2
        assert np.isfinite(table).all()
        h = fam.hypothesis_count
        complements = np.stack([uniform_complement(h, x) for x in range(h)])
        assert table.tobytes() == mixture_kl(fam, np.eye(h), complements).tobytes()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "discrete"]), h=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_relabeling_permutes_every_table(self, kind, h, seed, data):
        rng = np.random.default_rng(seed)
        perm = np.array(data.draw(st.permutations(range(h))))
        if kind == "gaussian":
            fam = GaussianFamily(rng.normal(0.0, 1.0, h))
            moved = GaussianFamily(fam.means[perm])
        else:
            fam = DiscreteFamily(0.7 * rng.dirichlet(np.ones(4), h) + 0.3 / 4)
            moved = DiscreteFamily(fam.pmf[perm])
        # hypothesis i of ``moved`` is hypothesis perm[i] of ``fam``
        pairs = np.ix_(perm, perm)
        assert moved.point.tobytes() == fam.point[pairs].tobytes()
        if kind == "discrete":
            assert moved.bound.tobytes() == fam.bound[perm].tobytes()
        else:
            with pytest.raises(UnboundedLikelihoodError):
                moved.bound
        # a weight over fam's hypothesis perm[i] is a weight over moved's i
        weights = rng.dirichlet(np.ones(h), 3)
        np.testing.assert_allclose(mixture_kl(moved, weights[:, perm], weights[::-1, perm]),
                                   mixture_kl(fam, weights, weights[::-1]), rtol=1e-12, atol=0)
        if h < 2:
            return
        np.testing.assert_allclose(moved.complement, fam.complement[pairs], rtol=1e-12, atol=0)
        for t in range(h):
            for x in range(h):
                if x != t and fam.point[perm[t], perm[x]] == 0.0:
                    continue  # indistinguishable: rejected either way
                got = predict_partial_regime(moved, t, x)
                want = predict_partial_regime(fam, perm[t], perm[x])
                assert got.kl_true_vs_tx == want.kl_true_vs_tx
                assert got.kl_true_vs_mixture == pytest.approx(want.kl_true_vs_mixture, rel=1e-12)
                margin = next(iter(want.condition_values.values()))
                if abs(abs(margin) - KL_MARGIN_TOL) > 1e-9:
                    assert got.predicted is want.predicted


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

    def test_gaussian_unbounded(self):
        with pytest.raises(UnboundedLikelihoodError):
            likelihood_bound(GAUSS3, 0)

    def test_matches_brute_force_and_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pmf = rng.dirichlet(np.ones(4), size=4)
            fam = DiscreteFamily(pmf)
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

    @pytest.mark.parametrize("size", [None, 4, (3, 4)], ids=["none", "n", "steps-n"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["family", "group"])
    def test_gaussian_draws_equal_rng_normal_bitwise(self, size, stacked):
        # a group of 4 Gaussian agents draws one value per agent; a family
        # draws `size` values, and with size None a float
        model = GAUSS3
        if stacked:
            disc3 = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.3, 0.4, 0.3]])
            models = [GaussianFamily([0.0, 0.2, k]) for k in (1.0, 2.0, 3.0, 4.0)] + [disc3]
            model = stack_models(models, 5)[0]
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        for theta in (0, 2, 1):
            got = sample_observation(model, theta, ours, size=size)
            want = ref.normal(model.means[..., theta], 1.0, size=size)
            np.testing.assert_array_equal(got, want)
            assert np.shape(got) == np.shape(want)
            assert isinstance(got, float) == (size is None and not stacked)
        assert ours.bit_generator.state == ref.bit_generator.state

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

    @pytest.mark.parametrize("seed", range(8))
    def test_observations_count_as_the_comparison_cube(self, seed):
        # groups of mixed support sizes, with single-point agents and agents
        # padded to the widest support, map uniforms, some equal to a cdf
        # entry, as the (..., S, n) cube of comparisons summed over S
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 4))
        sizes = rng.integers(1, 6, size=int(rng.integers(2, 8)))
        sizes[rng.integers(len(sizes))] = 1
        models = [DiscreteFamily(rng.dirichlet(np.ones(s), size=h)) for s in sizes]
        for model in (stack_models(models, len(models))[0], *models):
            n = model.cdf.shape[-1]
            for theta in range(h):
                u = rng.random((5, 4, n))
                finite = np.isfinite(model.cdf[theta, 0])
                u[0, 0, finite] = model.cdf[theta, 0, finite]
                for batch in (u, u[0], u[0, 0]):
                    got = model.observations(theta, batch)
                    want = (model.cdf[theta] <= batch[..., None, :]).sum(axis=-2)
                    assert got.dtype == want.dtype == np.int64
                    np.testing.assert_array_equal(got, want)


class TestDiscreteRowTable:
    """``log_rows`` is one ``np.take`` of whole rows of the (n·S, H) table."""

    @staticmethod
    def old_gather(model, xi):
        idx = np.asarray(xi, dtype=np.int64)
        return model.log_pmf[np.arange(len(model.log_pmf)), :, idx]

    def test_family_rows_equal_the_fancy_index_bitwise(self):
        fam = DiscreteFamily([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        xi = np.random.default_rng(0).integers(0, 3, size=(7, 11))
        for batch in (xi, xi[0], xi[:1, :1]):
            got = log_likelihood_rows(fam, batch)
            want = self.old_gather(fam, batch)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert fam.log_table.shape == (3, 3)
        np.testing.assert_array_equal(fam.log_table, np.log(fam.pmf).T)

    def test_group_with_unequal_supports_equals_the_fancy_index_bitwise(self):
        pmfs = [[[0.5, 0.5], [0.1, 0.9]],
                [[0.2, 0.3, 0.1, 0.4], [0.4, 0.3, 0.2, 0.1]],
                [[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]]
        models = [DiscreteFamily(p) for p in pmfs]
        group = stack_models(models, 3)[0]
        assert group.log_table.shape == (3 * 4, 2)
        for k, p in enumerate(pmfs):  # each agent's rows, then -inf padding
            rows = group.log_table[4 * k:4 * (k + 1)]
            s = len(p[0])
            np.testing.assert_array_equal(rows[:s], np.log(p).T)
            assert (rows[s:] == -np.inf).all()
        rng = np.random.default_rng(1)
        xi = np.stack([rng.integers(0, m.support_size, size=5) for m in models], axis=1)
        for batch in (xi, xi[2]):
            got = log_likelihood_rows(group, batch)
            want = self.old_gather(group, batch)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_row_tables_are_read_only(self):
        fam = DiscreteFamily([[0.5, 0.5], [0.2, 0.8]])
        group = stack_models([fam, DiscreteFamily([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])],
                             2)[0]
        for table in (fam.log_table, group.log_table):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_off_support_value_is_named(self):
        fam = DiscreteFamily([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        with pytest.raises(InvalidObservationError, match=r"^observation 3 outside discrete"):
            log_likelihood_rows(fam, [[0, 1], [3, 2]])
        # agent 0's support is {0, 1}: its 2 lies in the padding, not in agent 1's rows
        group = stack_models([DiscreteFamily([[0.5, 0.5], [0.1, 0.9]]), fam], 2)[0]
        with pytest.raises(InvalidObservationError, match=r"^observation 2 outside discrete"):
            log_likelihood_rows(group, [[1, 2], [2, 0]])
