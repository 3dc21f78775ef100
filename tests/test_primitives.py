"""Tests for noise draws, private averaging, and the one-bit randomizer."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from formula_reference import laplace_logpdf, laplace_means
from ldp_erm import primitives
from ldp_erm.errors import EstimationError, ParameterError
from ldp_erm.primitives import (PrivacyBudget, PublicRandomness,
                                avg_error_bound, check_values, laplace_sum,
                                ldp_avg_1d, onebit_decode,
                                onebit_encode_many)
from ldp_erm.query_release import BoxDataset, smooth_release
from ldp_erm.rng import derived_rng
from trial_messages import trial_messages


def test_budget_validation():
    with pytest.raises(ParameterError):
        PrivacyBudget(epsilon=0.0)
    with pytest.raises(ParameterError):
        PrivacyBudget(epsilon=1.0, delta=1.0)
    b = PrivacyBudget(epsilon=2.0, delta=1e-5)
    half = b.split(2)
    assert half.epsilon == 1.0 and half.delta == 5e-6
    assert PrivacyBudget(epsilon=math.inf).noiseless


# --- Laplace sums -----------------------------------------------------------------


def _ks_distance(sample, cdf):
    """Largest gap between the sample's empirical CDF and ``cdf``."""
    x = np.sort(sample)
    f = cdf(x)
    i = np.arange(1, x.size + 1)
    return max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size))


def _laplace_cdf(scale):
    return lambda x: np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0) / scale),
                              1.0 - 0.5 * np.exp(-np.maximum(x, 0) / scale))


def test_laplace_sum_of_one_is_laplace():
    n = 100_000
    draws = laplace_sum(derived_rng(4), 2.5, 1, n)
    # one-sample KS at the 1% level
    assert _ks_distance(draws, _laplace_cdf(2.5)) <= 1.63 / math.sqrt(n)


@pytest.mark.parametrize("count", [2, 50])
def test_laplace_sum_matches_summed_draws(count):
    n = 20_000
    sums = laplace_sum(derived_rng(5, count), 0.8, count, n)
    ref = derived_rng(6, count).laplace(0.0, 0.8, (n, count)).sum(axis=1)
    # two-sample KS at the 1% level
    gap = _ks_distance(sums, lambda x: np.searchsorted(
        np.sort(ref), x, side="right") / n)
    assert gap <= 1.63 * math.sqrt(2.0 / n)


def test_laplace_sum_variance_at_large_count():
    n, count, scale = 20_000, 200_000, 0.5
    sums = laplace_sum(derived_rng(7), scale, count, n)
    # nearly normal at this count, so the scaled sum of squares is
    # chi-square with n degrees of freedom
    stat = np.sum(sums ** 2) / (2.0 * count * scale ** 2)
    assert chi2.ppf(0.0005, n) <= stat <= chi2.ppf(0.9995, n)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_laplace_sum_is_reproducible(shape):
    rng, again = derived_rng(8, len(shape)), derived_rng(8, len(shape))
    draws = laplace_sum(rng, 1.5, 7, shape)
    same = laplace_sum(again, 1.5, 7, shape)
    assert draws.shape == shape
    assert draws.tobytes() == same.tobytes()
    assert rng.bit_generator.state == again.bit_generator.state


def test_single_value_average_is_one_report():
    # with one player the private mean is that player's report v + Lap(b)
    got = ldp_avg_1d(0.3, 1, 1.0, PrivacyBudget(epsilon=2.0),
                     derived_rng(9))
    assert got == 0.3 + float(laplace_sum(derived_rng(9), 0.5, 1, ()))


def test_player_value_range():
    onebit_encode_many(np.array([0.5]), np.array([0.0]), 0.5, derived_rng(0))
    with pytest.raises(ParameterError):
        onebit_encode_many(np.array([1.5]), np.array([0.0]), 0.5,
                           derived_rng(0))


def test_nan_values_are_rejected():
    # NaN fails every comparison, so a range check written as "below lo or
    # above hi" let it through to a NaN mean and a bit drawn with probability
    # NaN
    values = np.array([0.5, np.nan])
    for budget in (PrivacyBudget(epsilon=1.0), PrivacyBudget(math.inf)):
        with pytest.raises(ParameterError):
            ldp_avg_1d(values.sum(), values.size, 1.0, budget,
                       derived_rng(0))
    with pytest.raises(ParameterError):
        check_values(values, 1.0)
    with pytest.raises(ParameterError):
        onebit_encode_many(values, np.zeros(2), 0.5, derived_rng(0))


def test_avg_zero_signal():
    rng = derived_rng(7)
    budget = PrivacyBudget(epsilon=1.0)
    outs = [ldp_avg_1d(0.0, 500, 1.0, budget, rng) for _ in range(200)]
    assert abs(np.mean(outs)) < 0.02


def test_avg_coverage_bound():
    # n=10^4 at eps=1: deviation above 2*sqrt(log(2/0.05))/100 ~ 0.0384
    # in at most 5% of trials, with binomial slack on 200 trials.
    budget = PrivacyBudget(epsilon=1.0)
    values = np.full(10_000, 0.5)
    bound = avg_error_bound(1.0, 10_000, 1.0, 0.05)
    assert abs(bound - 0.0384) < 0.001
    rng = derived_rng(11)
    hits = sum(abs(ldp_avg_1d(values.sum(), values.size, 1.0, budget, rng)
                   - 0.5) <= bound
               for _ in range(200))
    assert hits >= 0.95 * 200 - 8


def test_avg_vanishing_noise():
    out = ldp_avg_1d(0.37, 1, 1.0, PrivacyBudget(epsilon=1e9),
                     derived_rng(1))
    assert abs(out - 0.37) <= 1e-6


def test_avg_rejects_bad_input():
    budget = PrivacyBudget(epsilon=1.0)
    with pytest.raises(ParameterError):
        ldp_avg_1d(0.0, 0, 1.0, budget, derived_rng(0))  # no values
    with pytest.raises(ParameterError):
        ldp_avg_1d(1.5, 1, 1.0, budget, derived_rng(0))
    with pytest.raises(ParameterError):
        check_values(np.array([1.5]), 1.0)


MEAN_BUDGETS = [PrivacyBudget(epsilon=2.0), PrivacyBudget(math.inf)]


@pytest.mark.parametrize("budget", MEAN_BUDGETS, ids=["eps2", "noiseless"])
def test_array_mean_matches_per_entry_reference(budget):
    # per column, the total of n values in [-3, 1.5]; the first column sits
    # on the lower end and the last on the upper one
    n, low, bound = 40, -3.0, 1.5
    values = derived_rng(23).uniform(low, bound, (n, 7))
    values[:, 0], values[:, -1] = low, bound
    totals = values.sum(axis=0)
    rng, ref_rng = derived_rng(24), derived_rng(24)
    got = ldp_avg_1d(totals, n, bound, budget, rng, low=low)
    noise = (np.zeros(7) if budget.noiseless else
             laplace_sum(ref_rng, (bound - low) / budget.epsilon, n, 7))
    want = np.array([(float(t) + float(z)) / n
                     for t, z in zip(totals, noise)])
    assert got.shape == (7,) and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a scalar total is the one-entry case, as a float
    one = ldp_avg_1d(totals[3], n, bound, budget, derived_rng(24), low=low)
    assert type(one) is float
    assert one == float(laplace_means(totals[3:4], n, bound - low, budget,
                                      derived_rng(24))[0])


@pytest.mark.parametrize("where", [0, 3, -1])
@pytest.mark.parametrize("bad", [math.nan, -3.5, 2.0])
def test_array_mean_rejects_any_bad_entry(bad, where):
    # one total of n values in [-3, 1.5] is NaN, or below or above its range
    n = 10
    totals = np.zeros(7)
    totals[where] = n * bad
    for budget in MEAN_BUDGETS:
        with pytest.raises(ParameterError, match="values must lie in"):
            ldp_avg_1d(totals, n, 1.5, budget, derived_rng(0), low=-3.0)


@pytest.mark.parametrize("low", [1.0, 2.0, math.nan])
def test_mean_rejects_low_at_or_above_bound(low):
    for budget in MEAN_BUDGETS:
        with pytest.raises(ParameterError, match="low < bound"):
            ldp_avg_1d(1.0, 1, 1.0, budget, derived_rng(0), low=low)


def test_box_edge_smooth_release_accepted():
    # rows on the box's faces up to BoxDataset's 1e-12 slack put t = 8 basis
    # values near 1 + 5e-11 (chebyshev_eval's cosh branch), which the
    # mean's slack of 1e-9 per value accepts
    edge = 1.0 + 1e-12
    rows = np.array([[edge, -edge], [-edge, edge], [edge, edge]])
    for budget in MEAN_BUDGETS:
        table = smooth_release(BoxDataset(rows), 8, budget, derived_rng(25))
        assert table.values.shape == (64,)
        assert np.all(np.isfinite(table.values))
    # the last table's means are noiseless, and some lie past 1 + 1e-12
    assert np.max(np.abs(table.values)) > 1.0 + 1e-12


def test_avg_unbiased_replay():
    values = derived_rng(21).random(50)
    budget = PrivacyBudget(epsilon=1.0)
    rng = derived_rng(22)
    reps = np.array([ldp_avg_1d(values.sum(), values.size, 1.0, budget, rng)
                     for _ in range(10_000)])
    # noise std per replay is sqrt(2)/(eps*sqrt(n)) = 0.2; mean of 10^4
    # replays should sit within ~4 standard errors of the truth
    assert abs(reps.mean() - values.mean()) <= 4 * 0.2 / 100


# --- one-bit protocol ---------------------------------------------------------


def test_onebit_bias_closed_form():
    _, (p,) = onebit_encode_many(np.array([0.0]), np.array([1.3]), 0.5,
                                 derived_rng(0))
    assert p == 0.5  # v=0 leaves the density unchanged
    _, (p,) = onebit_encode_many(np.array([1.0]), np.array([10.0]), 0.5,
                                 derived_rng(0))
    assert abs(p - 0.5 * math.exp(0.5)) < 1e-12
    with pytest.raises(ParameterError):  # eps > ln 2
        onebit_encode_many(np.array([0.5]), np.array([0.0]), 0.8,
                           derived_rng(0))


def test_onebit_bias_equals_density_ratio():
    # the closed form is exactly half the ratio of the two Laplace densities
    rng = derived_rng(41)
    v = rng.random(10_000)
    y = rng.laplace(0.0, 3.0, 10_000)
    eps = 0.1 + 0.59 * rng.random(10_000)  # stay below ln 2
    direct = 0.5 * np.exp(laplace_logpdf(y, v, 1.0 / eps)
                          - laplace_logpdf(y, 0.0, 1.0 / eps))
    closed = 0.5 * np.exp(-eps * (np.abs(y - v) - np.abs(y)))
    assert np.max(np.abs(direct - closed)) < 1e-12


def test_onebit_halfmean_identity():
    # E[y * bit | v] = v / 2, the identity behind the decoder's factor 2
    epsilon = 0.5
    v = 0.6
    rng = derived_rng(42)
    ys = rng.laplace(0.0, 1.0 / epsilon, 10 ** 6)
    bits, _ = onebit_encode_many(np.full(10 ** 6, v), ys, epsilon, rng)
    assert abs(np.mean(ys * bits) - v / 2) < 0.01


def test_onebit_decode_zero_cell():
    epsilon = 0.5
    rng = derived_rng(43)
    ys = rng.laplace(0.0, 1.0 / epsilon, 200_000)
    bits, _ = onebit_encode_many(np.zeros(200_000), ys, epsilon, rng)
    assert abs(onebit_decode(bits, ys)) < 0.05


def test_onebit_decode_cell_mean():
    epsilon = 0.5
    hits = 0
    for trial in range(100):
        rng = derived_rng(44, trial)
        ys = rng.laplace(0.0, 1.0 / epsilon, 100_000)
        bits, _ = onebit_encode_many(np.full(100_000, 0.7), ys, epsilon, rng)
        if abs(onebit_decode(bits, ys) - 0.7) <= 0.05:
            hits += 1
    assert hits >= 90


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10_000])
def test_onebit_encode_blocks_are_one_draw(monkeypatch, n):
    # the blocked encoder gives the bits and probabilities of one
    # vectorised pass with one draw of n uniforms, whatever the block size
    rng = derived_rng(46, n)
    values, ys = rng.random(n), rng.laplace(0.0, 2.0, n)
    want_probs = 0.5 * np.exp(-0.5 * (np.abs(ys - values) - np.abs(ys)))
    want_bits = (derived_rng(47).random(n) < want_probs).astype(np.int8)
    for block in (1, 7, 4096, 1 << 20):
        monkeypatch.setattr(primitives, "ENCODE_BLOCK", block)
        draw = derived_rng(47)
        bits, probs = onebit_encode_many(values, ys, 0.5, draw)
        assert probs.tobytes() == want_probs.tobytes()
        assert bits.dtype == np.int8
        assert bits.tobytes() == want_bits.tobytes()
    spent = derived_rng(47)
    spent.random(n)  # and it draws exactly the n uniforms
    assert draw.bit_generator.state == spent.bit_generator.state


def test_onebit_single_player_cell():
    rng = derived_rng(45)
    ys = np.array([1.7])
    bits, _ = onebit_encode_many(np.array([0.4]), ys, 0.5, rng)
    assert onebit_decode(bits, ys) == 2.0 * 1.7 * bits[0]
    with pytest.raises(EstimationError):
        onebit_decode(np.array([]), np.array([]))


# --- privacy ratio properties ---------------------------------------------------


def test_laplace_likelihood_ratio_grid():
    eps = 1.3
    v = np.linspace(0.0, 1.0, 21)
    z = np.linspace(-3.0, 4.0, 51)
    lp = laplace_logpdf(z[None, :], v[:, None], 1.0 / eps)
    gaps = lp[:, None, :] - lp[None, :, :]  # log ratio for every (v, v') pair
    assert np.max(gaps) <= eps + 1e-12


def test_onebit_bit1_likelihood_ratio_grid():
    eps = 0.5
    v = np.linspace(0.0, 1.0, 21)
    y = np.linspace(-4.0, 4.0, 41)
    p = 0.5 * np.exp(-eps * (np.abs(y[None, :] - v[:, None]) - np.abs(y[None, :])))
    ratios = p[:, None, :] / p[None, :, :]
    assert np.max(ratios) <= math.exp(eps) + 1e-12
    assert np.max(p) <= 1.0


def test_public_randomness_reproducible():
    pub = PublicRandomness(seed=99, scale=2.0, n=1000)
    a, b = pub.materialize(), pub.materialize()
    assert np.array_equal(a, b)
    with pytest.raises(ParameterError):
        PublicRandomness(seed=1, scale=0.0, n=10)


def test_identical_seeds_identical_transcripts(tmp_path):
    values = np.linspace(0, 1, 64)

    def run(name):
        est = ldp_avg_1d(values.sum(), values.size, 1.0,
                         PrivacyBudget(epsilon=1.0),
                         derived_rng(123, 1))
        sent = trial_messages(tmp_path / name, "avg-bench", values[:, None],
                              "cube", {"epsilon": 1.0}, seed=123)
        return est, sent

    (a, ta), (b, tb) = run("a"), run("b")
    assert np.float64(a).tobytes() == np.float64(b).tobytes()
    assert ta == tb and int(ta["messages"]) == 64
