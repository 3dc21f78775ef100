"""Tests for noise draws, private averaging, and the one-bit randomizer."""

import math

import numpy as np
import pytest

from formula_reference import laplace_logpdf
from ldp_erm.errors import EstimationError, ParameterError
from ldp_erm.primitives import (_NOISE_CHUNK, BITS_PER_REAL, PrivacyBudget,
                                PublicRandomness, Transcript, avg_error_bound,
                                laplace_noise, ldp_avg_1d, onebit_decode,
                                onebit_encode_many)
from ldp_erm.rng import derived_rng


def test_budget_validation():
    with pytest.raises(ParameterError):
        PrivacyBudget(epsilon=0.0)
    with pytest.raises(ParameterError):
        PrivacyBudget(epsilon=1.0, delta=1.0)
    b = PrivacyBudget(epsilon=2.0, delta=1e-5)
    half = b.split(2)
    assert half.epsilon == 1.0 and half.delta == 5e-6
    assert PrivacyBudget(epsilon=math.inf).noiseless


# --- Laplace noise ---------------------------------------------------------------


@pytest.mark.parametrize("shape", [
    (), (1,), (1000,), (_NOISE_CHUNK - 1,), (_NOISE_CHUNK,),
    (_NOISE_CHUNK + 1,), (3, 5), (7, _NOISE_CHUNK // 4 + 3)])
def test_laplace_noise_takes_numpys_uniforms(shape):
    rng, ref = derived_rng(4, len(shape)), derived_rng(4, len(shape))
    draws = laplace_noise(rng, 2.5, shape)
    expected = ref.laplace(0.0, 2.5, shape)
    assert draws.shape == np.shape(expected)
    assert rng.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_max_ulp(draws, expected, maxulp=4)


class _Uniforms:
    """A stub generator serving fixed uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms, self.used = uniforms, 0

    def random(self, out):
        out[...] = self.uniforms[self.used:self.used + out.size]
        self.used += out.size


@pytest.mark.parametrize("zeros", [
    (0,), (0, 1), (_NOISE_CHUNK - 1,), (5, _NOISE_CHUNK + 2)])
def test_laplace_noise_redraws_zero_uniforms(zeros):
    n = _NOISE_CHUNK + 10
    stub = _Uniforms(np.insert(derived_rng(8).random(n), zeros, 0.0))
    draws = laplace_noise(stub, 1.0, n)
    assert np.all(np.isfinite(draws))
    # the zeros are skipped and the stream goes on past them
    assert stub.used == n + len(zeros)
    assert np.array_equal(draws, laplace_noise(derived_rng(8), 1.0, n))


def test_player_value_range():
    onebit_encode_many(np.array([0.5]), np.array([0.0]), 0.5, derived_rng(0))
    with pytest.raises(ParameterError):
        onebit_encode_many(np.array([1.5]), np.array([0.0]), 0.5,
                           derived_rng(0))


def test_avg_zero_signal():
    rng = derived_rng(7)
    budget = PrivacyBudget(epsilon=1.0)
    outs = [ldp_avg_1d(np.zeros(500), 1.0, budget, rng) for _ in range(200)]
    assert abs(np.mean(outs)) < 0.02


def test_avg_coverage_bound():
    # n=10^4 at eps=1: deviation above 2*sqrt(log(2/0.05))/100 ~ 0.0384
    # in at most 5% of trials, with binomial slack on 200 trials.
    budget = PrivacyBudget(epsilon=1.0)
    values = np.full(10_000, 0.5)
    bound = avg_error_bound(1.0, 10_000, 1.0, 0.05)
    assert abs(bound - 0.0384) < 0.001
    rng = derived_rng(11)
    hits = sum(abs(ldp_avg_1d(values, 1.0, budget, rng) - 0.5) <= bound
               for _ in range(200))
    assert hits >= 0.95 * 200 - 8


def test_avg_vanishing_noise():
    out = ldp_avg_1d(np.array([0.37]), 1.0, PrivacyBudget(epsilon=1e9),
                     derived_rng(1))
    assert abs(out - 0.37) <= 1e-6


def test_avg_rejects_bad_input():
    budget = PrivacyBudget(epsilon=1.0)
    with pytest.raises(ParameterError):
        ldp_avg_1d(np.array([]), 1.0, budget, derived_rng(0))
    with pytest.raises(ParameterError):
        ldp_avg_1d(np.array([1.5]), 1.0, budget, derived_rng(0))


def test_avg_unbiased_replay():
    values = derived_rng(21).random(50)
    budget = PrivacyBudget(epsilon=1.0)
    rng = derived_rng(22)
    reps = np.array([ldp_avg_1d(values, 1.0, budget, rng) for _ in range(10_000)])
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


def test_transcript_accounting():
    t = Transcript()
    t.add_bulk(3, protocol_bits_per=1.0)
    assert t.n_messages == 3
    assert t.bits_per_player() == 1.0


def test_transcript_reals_and_protocol_bits_are_separate():
    t = Transcript()
    t.add_bulk(2, reals_per=3.0, protocol_bits_per=5.0)
    assert t.reals_per_player() == 3.0
    assert t.bits_per_player() == 3.0 * BITS_PER_REAL + 5.0
    with pytest.raises(TypeError):
        t.add_bulk(2, 1.0)  # positional counts would hide which is which


@pytest.mark.parametrize("kwargs", [
    {"n": -1}, {"n": 2.5}, {"n": math.inf},
    {"reals_per": -1.0}, {"reals_per": math.nan}, {"reals_per": math.inf},
    {"protocol_bits_per": -0.5}, {"protocol_bits_per": math.nan},
])
def test_transcript_rejects_bad_counts(kwargs):
    t = Transcript()
    with pytest.raises(ParameterError):
        t.add_bulk(**{"n": 4, **kwargs})
    assert (t.n_messages, t.total_bits, t.total_reals) == (0, 0.0, 0.0)


def test_identical_seeds_identical_transcripts():
    def run():
        t = Transcript()
        est = ldp_avg_1d(np.linspace(0, 1, 64), 1.0,
                         PrivacyBudget(epsilon=1.0), derived_rng(123, 1),
                         transcript=t)
        return est, t

    (a, ta), (b, tb) = run(), run()
    assert np.float64(a).tobytes() == np.float64(b).tobytes()
    assert ta == tb and ta.n_messages == 64
