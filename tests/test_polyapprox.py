"""Tests for the polynomial machinery: Bernstein operators, Chebyshev
series, smoothed hinge surrogates, kink sampling, and the disjunction
polynomial."""

import math

import numpy as np
import pytest

from chebyshev_reference import (ChebyshevSeries, chebyshev_branches,
                                 chebyshev_recurrence, chebyshev_series_fit)
from formula_reference import (abs_sampler, bernstein_poly_eval,
                               lemma40_reconstruct)
from grid_reference import pointwise_iterated_pair
from ldp_erm.errors import ParameterError
from ldp_erm.polyapprox import (BernsteinOperatorSpec, SmoothedPlus,
                                SubgradientSampler, _iterate_matrix,
                                bernstein_basis_pair, bernstein_basis_vector,
                                build_or_polynomial, chebyshev_eval,
                                hinge_prime, hinge_sampler,
                                iterated_basis_weights,
                                iterated_bernstein_eval, sample_q_many)
from ldp_erm.rng import derived_rng


def test_basis_values():
    assert bernstein_basis_vector(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)
    assert bernstein_basis_vector(3, 0.4)[2] == pytest.approx(0.288,
                                                              abs=1e-15)
    assert abs(bernstein_basis_vector(7, 0.3).sum() - 1) < 1e-12


def test_partition_of_unity():
    rng = derived_rng(1)
    for k in (1, 2, 5, 11, 20):
        xs = rng.random(100)
        for x in xs:
            assert abs(bernstein_basis_vector(k, x).sum() - 1.0) < 1e-12


def test_affine_reproduction():
    rng = derived_rng(2)
    for h in (1, 2, 3):
        for k in (1, 4, 9):
            spec = BernsteinOperatorSpec(k=k, h=h, p=1)
            grid = 0.7 * np.arange(k + 1) / k - 0.2
            for y in rng.random(10):
                want = 0.7 * y - 0.2
                got = iterated_bernstein_eval(grid, spec, [y])
                assert abs(got - want) < 1e-10


def test_quadratic_values():
    # B_2(x^2; y) = y/2 + y^2/2, so 0.375 at y = 0.5
    spec = BernsteinOperatorSpec(k=2, h=1, p=1)
    grid = (np.arange(3) / 2) ** 2
    assert iterated_bernstein_eval(grid, spec, [0.5]) == pytest.approx(0.375, abs=1e-14)
    assert iterated_bernstein_eval(grid, spec, [0.37]) == pytest.approx(
        0.37 / 2 + 0.37 ** 2 / 2, abs=1e-12)


def test_order_two_matches_composition():
    # Order-2 operator is 2B - B(B(.)): compose the plain operator by hand
    k = 2
    grid = (np.arange(k + 1) / k) ** 2
    plain = BernsteinOperatorSpec(k=k, h=1, p=1)
    twice = BernsteinOperatorSpec(k=k, h=2, p=1)
    regrid = np.array([iterated_bernstein_eval(grid, plain, [v / k])
                       for v in range(k + 1)])
    for y in (0.5, 0.1, 0.83):
        composed = (2 * iterated_bernstein_eval(grid, plain, [y])
                    - iterated_bernstein_eval(regrid, plain, [y]))
        assert abs(iterated_bernstein_eval(grid, twice, [y]) - composed) < 1e-10


def test_separable_tensor_structure():
    k, h = 5, 2
    spec1 = BernsteinOperatorSpec(k=k, h=h, p=1)
    spec2 = BernsteinOperatorSpec(k=k, h=h, p=2)
    nodes = np.arange(k + 1) / k
    g1 = nodes ** 2
    g2 = np.sqrt(nodes + 0.1)
    grid = np.outer(g1, g2)
    for y in ([0.3, 0.6], [0.9, 0.05]):
        a = iterated_bernstein_eval(g1, spec1, [y[0]])
        b = iterated_bernstein_eval(g2, spec1, [y[1]])
        assert iterated_bernstein_eval(grid, spec2, y) == pytest.approx(a * b, rel=1e-12)


def test_weights_sum_and_l1_bound():
    for h, k in ((1, 3), (2, 4), (3, 6)):
        w = iterated_basis_weights(k, h, 0.5)
        assert abs(w.sum() - 1.0) < 1e-10
    # h=1 weights are the plain (non-negative) basis
    assert np.all(iterated_basis_weights(4, 1, 0.77) >= 0)
    worst = max(np.abs(iterated_basis_weights(4, 2, x)).sum()
                for x in np.linspace(0, 1, 101))
    assert worst <= 3.0 + 1e-12  # (2^2 - 1)^1


def test_point_validation():
    spec = BernsteinOperatorSpec(k=2, h=1, p=1)
    with pytest.raises(ParameterError):
        iterated_bernstein_eval(np.zeros(3), spec, [1.2])
    # NaN fails both bound comparisons, so it must count as outside
    with pytest.raises(ParameterError, match="outside"):
        iterated_bernstein_eval(np.zeros(3), spec, [math.nan])
    with pytest.raises(ParameterError):
        iterated_bernstein_eval(np.zeros(4), spec, [0.5])


def test_batched_weights_rows_equal_scalar_calls():
    xs = np.concatenate([[0.0, 1.0, 0.5], derived_rng(8).random(17)])
    for k in (1, 4, 8):
        for h in (1, 2, 3):
            # the weights, then the basis derivative
            for at in (lambda x: iterated_basis_weights(k, h, x),
                       lambda x: bernstein_basis_pair(k, x)[1]):
                rows = at(xs)
                assert rows.shape == (len(xs), k + 1)
                for x, row in zip(xs, rows):
                    assert np.array_equal(row, at(float(x)))
        grid = iterated_basis_weights(k, 2, xs.reshape(4, 5, 1))
        assert grid.shape == (4, 5, 1, k + 1)
        assert np.array_equal(grid.reshape(len(xs), k + 1),
                              iterated_basis_weights(k, 2, xs))


def _full_recurrence_basis(k, x):
    """The padded degree recurrence run over every entry at every step."""
    b = np.zeros(x.shape + (k + 3,))
    b[..., 1] = 1.0
    x = x[..., None]
    for _ in range(k):
        b[..., 1:-1] = b[..., 1:-1] * (1.0 - x) + b[..., :-2] * x
    return b


@pytest.mark.parametrize("k", [1, 2, 6, 8])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_basis_pair_equals_separate_calls_bit_for_bit(k, h):
    xs = np.concatenate([[0.0, 1.0], derived_rng(13, k, h).random(31)])
    for x in (xs, xs[:30].reshape(10, 3)):
        # degree k by every entry; the derivative as k times the shifted
        # difference of the degree k-1 basis
        want = _full_recurrence_basis(k, x)[..., 1:-1]
        lower = _full_recurrence_basis(k - 1, x)
        want_deriv = k * (lower[..., :-1] - lower[..., 1:])
        base, deriv = bernstein_basis_pair(k, x)
        assert base.tobytes() == want.tobytes()
        assert bernstein_basis_vector(k, x).tobytes() == want.tobytes()
        assert deriv.tobytes() == want_deriv.tobytes()
        ws = iterated_basis_weights(k, h, x)
        assert ws.shape == x.shape + (k + 1,)
        if h == 1:
            assert ws.tobytes() == want.tobytes()
            continue
        # b(x)^T A by one vector-matrix product per point, and the
        # pointwise expansion of I - (I - B_k)^h up to rounding
        folded = np.matmul(want[..., None, :], _iterate_matrix(k, h))
        assert ws.tobytes() == folded[..., 0, :].tobytes()
        pointwise = pointwise_iterated_pair(k, h, x)[0]
        assert np.max(np.abs(ws - pointwise)) <= 1e-13


def test_batched_eval_matches_points_and_validates():
    spec = BernsteinOperatorSpec(k=3, h=2, p=2)
    grid = derived_rng(9).random((4, 4))
    ys = derived_rng(10).random((7, 2))
    vals = iterated_bernstein_eval(grid, spec, ys)
    assert vals.shape == (7,)
    for y, v in zip(ys, vals):
        assert v == iterated_bernstein_eval(grid, spec, y)
    outside = ys.copy()
    outside[4, 1] = 1.0 + 1e-9
    with pytest.raises(ParameterError, match="outside"):
        iterated_bernstein_eval(grid, spec, outside)
    with pytest.raises(ParameterError):
        iterated_bernstein_eval(grid, spec, ys[:, :1])
    with pytest.raises(ParameterError):
        iterated_bernstein_eval(grid, spec, ys.reshape(7, 2, 1))


# --- Chebyshev ------------------------------------------------------------------


def test_chebyshev_eval_branches():
    assert chebyshev_eval(2, 0.5) == pytest.approx(-0.5, abs=1e-14)
    assert chebyshev_eval(2, 2.0) == pytest.approx(7.0, abs=1e-12)
    for x in (0.1, 0.9):
        assert chebyshev_eval(3, x) == pytest.approx(4 * x ** 3 - 3 * x, abs=1e-12)
    for n in range(8):
        assert chebyshev_eval(n, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert chebyshev_eval(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-12)


def test_chebyshev_eval_nan_entries_give_nan():
    # a NaN lies in none of the three branches; many of them, so that
    # uninitialised memory cannot pass by chance
    x = derived_rng(12).uniform(-2.0, 2.0, 400)
    x[::2] = np.nan
    for n in (0, 3, 6):
        got = chebyshev_eval(n, x)
        assert np.isnan(got[::2]).all()
        assert np.array_equal(got[1::2], chebyshev_eval(n, x[1::2]))
    assert math.isnan(chebyshev_eval(3, math.nan))


def test_chebyshev_eval_degree_array_matches_one_degree_at_a_time():
    # the same bits as each degree's own recurrence inside [-1, 1], and as
    # its own branch formula outside and at NaN
    x = np.array([0.0, 0.3, -0.3, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12,
                  2.0, -2.0, math.nan])
    inner = np.abs(x) <= 1.0
    degrees = np.arange(9)
    want = np.stack([np.where(inner, chebyshev_recurrence(int(r), x),
                              chebyshev_branches(int(r), x))
                     for r in degrees], axis=-1)
    got = chebyshev_eval(degrees, x)
    assert got.shape == (len(x), len(degrees))
    assert got.tobytes() == want.tobytes()
    grid = chebyshev_eval(degrees, x.reshape(2, 5))
    assert grid.shape == (2, 5, len(degrees))
    assert grid.tobytes() == want.tobytes()
    assert chebyshev_eval(degrees, 0.3).tobytes() == want[1].tobytes()
    for r in degrees:
        assert chebyshev_eval(int(r), x).tobytes() == want[:, r].tobytes()
    with pytest.raises(ParameterError):
        chebyshev_eval(np.array([2, -1]), x)
    with pytest.raises(ParameterError):
        chebyshev_eval(np.zeros((2, 2), dtype=int), x)


def test_chebyshev_eval_recurrence_accuracy():
    # against the trigonometric form in long double, on a grid and next to
    # +-1, where the recurrence's rounding grows like (r+1)^2 eps
    near = np.array([1e-16, 1e-14, 1e-13, 1e-12])
    x = np.concatenate([np.linspace(-1.0, 1.0, 2001), 1.0 - near,
                        -1.0 + near])
    degrees = np.arange(1001)
    want = np.cos(degrees * np.arccos(x.astype(np.longdouble))[:, None])
    err = np.abs(chebyshev_eval(degrees, x) - want).astype(float)
    assert np.all(err <= (degrees + 1.0) ** 2 * np.finfo(float).eps)


def test_chebyshev_eval_rejects_a_non_integer_degree():
    # cos(2.5 arccos 0.3) is a number, but no polynomial's value
    for n in (2.5, 2.0, np.array([1.0, 2.0]), np.array([1, 2.5])):
        with pytest.raises(ParameterError, match="integer degree"):
            chebyshev_eval(n, 0.3)


def test_chebyshev_eval_degree_zero_is_one_at_infinity():
    # T_0 = 1 everywhere; 0 * arccosh(inf) must not make it NaN (or warn)
    assert chebyshev_eval(0, math.inf) == 1.0
    assert chebyshev_eval(0, -math.inf) == 1.0
    got = chebyshev_eval(np.arange(3), np.array([math.inf, -math.inf]))
    assert np.array_equal(got, [[1.0, math.inf, math.inf],
                                [1.0, -math.inf, math.inf]])
    assert math.isnan(chebyshev_eval(0, math.nan))


def test_series_fit_recovers_basis_polynomials():
    fit = chebyshev_series_fit(lambda x: x, 5)
    want = np.zeros(6)
    want[1] = 1.0
    assert np.max(np.abs(fit.coef - want)) < 1e-10
    fit = chebyshev_series_fit(lambda x: 2 * x ** 2 - 1, 5)
    want = np.zeros(6)
    want[2] = 1.0
    assert np.max(np.abs(fit.coef - want)) < 1e-10


def test_series_fit_exp_accuracy():
    fit = chebyshev_series_fit(np.exp, 12)
    grid = np.linspace(-1, 1, 1001)
    assert np.max(np.abs(fit(grid) - np.exp(grid))) <= 1e-9
    with pytest.raises(ParameterError):
        chebyshev_series_fit(np.exp, -1)


def test_series_eval_matches_recursion():
    series = ChebyshevSeries(np.array([0.3, -1.2, 0.0, 2.0]))
    x = 0.4
    direct = (0.3 - 1.2 * chebyshev_eval(1, x) + 2.0 * chebyshev_eval(3, x))
    assert series(x) == pytest.approx(direct, abs=1e-13)


# --- smoothed surrogates ---------------------------------------------------------


def test_smoothed_plus_basics():
    s = SmoothedPlus(0.2)
    assert s.value(0.5) == pytest.approx(0.1, abs=1e-15)  # beta / 2 at the kink
    xs = np.linspace(-2, 2, 801)
    hinge = np.maximum(0.0, 0.5 - xs)
    assert np.max(np.abs(s.value(xs) - hinge)) <= 0.1 + 1e-12
    assert np.max(np.abs(s.deriv(xs))) <= 1.0
    # convexity via second differences
    v = s.value(xs)
    assert np.min(v[2:] - 2 * v[1:-1] + v[:-2]) > -1e-12
    with pytest.raises(ParameterError):
        SmoothedPlus(0.0)
    with pytest.raises(ParameterError):
        SmoothedPlus(1.5)


def test_smoothed_plus_derivative_fd():
    rng = derived_rng(3)
    beta = 0.3
    for x in rng.uniform(-1.5, 1.5, 100):
        fd = (SmoothedPlus(beta).value(x + 1e-6)
              - SmoothedPlus(beta).value(x - 1e-6)) / 2e-6
        assert abs(SmoothedPlus(beta).deriv(x) - fd) < 1e-6


def test_deriv_coeffs_bounded_and_converging():
    sp = SmoothedPlus(0.25)
    xs = np.linspace(0, 1, 2001)
    # the hinge's closed-form coefficients, and those of the smoothed step
    # (the same plus one) the kink measure averages, which lie in [0, 1]
    for deriv, low in ((sp.deriv, -1.0), (lambda x: sp.deriv(x) + 1.0, 0.0)):
        errs = {}
        for d in (8, 16):
            coeffs = deriv(np.arange(d + 1) / d)
            assert np.max(np.abs(coeffs)) <= 1.0 and np.all(coeffs >= low)
            errs[d] = np.max(np.abs(bernstein_poly_eval(coeffs, xs)
                                    - deriv(xs)))
        ratio = errs[8] / errs[16]
        assert 1.5 <= ratio <= 3.0  # O(1/d) rate under doubling


def test_constant_coeffs_reproduce_constant():
    coeffs = np.full(7, -0.5)
    xs = np.linspace(0, 1, 101)
    assert np.max(np.abs(bernstein_poly_eval(coeffs, xs) + 0.5)) < 1e-12


# --- kink sampling ---------------------------------------------------------------


def test_sampler_endpoints_come_from_the_derivative():
    # lower and upper are f'(-1) and f'(1), not inputs
    for fp, lower, upper in ((hinge_prime, -1.0, 0.0),
                             (lambda x: 0.5 * (np.asarray(x) - 1.0),
                              -1.0, 0.0),
                             (lambda x: 0.3, 0.3, 0.3)):
        sampler = SubgradientSampler(fp)
        assert (sampler.lower, sampler.upper) == (lower, upper)
        assert sampler.degenerate == (lower == upper)
    # a decreasing f' is not the derivative of a convex loss
    with pytest.raises(ParameterError, match="lower <= upper"):
        SubgradientSampler(lambda x: -np.asarray(x, dtype=float))


def test_sampler_point_masses():
    rng = derived_rng(6)
    s_abs = sample_q_many(abs_sampler(), 1000, rng)
    assert np.max(np.abs(s_abs)) < 1e-9
    s_hinge = sample_q_many(hinge_sampler(), 1000, rng)
    assert np.max(np.abs(s_hinge - 0.5)) < 1e-9


def test_sampler_identity_derivative_uniform():
    ident = SubgradientSampler(lambda x: np.asarray(x, dtype=float))
    draws = np.sort(sample_q_many(ident, 100_000, derived_rng(7)))
    cdf = (draws + 1.0) / 2.0
    ks = np.max(np.abs(cdf - (np.arange(1, draws.size + 1) / draws.size)))
    assert ks <= 0.01


def test_sampler_piecewise_linear_pushforward():
    # f'(x) = clip(2x, -1, 1): kink measure is uniform on [-1/2, 1/2]
    fp = lambda x: np.clip(2.0 * np.asarray(x, dtype=float), -1.0, 1.0)
    sampler = SubgradientSampler(fp)
    draws = sample_q_many(sampler, 100_000, derived_rng(8))
    hist, edges = np.histogram(draws, bins=20, range=(-0.5, 0.5))
    tv = 0.5 * np.sum(np.abs(hist / draws.size - 1.0 / 20))
    assert tv <= 0.02
    with pytest.raises(ParameterError):
        sample_q_many(SubgradientSampler(lambda x: 0.3), 5, derived_rng(0))


def test_lemma40_reconstruction():
    rng = derived_rng(9)
    thetas = np.linspace(-1, 1, 11)
    for theta in thetas:
        got = lemma40_reconstruct(hinge_sampler(), theta, 100_000, rng,
                                  anchor_value=0.5, anchor_point=0.0)
        assert abs(got - max(0.0, 0.5 - theta)) < 0.01
    for theta in thetas:
        got = lemma40_reconstruct(abs_sampler(), theta, 100_000, rng,
                                  anchor_value=0.0, anchor_point=0.0)
        assert abs(got - abs(theta)) < 0.01
    ident = SubgradientSampler(lambda x: np.asarray(x, dtype=float))
    for theta in thetas:
        got = lemma40_reconstruct(ident, theta, 100_000, rng,
                                  anchor_value=0.0, anchor_point=0.0)
        assert abs(got - theta ** 2 / 2) < 0.01


def test_lemma40_affine_exact():
    aff = SubgradientSampler(lambda x: 0.3)
    for theta in (-1.0, 0.2, 1.0):
        got = lemma40_reconstruct(aff, theta, 1, derived_rng(0),
                                  anchor_value=1.0, anchor_point=0.0)
        assert got == pytest.approx(0.3 * theta + 1.0, abs=1e-14)


# --- disjunction polynomial -------------------------------------------------------


def test_or_polynomial_small_cases():
    op = build_or_polynomial(1, 0.01)
    assert op(0.0) == 0.0
    assert abs(op(1.0) - 1.0) <= 0.01
    op = build_or_polynomial(4, 0.05)
    # smallest degree with cosh(d * arccosh(5/3)) >= 20 is 4
    assert op.degree == 4
    assert op.degree <= 9


def test_or_polynomial_known_coefficients():
    # k=2, gamma=0.05 -> degree 3 with rational coefficients over 99
    op = build_or_polynomial(2, 0.05)
    assert op.degree == 3
    want = np.array([0.0, 210.0, -144.0, 32.0]) / 99.0
    assert np.max(np.abs(op.coeffs - want)) < 1e-12


def test_or_polynomial_guarantees():
    for k, gamma in ((1, 0.01), (2, 0.05), (4, 0.05), (8, 0.1), (5, 0.01)):
        op = build_or_polynomial(k, gamma)
        assert op(0.0) == 0.0  # constant term is exactly zero
        for j in range(1, k + 1):
            assert abs(op(float(j)) - 1.0) <= gamma + 1e-9
    with pytest.raises(ParameterError):
        build_or_polynomial(0, 0.05)
    with pytest.raises(ParameterError):
        build_or_polynomial(3, 1.0)
