"""Tests for the one-shot private release of disjunction and smooth queries."""

import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.fft

from formula_reference import evaluate_expansion
from ldp_erm.errors import ParameterError, QueryClassError, SampleSizeWarning
from ldp_erm.harness import _gaussian_kernel
from ldp_erm.polyapprox import build_or_polynomial
from ldp_erm.primitives import PrivacyBudget, Transcript, laplace_noise
from ldp_erm.query_release import (BLOCK, BinaryDataset, BoxDataset,
                                   QueryAnswer, _basis_matrix, _expand_rows,
                                   _expansion_pieces, _private_column_means,
                                   answer_smooth_query, coefficient_bound,
                                   disjunction_truth, marginals_answer,
                                   marginals_release, recommended_t,
                                   smooth_query_coefficients, smooth_release,
                                   smooth_release_and_answer)
from ldp_erm.rng import derived_rng

NOISELESS = PrivacyBudget(epsilon=float("inf"))


def _all_queries(p, k):
    out = [np.zeros(p, dtype=int)]
    for size in range(1, k + 1):
        for sel in combinations(range(p), size):
            q = np.zeros(p, dtype=int)
            q[list(sel)] = 1
            out.append(q)
    return out


def _quiet_release(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        return marginals_release(*args, **kwargs)


def test_dataset_validation():
    with pytest.raises(ParameterError):
        BinaryDataset(np.array([[0, 2]]))
    with pytest.raises(ParameterError):
        BinaryDataset(np.zeros((0, 3), dtype=int))
    with pytest.raises(ParameterError):
        BoxDataset(np.array([[0.0, 1.5]]))


def test_expansion_matches_count_polynomial():
    # the coefficient vector must reproduce p_k(sum_j y_j row_j) for real y
    orpoly = build_or_polynomial(3, 0.1)
    rng = derived_rng(20)
    p = 6
    for _ in range(5):
        row = (rng.random(p) < 0.5).astype(int)
        alphas, per_alpha = _expansion_pieces(p, orpoly)
        coeffs = _expand_rows(row[None], alphas, per_alpha)[0]
        for _ in range(10):
            y = rng.random(p)
            s = float(y @ row)
            direct = sum(a * s ** m for m, a in enumerate(orpoly.coeffs))
            assert abs(evaluate_expansion(coeffs, alphas, y) - direct) < 1e-9


def test_expansion_zero_row_is_zero_vector():
    orpoly = build_or_polynomial(2, 0.05)
    row = np.zeros(4, dtype=int)
    coeffs = _expand_rows(row[None], *_expansion_pieces(4, orpoly))[0]
    assert np.array_equal(coeffs, np.zeros_like(coeffs))


def test_expansion_linear_class():
    # k=1 needs no approximation: p_1(s) = s, so the expansion is the
    # indicator of singleton exponents inside the row's support
    orpoly = build_or_polynomial(1, 0.05)
    assert orpoly.degree == 1
    row = np.array([1, 0, 1])
    alphas, per_alpha = _expansion_pieces(3, orpoly)
    coeffs = _expand_rows(row[None], alphas, per_alpha)[0]
    for alpha, c in zip(alphas, coeffs):
        if tuple(alpha) in {(1, 0, 0), (0, 0, 1)}:
            assert c == pytest.approx(1.0)
        else:
            assert c == pytest.approx(0.0)


def test_coefficient_bound_value():
    # k=2, gamma=0.05 table: quadratic coefficient -144/99 doubled by the
    # (1,1) multinomial factor dominates
    orpoly = build_or_polynomial(2, 0.05)
    assert coefficient_bound(orpoly, 8) == pytest.approx(288.0 / 99.0, abs=1e-12)


def test_zero_noise_identical_rows():
    row = np.array([1, 0, 1, 0])
    data = BinaryDataset(np.tile(row, (50, 1)))
    table = _quiet_release(data, 2, 0.05, NOISELESS, derived_rng(21))
    hit = marginals_answer(table, np.array([1, 0, 0, 0]))
    miss = marginals_answer(table, np.array([0, 1, 0, 0]))
    assert abs(hit.value - 1.0) <= 0.05
    assert abs(miss.value - 0.0) <= 0.05
    zero = marginals_answer(table, np.zeros(4, dtype=int))
    assert zero.value == 0.0
    assert abs(zero.raw) < 1e-12


def test_zero_noise_all_queries_within_gamma():
    rng = derived_rng(22)
    data = BinaryDataset((rng.random((5000, 8)) < rng.random(8)).astype(int))
    with pytest.warns(SampleSizeWarning):
        table = marginals_release(data, 2, 0.05, NOISELESS, derived_rng(23))
    queries = _all_queries(8, 2)
    assert len(queries) == 37
    worst = max(abs(marginals_answer(table, q).value - disjunction_truth(data, q))
                for q in queries)
    assert worst <= 0.05


def test_private_release_accuracy():
    queries = _all_queries(8, 2)
    for trial in range(3):
        rng = derived_rng(210, trial)
        data = BinaryDataset((rng.random((50_000, 8)) < 0.3).astype(int))
        table = _quiet_release(data, 2, 0.05, PrivacyBudget(epsilon=2.0),
                               derived_rng(211, trial))
        worst = max(abs(marginals_answer(table, q).value
                        - disjunction_truth(data, q)) for q in queries)
        assert worst <= 0.25


def test_query_outside_class_rejected():
    data = BinaryDataset(np.ones((10, 5), dtype=int))
    table = _quiet_release(data, 2, 0.05, NOISELESS, derived_rng(24))
    with pytest.raises(QueryClassError):
        marginals_answer(table, np.array([1, 1, 1, 0, 0]))
    with pytest.raises(ParameterError):
        marginals_answer(table, np.array([1, 0]))
    with pytest.raises(ParameterError):
        marginals_release(data, 6, 0.05, NOISELESS, derived_rng(25))


def test_answers_are_clamped():
    data = BinaryDataset(np.ones((20, 3), dtype=int))
    table = _quiet_release(data, 2, 0.2, PrivacyBudget(epsilon=0.5),
                           derived_rng(26))
    for q in _all_queries(3, 2):
        ans = marginals_answer(table, q)
        assert 0.0 <= ans.value <= 1.0
        assert isinstance(ans, QueryAnswer)


def test_transcript_counts_marginal_messages():
    t = Transcript()
    data = BinaryDataset(np.zeros((7, 4), dtype=int))
    table = _quiet_release(data, 2, 0.05, NOISELESS, derived_rng(27),
                           transcript=t)
    assert table.t_k == 3  # cubic is enough for k=2 at gamma 0.05
    dim = math.comb(4 + 3, 3)
    assert t.n_messages == 7
    assert t.reals_per_player() == dim


def test_smooth_basis_values():
    assert _basis_matrix(np.array([[0.3]]), 1)[0] == pytest.approx([1.0])
    v = _basis_matrix(np.array([[0.3, -0.7]]), 3)[0]
    x1, x2 = 0.3, -0.7
    # C-order: index = 3*v1 + v2
    want = [1.0, x2, 2 * x2 ** 2 - 1, x1, x1 * x2, x1 * (2 * x2 ** 2 - 1),
            2 * x1 ** 2 - 1, (2 * x1 ** 2 - 1) * x2,
            (2 * x1 ** 2 - 1) * (2 * x2 ** 2 - 1)]
    assert np.max(np.abs(v - want)) < 1e-12


def test_coefficients_recover_monomials():
    c = smooth_query_coefficients(lambda pts: pts[:, 0], 4, 2)
    want = np.zeros(16)
    want[4] = 1.0  # (v1, v2) = (1, 0) at index 4*1 + 0
    assert np.max(np.abs(c - want)) < 1e-12
    c = smooth_query_coefficients(lambda pts: pts[:, 0] * pts[:, 1], 4, 2)
    want = np.zeros(16)
    want[5] = 1.0  # (1, 1)
    assert np.max(np.abs(c - want)) < 1e-12


def test_coefficients_reject_a_query_of_one_point():
    # a query maps an (m, p) array of points to m values
    with pytest.raises(ParameterError, match="expected"):
        smooth_query_coefficients(lambda pt: pt.sum(), 4, 2)


@pytest.mark.parametrize("t, p", [(8, 2), (4, 3), (16, 2), (8, 1)])
def test_coefficients_match_scipy_dctn(t, p):
    f = _gaussian_kernel(np.linspace(0.3, -0.2, p), 0.6)
    nodes = np.cos(np.pi * (np.arange(t) + 0.5) / t)
    mesh = np.meshgrid(*([nodes] * p), indexing="ij")
    grid = f(np.stack(mesh, axis=-1))
    want = scipy.fft.dctn(grid, type=2) / t ** p
    for axis in range(p):
        first = [slice(None)] * p
        first[axis] = 0
        want[tuple(first)] /= 2.0
    got = smooth_query_coefficients(f, t, p)
    assert np.max(np.abs(got - want.reshape(-1))) <= 1e-14


def test_gaussian_kernel_fit():
    f = _gaussian_kernel(np.array([0.2, -0.1]), 0.7)
    c = smooth_query_coefficients(f, 8, 2)
    rng = derived_rng(100)
    pts = rng.uniform(-1, 1, size=(1000, 2))
    approx = _basis_matrix(pts, 8) @ c
    assert np.max(np.abs(approx - f(pts))) <= 1e-3


def test_constant_query_exact_at_zero_noise():
    rng = derived_rng(28)
    data = BoxDataset(rng.uniform(-1, 1, size=(500, 2)))
    table = smooth_release(data, 4, NOISELESS, derived_rng(29))
    ans = answer_smooth_query(table, lambda pts: np.full(len(pts), 0.37))
    assert ans.value == pytest.approx(0.37, abs=1e-12)


def test_zero_noise_smooth_answers():
    rng = derived_rng(101)
    data = BoxDataset(np.clip(rng.normal(0, 0.4, size=(10_000, 2)), -1, 1))
    table = smooth_release(data, 8, NOISELESS, derived_rng(102))
    for bw in (0.5, 0.3):
        f = _gaussian_kernel(np.array([0.2, -0.1]), bw)
        truth = float(np.mean(f(data.rows)))
        assert abs(answer_smooth_query(table, f).value - truth) <= 1e-2


def test_two_bandwidths_one_release():
    # answering more queries must not add messages: the transcript is
    # whatever the release cost, queries are served offline
    rng = derived_rng(30)
    data = BoxDataset(rng.uniform(-1, 1, size=(200, 2)))
    t = Transcript()
    queries = [_gaussian_kernel(np.array([0.2, -0.1]), bw)
               for bw in (0.5, 0.3)]
    table, answers = smooth_release_and_answer(
        data, 8, PrivacyBudget(epsilon=2.0), queries, derived_rng(31),
        transcript=t)
    assert len(answers) == 2
    assert t.n_messages == 200
    assert t.reals_per_player() == 64.0  # t^p = 8^2 reals, once
    more = answer_smooth_query(table, queries[0])
    assert t.n_messages == 200
    assert more.value == pytest.approx(answers[0].value)


def test_private_smooth_answer_reasonable():
    rng = derived_rng(32)
    data = BoxDataset(np.clip(rng.normal(0, 0.4, size=(10_000, 2)), -1, 1))
    table = smooth_release(data, 8, PrivacyBudget(epsilon=2.0),
                           derived_rng(33))
    f = _gaussian_kernel(np.array([0.2, -0.1]), 0.5)
    truth = float(np.mean(f(data.rows)))
    assert abs(answer_smooth_query(table, f).value - truth) <= 0.1


def test_recommended_t():
    assert recommended_t(10_000, 2, 3, 2.0) == 2
    assert recommended_t(10_000, 2, 3, 2.0) <= recommended_t(10 ** 8, 2, 3, 2.0)
    with pytest.raises(ParameterError):
        recommended_t(0, 2, 3, 2.0)


# --- streamed column means -----------------------------------------------------


def _reference_column_means(values, bound, budget, rng):
    """The whole-matrix column means the streamed releases must reproduce."""
    if values.min() < -1e-9 or values.max() > bound + 1e-9:
        raise ParameterError(
            f"values outside [0, {bound}] cannot be averaged at this bound")
    if budget.noiseless:
        return values.mean(axis=0)
    noisy = values + laplace_noise(rng, bound / budget.epsilon, values.shape)
    return noisy.mean(axis=0)


STREAM_NS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]
STREAM_BUDGETS = [PrivacyBudget(epsilon=2.0), NOISELESS]


def _same_bits(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("split_budget", [False, True])
@pytest.mark.parametrize("budget", STREAM_BUDGETS, ids=["eps2", "noiseless"])
@pytest.mark.parametrize("n", STREAM_NS)
def test_streamed_marginals_match_whole_matrix(n, budget, split_budget):
    p, k, gamma = 6, 2, 0.05
    data = BinaryDataset((derived_rng(50, n).random((n, p)) < 0.3).astype(int))
    rng, ref_rng = derived_rng(51, n), derived_rng(51, n)
    table = _quiet_release(data, k, gamma, budget, rng,
                           split_budget=split_budget)

    orpoly = build_or_polynomial(k, gamma)
    alphas, per_alpha = _expansion_pieces(p, orpoly)
    b = coefficient_bound(orpoly, p)
    sub = budget.split(len(alphas)) if split_budget else budget
    ref = _reference_column_means(
        _expand_rows(data.rows, alphas, per_alpha) + b, 2.0 * b, sub,
        ref_rng) - b
    assert _same_bits(table.values, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("budget", STREAM_BUDGETS, ids=["eps2", "noiseless"])
@pytest.mark.parametrize("n", STREAM_NS)
def test_streamed_smooth_matches_whole_matrix(n, budget):
    t = 4
    data = BoxDataset(np.clip(derived_rng(52, n).normal(0.0, 0.4, (n, 2)),
                              -1.0, 1.0))
    rng, ref_rng = derived_rng(53, n), derived_rng(53, n)
    table = smooth_release(data, t, budget, rng)

    ref01 = _reference_column_means((_basis_matrix(data.rows, t) + 1.0) / 2.0,
                                    1.0, budget, ref_rng)
    assert _same_bits(table.values, 2.0 * ref01 - 1.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [-0.5, 2.5])
def test_streamed_range_check_reaches_last_block(bad):
    # the only out-of-range entry sits in the last, partial block
    n, dim, bound = 2 * BLOCK + 5, 3, 2.0

    def rows_values(lo, hi):
        vals = np.ones((hi - lo, dim))
        if hi == n:
            vals[-1, 1] = bad
        return vals

    for budget in STREAM_BUDGETS:
        with pytest.raises(ParameterError):
            _private_column_means(rows_values, n, dim, bound, budget,
                                  derived_rng(54))


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


PEAK_MIB = 48.0  # whole-matrix releases peaked at 378 and 146 MiB at these sizes


def test_marginals_release_memory_is_per_block():
    n, p = 100_000, 8
    data = BinaryDataset((derived_rng(55).random((n, p)) < 0.3).astype(int))
    peak = _traced_peak_mib(lambda: _quiet_release(
        data, 2, 0.05, PrivacyBudget(epsilon=2.0), derived_rng(56)))
    assert peak < PEAK_MIB


def test_smooth_release_memory_is_per_block():
    n, p = 100_000, 2
    data = BoxDataset(np.clip(derived_rng(57).normal(0.0, 0.4, (n, p)),
                              -1.0, 1.0))
    peak = _traced_peak_mib(lambda: smooth_release(
        data, 8, PrivacyBudget(epsilon=2.0), derived_rng(58)))
    assert peak < PEAK_MIB
