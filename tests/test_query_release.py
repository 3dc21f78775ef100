"""Tests for the one-shot private release of disjunction and smooth queries."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.fft

from formula_reference import (basis_matrix, covering_counts,
                               disjunction_fraction, evaluate_expansion,
                               expand_rows, laplace_means)
from ldp_erm.errors import ParameterError, QueryClassError, SampleSizeWarning
from ldp_erm.harness import _gaussian_kernel
from ldp_erm.polyapprox import build_or_polynomial
from ldp_erm.primitives import PrivacyBudget, laplace_sum, ldp_avg_1d
from ldp_erm.query_release import (BLOCK, BLOCK_ENTRIES, BinaryDataset,
                                   BoxDataset, QueryAnswer, _basis_column_sums,
                                   _expansion_pieces, _support_masks,
                                   answer_smooth_query, coefficient_bound,
                                   disjunction_truth, marginals_answer,
                                   marginals_release,
                                   smooth_query_coefficients, smooth_release,
                                   smooth_release_and_answer)
from ldp_erm.rng import derived_rng
from trial_messages import trial_messages

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
        BinaryDataset(np.array([[0.0, math.nan]]))
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
        coeffs = expand_rows(row[None], alphas, per_alpha)[0]
        for _ in range(10):
            y = rng.random(p)
            s = float(y @ row)
            direct = sum(a * s ** m for m, a in enumerate(orpoly.coeffs))
            assert abs(evaluate_expansion(coeffs, alphas, y) - direct) < 1e-9


def test_expansion_zero_row_is_zero_vector():
    orpoly = build_or_polynomial(2, 0.05)
    row = np.zeros(4, dtype=int)
    coeffs = expand_rows(row[None], *_expansion_pieces(4, orpoly))[0]
    assert np.array_equal(coeffs, np.zeros_like(coeffs))


def test_expansion_linear_class():
    # k=1 needs no approximation: p_1(s) = s, so the expansion is the
    # indicator of singleton exponents inside the row's support
    orpoly = build_or_polynomial(1, 0.05)
    assert orpoly.degree == 1
    row = np.array([1, 0, 1])
    alphas, per_alpha = _expansion_pieces(3, orpoly)
    coeffs = expand_rows(row[None], alphas, per_alpha)[0]
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


@pytest.mark.parametrize("entry", [-1, 2, 0.5])
def test_non_bit_query_rejected(entry):
    # count_nonzero and the support masks (> 0) read such an entry
    # differently, so an answer would be silently wrong
    data = BinaryDataset((derived_rng(27).random((200, 4)) < 0.3).astype(int))
    table = _quiet_release(data, 2, 0.05, NOISELESS, derived_rng(28))
    y = np.array([entry, 0, 0, 0])
    with pytest.raises(ParameterError):
        marginals_answer(table, y)
    with pytest.raises(ParameterError):
        disjunction_truth(data, y)
    # float bits are bits
    y = np.array([1.0, 0.0, 0.0, 0.0])
    assert marginals_answer(table, y) == marginals_answer(table, y.astype(int))
    assert disjunction_truth(data, y) == disjunction_truth(data, [1, 0, 0, 0])


def test_disjunction_truth_checks_query_shape():
    data = BinaryDataset((derived_rng(29).random((50, 4)) < 0.3).astype(int))
    for y in ([1, 0], [0, 0, 0, 0, 1]):
        with pytest.raises(ParameterError, match="expected"):
            disjunction_truth(data, y)


def test_more_than_64_bits_rejected():
    # above 64 bits the packed patterns wrap and records would collide
    assert _support_masks(np.ones(64))[()] == -1
    with pytest.raises(ParameterError, match="64"):
        _support_masks(np.ones((2, 65)))
    data = BinaryDataset(np.ones((3, 65), dtype=int))
    with pytest.raises(ParameterError, match="64"):
        data.patterns
    with pytest.raises(ParameterError, match="64"):
        _quiet_release(data, 1, 0.05, NOISELESS, derived_rng(30))


def _edge_bits():
    rng = derived_rng(31)
    wide = (rng.random((300, 64)) < 0.05).astype(int)
    wide[::3, 63] = 1
    many = (rng.random((2 * BLOCK + 5, 13)) < 0.5).astype(int)
    return {
        "n1": ((rng.random((1, 6)) < 0.5).astype(int), 2),
        "one-pattern": (np.tile([1, 0, 1, 1, 0, 0], (BLOCK + 3, 1)), 2),
        "all-zero": (np.zeros((40, 5), dtype=int), 2),
        "bit63": (wide, 1),
        "many-distinct-patterns": (many, 2),
    }


@pytest.mark.parametrize("case", list(_edge_bits()))
def test_marginals_match_row_formulas(case):
    # the pattern counts give the row scan's count of the players covering
    # each monomial, and so its column sums, and the row scan's disjunction
    # fractions
    rows, k = _edge_bits()[case]
    p = rows.shape[1]
    data = BinaryDataset(rows)
    budget = PrivacyBudget(epsilon=2.0)
    rng, ref_rng = derived_rng(32), derived_rng(32)
    table = _quiet_release(data, k, 0.05, budget, rng)

    ref = _reference_marginal_means(rows, k, 0.05, budget, ref_rng)
    assert _same_bits(table.values, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    if p < 64:
        queries = _all_queries(p, 2)
    else:  # the lowest bit, the two highest, and none or all of them
        eye = np.eye(p, dtype=int)
        queries = [eye[0], eye[62], eye[63], eye[62] + eye[63],
                   np.zeros(p, dtype=int), np.ones(p, dtype=int)]
    for q in queries:
        got = disjunction_truth(data, q)
        assert type(got) is float
        assert got == disjunction_fraction(rows, q)


def test_answers_are_clamped():
    data = BinaryDataset(np.ones((20, 3), dtype=int))
    table = _quiet_release(data, 2, 0.2, PrivacyBudget(epsilon=0.5),
                           derived_rng(26))
    for q in _all_queries(3, 2):
        ans = marginals_answer(table, q)
        assert 0.0 <= ans.value <= 1.0
        assert isinstance(ans, QueryAnswer)


def test_transcript_counts_marginal_messages(tmp_path):
    data = BinaryDataset(np.zeros((7, 4), dtype=int))
    table = _quiet_release(data, 2, 0.05, NOISELESS, derived_rng(27))
    assert table.t_k == 3  # cubic is enough for k=2 at gamma 0.05
    dim = math.comb(4 + 3, 3)
    sent = trial_messages(tmp_path, "marginals", data.rows, "binary",
                          {"k": 2, "gamma": 0.05, "epsilon": float("inf")})
    assert int(sent["messages"]) == 7
    assert float(sent["reals_per_player"]) == dim


def test_smooth_basis_values():
    # a single row's column sums are its basis vector
    assert _basis_column_sums(np.array([[0.3]]), 1) == pytest.approx([1.0])
    v = _basis_column_sums(np.array([[0.3, -0.7]]), 3)
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
    approx = basis_matrix(pts, 8) @ c
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


def test_two_bandwidths_one_release(tmp_path):
    # answering more queries must not add messages: a trial sends whatever
    # the release cost, queries are served offline
    rng = derived_rng(30)
    data = BoxDataset(rng.uniform(-1, 1, size=(200, 2)))
    queries = [_gaussian_kernel(np.array([0.2, -0.1]), bw)
               for bw in (0.5, 0.3)]
    table, answers = smooth_release_and_answer(
        data, 8, PrivacyBudget(epsilon=2.0), queries, derived_rng(31))
    assert len(answers) == 2
    more = answer_smooth_query(table, queries[0])
    assert more.value == pytest.approx(answers[0].value)
    params = {"t": 8, "epsilon": 2.0, "center": [0.2, -0.1]}
    one, both = (trial_messages(tmp_path / str(len(bws)), "smooth-queries",
                                data.rows, "box",
                                {**params, "bandwidths": bws})
                 for bws in ([0.5], [0.5, 0.3]))
    assert int(both["messages"]) == 200
    assert float(both["reals_per_player"]) == 64.0  # t^p = 8^2 reals, once
    assert one == both


def test_private_smooth_answer_reasonable():
    rng = derived_rng(32)
    data = BoxDataset(np.clip(rng.normal(0, 0.4, size=(10_000, 2)), -1, 1))
    table = smooth_release(data, 8, PrivacyBudget(epsilon=2.0),
                           derived_rng(33))
    f = _gaussian_kernel(np.array([0.2, -0.1]), 0.5)
    truth = float(np.mean(f(data.rows)))
    assert abs(answer_smooth_query(table, f).value - truth) <= 0.1


# --- column sums and means ----------------------------------------------------


def _reference_marginal_means(rows, k, gamma, budget, rng,
                              split_budget=False):
    """The marginals release by a row scan: column alpha sums to
    per_alpha[alpha] times the number of rows covering alpha."""
    p = rows.shape[1]
    orpoly = build_or_polynomial(k, gamma)
    alphas, per_alpha = _expansion_pieces(p, orpoly)
    sub = budget.split(len(alphas)) if split_budget else budget
    return laplace_means(per_alpha * covering_counts(rows, alphas), len(rows),
                         2.0 * coefficient_bound(orpoly, p), sub, rng)


# one partial block; one short of, at and one past the end of a second
# block; many blocks and a partial last one
STREAM_NS = [1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 6 * BLOCK + 17]
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

    ref = _reference_marginal_means(data.rows, k, gamma, budget, ref_rng,
                                    split_budget=split_budget)
    assert _same_bits(table.values, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_noiseless_marginal_means_within_two_ulp():
    # the count c of covering players is an exact integer, so a noiseless
    # mean is fl(fl(per_alpha * c) / n): two roundings, less than 2 ulp of
    # the exact mean per_alpha * c / n, and exactly 0 where that is 0
    n, p, k, gamma = 20_000, 8, 2, 0.05
    rows = (derived_rng(59).random((n, p)) < 0.3).astype(int)
    rows[:, -1] = 0  # no player covers a monomial that holds the last bit
    table = _quiet_release(BinaryDataset(rows), k, gamma, NOISELESS,
                           derived_rng(60))
    alphas, per_alpha = _expansion_pieces(p, build_or_polynomial(k, gamma))
    counts = covering_counts(rows, alphas)
    assert (counts == 0).any()
    for got, coef, c in zip(table.values, per_alpha, counts):
        exact = Fraction(coef) * int(c) / n
        if exact == 0:
            assert got == 0.0
        else:
            assert abs(Fraction(got) - exact) <= 2 * Fraction(
                np.spacing(abs(float(exact))))


def test_one_row_release_is_the_players_report():
    # at n = 1 the release is one player's vector plus Lap(2 bound /
    # epsilon) per coordinate, bit for bit
    budget = PrivacyBudget(epsilon=2.0)
    row = np.array([[1, 0, 1, 1, 0]])
    orpoly = build_or_polynomial(2, 0.05)
    alphas, per_alpha = _expansion_pieces(5, orpoly)
    rng = derived_rng(61)
    report = expand_rows(row, alphas, per_alpha)[0] + laplace_sum(
        rng, 2.0 * coefficient_bound(orpoly, 5) / budget.epsilon, 1,
        len(alphas))
    table = _quiet_release(BinaryDataset(row), 2, 0.05, budget,
                           derived_rng(61))
    assert _same_bits(table.values, report)

    point = np.array([[0.3, -0.7, 0.9]])
    rng = derived_rng(62)
    report = basis_matrix(point, 4)[0] + laplace_sum(
        rng, 2.0 / budget.epsilon, 1, 4 ** 3)
    table = smooth_release(BoxDataset(point), 4, budget, derived_rng(62))
    assert _same_bits(table.values, report)


def _summation_bound(terms, p):
    """Per column, a bound on |a float sum of the exact products behind
    ``terms`` - the exact sum of ``terms``|, for any summation order.

    Summing n floats in any order errs by at most gamma_{n-1} times the sum
    of their magnitudes, gamma_m = m u / (1 - m u) with u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 4.4). A
    basis entry of p axes takes p - 1 rounded products, on the release's
    side and on the reference's (``terms``) alike, and ``math.fsum``
    rounds once more; gamma_{n + 2p} covers all of them, with
    the magnitudes of ``terms`` standing in for the exact products'."""
    m = (len(terms) + 2 * p) * 2.0 ** -53
    return m / (1.0 - m) * np.array([math.fsum(col) for col in
                                     np.abs(terms).T])


@pytest.mark.parametrize("budget", STREAM_BUDGETS, ids=["eps2", "noiseless"])
@pytest.mark.parametrize("n", STREAM_NS)
def test_streamed_smooth_matches_whole_matrix(n, budget):
    t = 4
    data = BoxDataset(np.clip(derived_rng(52, n).normal(0.0, 0.4, (n, 2)),
                              -1.0, 1.0))
    rng, ref_rng = derived_rng(53, n), derived_rng(53, n)
    table = smooth_release(data, t, budget, rng)

    sums = _basis_column_sums(data.rows, t)
    terms = basis_matrix(data.rows, t)
    if n == 1:  # one product per entry, taken in the same order
        assert _same_bits(sums, terms[0])
    else:
        exact = np.array([math.fsum(col) for col in terms.T])
        assert np.all(np.abs(sums - exact) <= _summation_bound(terms, 2))
    ref = laplace_means(sums, n, 2.0, budget, ref_rng)
    assert _same_bits(table.values, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [-0.5, 2.5, math.nan])
def test_streamed_range_check_reaches_last_block(bad):
    # column sums of n vectors in [-1, 1]^dim, the values of [0, 2] shifted
    # down by 1; only the last column, where every player holds ``bad``,
    # sums out of range
    n, dim = 2 * BLOCK + 5, 3
    sums = np.zeros(dim)
    sums[-1] = n * (bad - 1.0)
    for budget in STREAM_BUDGETS:
        with pytest.raises(ParameterError):
            ldp_avg_1d(sums, n, 1.0, budget, derived_rng(54), low=-1.0)


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


def test_marginals_release_memory_is_per_block_with_many_patterns():
    # most of the 20k rows are distinct 16-bit patterns: a table of every
    # distinct pattern's vector would take about 80 MiB
    n, p = 20_000, 16
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


def test_smooth_release_memory_is_bounded_at_high_dimension():
    # at p = 14, t = 2 a block of BLOCK rows holds 2048 x 2^13 head entries:
    # 2048-row blocks peaked at 193 MiB here
    n, p = 4096, 14
    data = BoxDataset(np.clip(derived_rng(59).normal(0.0, 0.4, (n, p)),
                              -1.0, 1.0))
    peak = _traced_peak_mib(lambda: smooth_release(
        data, 2, PrivacyBudget(epsilon=2.0), derived_rng(60)))
    assert peak < PEAK_MIB


def test_short_smooth_blocks_meet_the_summation_bound():
    # at p = 12, t = 2 a block holds fewer than BLOCK rows, so 600 rows take
    # several blocks and a partial last one
    n, p, t = 600, 12, 2
    assert BLOCK_ENTRIES // t ** (p - 1) < n
    rows = np.clip(derived_rng(61).normal(0.0, 0.4, (n, p)), -1.0, 1.0)
    sums = _basis_column_sums(rows, t)
    terms = basis_matrix(rows, t)
    exact = np.array([math.fsum(col) for col in terms.T])
    assert np.all(np.abs(sums - exact) <= _summation_bound(terms, p))
