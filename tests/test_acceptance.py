"""Acceptance suite: twelve end-to-end criteria, one test each.

Every test prints a one-line summary with its measured statistic and
enforces its own wall-clock budget, so `pytest -v tests/test_acceptance.py`
reads as a pass/fail scorecard.
"""

import math
import time
import warnings
from itertools import combinations

import numpy as np
import pytest

from formula_reference import (abs_sampler, bernstein_poly_eval,
                               hinge_coeffs, laplace_logpdf,
                               lemma40_reconstruct)
from ldp_erm.baselines import glm_baseline
from ldp_erm.bernstein_erm import CubeDataset, alg2_run, alg3_run
from ldp_erm.datasets import generate_dataset
from ldp_erm.errors import SampleSizeWarning
from ldp_erm.glm_erm import (GradientOracleConfig, _encode_population, _fold,
                             general_linear_oracle_config, glm_erm_run,
                             glm_oracle, glm_player_encode, hinge_flavor,
                             hinge_gradient_sample, hinge_via_general_flavor)
from ldp_erm.harness import (ExperimentConfig, grid_loss_excess, load_config,
                             make_grid_loss, run_experiment, _gaussian_kernel)
from ldp_erm.polyapprox import (BernsteinOperatorSpec, SmoothedPlus,
                                SubgradientSampler, hinge_sampler,
                                iterated_bernstein_eval, sample_q_many)
from ldp_erm.primitives import (PrivacyBudget, PublicRandomness,
                                avg_error_bound, ldp_avg_1d, onebit_decode,
                                onebit_encode_many)
from ldp_erm.query_release import (BinaryDataset, BoxDataset,
                                   answer_smooth_query, disjunction_truth,
                                   marginals_answer, marginals_release,
                                   smooth_release, smooth_release_and_answer)
from ldp_erm.rng import derived_rng, derived_seed
from ldp_erm.sigm import SigmSchedule, sigm_run
from trial_messages import trial_messages

QUADRATIC = make_grid_loss("quadratic")


def _budgeted(limit_s):
    """Start a stopwatch; returns a closure that asserts the budget."""
    started = time.perf_counter()

    def finish(label):
        elapsed = time.perf_counter() - started
        print(f"{label} ({elapsed:.1f}s)")
        assert elapsed < limit_s, f"runtime {elapsed:.1f}s over {limit_s}s budget"
    return finish


def test_criterion_01_avg_coverage():
    finish = _budgeted(10)
    n, epsilon, beta = 10_000, 1.0, 0.05
    bound = avg_error_bound(1.0, n, epsilon, beta)
    exceed = 0
    for trial in range(200):
        rng = derived_rng(2001, trial)
        values = rng.random(n)
        a = ldp_avg_1d(values.sum(), n, 1.0, PrivacyBudget(epsilon=epsilon),
                       rng)
        exceed += abs(a - values.mean()) > bound
    assert exceed <= 20
    finish(f"criterion 1 PASS: {exceed}/200 deviations above {bound:.4f} "
           f"(limit 20)")


def test_criterion_02_likelihood_ratio_grids():
    finish = _budgeted(5)
    # dyadic grids make every |difference| exact in binary floating point,
    # so the privacy inequalities can be asserted with zero tolerance
    eps_lap = 2.0  # scale 2b/eps = 1
    v = -1.0 + np.arange(17) / 8.0
    z = -3.0 + np.arange(385) / 64.0
    logp = laplace_logpdf(z[None, :], v[:, None], 1.0)
    diffs = logp[:, None, :] - logp[None, :, :]
    assert diffs.shape == (17, 17, 385) and diffs.size >= 100_000
    lap_violations = int((diffs > eps_lap).sum())
    assert lap_violations == 0
    assert diffs.max() == eps_lap  # the grid reaches the extremal pair

    eps_bit = 0.5
    vb = np.arange(17) / 16.0
    yb = -3.0 + np.arange(385) / 64.0
    V = np.repeat(vb, len(yb))
    Y = np.tile(yb, len(vb))
    _, probs = onebit_encode_many(V, Y, eps_bit, derived_rng(2002))
    closed = 0.5 * np.exp(-eps_bit * (np.abs(Y - V) - np.abs(Y)))
    assert np.array_equal(probs, closed)  # implementation == closed form
    assert probs.max() <= 1.0
    expo = -eps_bit * (np.abs(yb[None, :] - vb[:, None]) - np.abs(yb[None, :]))
    bit_diffs = expo[:, None, :] - expo[None, :, :]
    assert bit_diffs.size >= 100_000
    bit_violations = int((bit_diffs > eps_bit).sum())
    assert bit_violations == 0
    finish(f"criterion 2 PASS: 0 violations over {diffs.size} Laplace and "
           f"{bit_diffs.size} one-bit triples")


def test_criterion_03_bernstein_machinery():
    finish = _budgeted(30)
    # affine reproduction at every order
    rng = derived_rng(2003)
    k = 4
    nodes = np.arange(k + 1) / k
    mesh = np.meshgrid(nodes, nodes, indexing="ij")
    grid = 0.3 * mesh[0] - 0.7 * mesh[1] + 0.1
    worst_affine = 0.0
    for h in (1, 2, 3):
        spec = BernsteinOperatorSpec(p=2, k=k, h=h)
        for _ in range(60):
            y = rng.random(2)
            got = iterated_bernstein_eval(grid, spec, y)
            want = 0.3 * y[0] - 0.7 * y[1] + 0.1
            worst_affine = max(worst_affine, abs(got - want))
    assert worst_affine <= 1e-10

    # order-2 operator equals 2B - B(B(.)) pointwise
    k2 = 5
    nodes2 = np.arange(k2 + 1) / k2
    fgrid = np.exp(nodes2)
    h1 = BernsteinOperatorSpec(p=1, k=k2, h=1)
    h2 = BernsteinOperatorSpec(p=1, k=k2, h=2)
    b_at_nodes = np.array([iterated_bernstein_eval(fgrid, h1, [x])
                           for x in nodes2])
    worst_ident = 0.0
    for x in np.linspace(0.0, 1.0, 101):
        once = iterated_bernstein_eval(fgrid, h1, [x])
        twice = iterated_bernstein_eval(b_at_nodes, h1, [x])
        composed = 2.0 * once - twice
        direct = iterated_bernstein_eval(fgrid, h2, [x])
        worst_ident = max(worst_ident, abs(direct - composed))
    assert worst_ident <= 1e-10

    # sup error halves (factor >= 1.8) when k doubles at h = 1
    target = lambda x: np.exp(-x ** 2)
    xs = np.linspace(0.0, 1.0, 2001)
    sups = {}
    for kk in (8, 16):
        nodes_k = np.arange(kk + 1) / kk
        gk = target(nodes_k)
        sp = BernsteinOperatorSpec(p=1, k=kk, h=1)
        vals = np.array([iterated_bernstein_eval(gk, sp, [x]) for x in xs])
        sups[kk] = float(np.max(np.abs(vals - target(xs))))
    factor = sups[8] / sups[16]
    assert factor >= 1.8
    finish(f"criterion 3 PASS: affine {worst_affine:.1e}, identity "
           f"{worst_ident:.1e}, halving factor {factor:.2f}")


def _alg2_errs(n, epsilon, trials, seed_base):
    spec = BernsteinOperatorSpec(p=1, k=8, h=1)
    budget = PrivacyBudget(epsilon=epsilon)
    errs = []
    for trial in range(trials):
        data = CubeDataset(derived_rng(seed_base, trial).random((n, 1)))
        rel = alg2_run(data, QUADRATIC, spec, budget,
                       derived_rng(seed_base + 1, trial))
        errs.append(grid_loss_excess("quadratic", data, rel.w_priv))
    return errs


def test_criterion_04_alg2_end_to_end():
    finish = _budgeted(300)
    medians = {n: float(np.median(_alg2_errs(n, 2.0, 20, 1000)))
               for n in (10_000, 100_000, 1_000_000)}
    assert medians[1_000_000] <= 0.1
    assert medians[10_000] >= medians[100_000] >= medians[1_000_000]
    finish(f"criterion 4 PASS: median excess {medians[1_000_000]:.2e} at "
           f"n=1e6; medians non-increasing "
           f"({medians[10_000]:.2e} >= {medians[100_000]:.2e} >= "
           f"{medians[1_000_000]:.2e})")


def test_criterion_05_alg3_bits_unbiasedness_and_parity(tmp_path):
    finish = _budgeted(300)
    epsilon = 0.5
    spec = BernsteinOperatorSpec(p=1, k=8, h=1)
    budget = PrivacyBudget(epsilon=epsilon)

    # (a) a trial's accounting: one message per player, exactly one bit
    # and no reals
    data = CubeDataset(derived_rng(1200).random((5000, 1)))
    sent = trial_messages(tmp_path / "onebit", "onebit", data.rows, "cube",
                          {"k": spec.k, "h": spec.h, "epsilon": epsilon},
                          seed=77)
    assert int(sent["messages"]) == 5000
    assert int(sent["messages"]) * float(sent["bits_per_player"]) == 5000
    assert float(sent["bits_per_player"]) == 1.0
    assert float(sent["reals_per_player"]) == 0.0

    # (b) decoded cell means are unbiased (Monte-Carlo, 3 standard errors)
    cell = derived_rng(1201).random(200)
    reps = 3000
    enc_rng = derived_rng(1202)
    ests = np.empty(reps)
    for r in range(reps):
        ys = PublicRandomness(seed=derived_seed(1203, r), scale=1.0 / epsilon,
                              n=len(cell)).materialize()
        bits, _ = onebit_encode_many(cell, ys, epsilon, enc_rng)
        ests[r] = onebit_decode(bits, ys)
    se = ests.std() / math.sqrt(reps)
    gap = abs(ests.mean() - cell.mean())
    assert gap <= 3 * se

    # (c) end-to-end parity with the Laplace protocol at matched budget
    e2, e3 = [], []
    for trial in range(20):
        big = CubeDataset(derived_rng(1100, trial).random((100_000, 1)))
        r2 = alg2_run(big, QUADRATIC, spec, budget, derived_rng(1101, trial))
        r3 = alg3_run(big, QUADRATIC, spec, budget,
                      seed=derived_seed(1102, trial))
        e2.append(grid_loss_excess("quadratic", big, r2.w_priv))
        e3.append(grid_loss_excess("quadratic", big, r3.w_priv))
    med2, med3 = float(np.median(e2)), float(np.median(e3))
    assert med3 <= 2.0 * med2
    finish(f"criterion 5 PASS: 1 bit/player; decode gap {gap:.4f} <= "
           f"3se {3 * se:.4f}; Err medians one-bit {med3:.2e} vs Laplace "
           f"{med2:.2e}")


def test_criterion_06_sigm():
    finish = _budgeted(60)
    wstar = np.array([0.3, -0.4])

    sch = SigmSchedule(sigma=0.0, smoothness=1.0)
    y = sigm_run(lambda x: x - wstar, 2, sch, 500)
    gap = 0.5 * float(np.sum((y - wstar) ** 2))
    assert gap <= 1e-3

    sigma = 0.5
    noisy_sch = SigmSchedule(sigma=sigma, smoothness=1.0)

    def noisy(rng):
        return lambda x: x - wstar + rng.normal(0.0, sigma, x.shape)

    def mean_dist(iters):
        ds = [np.linalg.norm(
            sigm_run(noisy(derived_rng(1, s)), 2, noisy_sch, iters) - wstar)
            for s in range(20)]
        return float(np.mean(ds))

    ratio = mean_dist(2_500) / mean_dist(10_000)
    assert 1.6 <= ratio <= 2.6

    gamma = 0.05
    bias = gamma * np.array([1.0, 0.0])
    floor_run = sigm_run(lambda x: x - wstar + bias, 2,
                         SigmSchedule(sigma=0.0, smoothness=1.0), 100_000)
    dist = float(np.linalg.norm(floor_run - wstar))
    assert gamma / 2 <= dist <= gamma + 1e-3
    finish(f"criterion 6 PASS: exact gap {gap:.1e}, T-vs-4T ratio "
           f"{ratio:.2f}, bias floor {dist:.4f}")


def test_criterion_07_glm_oracles():
    finish = _budgeted(120)
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5)
    d, beta = 2, 0.25
    reps = 100_000

    # hinge path unbiasedness at 1e5 replays, at the hinge's own oracle
    # (beta = alpha/4 at alpha = 1, degree capped at d)
    cfg_h = glm_oracle(hinge_flavor(), 4.0 * beta, budget, 3, d)[0]
    x = np.array([0.6, -0.3, 0.2])
    y_lab = 0.8
    w = np.array([0.4, 0.4, -0.1])
    u = y_lab * float(w @ x)
    want_h = bernstein_poly_eval(cfg_h.coeffs, u) * y_lab * x
    signs = _fold(d)[0]

    def replayed(rng):
        # reps encodings of the one record: their body margins at w, times
        # the product signs (see glm_erm._fold), and their heads y_0 x_0
        head_x, head_y, body_x, body_y = _encode_population(
            np.tile(x, (reps, 1)), np.full(reps, y_lab), budget, d, rng)
        return (signs * body_y) * (body_x @ w), head_y[:, None] * head_x

    margins, heads = replayed(derived_rng(2007))
    samples = cfg_h.scalars(margins)[:, None] * heads
    se_h = samples.std(axis=0) / math.sqrt(reps)
    z_h = float(np.max(np.abs(samples.mean(axis=0) - want_h) / se_h))
    assert z_h <= 3.0

    # general-loss unbiasedness (x^2/2 loss; kink distribution averaged
    # into the coefficients) at 1e5 replays
    ident = SubgradientSampler(lambda t: np.asarray(t, dtype=float))
    cfg_g = general_linear_oracle_config(d, beta, ident)
    want_g = bernstein_poly_eval(cfg_g.coeffs, u) * y_lab * x
    margins, heads = replayed(derived_rng(2008))
    samples = cfg_g.scalars(margins)[:, None] * heads
    se_g = samples.std(axis=0) / math.sqrt(reps)
    z_g = float(np.max(np.abs(samples.mean(axis=0) - want_g) / se_g))
    assert z_g <= 3.0

    # zero-noise Bernstein-gradient bias bound 1/(beta^2 d) at 100 points
    bias_beta, bias_d = 0.25, 4
    sp = SmoothedPlus(bias_beta)
    cfg_b = GradientOracleConfig(bias_d, hinge_coeffs(bias_d, bias_beta))
    bound = 1.0 / (bias_beta ** 2 * bias_d)
    rng = derived_rng(2009)
    worst_bias = 0.0
    for _ in range(100):
        xb = rng.normal(size=5)
        xb *= rng.random() / np.linalg.norm(xb)
        yb = rng.uniform(-1, 1)
        wb = rng.normal(size=5)
        wb /= max(1.0, np.linalg.norm(wb))
        ub = yb * float(wb @ xb)
        bias = abs(bernstein_poly_eval(cfg_b.coeffs, ub) - sp.deriv(ub))
        worst_bias = max(worst_bias, bias * abs(yb) * np.linalg.norm(xb))
    assert worst_bias <= bound

    # the hinge's kink measure reproduces its closed-form coefficients at
    # zero noise
    noiseless = PrivacyBudget(epsilon=float("inf"))
    gen_h = general_linear_oracle_config(3, beta, hinge_sampler())
    ded_h = GradientOracleConfig(3, hinge_coeffs(3, beta))
    rng = derived_rng(2010)
    worst_agree = 0.0
    for _ in range(20):
        xa = rng.normal(size=3)
        xa *= rng.random() / np.linalg.norm(xa)
        ya = rng.uniform(-1, 1)
        wa = rng.normal(size=3)
        wa /= max(1.0, np.linalg.norm(wa))
        msg = glm_player_encode((xa, ya), noiseless, 3, rng)
        a = hinge_gradient_sample(wa, msg, ded_h)
        b = hinge_gradient_sample(wa, msg, gen_h)
        worst_agree = max(worst_agree, float(np.max(np.abs(a - b))))
    assert worst_agree <= 1e-8
    finish(f"criterion 7 PASS: MC z-scores hinge {z_h:.2f}, general "
           f"{z_g:.2f} (limit 3); bias {worst_bias:.3f} <= {bound}; "
           f"path agreement {worst_agree:.1e}")


def test_criterion_08_kink_mixture_reconstruction():
    finish = _budgeted(60)
    rng = derived_rng(2011)
    thetas = np.linspace(-1.0, 1.0, 11)
    ident = SubgradientSampler(lambda t: np.asarray(t, dtype=float))
    cases = [
        (hinge_sampler(), lambda t: max(0.0, 0.5 - t), 0.5),
        (abs_sampler(), abs, 0.0),
        (ident, lambda t: t ** 2 / 2.0, 0.0),
    ]
    worst = 0.0
    for sampler, truth, anchor in cases:
        for theta in thetas:
            got = lemma40_reconstruct(sampler, float(theta), 100_000, rng,
                                      anchor_value=anchor, anchor_point=0.0)
            worst = max(worst, abs(got - truth(float(theta))))
    assert worst <= 0.01

    # sampled kink locations for x^2/2 match the closed-form pushforward
    # (uniform on [-1, 1]) in Kolmogorov-Smirnov distance
    draws = np.sort(sample_q_many(ident, 100_000, derived_rng(2012)))
    cdf_true = (draws + 1.0) / 2.0
    emp_hi = np.arange(1, len(draws) + 1) / len(draws)
    emp_lo = np.arange(0, len(draws)) / len(draws)
    ks = max(np.max(np.abs(emp_hi - cdf_true)),
             np.max(np.abs(emp_lo - cdf_true)))
    assert ks <= 0.01
    finish(f"criterion 8 PASS: reconstruction error {worst:.4f}, KS {ks:.4f}")


def test_criterion_09_glm_end_to_end():
    finish = _budgeted(600)
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5)
    hits = 0
    excesses = []
    for s in range(10):
        data = generate_dataset(
            {"family": "separable-two-class", "n": 50_000, "dim": 5,
             "margin": 0.05}, derived_seed(900, s, 1))
        rep = glm_erm_run(data, hinge_flavor(), target_alpha=1.0,
                          budget=budget, rng=derived_rng(900, s, 2), d_cap=3)
        assert rep.d == 3
        excesses.append(rep.excess)
        hits += rep.excess <= 0.1
    assert hits >= 8
    finish(f"criterion 9 PASS: {hits}/10 seeds with excess <= 0.1 "
           f"(max {max(excesses):.4f})")


def _all_queries(p, k):
    out = [np.zeros(p, dtype=int)]
    for size in range(1, k + 1):
        for sel in combinations(range(p), size):
            q = np.zeros(p, dtype=int)
            q[list(sel)] = 1
            out.append(q)
    return out


def test_criterion_10_marginals():
    finish = _budgeted(300)
    queries = _all_queries(8, 2)
    assert len(queries) == 37

    rng = derived_rng(2013)
    data = BinaryDataset((rng.random((5000, 8)) < rng.random(8)).astype(int))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        table = marginals_release(data, 2, 0.05,
                                  PrivacyBudget(epsilon=float("inf")),
                                  derived_rng(2014))
    zero_noise_worst = max(
        abs(marginals_answer(table, q).value - disjunction_truth(data, q))
        for q in queries)
    assert zero_noise_worst <= 0.05

    good = 0
    worsts = []
    for trial in range(20):
        big = generate_dataset({"family": "bernoulli-bits", "n": 100_000,
                                "dim": 8, "q": 0.3},
                               derived_seed(910, trial, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            priv = marginals_release(big, 2, 0.05, PrivacyBudget(epsilon=2.0),
                                     derived_rng(910, trial, 2))
        worst = max(abs(marginals_answer(priv, q).value
                        - disjunction_truth(big, q)) for q in queries)
        worsts.append(worst)
        good += worst <= 0.2
    assert good >= 18
    finish(f"criterion 10 PASS: zero-noise worst {zero_noise_worst:.4f} <= "
           f"gamma; private {good}/20 trials <= 0.2 (max {max(worsts):.3f})")


def test_criterion_11_smooth_queries(tmp_path):
    finish = _budgeted(120)
    rng = derived_rng(101)
    data = BoxDataset(np.clip(rng.normal(0.0, 0.4, size=(10_000, 2)), -1, 1))
    table = smooth_release(data, 8, PrivacyBudget(epsilon=float("inf")),
                           derived_rng(102))
    worst = 0.0
    for bw in (0.5, 0.3):
        f = _gaussian_kernel(np.array([0.2, -0.1]), bw)
        truth = float(np.mean(f(data.rows)))
        worst = max(worst, abs(answer_smooth_query(table, f).value - truth))
    assert worst <= 1e-2

    queries = [_gaussian_kernel(np.array([0.2, -0.1]), bw)
               for bw in (0.5, 0.3)]
    _, answers = smooth_release_and_answer(
        data, 8, PrivacyBudget(epsilon=2.0), queries, derived_rng(103))
    assert len(answers) == 2
    # a trial answering both bandwidths sends what one answering one
    # sends: one message per player, the queries are answered offline
    params = {"t": 8, "epsilon": 2.0, "center": [0.2, -0.1]}
    one, both = (trial_messages(tmp_path / str(len(bws)), "smooth-queries",
                                data.rows, "box",
                                {**params, "bandwidths": bws})
                 for bws in ([0.5], [0.5, 0.3]))
    messages_after_release = int(one["messages"])
    assert both == one and messages_after_release == data.n
    finish(f"criterion 11 PASS: zero-noise worst {worst:.1e}; both "
           f"bandwidths from one release ({messages_after_release} messages)")


def test_criterion_12_manifest_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        mechanism="bernstein",
        dataset={"family": "uniform-cube", "n": 2000, "dim": 1},
        params={"k": 4, "h": 1, "epsilon": 2.0, "loss": "quadratic"},
        trials=2, seed=6, out=str(tmp_path / "first"))
    first = run_experiment(cfg)
    reloaded = load_config(first.manifest_path)
    second = run_experiment(
        ExperimentConfig(**{**reloaded.__dict__, "out": str(tmp_path / "second")}))
    report_match = (open(first.report_path, "rb").read()
                    == open(second.report_path, "rb").read())
    transcript_match = (open(first.transcript_path, "rb").read()
                        == open(second.transcript_path, "rb").read())
    assert report_match and transcript_match
    print("criterion 12 PASS: manifest re-run reproduced report and "
          "transcript byte-for-byte")
