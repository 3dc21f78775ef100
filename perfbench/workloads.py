"""The benchmark's workloads and the reference facts its checks use.

A workload is a fixed mix of mechanisms, each run through the public
experiment API (``ldp_erm.harness.run_experiment``) with one trial per
mechanism per round, on one process (``workers=1``). Every round uses its
own experiment seed, drawn from the benchmark's ``--seed``, so a run
averages over several datasets rather than timing one dataset again; only
the second round repeats the first one's seed, to check determinism.

Why each workload exists:

* ``grid-erm`` is the only workload that uses ``primitives``: 81 scalar
  Laplace averages over n, a cost that grows with n. Beside that it runs
  the surrogate minimiser (``bernstein_erm.minimize_model`` plus the
  ``polyapprox`` Bernstein weights), which is bound by Python call overhead
  and does not depend on n. h=2 exercises the iterated-operator branch. The
  ``onebit`` half shares the minimiser but sends 1-bit messages, so a change
  to the Laplace path shows on only half the mix.
* ``glm`` is the only workload built from per-sample Python calls: n SIGM
  steps with one gradient sample each, kink sampling, and a 10k-iteration
  non-private baseline over all rows. It uses neither ``primitives`` nor
  ``query_release``. ``general-linear`` costs about 3x more per step than
  ``hinge``, so it runs at a quarter of the n to keep the halves comparable.
* ``query-release`` is vectorised, memory-bound work on n x D matrices. It
  is the only workload whose peak RSS is set by the mechanism rather than by
  the interpreter, so an O(n)-memory vector release moves it here and
  nowhere else.

Fidelity (``err_empirical``, ``excess``, ``max_query_error``) is recorded
per mechanism as a per-layer number and never gated. A lower error can mean
under-noising rather than a better mechanism, and making the vector
releases honestly epsilon-LDP raises marginal error on purpose. These
numbers are how a speed-up that changes error shows that it does.
"""

_GRID = ({"family": "uniform-cube", "n": 200_000, "dim": 2},
         {"k": 8, "h": 2, "epsilon": 0.5, "loss": "quadratic"})


def _glm(n):
    return ({"family": "separable-two-class", "n": n, "dim": 5,
             "margin": 0.05},
            {"epsilon": 2.0, "delta": 1e-5, "d_cap": 3})


# workload -> mechanism -> (dataset spec, params), in run order
WORKLOADS = {
    "grid-erm": {
        "bernstein": _GRID,
        "onebit": _GRID,
    },
    "glm": {
        "hinge": _glm(20_000),
        "general-linear": _glm(5_000),
    },
    "query-release": {
        "marginals": ({"family": "bernoulli-bits", "n": 100_000, "dim": 8,
                       "q": 0.3},
                      {"k": 2, "gamma": 0.05, "epsilon": 2.0}),
        "smooth-queries": ({"family": "gaussian-ball-clipped", "n": 100_000,
                            "dim": 2, "sigma": 0.4},
                           {"t": 8, "epsilon": 2.0}),
    },
}

MECHANISMS = [m for mix in WORKLOADS.values() for m in mix]

# What one player's message is: (reals, protocol bits). Bernstein sends the
# (k+1)^p = 81 grid evaluations, one-bit a single bit, the GLM replicas
# (d(d+1)+1)(dim+1) = 78 reals at d=3, marginals C(8+3,3) = 165 coefficients
# at degree 3, smooth queries t^p = 64 basis values.
MESSAGE = {
    "bernstein": (81, 0),
    "onebit": (0, 1),
    "hinge": (78, 0),
    "general-linear": (78, 0),
    "marginals": (165, 0),
    "smooth-queries": (64, 0),
}

BITS_PER_REAL = 64  # the accounting convention for one real-valued entry
