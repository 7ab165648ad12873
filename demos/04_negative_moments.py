"""
Negative-moment bound and small-ball tails
==========================================

For admissible exponents the Laplace transform of the total mass obeys
E[exp(-t * mass)] <= 32 / (sigma * t^eta) for all t >= t0, with eta, t0
explicit. On heavy measures the interesting range underflows double
precision, so this demo uses a deliberately light two-atom measure where the
estimates stay positive across [t0, 100*t0], then compares the single-atom
small-ball tail with its closed-form lognormal answer.
"""

import math

import numpy as np

from gmclab import (
    AtomicMeasure,
    build_covariance,
    exponents,
    fit_loglog_slope,
    small_ball_tail,
    verify_bound,
)

SEED = 41

rep = exponents(1.0, 2.0, 2.0, 1.0)
print("reference exponents at gamma=1, d=2, beta=2, delta=1")
print(f"  eta = {rep.eta}, L = {rep.L}, beta_bar = {rep.beta_bar}")

light = build_covariance(AtomicMeasure(np.array([0.5, -0.5]), np.full(2, 0.04)))
out = verify_bound(light, 0.6, 1.0, 1.0, 1.0, 20000, SEED)
e = out.exponent
print(f"\ntwo-atom measure, gamma 0.6, square-integrable branch")
print(f"  eta {e.eta:.4f}, s0 {e.s0:.4f}, t0 {e.t0:.4f}")
print(f"  verdict {out.verdict}, trivial {out.trivial_pass}, "
      f"event freq {out.event_frequency:.3f}")
print("  t        estimate     3SE          bound")
for t, est, se, b in zip(out.laplace.t_values[::6], out.laplace.estimates[::6],
                         out.laplace.standard_errors[::6],
                         out.laplace.bound_values[::6]):
    print(f"  {t:8.2f} {est:.6e} {3 * se:.2e} {b:.6e}")
slope = fit_loglog_slope(out.laplace.t_values, out.laplace.estimates)
print(f"  fitted log-log slope {slope:.2f} >= eta {e.eta:.4f}")

# small-ball: single lognormal atom against the exact normal-CDF tail
single = build_covariance(AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0])))
gamma = 1.0
v = single.diag_variance[0]
eps = np.array([0.1, 0.3, 0.5])
tail = small_ball_tail(single, gamma, eps, 100000, SEED)
print(f"\nsingle-atom small-ball tail (gamma 1, v = {v:.4f})")
for e_, f, s in zip(eps, tail.frequencies, tail.standard_errors):
    z = (math.log(e_) + 0.5 * gamma ** 2 * v) / (gamma * math.sqrt(v))
    exact = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    print(f"  eps {e_}: frequency {f:.5f} +- {s:.5f}, exact {exact:.5f}")
