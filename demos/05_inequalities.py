"""
Correlation inequalities
========================

Three structural facts about the field and its chaos measures, each graded
as statistic >= threshold with Monte Carlo error bars where randomness is
involved:

  * positive association: decreasing functionals of the mass are positively
    correlated when every covariance entry is nonnegative;
  * convex ordering on nested disks: the dominating kernel (full disk) gives
    the larger expectation of exp(-t * mass), checked with paired replicas;
  * the domain-difference kernel between the disk and a subdisk is positive
    semidefinite, which is a deterministic eigenvalue check.
"""

import numpy as np

from gmclab import (
    build_covariance,
    fkg_check,
    generate_cantor_dust,
    generate_uniform_grid,
    kahane_check,
    markov_psd_suite,
)

SEED = 67


def show(v):
    extra = f", n = {v.n_replicas}" if v.n_replicas else ""
    print(f"  {v.name}: statistic {v.statistic:+.4e} >= "
          f"threshold {v.threshold:+.4e} -> {'pass' if v.passed else 'FAIL'}{extra}")


print("positive association (12x12 grid, gamma 0.8, s=1, t=2)")
model = build_covariance(generate_uniform_grid(12, 0.8))
show(fkg_check(model, 0.8, 1.0, 2.0, 50000, SEED))

print("\nconvex ordering on nested disks (cantor dust, gamma 0.6, r_inner 0.5)")
dust_model = build_covariance(generate_cantor_dust(3, 0.4))
for t in (1.0, 5.0, 25.0):
    v = kahane_check(dust_model, 0.6, 0.5, t, 20000, SEED)
    show(v)
    print(f"    disk {v.details['estimate_disk']:.6f} vs "
          f"subdisk {v.details['estimate_subdisk']:.6f}")

print("\ndomain-difference kernel PSD (8x8 grid inside r=0.4)")
grid = generate_uniform_grid(8, 0.4)
for v in markov_psd_suite(grid, [0.5, 0.7, 0.9]):
    show(v)
