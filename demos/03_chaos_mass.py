"""
Chaos masses, the rooted field, and the change of measure
=========================================================

The multiplicative chaos measure reweights each atom by
exp(gamma * h_i - gamma^2 v_i / 2), which keeps the expected mass equal to
the base weight at every atom. Biasing the field law by the total mass is the
same as adding a gamma'-sized kernel bump at a mass-weighted random root atom;
this script checks both faces of that identity numerically.
"""

import numpy as np

from gmclab import (
    atom_value_statistic,
    build_covariance,
    generate_uniform_grid,
    gmc_mass,
    rooted_identity_errors,
    sample_field,
    total_masses,
    verify_change_of_measure,
)

SEED = 23

model = build_covariance(generate_uniform_grid(8, 0.8))
sigma = model.measure.total_mass

print("mean total mass vs sigma = 1 (20000 replicas)")
for gamma in (0.3, 0.8, 1.2):
    totals = total_masses(model, gamma, SEED, 20000)
    se = totals.std(ddof=1) / np.sqrt(totals.size)
    print(f"  gamma {gamma}: mean {totals.mean():.5f} +- {se:.5f}")

# one replica in detail
sample = gmc_mass(model, sample_field(model, SEED, 0), 0.8)
print(f"\nreplica 0 at gamma 0.8: total {sample.total_mass:.5f}, "
      f"largest atom {sample.per_atom_mass.max():.5f}")

# the rooted identity holds replica by replica at machine precision
errors = rooted_identity_errors(model, SEED, 1000, 0.8, 0.8)
print(f"\nrooted identity, 1000 replicas: max rel err {errors.max():.3e}, "
      f"mean {errors.mean():.3e}")

# two-sample check of the change of measure on a single-atom model
from gmclab import AtomicMeasure

single = build_covariance(AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0])))
gamma_prime = 0.7
rep = verify_change_of_measure(single, gamma_prime, atom_value_statistic(single, 0),
                               100000, SEED)
target = gamma_prime * single.diag_variance[0]
print(f"\nbiased field mean, single atom (target gamma'*v = {target:.5f})")
print(f"  mass-weighted unbiased sample: {rep.mean_weighted:.5f} "
      f"+- {rep.se_weighted:.5f}")
print(f"  rooted (shifted) sample:       {rep.mean_rooted:.5f} "
      f"+- {rep.se_rooted:.5f}")
print(f"  paired difference SE {rep.se_difference:.5f}, weighted-branch ESS "
      f"{rep.effective_sample_size:.0f} of {rep.n_replicas}")
print(f"  overlap within 3 paired SE: {rep.overlap}")
