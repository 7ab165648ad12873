"""
Covariance models and Gaussian field replicas
=============================================

The log-correlated field over an atomic measure has covariance matrix
G(x_i, x_j) off the diagonal (zero-boundary disk Green kernel, distance
regularized at scale epsilon) and log(1/eps) + log(1 - |x|^2) on it.
The matrix is factored once, by Cholesky when it is positive definite, as
here, and through one eigenvalue clip to positive semidefinite otherwise; the
clipped factor keeps only the r eigenvectors whose eigenvalue lies above a
cut in the widest gap among the eigenvalues in [1e-9, 1e-7] * lam_max, so it
is n x r and each replica draws r normals. The raw eigenvalue range below is computed on
first access. Replicas are drawn from seeded SFC64 streams, one stream per
block of 1024 replicas, so replica k is the same numbers whichever batch of
replicas produced it.
"""

import numpy as np

from gmclab import (
    build_covariance,
    field_matrix,
    generate_uniform_grid,
    green_disk,
)

SEED = 11

measure = generate_uniform_grid(12, 0.8)
model = build_covariance(measure)

print(f"atoms                {model.n}")
print(f"epsilon              {model.epsilon:.6g}")
print(f"clip magnitude       {model.clip_magnitude:.3e}")
print(f"raw min eigenvalue   {model.eig_min_raw:.3e}")
print(f"max eigenvalue       {model.eig_max:.3e}")
print(f"G(0.5, 0.5i)         {green_disk(0.5, 0.5j):.14f}")

# one replica is a column of field values, one per atom
values = field_matrix(model, SEED, [0])[:, 0]
print(f"\nreplica 0: mean {values.mean():+.4f}, "
      f"std {values.std():.4f}")

# replica determinism: regenerating replica 3 gives bitwise equal numbers
a = field_matrix(model, SEED, [3])[:, 0]
b = field_matrix(model, SEED, [3])[:, 0]
print(f"replica 3 regenerated bitwise equal: {np.array_equal(a, b)}")

# empirical covariance over many replicas approaches the model matrix
n = 20000
values = field_matrix(model, SEED, np.arange(n))
emp = values @ values.T / n
i, j = 0, model.n // 2
print(f"\ncovariance entry ({i},{j}): model {model.matrix[i, j]:+.4f}, "
      f"empirical {emp[i, j]:+.4f}  (n = {n})")
print(f"variance entry ({i},{i}):   model {model.diag_variance[i]:+.4f}, "
      f"empirical {emp[i, i]:+.4f}")
