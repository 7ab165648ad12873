"""Zero-boundary disk kernels and regularized covariance models.

The base kernel on a centered disk of radius R is
    G(x, y) = log|R**2 - x*conj(y)| - log R - log|x - y|,
zero when either point leaves the closed disk. Truncating the distance at a
scale epsilon gives a finite covariance matrix whose diagonal
    log(1/epsilon) + log((R**2 - |x|**2)/R)
matches the variance of a circle average at radius epsilon. build_covariance
factors it by Cholesky when it is positive definite, as a grid's is at the
default epsilon; otherwise one eigendecomposition clips the negative
eigenvalues at zero and gives both the repaired matrix and its factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, ResourceLimitError, SingularityError
from .measure import AtomicMeasure

# relative Frobenius tolerance the factor must reproduce the repaired matrix to
FACTOR_RTOL = 1e-8
# most atoms a kernel matrix is built for: each n x n matrix is then 134 MB
MAX_ATOMS = 4096


@dataclass(frozen=True)
class DiskKernel:
    """Green-type kernel of the centered disk of the given radius."""

    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise DomainError("kernel radius must be > 0")

    def inside(self, z: complex) -> bool:
        return abs(z) < self.radius

    def __call__(self, x: complex, y: complex) -> float:
        if x == y:
            raise SingularityError("kernel is singular on the diagonal")
        r = self.radius
        if abs(x) >= r or abs(y) >= r:
            return 0.0
        return math.log(abs(r * r - x * y.conjugate()) / (r * abs(x - y)))

    def smooth_part(self, x: complex, y: complex) -> float:
        """Kernel plus log|x - y|, continuous through the diagonal."""
        r = self.radius
        if abs(x) >= r or abs(y) >= r:
            return 0.0
        return math.log(abs(r * r - x * y.conjugate()) / r)

    def smooth_matrix(self, positions: np.ndarray) -> np.ndarray:
        """smooth_part over all atom pairs, in real arithmetic: symmetric bit for bit."""
        r = self.radius
        x, y = positions.real[:, None], positions.imag[:, None]
        re = r * r - x * x.T - y * y.T
        im = y * x.T - x * y.T
        return np.log(np.sqrt(re * re + im * im) / r)

    def entry_matrix(self, positions: np.ndarray, epsilon: float) -> np.ndarray:
        """Vectorized regularized entries for all atom pairs (diagonal included)."""
        smooth = self.smooth_matrix(positions)
        dist = np.abs(positions[:, None] - positions[None, :])
        return smooth - np.log(np.maximum(dist, epsilon, out=dist), out=dist)


UNIT_DISK = DiskKernel(1.0)


def green_disk(x: complex, y: complex) -> float:
    """Zero-boundary kernel of the unit disk, log|(1 - x*conj(y))/(x - y)|."""
    return UNIT_DISK(x, y)


def green_subdisk(x: complex, y: complex, r: float) -> float:
    """Zero-boundary kernel of the centered disk of radius r."""
    return DiskKernel(r)(x, y)


def regularized_entry(x: complex, y: complex, epsilon: float, green=UNIT_DISK) -> float:
    """Kernel entry with the distance truncated below at epsilon.

    Equals green(x, y) when |x - y| >= epsilon; inside the truncation scale the
    singular -log|x - y| part is frozen at -log(epsilon), which on the diagonal
    gives log(1/epsilon) + log of the boundary-distance factor.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not (green.inside(x) and green.inside(y)):
        return 0.0
    if abs(x - y) >= epsilon:
        return green(x, y)
    return green.smooth_part(x, y) - math.log(epsilon)


def _check_atom_count(measure: AtomicMeasure) -> None:
    if measure.n > MAX_ATOMS:
        raise ResourceLimitError(f"{measure.n} atoms exceed the limit of {MAX_ATOMS}")


def default_epsilon(measure: AtomicMeasure) -> float:
    """Half the minimum pairwise atom distance; geometric fallback for one atom."""
    _check_atom_count(measure)
    gap = measure.min_pair_distance()
    if math.isinf(gap):
        return (1.0 - measure.support_radius) / 2.0
    return gap / 2.0


def _eigen_clip(matrix: np.ndarray):
    """One eigh, negative eigenvalues clipped at zero.

    Returns (repaired, clip_magnitude, eig_min, eig_max, root) with
    root = V sqrt(clipped eigenvalues), so that root @ root.T is repaired.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eig_min, eig_max = float(eigvals[0]), float(eigvals[-1])
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return root @ root.T, max(0.0, -eig_min), eig_min, eig_max, root


def clip_to_psd(matrix: np.ndarray):
    """Eigenvalue clip at zero.

    Returns (repaired, clip_magnitude, eig_min, eig_max) where clip_magnitude
    is the size of the most negative eigenvalue removed (0.0 if none).
    """
    return _eigen_clip(matrix)[:4]


@dataclass(frozen=True)
class CovarianceModel:
    """Repaired covariance matrix over a measure's atoms, ready for sampling.

    matrix is the regularized kernel matrix, eigen-clipped to PSD
    only when Cholesky fails on it; factor is a lower triangular square root,
    diag_variance the per-atom variance the factor actually realizes (row sums
    of squares).
    """

    measure: AtomicMeasure
    epsilon: float
    matrix: np.ndarray
    factor: np.ndarray
    diag_variance: np.ndarray
    clip_magnitude: float
    known_eig_range: tuple[float, float] | None = None

    @property
    def n(self) -> int:
        return self.measure.n

    @cached_property
    def eig_range(self) -> tuple[float, float]:
        """(eig_min_raw, eig_max) of the raw matrix: from the clipped build's
        eigh, else one eigvalsh of matrix, which then is the raw matrix."""
        if self.known_eig_range is None:
            eigvals = np.linalg.eigvalsh(self.matrix)
            return float(eigvals[0]), float(eigvals[-1])
        return self.known_eig_range

    eig_min_raw = property(lambda self: self.eig_range[0])
    eig_max = property(lambda self: self.eig_range[1])


def build_covariance(measure: AtomicMeasure, epsilon: float | None = None,
                     green=UNIT_DISK) -> CovarianceModel:
    """Assemble the regularized kernel matrix and factor it:
    Cholesky first, one eigen-clip and a QR only when Cholesky fails."""
    _check_atom_count(measure)
    if epsilon is None:
        epsilon = default_epsilon(measure)
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    for p in measure.positions:
        if not green.inside(p):
            raise DomainError("atom outside the kernel domain")
    matrix = green.entry_matrix(measure.positions, epsilon)
    try:
        factor = np.linalg.cholesky(matrix)
        clip_magnitude, eig_range = 0.0, None
    except np.linalg.LinAlgError:
        # root @ root.T == repaired, so root.T = Q R gives the factor L = R.T
        matrix, clip_magnitude, eig_min, eig_max, root = _eigen_clip(matrix)
        eig_range = (eig_min, eig_max)
        factor = np.linalg.qr(root.T, mode="r").T
        factor = factor * np.where(np.diag(factor) < 0.0, -1.0, 1.0)
    diag_variance = np.einsum("ij,ij->i", factor, factor)
    for array in (matrix, factor, diag_variance):
        array.setflags(write=False)
    model = CovarianceModel(measure, float(epsilon), matrix, factor, diag_variance,
                            clip_magnitude, eig_range)
    scale = float(np.linalg.norm(matrix))
    defect = float(np.linalg.norm(factor @ factor.T - matrix))
    if scale > 0 and defect > FACTOR_RTOL * scale:
        raise NumericalError(
            f"factorization defect {defect:.3e} exceeds {FACTOR_RTOL:.0e} * {scale:.3e} "
            f"(eigenvalues in [{model.eig_min_raw:.3e}, {model.eig_max:.3e}], "
            f"clip {clip_magnitude:.3e})")
    return model


def offdiagonal_green(positions: np.ndarray):
    """(green, dist): the unit-disk Green matrix between distinct atoms, 0 on
    the diagonal, and the pair distances with an infinite diagonal, so that
    dist**-beta and the ball test dist <= r leave each atom itself out."""
    dist = np.abs(positions[:, None] - positions[None, :])
    np.fill_diagonal(dist, math.inf)
    green = UNIT_DISK.smooth_matrix(positions) - np.log(dist)
    np.fill_diagonal(green, 0.0)
    return green, dist


def markov_difference_psd(measure: AtomicMeasure, r: float):
    """Difference kernel (unit disk minus subdisk of radius r) on the atoms.

    The off-diagonal log-distance parts cancel, so entries close over the
    diagonal: D = log|1 - x*conj(y)| - log|r**2 - x*conj(y)| + log r, with
    diagonal log(1 - |p|**2) - log((r**2 - |p|**2)/r). Returns
    (matrix, min_eig, max_eig, psd) with psd true when min_eig >= -1e-8 * max_eig.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError("r must lie in (0, 1]")
    if measure.support_radius >= r:
        raise DomainError("every atom must satisfy |p| < r")
    _check_atom_count(measure)
    diff = UNIT_DISK.smooth_matrix(measure.positions)
    diff -= DiskKernel(r).smooth_matrix(measure.positions)
    eigvals = np.linalg.eigvalsh(diff)
    min_eig, max_eig = float(eigvals[0]), float(eigvals[-1])
    psd = min_eig >= -1e-8 * max(max_eig, 0.0)
    return diff, min_eig, max_eig, psd
