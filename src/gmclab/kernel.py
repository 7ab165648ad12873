"""Zero-boundary disk kernels and regularized covariance models.

The base kernel on a centered disk of radius R is
    G(x, y) = log|R**2 - x*conj(y)| - log R - log|x - y|,
zero when either point leaves the closed disk. Truncating the distance at a
scale epsilon gives a finite covariance matrix whose diagonal
    log(1/epsilon) + log((R**2 - |x|**2)/R)
matches the variance of a circle average at radius epsilon. build_covariance
factors it by Cholesky when it is positive definite, as a grid's is at the
default epsilon; otherwise one eigendecomposition clips the eigenvalues and
gives both the repaired matrix and its factor. The clip keeps the r
eigenvalues above eigh's rounding level n * eps * lam_max (the tolerance
np.linalg.matrix_rank uses), since the signs of those below it are noise:
eigh and eigvalsh of one matrix disagree on how many are positive. The
factor keeps only those r eigenvectors, so it is lower trapezoidal, n x r,
and a replica needs r normals, not n.

Every matrix over atom pairs is written into one preallocated n x n array a
tile of rows at a time (about TILE_ENTRIES entries per tile), so the
temporaries of the elementwise formulas stay in cache instead of spanning
n x n. Each entry comes from the same expression as an untiled evaluation,
so the pair matrices are bit-identical to it. The factor check runs
over row strips of the lower triangle; a build therefore holds about two
n x n arrays at its peak, the kernel matrix and its factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, ResourceLimitError, SingularityError
from .measure import AtomicMeasure, _pair_distance_blocks

# relative Frobenius tolerance the factor must reproduce the repaired matrix to
FACTOR_RTOL = 1e-8
# most atoms a kernel matrix is built for: each n x n matrix is then 134 MB
MAX_ATOMS = 4096
# entries per row tile of a pair matrix: its few temporaries then fit in cache
TILE_ENTRIES = 2 ** 16
# rows per strip of the factor check
DEFECT_STRIP = 256
# names the pair-matrix arithmetic in reports that sample nothing (markov);
# bumped whenever a change moves any entry of a pair matrix
KERNEL_VERSION = 1


def _tile_rows(n: int) -> int:
    """Rows per tile of an n x n pair matrix: about TILE_ENTRIES entries, at least 8."""
    return max(8, TILE_ENTRIES // n)


def _row_tiles(n: int) -> list[slice]:
    """Slices of _tile_rows(n) rows covering n rows."""
    rows = _tile_rows(n)
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


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

    def _smooth_rows(self, positions: np.ndarray, tile: slice, out=None) -> np.ndarray:
        """The rows tile of smooth_matrix, in real arithmetic."""
        r = self.radius
        x, y = positions.real, positions.imag
        xi, yi = x[tile, None], y[tile, None]
        re = r * r - xi * x - yi * y
        im = yi * x - xi * y
        return np.log(np.sqrt(re * re + im * im) / r, out=out)

    def smooth_matrix(self, positions: np.ndarray) -> np.ndarray:
        """smooth_part over all atom pairs, in real arithmetic: symmetric bit for bit."""
        n = positions.size
        out = np.empty((n, n))
        for tile in _row_tiles(n):
            self._smooth_rows(positions, tile, out=out[tile])
        return out

    def entry_matrix(self, positions: np.ndarray, epsilon: float) -> np.ndarray:
        """Vectorized regularized entries for all atom pairs (diagonal included)."""
        n = positions.size
        out = np.empty((n, n))
        for tile in _row_tiles(n):
            self._smooth_rows(positions, tile, out=out[tile])
            dist = np.abs(positions[tile, None] - positions)
            out[tile] -= np.log(np.maximum(dist, epsilon, out=dist), out=dist)
        return out


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
    """One eigh, eigenvalues at or below eigh's rounding level set to zero.

    The cut is n * eps * max(lam_max, 0), the tolerance np.linalg.matrix_rank
    uses: eigh's eigenvalues carry errors of about that size, so the signs of
    those below it are arbitrary. Returns (repaired, clip_magnitude, eig_min,
    eig_max, root) with the n x r root = V[:, lam > cut] sqrt(lam[lam > cut])
    over the r eigenvalues above the cut, so that root @ root.T is repaired.
    Dropping the eigenvalues in (0, cut] moves the matrix by at most their
    sum; clip_magnitude still counts only the negative ones.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eig_min, eig_max = float(eigvals[0]), float(eigvals[-1])
    cut = len(eigvals) * np.finfo(np.float64).eps * max(eig_max, 0.0)
    # eigh sorts ascending, so the eigenvalues above the cut are a tail
    first = int(np.searchsorted(eigvals, cut, side="right"))
    root = eigvecs[:, first:] * np.sqrt(eigvals[first:])
    return root @ root.T, max(0.0, -eig_min), eig_min, eig_max, root


def clip_to_psd(matrix: np.ndarray):
    """Eigenvalue clip at eigh's rounding level, n * eps * max(lam_max, 0).

    Returns (repaired, clip_magnitude, eig_min, eig_max) where clip_magnitude
    is the size of the most negative eigenvalue removed (0.0 if none); the
    nonnegative eigenvalues below the cut, rounding noise, are dropped too.
    """
    return _eigen_clip(matrix)[:4]


def _factor_defect(factor: np.ndarray, matrix: np.ndarray) -> float:
    """||factor @ factor.T - matrix||_F from row strips of the lower triangle.

    factor is lower trapezoidal, so strip rows [lo, hi) need only its first hi
    columns. Both products are symmetric, so each block left of the diagonal
    counts twice: the strip twice, less its diagonal block once. No n x n
    temporary is formed.
    """
    total = 0.0
    for lo in range(0, len(matrix), DEFECT_STRIP):
        hi = min(lo + DEFECT_STRIP, len(matrix))
        strip = factor[lo:hi, :hi] @ factor[:hi, :hi].T
        strip -= matrix[lo:hi, :hi]
        block = strip[:, lo:]
        total += 2.0 * np.vdot(strip, strip) - np.vdot(block, block)
    return math.sqrt(total)


@dataclass(frozen=True)
class CovarianceModel:
    """Repaired covariance matrix over a measure's atoms, ready for sampling.

    matrix is the regularized kernel matrix, eigen-clipped to PSD
    only when Cholesky fails on it; factor is a lower trapezoidal n x r square
    root, with r = n on the Cholesky path and otherwise r the number of
    eigenvalues above the clip's cut n * eps * lam_max; diag_variance is the
    per-atom variance the factor actually realizes (row sums of squares).
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

    @property
    def factor_rank(self) -> int:
        """r, the factor's column count: normals drawn per replica."""
        return self.factor.shape[1]

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
        # root @ root.T == repaired, so the r x n root.T = Q R gives the
        # n x r lower trapezoidal factor L = R.T
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
    defect = _factor_defect(factor, matrix)
    if scale > 0 and defect > FACTOR_RTOL * scale:
        raise NumericalError(
            f"factorization defect {defect:.3e} exceeds {FACTOR_RTOL:.0e} * {scale:.3e} "
            f"(eigenvalues in [{model.eig_min_raw:.3e}, {model.eig_max:.3e}], "
            f"clip {clip_magnitude:.3e})")
    return model


def pair_distances(positions: np.ndarray) -> np.ndarray:
    """|p_i - p_j| over all atom pairs with an infinite diagonal, so that
    dist**-beta and the ball test dist <= r leave each atom itself out."""
    n = positions.size
    dist = np.empty((n, n))
    for start, block in _pair_distance_blocks(positions, rows=_tile_rows(n)):
        dist[start:start + len(block)] = block
    return dist


def offdiagonal_green(positions: np.ndarray):
    """(green, dist): the unit-disk Green matrix between distinct atoms, 0 on
    the diagonal, and pair_distances(positions)."""
    dist = pair_distances(positions)
    green = np.empty_like(dist)
    for tile in _row_tiles(positions.size):
        UNIT_DISK._smooth_rows(positions, tile, out=green[tile])
        green[tile] -= np.log(dist[tile])
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
    positions, subdisk = measure.positions, DiskKernel(r)
    diff = np.empty((measure.n, measure.n))
    for tile in _row_tiles(measure.n):
        UNIT_DISK._smooth_rows(positions, tile, out=diff[tile])
        diff[tile] -= subdisk._smooth_rows(positions, tile)
    eigvals = np.linalg.eigvalsh(diff)
    min_eig, max_eig = float(eigvals[0]), float(eigvals[-1])
    psd = min_eig >= -1e-8 * max(max_eig, 0.0)
    return diff, min_eig, max_eig, psd
