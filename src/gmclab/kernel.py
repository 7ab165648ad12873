"""Zero-boundary disk kernels and regularized covariance models.

The base kernel on a centered disk of radius R is
    G(x, y) = log|R**2 - x*conj(y)| - log R - log|x - y|,
zero when either point leaves the closed disk. Truncating the distance at a
scale epsilon gives a finite covariance matrix whose diagonal
    log(1/epsilon) + log((R**2 - |x|**2)/R)
matches the variance of a circle average at radius epsilon. build_covariance
factors it by Cholesky when it is positive definite, as a grid's is at the
default epsilon; otherwise it clips the eigenvalues, and the kept eigenpairs
give both the repaired matrix and its factor. The clip keeps the r
eigenvalues above a cut in the widest ratio gap among the eigenvalues in
[1e-9, 1e-7] * lam_max (CUT_WINDOW), since those far below lam_max are noise:
eigh and eigvalsh of one matrix disagree on how many are positive. The
factor keeps only those r eigenvectors, so it is lower trapezoidal, n x r,
and a replica needs r normals, not n.

When r is small, as on Cantor dust at a coarse epsilon, the eigenpairs come
from a deterministic randomized range finder (_range_clip): a basis of the
matrix's dominant eigenvectors grows in blocks until a fresh sketch shows no
eigenvalue above RANGE_RTOL * ||C||_F left out, a row-strip check certifies
that, and eigh of the small projected matrix gives Ritz pairs. The clipped
matrix then lies within about 1e-10 * ||C||_F of the eigh clip. When the
basis would pass n / 4 columns, when its residual shrinks too slowly to stay
within that, or when it fails its check, one eigh of the whole matrix gives
the eigenpairs instead.

Every matrix over atom pairs is filled into one preallocated n x n array
from its lower triangle, a tile of rows at a time: tile [lo, hi) evaluates
columns [0, hi) only, its diagonal tile in full, and mirrors its part left
of that tile into the upper triangle. A full-width tile has about
TILE_ENTRIES entries, so the temporaries of the elementwise formulas stay in
cache. Each entry comes from the same expression as an untiled evaluation,
and every formula is symmetric bit for bit, so the pair matrices are
bit-identical to an untiled evaluation of all n**2 entries at about half its
work. The symmetric LAPACK calls (cholesky, eigh, eigvalsh) get the
F-ordered view matrix.T: numpy copies its input into a column-major buffer
either way, and for that view the copy is contiguous instead of transposing,
with the same numbers, so their results are bit-identical too. The factor
check multiplies DEFECT_STRIP-square blocks of the lower triangle, each over
only the factor columns its rows reach; a build therefore holds about two
n x n arrays at its peak, the kernel matrix and its factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, ResourceLimitError, SingularityError
from .measure import AtomicMeasure, _lower_distance_rows

# relative Frobenius tolerance the factor must reproduce the repaired matrix to
FACTOR_RTOL = 1e-8
# most atoms a kernel matrix is built for: each n x n matrix is then 134 MB
MAX_ATOMS = 4096
# entries per full-width row tile of a pair matrix: its temporaries then fit in cache
TILE_ENTRIES = 2 ** 16
# rows and columns per block of the factor check
DEFECT_STRIP = 256
# names the pair-matrix arithmetic in reports that sample nothing (markov);
# bumped whenever a change moves any entry of a pair matrix
KERNEL_VERSION = 1
# columns per block of the range finder of a clipped build
RANGE_BLOCK = 32
# relative Frobenius residual at which the range finder stops and which its
# basis must certify; it resolves no eigenvalue below about this * ||C||_F
RANGE_RTOL = 1e-9
# seed of the range finder's Gaussian test blocks, fixed so that a model is a
# deterministic function of (measure, epsilon, kernel)
SKETCH_SEED = 0
# the clip cuts in the widest ratio gap among the eigenvalues in this window,
# in units of lam_max
CUT_WINDOW = (1e-9, 1e-7)


def _tile_rows(n: int) -> int:
    """Rows per tile of an n x n pair matrix: about TILE_ENTRIES entries, at least 8."""
    return max(8, TILE_ENTRIES // n)


def _pair_matrix(n: int, fill_rows) -> np.ndarray:
    """An n x n matrix over atom pairs from its lower triangle, a row tile at a time.

    fill_rows(lo, hi, out) writes rows [lo, hi) over columns [0, hi), its
    diagonal tile in full, into out = matrix[lo:hi, :hi]; the tile's part
    left of the diagonal tile is then mirrored into the upper triangle. Every
    pair formula here is symmetric bit for bit, so the mirror writes the very
    entries a full-row evaluation would. A matrix of one tile (n <= 256) is
    filled in one call and needs no mirror.
    """
    out = np.empty((n, n))
    rows = _tile_rows(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        fill_rows(lo, hi, out[lo:hi, :hi])
        if lo:
            out[:lo, lo:hi] = out[lo:hi, :lo].T
    return out


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

    def _smooth_rows(self, positions: np.ndarray, lo: int, hi: int, out=None) -> np.ndarray:
        """Rows [lo, hi) over columns [0, hi) of the smooth part log|r**2 -
        x*conj(y)| - log r (the kernel plus log|x - y|), in real arithmetic:
        symmetric bit for bit."""
        r = self.radius
        x, y = positions.real[:hi], positions.imag[:hi]
        xi, yi = x[lo:hi, None], y[lo:hi, None]
        re = r * r - xi * x - yi * y
        im = yi * x - xi * y
        return np.log(np.sqrt(re * re + im * im) / r, out=out)

    def entry_matrix(self, positions: np.ndarray, epsilon: float) -> np.ndarray:
        """Vectorized regularized entries for all atom pairs (diagonal included)."""
        def fill_rows(lo, hi, out):
            self._smooth_rows(positions, lo, hi, out=out)
            dist = np.abs(positions[lo:hi, None] - positions[:hi])
            out -= np.log(np.maximum(dist, epsilon, out=dist), out=dist)
        return _pair_matrix(positions.size, fill_rows)


UNIT_DISK = DiskKernel(1.0)


def green_disk(x: complex, y: complex) -> float:
    """Zero-boundary kernel of the unit disk, log|(1 - x*conj(y))/(x - y)|."""
    return UNIT_DISK(x, y)


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


def _clip_cut(eigvals: np.ndarray) -> float:
    """The clip's cut for ascending eigenvalues: the geometric midpoint of the
    widest ratio gap between neighbours among those inside CUT_WINDOW *
    lam_max, the window's two ends counting as neighbours.

    The same rule serves eigh's eigenvalues and the range finder's Ritz
    values: the window starts above the range finder's resolution, so noise
    Ritz values never reach it, and a cut in the widest gap keeps r where
    another solver's small errors cannot move it. With no eigenvalue in the
    window the cut is the window's geometric middle. A matrix with no
    positive eigenvalue gets the cut 0 and keeps nothing.
    """
    eig_max = float(eigvals[-1])
    if eig_max <= 0.0:
        return 0.0
    lo, hi = CUT_WINDOW[0] * eig_max, CUT_WINDOW[1] * eig_max
    ends = np.concatenate(([lo], eigvals[(eigvals > lo) & (eigvals < hi)], [hi]))
    widest = int(np.argmax(ends[1:] / ends[:-1]))
    return math.sqrt(ends[widest] * ends[widest + 1])


def _clipped_root(eigvals: np.ndarray, eigvecs: np.ndarray):
    """(root, clip_magnitude, eig_min, eig_max) from ascending eigenpairs:
    root = V[:, lam > cut] sqrt(lam[lam > cut]) over the r eigenvalues above
    _clip_cut, so that root @ root.T is the clipped matrix. clip_magnitude
    counts only the negative eigenvalues; those in (0, cut] are dropped too.
    """
    eig_min, eig_max = float(eigvals[0]), float(eigvals[-1])
    # the eigenvalues above the cut are a tail of the ascending eigvals
    first = int(np.searchsorted(eigvals, _clip_cut(eigvals), side="right"))
    root = eigvecs[:, first:] * np.sqrt(eigvals[first:])
    return root, max(0.0, -eig_min), eig_min, eig_max


def _eigen_clip(matrix: np.ndarray):
    """_clipped_root of one eigh of the whole matrix.

    matrix must be symmetric: eigh gets its F-ordered view matrix.T, which
    numpy copies into LAPACK's column-major buffer without transposing, and
    reads that buffer's lower triangle, the upper triangle of matrix.
    """
    return _clipped_root(*np.linalg.eigh(matrix.T))


def _orthonormal_block(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """An orthonormal basis of block's part orthogonal to the orthonormal
    columns of basis: block Gram-Schmidt and a QR, then Gram-Schmidt once
    more. The QR leaves the columns orthogonal to basis only to about
    machine epsilon times the share the first projection removed; the
    second projection mends that, and moves the columns' inner products by
    about the square of that loss."""
    block -= basis @ (basis.T @ block)
    block = np.linalg.qr(block)[0]
    block -= basis @ (basis.T @ block)
    return block


def _range_defect(matrix: np.ndarray, basis: np.ndarray, product: np.ndarray) -> float:
    """||matrix - basis @ product.T||_F, with product = matrix @ basis, from
    DEFECT_STRIP-row strips: ||(I - Q Q^T) C||_F for symmetric C, with no
    n x n temporary."""
    n = len(matrix)
    total = 0.0
    for lo in range(0, n, DEFECT_STRIP):
        hi = min(lo + DEFECT_STRIP, n)
        strip = basis[lo:hi] @ product.T
        strip -= matrix[lo:hi]
        total += np.vdot(strip, strip)
    return math.sqrt(total)


def _range_clip(matrix: np.ndarray):
    """_clipped_root from a randomized range finder and a Rayleigh-Ritz step,
    or None when the build needs the full eigh.

    The range finder (Halko, Martinsson and Tropp, SIAM Review 2011, in the
    blocked adaptive form of Martinsson and Voronin, SISC 2016) grows an
    orthonormal basis Q of the symmetric matrix C's dominant eigenvectors,
    RANGE_BLOCK columns at a time. Each block starts from a fresh Gaussian
    test block Omega drawn from SKETCH_SEED; once its residual
    ||(I - Q Q^T) C Omega||_F is at most RANGE_RTOL * ||C||_F, Q holds every
    eigenvalue that matters and the search stops. Otherwise one power step,
    C times that residual, is made orthonormal against Q and appended. eigh
    of the small Q^T C Q then gives the Ritz pairs.

    The sketch only estimates the residual, so the basis is certified
    deterministically: ||C - Q (C Q)^T||_F must be at most RANGE_RTOL *
    ||C||_F too. None is returned when the basis fails that certificate or
    would pass n / 4 columns, where eigh is about as fast. None is returned
    early when the last block shrank the residual so little that, shrinking
    at that rate, it would reach the tolerance only past n / 2 columns: a
    slowly decaying spectrum then costs a few blocks on top of the eigh, not
    n / 4 columns' worth.
    """
    n = len(matrix)
    rng = np.random.default_rng(SKETCH_SEED)
    tolerance = RANGE_RTOL * float(np.linalg.norm(matrix))
    basis = np.empty((n, n // 4))
    k, previous = 0, math.inf
    while True:
        residual = matrix @ rng.standard_normal((n, RANGE_BLOCK))
        residual -= basis[:, :k] @ (basis[:, :k].T @ residual)
        norm = float(np.linalg.norm(residual))
        if k and norm <= tolerance:
            break
        if k + RANGE_BLOCK > basis.shape[1]:
            return None
        if k:
            # the residual shrank by rate over the last block; at that rate it
            # reaches the tolerance after blocks_left more
            rate = previous / norm
            blocks_left = math.log(norm / tolerance) / math.log(rate) if rate > 1.0 else math.inf
            if k + RANGE_BLOCK * blocks_left > n / 2:
                return None
        basis[:, k:k + RANGE_BLOCK] = _orthonormal_block(matrix @ residual, basis[:, :k])
        k, previous = k + RANGE_BLOCK, norm
    basis = basis[:, :k]
    product = matrix @ basis
    if _range_defect(matrix, basis, product) > tolerance:
        return None
    small = basis.T @ product
    # freed before basis @ ritz_vectors, an array of the same shape, can
    # take its place: the process heap then peaks lower
    del product
    small = 0.5 * (small + small.T)
    # small is symmetric bit for bit, so its F-ordered view holds its numbers
    ritz_values, ritz_vectors = np.linalg.eigh(small.T)
    return _clipped_root(ritz_values, basis @ ritz_vectors)


def _factor_defect(factor: np.ndarray, matrix: np.ndarray) -> float:
    """||factor @ factor.T - matrix||_F from DEFECT_STRIP-square blocks of the
    lower triangle.

    factor is lower trapezoidal, so its rows [jlo, jhi) vanish beyond column
    jhi and the block at rows [lo, hi), columns [jlo, jhi) needs only the
    first jhi columns of either operand. Both products are symmetric, so each
    block left of the diagonal counts twice and each diagonal block once. No
    n x n temporary is formed.
    """
    n = len(matrix)
    total = 0.0
    for lo in range(0, n, DEFECT_STRIP):
        hi = min(lo + DEFECT_STRIP, n)
        for jlo in range(0, lo + 1, DEFECT_STRIP):
            jhi = min(jlo + DEFECT_STRIP, n)
            block = factor[lo:hi, :jhi] @ factor[jlo:jhi, :jhi].T
            block -= matrix[lo:hi, jlo:jhi]
            total += (1.0 if jlo == lo else 2.0) * np.vdot(block, block)
    return math.sqrt(total)


@dataclass(frozen=True)
class CovarianceModel:
    """Repaired covariance matrix over a measure's atoms, ready for sampling.

    matrix is the regularized kernel matrix, eigen-clipped to PSD
    only when Cholesky fails on it; factor is a lower trapezoidal n x r square
    root, with r = n on the Cholesky path and otherwise r the number of
    eigenvalues above the clip's cut (_clip_cut), from the range finder's
    Ritz values or from eigh; diag_variance is the per-atom variance the
    factor actually realizes (row sums of squares).
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
        """(eig_min_raw, eig_max) of the raw matrix: the extreme Ritz values
        or eigh eigenvalues of the clipped build, else one eigvalsh of
        matrix, which then is the raw matrix (through its F-ordered view, as
        in build_covariance)."""
        if self.known_eig_range is None:
            eigvals = np.linalg.eigvalsh(self.matrix.T)
            return float(eigvals[0]), float(eigvals[-1])
        return self.known_eig_range

    eig_min_raw = property(lambda self: self.eig_range[0])
    eig_max = property(lambda self: self.eig_range[1])


def build_covariance(measure: AtomicMeasure, epsilon: float | None = None,
                     green=UNIT_DISK) -> CovarianceModel:
    """Assemble the regularized kernel matrix and factor it: Cholesky first;
    only when Cholesky fails, one eigen-clip (the range finder's, else a
    full eigh's) and a QR of its root."""
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
        # matrix is symmetric bit for bit, so its F-ordered view matrix.T
        # fills LAPACK's column-major buffer with the same numbers by a
        # contiguous copy instead of a transposing one
        factor = np.linalg.cholesky(matrix.T)
        clip_magnitude, eig_range = 0.0, None
    except np.linalg.LinAlgError:
        # root @ root.T == repaired, so the r x n root.T = Q R gives the
        # n x r lower trapezoidal factor L = R.T
        clipped = _range_clip(matrix)
        if clipped is None:
            clipped = _eigen_clip(matrix)
        root, clip_magnitude, eig_min, eig_max = clipped
        matrix, eig_range = root @ root.T, (eig_min, eig_max)
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
    return _pair_matrix(positions.size,
                        lambda lo, hi, out: _lower_distance_rows(positions, lo, hi, out=out))


def offdiagonal_green(positions: np.ndarray, dist: np.ndarray | None = None):
    """(green, dist): the unit-disk Green matrix between distinct atoms, 0 on
    the diagonal, and pair_distances(positions), formed here unless the
    caller passes it as dist."""
    if dist is None:
        dist = pair_distances(positions)

    def fill_rows(lo, hi, out):
        UNIT_DISK._smooth_rows(positions, lo, hi, out=out)
        out -= np.log(dist[lo:hi, :hi])
    green = _pair_matrix(positions.size, fill_rows)
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

    def fill_rows(lo, hi, out):
        UNIT_DISK._smooth_rows(positions, lo, hi, out=out)
        out -= subdisk._smooth_rows(positions, lo, hi)
    diff = _pair_matrix(measure.n, fill_rows)
    # diff is symmetric bit for bit: its F-ordered view is a contiguous copy
    eigvals = np.linalg.eigvalsh(diff.T)
    min_eig, max_eig = float(eigvals[0]), float(eigvals[-1])
    psd = min_eig >= -1e-8 * max(max_eig, 0.0)
    return diff, min_eig, max_eig, psd
