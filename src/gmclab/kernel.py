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
and a replica needs r normals, not n. A matrix with no positive eigenvalue
would keep none, a field that is 0 at every atom: build_covariance refuses
it with a DomainError naming epsilon and lam_max.

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
work. At the default epsilon the same fill also finds epsilon, in the
distances it forms anyway (DiskKernel.entry_matrix); every pair then lies at
least 2 * epsilon apart, so the fill's off-diagonal is the Green kernel bit
for bit, and verify-bound's event stage takes its Green weights from it.

The symmetric LAPACK calls (eigh, eigvalsh, and each cholesky) get the
F-ordered view matrix.T: numpy copies its input into a column-major buffer
either way, and for that view the copy is contiguous instead of transposing,
with the same numbers, so their results are bit-identical too.

Every factor is stored in row strips of field.STRIP atoms, the unit that the
field product, the samplers' reductions and the factor check work in: strip
k holds the factor's rows [k * STRIP, (k + 1) * STRIP) over only the columns
those rows reach, and the strips lie one after another in one packed buffer
(_zero_strips). So the n x r factor's zero upper triangle is never stored: a
dense n x n array would not keep it out of memory, since numpy advises every
array of 4 MB or more onto transparent huge pages. _cholesky writes every
Cholesky factor straight into the strips, one block column of CHOL_BLOCK
atoms at a time; the clipped factor, a QR's, is copied into them. The factor
check multiplies STRIP-square blocks of the lower triangle, strip by strip,
so it forms no n x n temporary. A Cholesky build then holds the kernel
matrix, its packed factor (n * (n + STRIP) / 2 entries when STRIP divides n,
0.56 n**2 at n = 2304), and blocks of at most STRIP x STRIP beside them: on
a 2-core host the 48x48 grid's build and one total_masses block raised the
process's peak RSS by 99 MB (2.33 n**2 * 8 bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, ResourceLimitError, SingularityError
from .field import STRIP
from .measure import AtomicMeasure, _lower_distance_rows

# relative Frobenius tolerance the factor must reproduce the repaired matrix to
FACTOR_RTOL = 1e-8
# most atoms a kernel matrix is built for: each n x n matrix is then 134 MB
MAX_ATOMS = 4096
# entries per full-width row tile of a pair matrix: its temporaries then fit in cache
TILE_ENTRIES = 2 ** 16
# atoms per block column of the blocked Cholesky factorization; it divides
# STRIP, so that each block column lies inside one strip of the factor
CHOL_BLOCK = 128
# names the pair-matrix arithmetic in reports that sample nothing (markov);
# bumped whenever a change moves any entry of a pair matrix
KERNEL_VERSION = 1
# markov_difference_psd's pass: the least eigenvalue >= psd_threshold(the largest)
PSD_TOL = 1e-8
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

    def inside(self, z):
        """Whether z lies in the open disk; elementwise for an array z."""
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

    def entry_matrix(self, positions: np.ndarray,
                     epsilon: float | None = None) -> tuple[np.ndarray, float]:
        """Vectorized regularized entries for all atom pairs (diagonal
        included), and the epsilon they use: the default (_half_gap of the
        least pair distance) when epsilon is None.

        Both modes run one fill. Each tile's distances come from
        _lower_distance_rows, whose diagonal is inf, and its off-diagonal
        entries are smooth - log(max(dist, epsilon)); an explicit epsilon
        clamps the distances, while the default one is found in them, the
        least distance in the fill's own tiles, and needs no clamp: every
        pair then lies at least 2 * epsilon apart. The diagonal, smooth -
        log(epsilon), is written last from the smooth values the fill saved,
        so the matrix is bit for bit an untiled evaluation at that epsilon.
        """
        n = positions.size
        smooth_diag = np.empty(n)
        gap = math.inf

        def fill_rows(lo, hi, out):
            nonlocal gap
            self._smooth_rows(positions, lo, hi, out=out)
            smooth_diag[lo:hi] = np.diagonal(out[:, lo:])
            dist = _lower_distance_rows(positions, lo, hi)
            if epsilon is None:
                gap = min(gap, float(dist.min()))
            else:
                np.maximum(dist, epsilon, out=dist)
            out -= np.log(dist, out=dist)
        matrix = _pair_matrix(n, fill_rows)
        if epsilon is None:
            epsilon = _half_gap(gap, float(np.abs(positions).max()))
        np.fill_diagonal(matrix, smooth_diag - np.log(np.full(n, epsilon)))
        return matrix, epsilon


UNIT_DISK = DiskKernel(1.0)


def green_disk(x: complex, y: complex) -> float:
    """Zero-boundary kernel of the unit disk, log|(1 - x*conj(y))/(x - y)|."""
    return UNIT_DISK(x, y)


def _check_atom_count(measure: AtomicMeasure) -> None:
    if measure.n > MAX_ATOMS:
        raise ResourceLimitError(f"{measure.n} atoms exceed the limit of {MAX_ATOMS}")


def _half_gap(gap: float, support_radius: float) -> float:
    """The default epsilon from the least pair distance gap: gap / 2, or
    (1 - support_radius) / 2 for a single atom, whose gap is inf."""
    if math.isinf(gap):
        return (1.0 - support_radius) / 2.0
    return gap / 2.0


def _clip_cut(eigvals: np.ndarray) -> float:
    """The clip's cut for ascending eigenvalues: the geometric midpoint of the
    widest ratio gap between neighbours among those inside CUT_WINDOW *
    lam_max, the window's two ends counting as neighbours.

    The same rule serves eigh's eigenvalues and the range finder's Ritz
    values, and a cut in the widest gap keeps r where another solver's small
    errors cannot move it. The window's low end does not clear the range
    finder's resolution, RANGE_RTOL * ||C||_F: on the level-4 and level-5
    Cantor dust at epsilon 0.05, ||C||_F / lam_max is 1.17 at kernel radius 1
    and 1.45 at 0.5, so 1e-9 * lam_max lies below it. The tests hold r equal
    to eigh's there (80 and 84 on the level-5 dust). With no eigenvalue in
    the window the cut is the window's geometric middle. A matrix with no
    positive eigenvalue would keep nothing; _clipped_root refuses it before
    a cut is sought.
    """
    eig_max = float(eigvals[-1])
    lo, hi = CUT_WINDOW[0] * eig_max, CUT_WINDOW[1] * eig_max
    ends = np.concatenate(([lo], eigvals[(eigvals > lo) & (eigvals < hi)], [hi]))
    widest = int(np.argmax(ends[1:] / ends[:-1]))
    return math.sqrt(ends[widest] * ends[widest + 1])


def _clipped_root(eigvals: np.ndarray, eigvecs: np.ndarray):
    """(root, clip_magnitude, eig_min, eig_max) from ascending eigenpairs:
    root = V[:, lam > cut] sqrt(lam[lam > cut]) over the r eigenvalues above
    _clip_cut, so that root @ root.T is the clipped matrix. clip_magnitude
    counts only the negative eigenvalues; those in (0, cut] are dropped too.
    No positive eigenvalue, so r = 0 and a field that is 0 at every atom,
    is a DomainError.
    """
    eig_min, eig_max = float(eigvals[0]), float(eigvals[-1])
    if not eig_max > 0.0:
        raise DomainError(f"the clip keeps no eigenvalue: lam_max = {eig_max:.6g} is not > 0")
    # the eigenvalues above the cut are a tail of the ascending eigvals
    first = int(np.searchsorted(eigvals, _clip_cut(eigvals), side="right"))
    root = eigvecs[:, first:] * np.sqrt(eigvals[first:])
    return root, max(0.0, -eig_min), eig_min, eig_max


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
    STRIP-row strips: ||(I - Q Q^T) C||_F for symmetric C, with no
    n x n temporary."""
    n = len(matrix)
    total = 0.0
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
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


def _zero_strips(n: int, rank: int) -> tuple[np.ndarray, ...]:
    """The row strips of an n x rank lower trapezoidal factor, zeroed: strip
    k holds rows [k * STRIP, min((k + 1) * STRIP, n)) over columns
    [0, min((k + 1) * STRIP, rank)), the columns those rows can reach. They
    are C-ordered views into one packed buffer, so that a strip product reads
    contiguous memory and no zero above a strip's diagonal block is stored."""
    shapes = [(min(lo + STRIP, n) - lo, min(lo + STRIP, rank)) for lo in range(0, n, STRIP)]
    packed = np.zeros(sum(rows * cols for rows, cols in shapes))
    strips, offset = [], 0
    for rows, cols in shapes:
        strips.append(packed[offset:offset + rows * cols].reshape(rows, cols))
        offset += rows * cols
    return tuple(strips)


def _strips_of(factor: np.ndarray) -> tuple[np.ndarray, ...]:
    """A lower trapezoidal n x r factor copied into its row strips (_zero_strips)."""
    strips = _zero_strips(*factor.shape)
    for lo, strip in zip(range(0, len(factor), STRIP), strips):
        strip[...] = factor[lo:lo + len(strip), :strip.shape[1]]
    return strips


def _cholesky(matrix: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The row strips (_zero_strips) of the lower Cholesky factor of the
    symmetric matrix, or None when a pivot fails.

    The factor is written straight into the strips, left-looking over block
    columns [lo, hi) of CHOL_BLOCK atoms, each inside one strip:
        S = C[lo:hi, lo:hi] - L[lo:hi, :lo] L[lo:hi, :lo]^T,
        L[lo:hi, lo:hi] = cholesky(S),
        L[rows, lo:hi] = (C[rows, lo:hi] - L[rows, :lo] L[lo:hi, :lo]^T) inv(L[lo:hi, lo:hi])^T
    for the rows below hi of each strip in turn, one product per strip; a
    matrix of at most CHOL_BLOCK atoms is one cholesky call. Multiplying by
    the explicit inverse of a well-conditioned diagonal block is backward
    stable (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, ch. 10 and 13), and build_covariance checks every factor anyway.
    Each S is symmetric bit for bit, since numpy forms a product with its
    own transpose by one syrk, so cholesky gets its F-ordered view.

    A failed pivot returns None instead of raising: the exception's
    traceback would keep the factor alive through the caller's clip.
    """
    n = len(matrix)
    strips = _zero_strips(n, n)
    try:
        for lo in range(0, n, CHOL_BLOCK):
            hi = min(lo + CHOL_BLOCK, n)
            own, first = strips[lo // STRIP], lo // STRIP * STRIP
            left = own[lo - first:hi - first, :lo]
            diag = np.linalg.cholesky((matrix[lo:hi, lo:hi] - left @ left.T).T)
            own[lo - first:hi - first, lo:hi] = diag
            if hi == n:
                break
            inverse = np.linalg.inv(diag).T
            for k in range(hi // STRIP, len(strips)):
                top = max(hi, k * STRIP)
                rows = strips[k][top - k * STRIP:]
                below = rows[:, :lo] @ left.T
                np.subtract(matrix[top:top + len(rows), lo:hi], below, out=below)
                np.matmul(below, inverse, out=rows[:, lo:hi])
        return strips
    except np.linalg.LinAlgError:
        return None


def _factor_defect(strips: tuple[np.ndarray, ...], matrix: np.ndarray) -> float:
    """||L @ L.T - matrix||_F for the factor L whose row strips are strips,
    from the STRIP-square blocks of the lower triangle.

    The block at the rows of strip k and the rows of strip j <= k needs only
    the columns strip j holds, the first of strip k's. Both products are
    symmetric, so each block left of the diagonal counts twice and each
    diagonal block once. No n x n temporary is formed.
    """
    total = 0.0
    for lo, strip in zip(range(0, len(matrix), STRIP), strips):
        for jlo, other in zip(range(0, lo + 1, STRIP), strips):
            block = strip[:, :other.shape[1]] @ other.T
            block -= matrix[lo:lo + len(strip), jlo:jlo + len(other)]
            total += (1.0 if jlo == lo else 2.0) * np.vdot(block, block)
    return math.sqrt(total)


@dataclass(frozen=True)
class CovarianceModel:
    """Repaired covariance matrix over a measure's atoms, ready for sampling.

    matrix is the regularized kernel matrix, eigen-clipped to PSD only when
    Cholesky fails on it. strips holds a lower trapezoidal n x r square root
    L of it in row strips of field.STRIP atoms: strip k is L's rows
    [k * STRIP, min((k + 1) * STRIP, n)) over its columns [0, min((k + 1) *
    STRIP, r)), exactly 0.0 above the diagonal, and the strips are
    C-ordered, read-only views into one packed buffer, so L's zero upper
    triangle beyond them is never stored. On the Cholesky path r = n and L
    is _cholesky's; otherwise r is the number of eigenvalues above the
    clip's cut (_clip_cut), from the range finder's Ritz values or from
    eigh, and L comes from a QR. diag_variance is the per-atom variance the
    factor actually realizes: its row sums of squares, strip by strip.
    """

    measure: AtomicMeasure
    epsilon: float
    matrix: np.ndarray
    strips: tuple[np.ndarray, ...]
    diag_variance: np.ndarray
    clip_magnitude: float
    known_eig_range: tuple[float, float] | None = None

    @property
    def n(self) -> int:
        return self.measure.n

    @property
    def factor_rank(self) -> int:
        """r, the factor's column count: normals drawn per replica."""
        return self.strips[-1].shape[1]

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
    """Assemble the regularized kernel matrix and factor it: Cholesky first
    (_cholesky, so a matrix indefinite within its first block column fails
    after one CHOL_BLOCK-square call); only when it fails, one eigen-clip
    (the range finder's, else a full eigh's) and a QR of its root. epsilon
    None means half the least pair distance (for one atom, half its distance
    to the circle), which the matrix fill finds on its own. Every factor must
    reproduce the matrix within FACTOR_RTOL, or NumericalError is raised."""
    _check_atom_count(measure)
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not np.all(green.inside(measure.positions)):
        raise DomainError("atom outside the kernel domain")
    matrix, epsilon = green.entry_matrix(measure.positions, epsilon)
    strips = _cholesky(matrix)
    clip_magnitude, eig_range = 0.0, None
    if strips is None:
        # root @ root.T == repaired, so the r x n root.T = Q R gives the
        # n x r lower trapezoidal factor L = R.T
        try:
            clipped = _range_clip(matrix)
            if clipped is None:
                clipped = _clipped_root(*np.linalg.eigh(matrix.T))
        except DomainError as error:
            raise DomainError(f"at epsilon = {epsilon:.6g}, {error}, so the field "
                              f"would be 0 at every atom") from None
        root, clip_magnitude, eig_min, eig_max = clipped
        matrix, eig_range = root @ root.T, (eig_min, eig_max)
        factor = np.linalg.qr(root.T, mode="r").T
        factor *= np.where(np.diag(factor) < 0.0, -1.0, 1.0)
        strips = _strips_of(factor)
    diag_variance = np.concatenate([np.einsum("ij,ij->i", strip, strip) for strip in strips])
    for array in (matrix, diag_variance, *strips):
        array.setflags(write=False)
    model = CovarianceModel(measure, float(epsilon), matrix, strips, diag_variance,
                            clip_magnitude, eig_range)
    scale = float(np.linalg.norm(matrix))
    defect = _factor_defect(strips, matrix)
    if defect > FACTOR_RTOL * scale:
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


def psd_threshold(max_eig: float) -> float:
    """The least eigenvalue a difference kernel may have and pass as PSD:
    -PSD_TOL * max_eig, and 0 when no eigenvalue is positive."""
    return -PSD_TOL * max(max_eig, 0.0)


def markov_difference_psd(measure: AtomicMeasure, r: float):
    """Difference kernel (unit disk minus subdisk of radius r) on the atoms.

    The off-diagonal log-distance parts cancel, so entries close over the
    diagonal: D = log|1 - x*conj(y)| - log|r**2 - x*conj(y)| + log r, with
    diagonal log(1 - |p|**2) - log((r**2 - |p|**2)/r). Returns
    (matrix, min_eig, max_eig, psd) with psd true when min_eig >=
    psd_threshold(max_eig).
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
    return diff, min_eig, max_eig, min_eig >= psd_threshold(max_eig)
