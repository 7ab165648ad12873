"""Finite atomic base measures on the open unit disk.

Atoms are complex positions with nonnegative weights. Everything downstream
(covariance models, chaos masses, energy functionals) consumes these tables,
so construction validates the geometry once and freezes the arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EmptyMeasureError,
    ResourceLimitError,
    SplitInfeasibleError,
    ValidationError,
)

MAX_CANTOR_LEVEL = 8
# 65 536 atoms, as many as the level-8 Cantor dust
MAX_GRID_SIDE = 256
MAX_JULIA_PIXELS = 2048
ESCAPE_RADIUS = 2.0
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Attempt cap for the split direction search; generic angles separate all atom
# pairs, so this is never reached for valid inputs.
MAX_SPLIT_ANGLES = 4096
# distance rows per block of d_energy's sum; the blocks set its summation
# order, so changing this moves its last bits
ENERGY_ROWS = 1024


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure with atoms strictly inside the unit disk.

    Parameters
    ----------
    positions : finite complex array, pairwise distinct, every |p| < 1
    weights : finite nonnegative array, same length, positive finite total
    """

    positions: np.ndarray
    weights: np.ndarray
    support_radius: float = field(init=False)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.complex128)
        weights = np.asarray(self.weights, dtype=np.float64)
        if positions.ndim != 1 or weights.shape != positions.shape:
            raise ValidationError("positions and weights must be 1-d arrays of equal length")
        if positions.size == 0:
            raise EmptyMeasureError("measure has no atoms")
        if np.unique(positions).size != positions.size:
            raise ValidationError("atom positions must be pairwise distinct")
        if np.any(weights < 0):
            raise ValidationError("every weight must be >= 0")
        # a NaN or inf weight makes the total NaN or inf, a NaN or inf
        # coordinate makes the radius NaN or inf, and NaN fails both tests
        total = float(weights.sum())
        if not 0 < total < math.inf:
            raise ValidationError("total mass must be finite and > 0")
        radius = float(np.abs(positions).max())
        if not radius < 1.0:
            raise ValidationError("every atom must be finite with |p| < 1")
        positions.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "support_radius", radius)

    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def min_pair_distance(self) -> float:
        """Smallest distance between two distinct atoms; inf for a single atom."""
        # a min does not depend on the block shape; small blocks stay in cache,
        # and each pair is seen once, in the lower triangle
        n, rows = self.n, 256
        return min(float(_lower_distance_rows(self.positions, lo, min(lo + rows, n)).min())
                   for lo in range(0, n, rows))


def _lower_distance_rows(positions: np.ndarray, lo: int, hi: int, stop: int | None = None,
                         out=None) -> np.ndarray:
    """dist[i - lo, j] = |p_i - p_j| for rows i in [lo, hi) and columns j < stop,
    hi by default, inf at j = i."""
    stop = hi if stop is None else stop
    dist = np.abs(positions[lo:hi, None] - positions[:stop], out=out)
    np.fill_diagonal(dist[:, lo:], math.inf)
    return dist


def _energy_sum(weights: np.ndarray, rows, d: float) -> float:
    """sum_{i != j} w_i w_j / dist_ij**d from rows(lo, hi), the distance rows
    [lo, hi) over all columns with an infinite diagonal, ENERGY_ROWS rows at
    a time; that block size sets the order of the sum, and so its bits. A
    power past double range makes the sum inf or nan, with no warning: the
    callers decide what a sum that is not finite means."""
    n = weights.size
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(float(weights[lo:lo + ENERGY_ROWS]
                         @ (rows(lo, min(lo + ENERGY_ROWS, n)) ** -d @ weights))
                   for lo in range(0, n, ENERGY_ROWS))


def _distance_energy(weights: np.ndarray, dist: np.ndarray, d: float) -> float:
    """d_energy from the whole pair-distance matrix (kernel.pair_distances),
    bit for bit."""
    return _energy_sum(weights, lambda lo, hi: dist[lo:hi], d)


@dataclass(frozen=True)
class SplitResult:
    """A half-plane cut with a positive safety margin.

    angle rotates the plane so the cut lines are horizontal; the two closed
    half planes at vertical distance >= margin from the offset line each carry
    strictly more than a quarter of the total mass.
    """

    angle: float
    offset: float
    margin: float
    upper_mass: float
    lower_mass: float


def _square_grid_coords(n_per_side: int) -> np.ndarray:
    if n_per_side == 1:
        return np.zeros(1)
    return (2.0 * np.arange(n_per_side) - (n_per_side - 1)) / (n_per_side - 1)


def generate_uniform_grid(n_per_side: int, radius: float) -> AtomicMeasure:
    """Equal-weight atoms on a regular grid over the square of half-width
    radius/sqrt(2), clipped to the closed disk of that radius; total mass 1."""
    if n_per_side < 1:
        raise DomainError("n_per_side must be >= 1")
    if n_per_side > MAX_GRID_SIDE:
        raise ResourceLimitError(f"n_per_side must be <= {MAX_GRID_SIDE}")
    _check_radius(radius)
    half = radius / math.sqrt(2.0)
    u = _square_grid_coords(n_per_side)
    pts = (half * u[None, :] + 1j * half * u[:, None]).ravel()
    # keep the exact corners despite last-ulp rounding of |p|
    pts = pts[np.abs(pts) <= radius * (1.0 + 1e-12)]
    weights = np.full(pts.size, 1.0 / pts.size)
    return AtomicMeasure(pts, weights)


def _cantor_centers(level: int) -> np.ndarray:
    # middle-half iteration on [0, 1]: keep the outer quarters
    lefts = np.zeros(1)
    length = 1.0
    for _ in range(level):
        length /= 4.0
        lefts = np.concatenate([lefts, lefts + 3.0 * length])
    return np.sort(lefts + length / 2.0)


def generate_cantor_dust(level: int, radius: float) -> AtomicMeasure:
    """4**level equal-weight atoms on the two-dimensional middle-half Cantor
    iterate, scaled into the disk of the given radius; total mass 1."""
    if level < 1:
        raise DomainError("level must be >= 1")
    if level > MAX_CANTOR_LEVEL:
        raise ResourceLimitError(f"level must be <= {MAX_CANTOR_LEVEL}")
    _check_radius(radius)
    c = _cantor_centers(level) - 0.5
    scale = radius * math.sqrt(2.0)
    pts = (scale * c[None, :] + 1j * scale * c[:, None]).ravel()
    weights = np.full(pts.size, 1.0 / pts.size)
    return AtomicMeasure(pts, weights)


def generate_julia_boundary(c: complex, pixels: int, max_iter: int = 100,
                            radius: float = 0.9) -> AtomicMeasure:
    """Equal-weight atoms at the pixel centers that hug the escape-time
    boundary of the filled set of z -> z**2 + c, rescaled to the given radius.

    A pixel is kept when it never escapes within max_iter iterations but one of
    its 4-neighbours does (the window edge counts as escaped). The kept centers
    are scaled by radius/max|p|, so the selected set touches the requested
    radius exactly.
    """
    if pixels < 2:
        raise DomainError("pixels must be >= 2")
    if pixels > MAX_JULIA_PIXELS:
        raise ResourceLimitError(f"pixels must be <= {MAX_JULIA_PIXELS}")
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    _check_radius(radius)
    window = max(ESCAPE_RADIUS, abs(c))
    axis = (np.arange(pixels) + 0.5) * (2.0 * window / pixels) - window
    z0 = axis[None, :] + 1j * axis[:, None]
    z = z0.copy()
    alive = np.ones(z.shape, dtype=bool)
    for _ in range(max_iter):
        z[alive] = z[alive] ** 2 + c
        alive &= np.abs(z) <= ESCAPE_RADIUS
        if not alive.any():
            break
    escaped = np.pad(~alive, 1, constant_values=True)
    neighbour_escaped = (escaped[:-2, 1:-1] | escaped[2:, 1:-1]
                         | escaped[1:-1, :-2] | escaped[1:-1, 2:])
    boundary = alive & neighbour_escaped
    if not boundary.any():
        raise EmptyMeasureError("escape-time classification produced no boundary pixels")
    pts = z0[boundary].ravel()
    pts = pts * (radius / np.abs(pts).max())
    weights = np.full(pts.size, 1.0 / pts.size)
    return AtomicMeasure(pts, weights)


def save_measure(measure: AtomicMeasure, path) -> None:
    """Write atoms as CSV rows x,y,weight with exact round-trip precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "weight"])
        for p, w in zip(measure.positions, measure.weights):
            writer.writerow([f"{p.real:.17g}", f"{p.imag:.17g}", f"{w:.17g}"])


def load_measure(path) -> AtomicMeasure:
    """Read a measure written by save_measure, validating every atom."""
    xs, ys, ws = [], [], []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read measure file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["x", "y", "weight"]:
            raise ValidationError("expected header row 'x,y,weight'")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(f"expected 3 columns, got {len(row)}: {row!r}")
            try:
                x, y, w = (float(cell) for cell in row)
            except ValueError as exc:
                raise ValidationError(f"non-numeric cell in row {row!r}") from exc
            xs.append(x)
            ys.append(y)
            ws.append(w)
    positions = np.asarray(xs, dtype=float) + 1j * np.asarray(ys, dtype=float)
    return AtomicMeasure(positions, np.asarray(ws, dtype=float))


def d_energy(measure: AtomicMeasure, d: float) -> float:
    """Off-diagonal interaction energy sum_{i != j} w_i w_j / |p_i - p_j|**d;
    an energy past double range is a DomainError."""
    if d <= 0:
        raise DomainError("d must be > 0")
    positions, n = measure.positions, measure.n
    energy = _energy_sum(measure.weights,
                         lambda lo, hi: _lower_distance_rows(positions, lo, hi, n), d)
    if not math.isfinite(energy):
        raise DomainError(f"the d-energy at d = {d:g} overflows double precision")
    return energy


def _check_radius(radius: float) -> None:
    if not 0.0 < radius < 1.0:
        raise DomainError("radius must lie in (0, 1)")


def _directional_split(positions: np.ndarray, weights: np.ndarray, angle: float):
    """Try one cut direction; return a SplitResult or None if this angle fails."""
    total = float(weights.sum())
    proj = np.imag(positions * np.exp(1j * angle))
    values, inverse = np.unique(proj, return_inverse=True)
    line_mass = np.bincount(inverse, weights=weights)
    if values.size < 2 or line_mass.max() > total / 4.0:
        return None
    prefix = np.cumsum(line_mass)
    # k + 1 < values.size: a last line past total / 2 would be past the cap total / 4
    k = int(np.searchsorted(prefix, total / 2.0, side="left"))
    offset = 0.5 * (values[k] + values[k + 1])
    # largest closed-strip half-width still holding at most a quarter of the
    # mass; the returned margin is half of the first width that exceeds it
    gaps = np.abs(proj - offset)
    order = np.argsort(gaps, kind="stable")
    dist = gaps[order]
    cum = np.cumsum(weights[order])
    # cum[-1] is about total, past total / 4, so first_over < dist.size
    first_over = int(np.searchsorted(cum, total / 4.0, side="right"))
    margin = dist[first_over] / 2.0
    upper = float(weights[proj >= offset + margin].sum())
    lower = float(weights[proj <= offset - margin].sum())
    if margin > 0 and 4.0 * upper > total and 4.0 * lower > total:
        return SplitResult(angle, float(offset), float(margin), upper, lower)
    return None


def split_half_plane(measure: AtomicMeasure) -> SplitResult:
    """Find a rotation, an offset and a margin so both half planes at distance
    >= margin from the cut line carry strictly more than a quarter of the mass.

    Candidate angles start at 0 and advance by the golden angle until a
    direction works; a direction is rejected when some exact projection value
    (a whole line of atoms) carries more than a quarter of the total mass.
    """
    if measure.n < 2:
        raise SplitInfeasibleError("need at least 2 atoms to split")
    total = measure.total_mass
    if measure.weights.max() > total / 4.0:
        raise SplitInfeasibleError(
            "an atom carries more than a quarter of the total mass")
    for k in range(MAX_SPLIT_ANGLES):
        angle = math.fmod(k * GOLDEN_ANGLE, 2.0 * math.pi)
        result = _directional_split(measure.positions, measure.weights, angle)
        if result is not None:
            return result
    raise SplitInfeasibleError("no admissible cut direction found")
