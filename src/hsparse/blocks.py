"""Block-partitioned vectors and dictionaries.

The coordinate space is split into contiguous blocks (one per subspace) and
sparsity is counted in occupied blocks rather than nonzero entries.  This
module holds the partition bookkeeping plus the linear-algebra primitives
everything else builds on: block norms, per-block and cross-block singular
values, concentration sets, and least squares on a block support.

The coherence maxima read ``largest_cross_norm``: it screens every cross-Gram
tile by its Frobenius norm, an upper bound on its spectral norm, and runs the
SVD only on the tiles whose bound can still reach the maximum.

Objects keep their arrays read-only and all functions are pure, so objects
can be shared freely between threads or worker processes.  The factors a
dictionary keeps for the coherence and solver routines (``cross_gram``,
``pinv`` and the support factors of ``screening_bases``) are filled lazily,
on first read, and hold no reference back to the dictionary, so they are
freed with it.  Their values are deterministic, so two threads racing to
fill one at worst compute it twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import NamedTuple

import numpy as np

# Absolute cutoff deciding whether a block counts as occupied.
ZERO_BLOCK_TOL = 1e-10
# Relative singular-value cutoff for pseudo-inverses, injectivity checks and
# the kernel basis of uncertainty.kernel_sample.
RANK_TOL = 1e-12
# Most block subsets per batch of support_stacks.  256-row width groups
# raised the peak RSS of certify and p0 runs by 0.5-2 MB, in their tiles and
# screening products; 128 rows keep a certify run's peak where the old
# per-chunk width split had it.
_SUBSET_CHUNK = 128
# Subsets support_stacks unranks per numpy pass, so no array holds a whole
# level and peak memory stays flat at any level.  A whole number of batches,
# so they stay those of one-batch passes.  The tracemalloc peak of a
# C(20, 10) level of blocks (1, 2) * 10 is 472 KB at 512 and 823 KB at 1024;
# 2048 breaks the 1 MB bound of the streaming test.
_UNRANK_RUN = 4 * _SUBSET_CHUNK
# Relative slack on a tile's Frobenius bound before it may drop a tile: it
# covers the rounding of the Frobenius sum and of the SVD's sigma_max, each
# about 1e-15 relative.
_BOUND_MARGIN = 1e-8
# Absolute slack on the same bound per unit of tile width: w^2 squares of unit
# Gram entries that round to subnormals, 2^-1075 each, move the root w 2^-537.5.
_BOUND_FLOOR = 2.0 ** -536
# Pairs of largest bound that largest_cross_norm evaluates before pruning: on
# random 64 x 256 dictionaries of 4-column blocks one pair alone leaves up to
# 19% of the tiles standing, the best of 16 below 9%.
_FIRST_TILES = 16
# Bytes of p0 screening bases one dictionary keeps.  A cardinality whose
# bases would take the total past it is screened from bases computed afresh
# batch by batch, so memory stays bounded.
FACTOR_CACHE_BYTES = 32 * 2**20
# Bytes of one kept support's lookup entry beyond 8 per block: its key and
# value tuples and its dict slot.
_FIT_ENTRY_BYTES = 160


class NumericalAnomaly(RuntimeError):
    """A value that is impossible under exact arithmetic was observed."""


@dataclass(frozen=True)
class BlockStructure:
    """Partition of coordinates 0..N-1 into contiguous blocks of given sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(index(d) for d in self.sizes)
        if len(sizes) == 0:
            raise ValueError("a block structure needs at least one block")
        if any(d < 1 for d in sizes):
            raise ValueError("block sizes must be positive integers")
        offsets, acc = [], 0
        for d in sizes:
            offsets.append(acc)
            acc += d
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_dim", acc)

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def offsets(self) -> tuple[int, ...]:
        return self._offsets

    def check_index(self, i: int) -> int:
        i = index(i)
        if not 0 <= i < self.n_blocks:
            raise ValueError(f"block index {i} out of range [0, {self.n_blocks})")
        return i

    def block_slice(self, i: int) -> slice:
        i = self.check_index(i)
        start = self._offsets[i]
        return slice(start, start + self.sizes[i])

    def column_indices(self, blocks) -> np.ndarray:
        """Flat coordinate indices covered by the given blocks, in block order."""
        if self._dim == self.n_blocks:
            return np.array([self.check_index(i) for i in blocks], dtype=int)
        parts = [np.arange(self._offsets[self.check_index(i)],
                           self._offsets[i] + self.sizes[i]) for i in blocks]
        return np.concatenate(parts) if parts else np.empty(0, dtype=int)

    def padded_columns(self) -> np.ndarray:
        """Column indices of each block as rows of width max(sizes), padded with -1."""
        width = max(self.sizes)
        cols = np.add.outer(self._offsets, np.arange(width))
        cols[np.arange(width) >= np.array(self.sizes)[:, None]] = -1
        return cols

    def norms(self, x) -> np.ndarray:
        """l2 norm of each block of x along its first axis, one row per block.

        Each block is taken in the power of two of its largest magnitude, by
        an exact ldexp before the squares and after the root, so no square
        overflows or underflows for finite x.  The bits are those of
        ``sqrt(add.reduceat(abs(x)**2, offsets))`` wherever that expression
        neither overflows nor underflows, and, column for column, those of a
        1-D x.  Single-coordinate blocks give abs(x), the same bits."""
        mags = np.abs(x)
        if self._dim == self.n_blocks:
            return mags
        power = np.frexp(np.maximum.reduceat(mags, self._offsets, axis=0))[1]
        np.ldexp(mags, -self.spread(power), out=mags)
        return np.ldexp(np.sqrt(self.block_sums(np.square(mags, out=mags))), power)

    def spread(self, values) -> np.ndarray:
        """``repeat(values, sizes, axis=0)``, or values itself if every block is one coordinate."""
        if self._dim == self.n_blocks:
            return values
        return np.repeat(values, self.sizes, axis=0)

    def block_sums(self, x, axis: int = 0) -> np.ndarray:
        """Sum of each block of x along axis, ``add.reduceat(x, offsets, axis)``;
        x itself, without reduceat's per-segment calls, when every block is a
        single coordinate."""
        if self._dim == self.n_blocks:
            return x
        return np.add.reduceat(x, self._offsets, axis=axis)


def uniform_structure(n: int, d: int = 1) -> BlockStructure:
    """n blocks of equal size d."""
    return BlockStructure((d,) * n)


class BlockVector:
    """Complex vector carrying a block partition of its coordinates."""

    def __init__(self, entries, structure: BlockStructure):
        arr = np.array(entries, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size != structure.dim:
            raise ValueError(
                f"vector length {arr.size} does not match partition of {structure.dim}")
        if not np.isfinite(arr).all():
            raise ValueError("block vector has non-finite entries")
        arr.flags.writeable = False
        self.entries = arr
        self.structure = structure

    @classmethod
    def zeros(cls, structure: BlockStructure) -> "BlockVector":
        return cls(np.zeros(structure.dim, dtype=np.complex128), structure)

    def block(self, i: int) -> np.ndarray:
        """Projection onto block i (read-only view)."""
        return self.entries[self.structure.block_slice(i)]

    def block_norms(self) -> np.ndarray:
        return self.structure.norms(self.entries)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __len__(self) -> int:
        return self.entries.size

    def __repr__(self) -> str:
        return f"BlockVector(dim={len(self)}, blocks={self.structure.n_blocks})"


class BlockDictionary:
    """Complex M x N matrix whose columns are partitioned into blocks.

    Each column block must be injective: its smallest singular value has to be
    bounded away from zero relative to its largest.  Rank-deficient blocks are
    rejected at construction.  ``unit`` is the matrix times 2^-exponent, its
    largest entry component in [1/2, 1), exactly (ldexp on the C-ordered float
    view).  The coherence, spark, kernel audit and solvers read unit,
    ``unit_sigma`` (each block's extreme singular values, one batched SVD per
    block size) and ``unit_measurements``, so they are scale-free.  The
    factors that every solve on the dictionary can reuse are computed on
    first use and kept for its lifetime; each is the expression a solver
    would otherwise evaluate per call, so results are bit-identical whether
    it is kept or not.
    """

    def __init__(self, matrix, structure: BlockStructure):
        mat = np.array(matrix, dtype=np.complex128, copy=True, order="C")
        if mat.ndim != 2:
            raise ValueError("dictionary matrix must be two-dimensional")
        if mat.shape[1] != structure.dim:
            raise ValueError(
                f"matrix has {mat.shape[1]} columns but partition covers {structure.dim}")
        if mat.shape[0] < max(structure.sizes):
            raise ValueError("need at least as many rows as the widest block")
        if not np.isfinite(mat).all():
            raise ValueError("dictionary matrix has non-finite entries")
        exponent = int(np.frexp(np.abs(mat.view(np.float64)).max())[1])
        unit = np.ldexp(mat.view(np.float64), -exponent).view(np.complex128)
        # Smallest and largest singular value of each block of unit, from one
        # batched SVD per distinct block size.
        sizes = np.array(structure.sizes)
        padded = structure.padded_columns()
        sigma = np.empty((structure.n_blocks, 2))
        for d in np.unique(sizes):
            members = np.flatnonzero(sizes == d)
            blocks = np.moveaxis(unit[:, padded[members, :d]], 1, 0)
            sigma[members] = np.linalg.svd(blocks, compute_uv=False)[:, [-1, 0]]
        not_injective = (sigma[:, 1] <= 0.0) | (sigma[:, 0] <= RANK_TOL * sigma[:, 1])
        if not_injective.any():
            raise ValueError(f"column block {int(np.argmax(not_injective))} is not injective")
        for array in (mat, unit, sigma):
            array.flags.writeable = False
        self.matrix, self.unit, self.exponent, self.structure = mat, unit, exponent, structure
        self.unit_sigma = sigma
        # Kept screening bases per cardinality, and per kept support its
        # (batch of bases, row in the batch); see screening_bases.
        self._bases: dict[int, list] = {}
        self._fits: dict[tuple[int, ...], tuple[tuple, int]] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_blocks(self) -> int:
        return self.structure.n_blocks

    def block(self, i: int) -> np.ndarray:
        """Column block i (read-only view)."""
        return self.matrix[:, self.structure.block_slice(i)]

    @cached_property
    def cross_gram(self) -> "CrossGram":
        """cross_gram(self), built on first read; its arrays are read-only, since it is shared."""
        return cross_gram(self)

    @cached_property
    def pinv(self) -> np.ndarray:
        """bp's pseudo-inverse of unit by ``_screening_basis``, built on first read; read-only."""
        pinv = _screening_basis(self.unit[None])[0][0]
        pinv.flags.writeable = False
        return pinv

    def screening_bases(self, k: int):
        """(supports, pinv, cond, basis) per batch of ``support_stacks(self, k)``.

        supports is the (B, k) batch of block indices, and the rest is what
        ``_screening_basis`` factors from its (B, M, w) column stacks S of unit:
        their pseudo-inverses P (numpy's ``pinv`` with the RANK_TOL cutoff),
        so ||y - S P y|| is the residual of ``block_least_squares`` on a
        support; cond, the largest over the smallest singular value above
        that cutoff; and basis, the rows U^H of each stack's orthonormal
        range basis U in one (B r, M) matrix (r = min(M, w); zero rows below
        the cutoff), from which p0's screen reads ||y||^2 - ||U^H y||^2.
        The stacks are not kept: a refit gathers its own.  A cardinality's
        bases are kept while the dictionary's total stays within
        FACTOR_CACHE_BYTES; past it they are streamed afresh per call.
        """
        if k in self._bases:
            return self._bases[k]
        bases = ((supports, *_screening_basis(column_stacks(self.unit, cols)))
                 for supports, cols in support_stacks(self, k))
        # list() copies the keys in one step, so a thread keeping another
        # cardinality meanwhile cannot break the iteration.
        kept = sum(_bases_bytes(self, j) for j in list(self._bases))
        if kept + _bases_bytes(self, k) > FACTOR_CACHE_BYTES:
            return bases
        bases = list(bases)
        for chunk in bases:
            for row, support in enumerate(chunk[0].tolist()):
                self._fits[tuple(support)] = chunk, row
        self._bases[k] = bases
        return bases

    def factors(self, supports) -> list[np.ndarray]:
        """The pseudo-inverse of each sorted, valid support's stack of unit;
        ``block_least_squares`` fits every support with it, and omp reads a
        step's supports in one call.

        A support whose cardinality ``screening_bases`` keeps reads its kept
        pseudo-inverse.  The others are factored here, those of one stack
        width together in one batched ``_screening_basis``, bit for bit as
        one alone; they are not kept.
        """
        factors: list = [None] * len(supports)
        misses: dict[int, list[int]] = {}
        for i, support in enumerate(supports):
            hit = self._fits.get(support)
            if hit is None:
                width = sum(self.structure.sizes[b] for b in support)
                misses.setdefault(width, []).append(i)
            else:
                (_, pinv, _, _), row = hit
                factors[i] = pinv[row]
        for at in misses.values():
            cols = np.array([self.structure.column_indices(supports[i]) for i in at])
            pinv = _screening_basis(column_stacks(self.unit, cols))[0]
            for row, i in enumerate(at):
                factors[i] = pinv[row]
        return factors

    def unit_measurements(self, ys) -> np.ndarray:
        """Row j is ys[j], one finite entry per row, times 2^-exponent,
        exactly (ldexp on the float view), as the solvers read it.
        ValueError when 2 M d ||y 2^-exponent||^2 leaves the float range (d
        the widest block), which bounds the squares a solver forms in
        measurement space and keeps every entry of y 2^-exponent finite."""
        rows = self.shape[0]
        scaled = np.empty((len(ys), rows), dtype=np.complex128)
        for j, y in enumerate(ys):
            yv = np.asarray(y, dtype=np.complex128).reshape(-1)
            if yv.size != rows:
                raise ValueError(f"measurement length {yv.size} does not match {rows} rows")
            scaled[j] = yv
            # Python's hypot neither overflows nor warns, and is inf or NaN
            # when an entry is; a norm past 2^1023 fails the test all the same.
            m, p = math.frexp(math.hypot(*scaled[j].view(np.float64).tolist()))
            unit = math.ldexp(m, min(p - self.exponent, 1023))
            if not 2 * rows * max(self.structure.sizes) * unit * unit < math.inf:
                if not np.isfinite(yv).all():
                    raise ValueError("measurement has non-finite entries")
                raise ValueError("measurement too large for the dictionary: "
                                 "2 M d ||y 2^-exponent||^2 leaves the float range")
        floats = scaled.view(np.float64)
        np.ldexp(floats, -self.exponent, out=floats)
        return scaled

    def __repr__(self) -> str:
        m, n = self.shape
        return f"BlockDictionary({m}x{n}, blocks={self.n_blocks})"


@dataclass(frozen=True)
class ConcentrationCertificate:
    """How much of a signal's mixed norm a set of blocks captures.

    ``epsilon`` is 1 - h1_on_set / h1_total: the fraction of the mixed norm
    living outside ``blocks``.
    """

    blocks: tuple[int, ...]
    epsilon: float
    h1_total: float
    h1_on_set: float


def h0_norm(v: BlockVector, tol: float = ZERO_BLOCK_TOL) -> int:
    """Number of blocks whose l2 norm exceeds tol."""
    if not 0 <= tol < math.inf:   # also rejects NaN
        raise ValueError("tolerance must be nonnegative and finite")
    return int(np.count_nonzero(v.block_norms() > tol))


def vector_norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous 1-D complex vector without its
    dispatch: numpy's expression sqrt(re.re + im.im), so the same bits."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def h1_norm(v: BlockVector) -> float:
    """Sum of per-block l2 norms (the mixed-norm objective)."""
    return float(v.block_norms().sum())


def cross_block_norm(D: BlockDictionary, i: int, j: int) -> float:
    """Spectral norm of the cross-Gram of column blocks i and j."""
    gram = D.block(i).conj().T @ D.block(j)
    return float(np.linalg.svd(gram, compute_uv=False)[0])


class CrossGram(NamedTuple):
    """The Gram D1.unit^H D2.unit, each n1 x n2 tile's Frobenius norm (an upper
    bound on its spectral norm), each side's ``padded_columns``, and whether it is D1's own."""

    gram: np.ndarray
    bounds: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    same: bool

    def norms(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Spectral norms of the tiles at index arrays i (row block) and j, each
        distinct tile evaluated once, for one dictionary as i <= j (the Gram's
        lower triangle need not be the exact conjugate of its upper one).

        Zero-padding to the widest block keeps each tile's largest singular
        value, so one batched SVD serves any block structure.  Vector tiles
        take their l2 norm instead, scaled by the power of two of their
        largest entry, so no square of a tile far below the largest underflows."""
        a, b = (np.minimum(i, j), np.maximum(i, j)) if self.same else (i, j)
        distinct = np.zeros(self.bounds.shape, dtype=bool)
        distinct[a, b] = True
        ta, tb = np.nonzero(distinct)
        rows, cols = self.rows[ta], self.cols[tb]
        tiles = self.gram[rows[:, :, None], cols[:, None, :]]
        tiles[(rows < 0)[:, :, None] | (cols < 0)[:, None, :]] = 0.0
        norms = np.empty(self.bounds.shape)
        if 1 in tiles.shape[1:]:
            mags = np.abs(tiles)
            power = np.frexp(mags.max(axis=(1, 2)))[1]
            np.ldexp(mags, -power[:, None, None], out=mags)
            norms[ta, tb] = np.ldexp(np.sqrt(np.sum(mags * mags, axis=(1, 2))), power)
        else:
            norms[ta, tb] = np.linalg.svd(tiles, compute_uv=False)[:, 0]
        return norms[a, b]


def cross_gram(D1: BlockDictionary, D2: BlockDictionary | None = None) -> CrossGram:
    """The CrossGram of D1 and D2 (D2 None: of D1 with itself), its arrays read-only.

    The Gram is D1.unit^H D2.unit, every entry below 2 M in magnitude, so
    nothing overflows.  With single-column blocks on both sides the bounds
    are its magnitudes, the norm table itself; otherwise the roots of the
    tiles' sums of squared magnitudes.  The bounds of one dictionary are
    those of the tiles i <= j, mirrored.
    """
    same = D2 is None
    D2 = D1 if same else D2
    gram = D1.unit.conj().T @ D2.unit
    bounds = np.abs(gram)
    rows = D1.structure.padded_columns()
    cols = rows if same else D2.structure.padded_columns()
    if max(rows.shape[1], cols.shape[1]) > 1:
        bounds = np.sqrt(D2.structure.block_sums(
            D1.structure.block_sums(np.square(bounds, out=bounds)), axis=1))
    if same:
        lower = np.tril_indices(D1.n_blocks, -1)
        bounds[lower] = bounds.T[lower]
    for array in (gram, bounds, rows, cols):
        array.flags.writeable = False
    return CrossGram(gram, bounds, rows, cols, same)


def largest_cross_norm(D1: BlockDictionary, D2: BlockDictionary | None = None,
                       divisor=1.0, pairs: np.ndarray | None = None) -> float:
    """max of the tile norms of ``cross_gram(D1, D2)`` / divisor, both in unit's
    units, over the pairs a boolean n1 x n2 mask selects (every pair when
    None), bit for bit, without the whole table.

    Each tile's Frobenius norm, from ``cross_gram`` (cached on D1 when D2 is
    None), bounds its spectral norm from above.  When every block is one
    column, the bound is the table itself.  Otherwise the _FIRST_TILES pairs
    of largest scaled bound (and any tied with the last of them) are
    evaluated exactly, and then only the other pairs whose bound, widened by
    the rounding slack, still reaches the best of them: the maximum is among
    these.  Exact values come from ``CrossGram.norms``, so they carry the
    bits of the table's.
    """
    grams = D1.cross_gram if D2 is None else cross_gram(D1, D2)
    bounds = grams.bounds
    mask = np.ones(bounds.shape, dtype=bool) if pairs is None else pairs
    width = max(grams.rows.shape[1], grams.cols.shape[1])
    if width == 1:
        return float((bounds / divisor)[mask].max())
    floor = width * _BOUND_FLOOR
    upper = np.where(mask, (bounds * (1 + _BOUND_MARGIN) + floor) / divisor, -np.inf).ravel()
    divisor = np.broadcast_to(divisor, bounds.shape)

    def exact(flat):
        i, j = np.divmod(flat, bounds.shape[1])
        return grams.norms(i, j) / divisor[i, j]

    k = min(_FIRST_TILES, np.count_nonzero(mask))
    first = np.flatnonzero(upper >= np.sort(upper)[upper.size - k])   # ties included
    best = exact(first).max()
    upper[first] = -np.inf
    rest = np.flatnonzero(upper >= best)
    return float(np.max(exact(rest), initial=best) if rest.size else best)


def best_concentration_set(v: BlockVector, k: int) -> ConcentrationCertificate:
    """The k blocks capturing the largest share of the mixed norm.

    Picking the k largest block norms maximizes the captured share and hence
    minimizes epsilon; ties are broken toward the lowest block index.
    """
    n = v.structure.n_blocks
    if not 0 <= k <= n:
        raise ValueError(f"set size {k} out of range [0, {n}]")
    norms = v.block_norms()
    return _concentration(norms, sorted(np.argsort(-norms, kind="stable")[:k].tolist()))


def concentration_epsilon(v: BlockVector, blocks) -> float:
    """Epsilon of the given block set: the mixed-norm share it misses."""
    idx = sorted({v.structure.check_index(i) for i in blocks})
    return _concentration(v.block_norms(), idx).epsilon


def _concentration(norms: np.ndarray, blocks: list[int]) -> ConcentrationCertificate:
    """The certificate of a sorted block list; both sums run in block-index order."""
    total = float(norms.sum())
    if total <= 0.0:
        raise ValueError("zero signal has no concentration profile")
    on_set = float(norms[blocks].sum())
    return ConcentrationCertificate(tuple(blocks), min(1.0, max(0.0, 1.0 - on_set / total)),
                                    total, on_set)


def block_least_squares(D: BlockDictionary, support, y) -> tuple[BlockVector, float]:
    """Minimum-norm least squares fit of y on a set of column blocks.

    Returns the coefficient vector embedded in the full space (blocks outside
    the support are zero) together with the residual norm.  Singular values of
    the stacked blocks below RANK_TOL times the largest are treated as zero,
    so rank-deficient stacks get the minimum-norm minimizer.  The fit reads
    ``D.unit_measurements`` of y, range-checked as in the solvers, and the
    pseudo-inverse of the stack of unit from ``D.factors`` (kept by p0, or
    factored afresh); the residual norm goes back to D's units by one ldexp.
    """
    idx = tuple(sorted({D.structure.check_index(i) for i in support}))
    if not idx:
        raise ValueError("support must contain at least one block")
    yv = D.unit_measurements([y])[0]
    cols = D.structure.column_indices(idx)
    coef = D.factors([idx])[0] @ yv
    residual = vector_norm(yv - np.ascontiguousarray(D.unit[:, cols]) @ coef)
    residual = float(np.ldexp(residual, D.exponent))
    full = np.zeros(D.structure.dim, dtype=np.complex128)
    full[cols] = coef
    return BlockVector(full, D.structure), residual


def support_stacks(D: BlockDictionary, k: int):
    """Every k-subset of blocks with the columns of its stack, streamed in batches.

    Yields (supports, cols): a (B, k) int64 array of block indices and the
    (B, w) array of the column indices each subset stacks, all of width w;
    ``column_stacks`` gathers the (B, M, w) stacks of ``D.unit``, so a caller
    that can settle a subset from the indices alone never gathers it.
    With single-column blocks the two are the same array object (a block's
    index is its column's); no caller writes into either.
    Every batch of a width but its last has B = _SUBSET_CHUNK rows.  Nothing
    is yielded for k outside 1..n.

    The level is split by stack width once: the subsets of each width, by
    increasing width, in lexicographic order.  Each width is unranked
    directly from its ranks in that order (see _subset_tables), _UNRANK_RUN
    subsets per numpy pass, so no array holds more than one run of the
    level; a run's batches are row slices of its arrays.  A uniform
    structure has one width and the whole level in lexicographic order.
    """
    sizes = D.structure.sizes
    n = len(sizes)
    if not 1 <= k <= n:
        return
    counts, big, bounds, steps, block_at = _subset_tables(sizes, k)
    padded = D.structure.padded_columns()
    uniform = len(set(sizes)) == 1
    for width, total in enumerate(counts.tolist()):
        # Key of the first subset of this width; each later one is one less.
        top = width * big + total - 1
        for first in range(0, total, _UNRANK_RUN):
            keys = np.arange(top - first, top - min(first + _UNRANK_RUN, total), -1)
            picks = np.empty((k, keys.size), dtype=np.intp)
            for j in range(k):
                picks[j] = pick = bounds[j].searchsorted(keys, side="right")
                keys -= steps[j].take(pick)
            supports = block_at.take(picks.T)
            cols = supports if padded.shape[1] == 1 else padded[supports].reshape(keys.size, -1)
            if not uniform:
                cols = cols[cols >= 0].reshape(keys.size, width)
            for start in range(0, keys.size, _SUBSET_CHUNK):
                stop = start + _SUBSET_CHUNK
                yield supports[start:stop], cols[start:stop]


def _subset_tables(sizes: tuple[int, ...], k: int):
    """Tables that unrank the k-subsets of blocks of the given sizes, grouped
    by total width and lexicographic within a width, for support_stacks.

    This is the combinatorial number system, extended by width.  A subset
    with s blocks of total width v still to pick, from the blocks after the
    last one picked, is the key v * big + r, where r counts the completions
    that come after it (its co-rank) and big exceeds every count.  Its next
    block is the smallest c whose completions from the blocks after c,
    suffix[c + 1, s, v] of them, number at most r; picking c takes that
    count off r and the size of c off v.  The tables read c from the back,
    as b = n - 1 - c, so that the counts ascend: bounds[k - s] holds
    v * big + suffix[n - b, s, v] at position v * n + b, so one searchsorted
    (side right) over a batch of keys returns 1 + v * n + b for each, the
    position at which steps[k - s] holds what picking c takes off the key
    and block_at holds c.

    Returns (counts, big, bounds, steps, block_at), counts[v] the number of
    k-subsets of total width v.
    """
    n = len(sizes)
    widest = sum(sorted(sizes)[n - k:])
    if (widest + 1) * (math.comb(n, min(k, n // 2)) + 1) >= 2 ** 63:   # keys stay int64
        raise ValueError(f"{k}-subsets of {n} blocks are too many to count in int64")
    # suffix[c, s, v]: s-subsets of blocks c..n-1 of total width v.
    suffix = np.zeros((n + 1, k + 1, widest + 1), dtype=np.int64)
    suffix[n, 0, 0] = 1
    for c in range(n - 1, -1, -1):
        suffix[c] = suffix[c + 1]
        suffix[c, 1:, sizes[c]:] += suffix[c + 1, :-1, :widest + 1 - sizes[c]]
    big = int(suffix.max()) + 1
    # after[k - s, v, b] = suffix[n - b, s, v]: the completions of s blocks
    # from the b last blocks, ascending in b.
    after = suffix[n:0:-1, 1:].transpose(1, 2, 0)[::-1]
    bounds = (after + big * np.arange(widest + 1)[:, None]).reshape(k, -1)
    steps = np.zeros((k, bounds.shape[1] + 1), dtype=np.int64)
    steps[:, 1:] = (after + big * np.array(sizes[::-1])).reshape(k, -1)
    block_at = np.concatenate(([-1], np.tile(np.arange(n - 1, -1, -1), widest + 1)))
    return suffix[0, k], big, bounds, steps, block_at


def column_stacks(matrix: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (B, M, w) stacks of the matrix columns named by the rows of a (B, w) index array."""
    return np.moveaxis(matrix[:, cols], 1, 0)


def _screening_basis(stacks):
    """(pinv, cond, basis) of a (B, M, w) batch of stacks, taken on a
    contiguous copy (see screening_bases); the one routine that factors a
    pseudo-inverse, of every support and of bp's ``D.pinv``."""
    stacks = np.ascontiguousarray(stacks)
    # numpy's pinv(stacks, rcond=RANK_TOL) step by step, which keeps the
    # singular values that cond needs.  The SVD is of the conjugate, so
    # u^T = (conj u)^H holds the conjugated left singular vectors of stacks.
    u, s, vh = np.linalg.svd(stacks.conj(), full_matrices=False)
    kept = s > RANK_TOL * s[:, :1]
    inverse = np.divide(1, s, where=kept, out=np.zeros_like(s))
    ut = np.swapaxes(u, 1, 2)
    pinv = np.swapaxes(vh, 1, 2) @ (inverse[:, :, None] * ut)
    cond = s[:, 0] / np.where(kept, s, np.inf).min(axis=1)
    basis = np.array(ut, order="C")
    basis[~kept] = 0
    return pinv, cond, basis.reshape(-1, stacks.shape[1])


def _bases_bytes(D: BlockDictionary, k: int) -> int:
    """Upper bound on the bytes of the screening bases of all k-subsets:
    pseudo-inverse and basis rows, supports and cond, and the lookup entry."""
    rows = D.shape[0]
    widest = sum(sorted(D.structure.sizes)[-k:])
    return math.comb(D.n_blocks, k) * ((widest + min(rows, widest)) * rows * 16
                                       + 8 * (k + 1) + _FIT_ENTRY_BYTES + 8 * k)
