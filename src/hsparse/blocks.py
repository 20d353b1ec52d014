"""Block-partitioned vectors and dictionaries.

The coordinate space is split into contiguous blocks (one per subspace) and
sparsity is counted in occupied blocks rather than nonzero entries.  This
module holds the partition bookkeeping plus the linear-algebra primitives
everything else builds on: block norms, per-block and cross-block singular
values, concentration sets, and least squares on a block support.

Objects keep their arrays read-only and all functions are pure, so objects
can be shared freely between threads or worker processes.  The table
``BlockDictionary.cross_norms`` is filled lazily, on first read; its value is
deterministic, so two threads racing to fill it at worst compute it twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Absolute cutoff deciding whether a block counts as occupied.
ZERO_BLOCK_TOL = 1e-10
# Relative singular-value cutoff for pseudo-inverses and injectivity checks.
RANK_TOL = 1e-12
# Block subsets per batch of support_stacks: streaming them keeps peak memory flat.
_SUBSET_CHUNK = 256


class NumericalAnomaly(RuntimeError):
    """A value that is impossible under exact arithmetic was observed."""


@dataclass(frozen=True)
class BlockStructure:
    """Partition of coordinates 0..N-1 into contiguous blocks of given sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(d) for d in self.sizes)
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
        i = int(i)
        if not 0 <= i < self.n_blocks:
            raise ValueError(f"block index {i} out of range [0, {self.n_blocks})")
        return i

    def block_slice(self, i: int) -> slice:
        i = self.check_index(i)
        start = self._offsets[i]
        return slice(start, start + self.sizes[i])

    def column_indices(self, blocks) -> np.ndarray:
        """Flat coordinate indices covered by the given blocks, in block order."""
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
        """l2 norm of each block of x along its first axis, one row per block:
        ``sqrt(add.reduceat(abs(x)**2, offsets))``, without reduceat's
        per-segment calls when every block is a single coordinate."""
        sq = np.abs(x) ** 2
        if self._dim == self.n_blocks:
            return np.sqrt(sq)
        return np.sqrt(np.add.reduceat(sq, self._offsets))


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
    rejected at construction.  Per-block extreme singular values are stored
    since the coherence and recovery routines reuse them heavily; they come
    from one batched SVD per distinct block size.
    """

    def __init__(self, matrix, structure: BlockStructure):
        mat = np.array(matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2:
            raise ValueError("dictionary matrix must be two-dimensional")
        if mat.shape[1] != structure.dim:
            raise ValueError(
                f"matrix has {mat.shape[1]} columns but partition covers {structure.dim}")
        if mat.shape[0] < max(structure.sizes):
            raise ValueError("need at least as many rows as the widest block")
        if not np.isfinite(mat).all():
            raise ValueError("dictionary matrix has non-finite entries")
        # Smallest and largest singular value of each block, one row per block,
        # from one batched SVD per distinct block size.
        sizes = np.array(structure.sizes)
        padded = structure.padded_columns()
        sigma = np.empty((structure.n_blocks, 2))
        for d in np.unique(sizes):
            members = np.flatnonzero(sizes == d)
            blocks = np.moveaxis(mat[:, padded[members, :d]], 1, 0)
            sigma[members] = np.linalg.svd(blocks, compute_uv=False)[:, [-1, 0]]
        not_injective = (sigma[:, 1] <= 0.0) | (sigma[:, 0] <= RANK_TOL * sigma[:, 1])
        if not_injective.any():
            raise ValueError(f"column block {int(np.argmax(not_injective))} is not injective")
        mat.flags.writeable = sigma.flags.writeable = False
        self.matrix = mat
        self.structure = structure
        self._sigma = sigma

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_blocks(self) -> int:
        return self.structure.n_blocks

    def block(self, i: int) -> np.ndarray:
        """Column block i (read-only view)."""
        return self.matrix[:, self.structure.block_slice(i)]

    def block_sigma_min(self) -> np.ndarray:
        return self._sigma[:, 0]

    @cached_property
    def cross_norms(self) -> np.ndarray:
        """cross_norm_table(self), built on first read and read-only, since it is shared."""
        table = cross_norm_table(self)
        table.flags.writeable = False
        return table

    def measurement(self, y) -> np.ndarray:
        """y as a flat complex vector with one entry per row, all finite."""
        yv = np.asarray(y, dtype=np.complex128).reshape(-1)
        if yv.size != self.shape[0]:
            raise ValueError(f"measurement length {yv.size} does not match {self.shape[0]} rows")
        if not np.isfinite(yv).all():
            raise ValueError("measurement has non-finite entries")
        return yv

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
    if not tol >= 0:   # also rejects NaN
        raise ValueError("tolerance must be nonnegative")
    return int(np.count_nonzero(v.block_norms() > tol))


def h1_norm(v: BlockVector) -> float:
    """Sum of per-block l2 norms (the mixed-norm objective)."""
    return float(v.block_norms().sum())


def block_sigma(D: BlockDictionary, i: int) -> tuple[float, float]:
    """Smallest and largest singular value of column block i."""
    D.structure.check_index(i)
    return tuple(D._sigma[i].tolist())


def cross_block_norm(D: BlockDictionary, i: int, j: int) -> float:
    """Spectral norm of the cross-Gram of column blocks i and j."""
    gram = D.block(i).conj().T @ D.block(j)
    return float(np.linalg.svd(gram, compute_uv=False)[0])


def cross_norm_table(D1: BlockDictionary, D2: BlockDictionary | None = None) -> np.ndarray:
    """Spectral norms of all cross-Gram tiles D1_i^H D2_j as an n1 x n2 array.

    One Gram product covers every pair.  Blocks are zero-padded to the widest
    block (index -1 reads the appended zero row/column), which leaves each
    tile's largest singular value unchanged, so one batched SVD serves any
    block structure.  Tiles that are a single row or column are vectors and
    take their l2 norm instead, which is far cheaper than an SVD.  The table
    of one dictionary (D2 None) is symmetric, since ||A^H B|| = ||B^H A||:
    only the tiles i <= j are computed, and each value is mirrored.
    """
    same = D2 is None
    D2 = D1 if same else D2
    gram = np.pad(D1.matrix.conj().T @ D2.matrix, ((0, 1), (0, 1)))
    pairs = (np.triu_indices(D1.n_blocks) if same
             else tuple(np.indices((D1.n_blocks, D2.n_blocks)).reshape(2, -1)))
    rows = D1.structure.padded_columns()[pairs[0]]
    cols = D2.structure.padded_columns()[pairs[1]]
    tiles = gram[rows[:, :, None], cols[:, None, :]]
    if 1 in tiles.shape[1:]:
        norms = np.sqrt(np.sum(np.abs(tiles) ** 2, axis=(1, 2)))
    else:
        norms = np.linalg.svd(tiles, compute_uv=False)[:, 0]
    table = np.empty((D1.n_blocks, D2.n_blocks))
    table[pairs] = norms
    if same:
        table[pairs[::-1]] = norms
    return table


def best_concentration_set(v: BlockVector, k: int) -> ConcentrationCertificate:
    """The k blocks capturing the largest share of the mixed norm.

    Picking the k largest block norms maximizes the captured share and hence
    minimizes epsilon; ties are broken toward the lowest block index.
    """
    n = v.structure.n_blocks
    if not 0 <= k <= n:
        raise ValueError(f"set size {k} out of range [0, {n}]")
    norms = v.block_norms()
    total = float(norms.sum())
    if total <= 0.0:
        raise ValueError("zero signal has no concentration profile")
    order = np.argsort(-norms, kind="stable")
    chosen = tuple(sorted(int(i) for i in order[:k]))
    on_set = float(norms[list(chosen)].sum()) if chosen else 0.0
    eps = min(1.0, max(0.0, 1.0 - on_set / total))
    return ConcentrationCertificate(chosen, eps, total, on_set)


def concentration_epsilon(v: BlockVector, blocks) -> float:
    """Epsilon of the given block set: the mixed-norm share it misses."""
    idx = sorted({v.structure.check_index(i) for i in blocks})
    norms = v.block_norms()
    total = float(norms.sum())
    if total <= 0.0:
        raise ValueError("zero signal has no concentration profile")
    on_set = float(norms[idx].sum()) if idx else 0.0
    return min(1.0, max(0.0, 1.0 - on_set / total))


def block_least_squares(D: BlockDictionary, support, y,
                        rank_tol: float = RANK_TOL) -> tuple[BlockVector, float]:
    """Minimum-norm least squares fit of y on a set of column blocks.

    Returns the coefficient vector embedded in the full space (blocks outside
    the support are zero) together with the residual norm.  Singular values of
    the stacked blocks below rank_tol times the largest are treated as zero,
    so rank-deficient stacks get the minimum-norm minimizer.
    """
    idx = sorted({D.structure.check_index(i) for i in support})
    if not idx:
        raise ValueError("support must contain at least one block")
    yv = D.measurement(y)
    stacked = np.concatenate([D.block(i) for i in idx], axis=1)
    pinv = np.linalg.pinv(stacked, rcond=rank_tol)
    full, residual = _fit_factored(D, idx, yv, stacked, pinv)
    return BlockVector(full, D.structure), residual


def _fit_factored(D: BlockDictionary, idx, yv: np.ndarray, stacked: np.ndarray,
                  pinv: np.ndarray) -> tuple[np.ndarray, float]:
    """The fit on the sorted, valid support idx of the validated measurement
    yv, given the contiguous stack of idx and its pseudo-inverse: the
    coefficients as a plain array of length D.structure.dim, and the
    residual norm."""
    coef = pinv @ yv
    residual = float(np.linalg.norm(yv - stacked @ coef))
    full = np.zeros(D.structure.dim, dtype=np.complex128)
    full[D.structure.column_indices(idx)] = coef
    return full, residual


def support_stacks(D: BlockDictionary, k: int):
    """Every k-subset of blocks with the columns of its stack, streamed in batches.

    Yields (supports, cols): a (B, k) array of block indices and the (B, w)
    array of the column indices each subset stacks, all of width w;
    ``column_stacks(D, cols)`` gathers the (B, M, w) stacks themselves, so a
    caller that can settle a subset from the indices alone never gathers it.
    Subsets are cut into lexicographic chunks of _SUBSET_CHUNK, each split
    by width.
    """
    padded = D.structure.padded_columns()
    subsets = itertools.combinations(range(D.n_blocks), k)
    while (chunk := np.array(list(itertools.islice(subsets, _SUBSET_CHUNK)))).size:
        cols = padded[chunk].reshape(len(chunk), -1)
        widths = np.count_nonzero(cols >= 0, axis=1)
        for width in np.unique(widths):
            group = cols[widths == width]
            yield chunk[widths == width], group[group >= 0].reshape(-1, width)


def column_stacks(D: BlockDictionary, cols: np.ndarray) -> np.ndarray:
    """The (B, M, w) stacks of D's columns named by the rows of a (B, w) index array."""
    return np.moveaxis(D.matrix[:, cols], 1, 0)
