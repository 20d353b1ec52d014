"""Block-partitioned vectors and dictionaries.

The coordinate space is split into contiguous blocks (one per subspace) and
sparsity is counted in occupied blocks rather than nonzero entries.  This
module holds the partition bookkeeping plus the linear-algebra primitives
everything else builds on: block norms, per-block and cross-block singular
values, concentration sets, and least squares on a block support.

All values are immutable after construction and all functions are pure, so
objects can be shared freely between threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute cutoff deciding whether a block counts as occupied.
ZERO_BLOCK_TOL = 1e-10
# Relative singular-value cutoff for pseudo-inverses and injectivity checks.
RANK_TOL = 1e-12


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
        """l2 norm of each block of the flat vector x."""
        return np.sqrt(np.add.reduceat(np.abs(x) ** 2, self._offsets))


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
    rejected at construction.  Per-block extreme singular values are cached
    since the coherence and recovery routines reuse them heavily.
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
        sigma = []
        for i in range(structure.n_blocks):
            s = np.linalg.svd(mat[:, structure.block_slice(i)], compute_uv=False)
            smin, smax = float(s[-1]), float(s[0])
            if smax <= 0.0 or smin <= RANK_TOL * smax:
                raise ValueError(f"column block {i} is not injective")
            sigma.append((smin, smax))
        mat.flags.writeable = False
        self.matrix = mat
        self.structure = structure
        self._sigma = tuple(sigma)

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
        return np.array([s[0] for s in self._sigma])

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
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return int(np.count_nonzero(v.block_norms() > tol))


def h1_norm(v: BlockVector) -> float:
    """Sum of per-block l2 norms (the mixed-norm objective)."""
    return float(v.block_norms().sum())


def block_sigma(D: BlockDictionary, i: int) -> tuple[float, float]:
    """Smallest and largest singular value of column block i."""
    D.structure.check_index(i)
    return D._sigma[i]


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
    take their l2 norm instead, which is far cheaper than an SVD.
    """
    D2 = D1 if D2 is None else D2
    gram = np.pad(D1.matrix.conj().T @ D2.matrix, ((0, 1), (0, 1)))
    rows = D1.structure.padded_columns()
    cols = D2.structure.padded_columns()
    tiles = gram[rows[:, None, :, None], cols[None, :, None, :]]
    if 1 in tiles.shape[2:]:
        return np.sqrt(np.sum(np.abs(tiles) ** 2, axis=(2, 3)))
    return np.linalg.svd(tiles, compute_uv=False)[..., 0]


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
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    if yv.size != D.shape[0]:
        raise ValueError(f"measurement length {yv.size} does not match {D.shape[0]} rows")
    stacked = np.concatenate([D.block(i) for i in idx], axis=1)
    coef = np.linalg.pinv(stacked, rcond=rank_tol) @ yv
    residual = float(np.linalg.norm(yv - stacked @ coef))
    full = np.zeros(D.structure.dim, dtype=np.complex128)
    full[D.structure.column_indices(idx)] = coef
    return BlockVector(full, D.structure), residual
