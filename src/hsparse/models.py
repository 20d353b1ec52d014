"""Constructors for structured sampling operators and test dictionaries.

Covers the row-truncated DFT matrix that multi-coset acquisition reduces to,
identity/Fourier concatenations, seeded random block dictionaries, and the
grid estimator for the cross-correlation coherence of shift-invariant
generator families.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .blocks import BlockDictionary, BlockStructure, uniform_structure

# Default DFT grid for the essential-supremum estimate.
SI_GRID_DEFAULT = 4096


def complex_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0,1) draws: independent real and imaginary parts, unit total variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass(frozen=True)
class MultiCosetSpec:
    """Which of the n sample cosets are acquired.

    ``coset_rows`` are the 1-based row numbers entering the exponent of the
    reduced matrix (row k, column l has phase 2*pi*k*l/n); ``period`` only
    scales every entry by 1/(n*period) and cancels from all coherence and
    spark quantities.
    """

    n: int
    coset_rows: tuple[int, ...]
    period: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        object.__setattr__(self, "coset_rows", tuple(index(k) for k in self.coset_rows))
        if self.n < 1:
            raise ValueError("need at least one spectral cell")
        if not 1 <= len(self.coset_rows) <= self.n:
            raise ValueError("coset count must be between 1 and n")
        if len(set(self.coset_rows)) != len(self.coset_rows):
            raise ValueError("coset rows must be distinct")
        if any(not 1 <= k <= self.n for k in self.coset_rows):
            raise ValueError(f"coset rows must lie in 1..{self.n}")
        if not self.period > 0:
            raise ValueError("period must be positive")


def multicoset_matrix(spec: MultiCosetSpec) -> BlockDictionary:
    """Reduced m x n matrix of a multi-coset acquisition, size-1 blocks.

    Entry (k, l) is exp(2*pi*i*k*l/n) / (n*period) with k running over the
    sampled coset rows and l = 1..n over the spectral cells.
    """
    ks = np.asarray(spec.coset_rows, dtype=np.float64)[:, None]
    ls = np.arange(1, spec.n + 1, dtype=np.float64)[None, :]
    mat = np.exp(2j * np.pi * ks * ls / spec.n) / (spec.n * spec.period)
    return BlockDictionary(mat, uniform_structure(spec.n))


def dirichlet_coherence(n: int, m: int) -> float:
    """Closed-form coherence of the consecutive-row multi-coset matrix.

    Equals max over offsets d = 1..n-1 of |sum_{k=1..m} exp(2*pi*i*k*d/n)|/m,
    the Dirichlet-kernel ratio; the 1/(n*period) scale cancels.  Must agree
    with hilbert_coherence(multicoset_matrix(...)) for rows 1..m.
    """
    if n < 2:
        raise ValueError("need at least two spectral cells")
    if not 1 <= m <= n:
        raise ValueError("coset count must be between 1 and n")
    ks = np.arange(1, m + 1)
    best = 0.0
    for d in range(1, n):
        best = max(best, abs(np.exp(2j * np.pi * ks * d / n).sum()) / m)
    return best


def unitary_dft(n: int) -> np.ndarray:
    """The n-point DFT matrix exp(-2 pi i jk / n) / sqrt(n)."""
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * grid / n) / np.sqrt(n)


def identity_basis(n: int) -> BlockDictionary:
    """The standard basis as an n x n dictionary with size-1 blocks."""
    if n < 2:
        raise ValueError("need dimension at least 2")
    return BlockDictionary(np.eye(n, dtype=np.complex128), uniform_structure(n))


def fourier_basis(n: int) -> BlockDictionary:
    """The unitary DFT basis as an n x n dictionary with size-1 blocks."""
    if n < 2:
        raise ValueError("need dimension at least 2")
    return BlockDictionary(unitary_dft(n), uniform_structure(n))


def identity_dft_pair(n: int) -> BlockDictionary:
    """Concatenation [I_n | F_n] with size-1 blocks; coherence 1/sqrt(n)."""
    if n < 2:
        raise ValueError("need dimension at least 2")
    mat = np.hstack([np.eye(n, dtype=np.complex128), unitary_dft(n)])
    return BlockDictionary(mat, uniform_structure(2 * n))


def random_block_dictionary(m: int, block_sizes, seed: int,
                            normalize: str = "columns") -> BlockDictionary:
    """Seeded complex Gaussian dictionary with the given column blocks.

    Entries are i.i.d. CN(0,1) from a PCG64 generator; with
    normalize="columns" every column is scaled to unit l2 norm.  Per-block
    injectivity is validated; on the (measure-zero) failure the draw is
    retried with seed+1, up to ten times.  Same seed, same matrix, bit for
    bit.
    """
    if normalize not in ("columns", "none"):
        raise ValueError('normalize must be "columns" or "none"')
    structure = BlockStructure(tuple(block_sizes))
    if m < max(structure.sizes):
        raise ValueError("need at least as many rows as the widest block")
    last_error: Exception | None = None
    for attempt in range(10):
        rng = np.random.default_rng(index(seed) + attempt)
        mat = complex_standard_normal(rng, (m, structure.dim))
        if normalize == "columns":
            mat = mat / np.linalg.norm(mat, axis=0, keepdims=True)
        try:
            return BlockDictionary(mat, structure)
        except ValueError as err:
            last_error = err
    raise ValueError(f"could not draw an injective dictionary in 10 attempts: {last_error}")


@dataclass(frozen=True)
class CorrelationSequence:
    """Sampled cross-correlation of one generator pair at integer shifts.

    ``lag_offset`` records where the finite window starts; it shifts the
    spectrum by a pure phase, so the magnitude maximum is unaffected.
    """

    left: int
    right: int
    lag_offset: int
    values: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(z) for z in self.values))
        if len(self.values) == 0:
            raise ValueError("correlation sequence must be nonempty")
        if not np.isfinite(self.values).all():
            raise ValueError("correlation sequence has non-finite values")


@dataclass(frozen=True)
class CrossCorrelationTable:
    """Finite cross-correlation sequences for all generator pairs."""

    entries: tuple[CorrelationSequence, ...]
    grid_size: int = SI_GRID_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.grid_size < 1:
            raise ValueError("grid size must be positive")
        longest = max((len(e.values) for e in self.entries), default=0)
        if self.grid_size < longest:
            raise ValueError("grid size must cover the longest sequence")


def si_mutual_coherence(table: CrossCorrelationTable) -> float:
    """Largest cross-spectrum magnitude over all generator pairs.

    Each sequence is zero-padded to the grid length and transformed; the grid
    maximum of the magnitude approximates the essential supremum of the
    underlying trigonometric polynomial from below, exactly when the true
    maximizer lands on the grid.  Doubling the grid never decreases the
    value since the coarser grid points are retained.
    """
    if not table.entries:
        raise ValueError("empty cross-correlation table")
    best = 0.0
    for entry in table.entries:
        padded = np.zeros(table.grid_size, dtype=np.complex128)
        padded[: len(entry.values)] = entry.values
        best = max(best, float(np.abs(np.fft.fft(padded)).max()))
    return best
