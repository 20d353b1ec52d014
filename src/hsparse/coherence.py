"""Coherence, spark, and recovery-threshold quantities of a block dictionary.

The central quantity is the subspace coherence ``mu_h``: the largest
cross-block operator norm scaled by the squared injectivity constant of the
row block.  From it come the recovery thresholds; the spark (the fewest
blocks a nonzero kernel vector can occupy) gives the sharper one.  The
composite block-coherence family (``mu_block``, ``nu``, ``mu_hat``) is kept
for comparison: ``mu_h <= mu_hat`` whenever the latter is valid, with
equality for orthonormal blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockDictionary, cross_norm_table
# Unused here; bench/spans.py rebinds this name, so bench/run.py --trace 1 needs it.
from .blocks import cross_block_norm  # noqa: F401

# Relative singular-value cutoff declaring a stacked sub-matrix rank deficient.
SPARK_DEFICIENCY_TOL = 1e-10
# Subset enumeration beyond this many blocks must be requested explicitly.
SPARK_ENUMERATION_CAP = 20
# Block subsets per batched SVD: streaming them keeps peak memory flat.
_SUBSET_CHUNK = 256


@dataclass(frozen=True)
class CoherenceReport:
    """All coherence and threshold quantities for one dictionary.

    ``spark`` is None when the kernel is trivial (no nonzero kernel vector)
    or when the enumeration was skipped; the two cases are told apart by
    ``spark_trivial`` / ``spark_computed``.  A trivial kernel enters
    threshold arithmetic as n_blocks + 1.  ``mu_hat`` is None either when
    block sizes are not uniform or when its denominator is nonpositive
    (``mu_hat_invalid`` marks the latter).
    """

    n_blocks: int
    mu_h: float
    mu_block: float | None
    nu: float | None
    mu_hat: float | None
    mu_hat_invalid: bool
    spark: int | None
    spark_trivial: bool
    spark_computed: bool
    threshold_spark: float | None
    threshold_coherence: float
    spark_lower_bound: float

    def spark_numeric(self) -> float | None:
        """Spark as a number for threshold arithmetic; None when skipped."""
        if not self.spark_computed:
            return None
        return float(self.n_blocks + 1) if self.spark_trivial else float(self.spark)

    def spark_bound_ok(self, slack: float = 1e-9) -> bool | None:
        """Whether spark >= 1 + 1/mu_h holds; None when spark was skipped."""
        value = self.spark_numeric()
        if value is None:
            return None
        return value >= self.spark_lower_bound - slack

    def to_mapping(self) -> dict:
        """Flat key/value view used by reports and the CLI."""
        out: dict = {"n_blocks": self.n_blocks, "mu_h": self.mu_h}
        if self.mu_block is not None:
            out["mu_block"] = self.mu_block
            out["nu"] = self.nu
            out["mu_hat"] = "invalid" if self.mu_hat_invalid else self.mu_hat
        if not self.spark_computed:
            out["spark"] = "not-computed"
        elif self.spark_trivial:
            out["spark"] = "trivial-kernel"
        else:
            out["spark"] = self.spark
        if self.threshold_spark is not None:
            out["threshold_spark"] = self.threshold_spark
        out["threshold_coherence"] = self.threshold_coherence
        out["spark_lower_bound"] = self.spark_lower_bound
        return out


def hilbert_coherence(D: BlockDictionary) -> float:
    """Largest cross-block spectral norm over squared block injectivity.

    The denominator is indexed by the row block of each off-diagonal entry
    of the cross-norm table, which holds both orderings of every pair.  For
    unit-norm columns in size-1 blocks this reduces to the classical maximum
    inner-product coherence.
    """
    if D.n_blocks < 2:
        raise ValueError("coherence undefined for a single subspace")
    cross = cross_norm_table(D)
    np.fill_diagonal(cross, 0.0)
    return float((cross / D.block_sigma_min()[:, None] ** 2).max())


def mutual_hilbert_coherence(D1: BlockDictionary, D2: BlockDictionary) -> float:
    """Cross-dictionary coherence; the maximum runs over all block pairs."""
    if D1.shape[0] != D2.shape[0]:
        raise ValueError(
            f"dictionaries map into different spaces: {D1.shape[0]} vs {D2.shape[0]} rows")
    scale = np.outer(D1.block_sigma_min(), D2.block_sigma_min())
    return float((cross_norm_table(D1, D2) / scale).max())


def block_coherences(D: BlockDictionary) -> tuple[float, float, float | None]:
    """Composite block-coherence family (mu_block, nu, mu_hat).

    Defined for uniform block size d only.  mu_block is the largest
    cross-block spectral norm over d; nu is the largest within-block
    inner product between distinct columns; mu_hat combines them as
    d * mu_block / (1 - (d-1) * nu) and is None when that denominator is
    nonpositive (the composite bound then guarantees nothing).
    """
    sizes = set(D.structure.sizes)
    if len(sizes) != 1:
        raise ValueError("composite block coherence requires uniform block size")
    d = sizes.pop()
    n = D.n_blocks
    if n < 2:
        raise ValueError("coherence undefined for a single subspace")
    mu_block = float(cross_norm_table(D)[np.triu_indices(n, 1)].max()) / d
    nu = 0.0
    if d > 1:
        for ell in range(n):
            gram = np.abs(D.block(ell).conj().T @ D.block(ell))
            np.fill_diagonal(gram, 0.0)
            nu = max(nu, float(gram.max()))
    denom = 1.0 - (d - 1) * nu
    mu_hat = d * mu_block / denom if denom > 0 else None
    return mu_block, nu, mu_hat


def _any_deficient(matrix: np.ndarray, cols: np.ndarray, tol: float) -> bool:
    """True when some row of cols (column indices, -1 padded) picks a rank-deficient stack."""
    widths = np.count_nonzero(cols >= 0, axis=1)
    if widths.max() > matrix.shape[0]:
        return True
    for width in np.unique(widths):
        group = cols[widths == width]
        stacks = np.moveaxis(matrix[:, group[group >= 0].reshape(-1, width)], 1, 0)
        s = np.linalg.svd(stacks, compute_uv=False)
        if np.any(s[:, -1] <= tol * s[:, 0]):
            return True
    return False


def spark_exhaustive(D: BlockDictionary, tol: float = SPARK_DEFICIENCY_TOL,
                     cap: int = SPARK_ENUMERATION_CAP) -> int | None:
    """Fewest blocks a nonzero kernel vector of D can occupy.

    Scans block subsets by increasing cardinality and returns the first
    cardinality with some subset whose stacked columns are rank deficient,
    i.e. admit a kernel vector occupying exactly those blocks.  A stack that
    is wider than it is tall is deficient outright.  Returns None when no
    subset up to all n blocks is deficient: the kernel is trivial
    (numerically {0}).
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    n = D.n_blocks
    if n > cap:
        raise ValueError("exhaustive spark infeasible; raise cap explicitly")
    padded = D.structure.padded_columns()
    for k in range(1, n + 1):
        subsets = itertools.combinations(range(n), k)
        while chunk := list(itertools.islice(subsets, _SUBSET_CHUNK)):
            cols = padded[np.array(chunk)].reshape(len(chunk), -1)
            if _any_deficient(D.matrix, cols, tol):
                return k
    return None


def coherence_report(D: BlockDictionary, compute_spark: bool = True,
                     spark_tol: float = SPARK_DEFICIENCY_TOL,
                     spark_cap: int = SPARK_ENUMERATION_CAP) -> CoherenceReport:
    """Aggregate every coherence/threshold quantity into one report.

    The spark enumeration is skipped (flagged, not an error) when
    compute_spark is False or the block count exceeds spark_cap.
    """
    n = D.n_blocks
    mu_h = hilbert_coherence(D)
    try:
        mu_block, nu, mu_hat = block_coherences(D)
        mu_hat_invalid = mu_hat is None
    except ValueError:
        mu_block = nu = mu_hat = None
        mu_hat_invalid = False

    spark = None
    spark_trivial = False
    spark_computed = False
    threshold_spark = None
    if compute_spark and n <= spark_cap:
        spark = spark_exhaustive(D, tol=spark_tol, cap=spark_cap)
        spark_computed = True
        spark_trivial = spark is None
        threshold_spark = ((n + 1) / 2.0) if spark_trivial else spark / 2.0

    threshold_coherence = (1.0 + 1.0 / mu_h) / 2.0 if mu_h > 0 else math.inf
    spark_lower_bound = 1.0 + 1.0 / mu_h if mu_h > 0 else math.inf
    return CoherenceReport(
        n_blocks=n,
        mu_h=mu_h,
        mu_block=mu_block,
        nu=nu,
        mu_hat=mu_hat,
        mu_hat_invalid=mu_hat_invalid,
        spark=spark,
        spark_trivial=spark_trivial,
        spark_computed=spark_computed,
        threshold_spark=threshold_spark,
        threshold_coherence=threshold_coherence,
        spark_lower_bound=spark_lower_bound,
    )
