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

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockDictionary, column_stacks, cross_norm_table, support_stacks
# Unused here; bench/spans.py rebinds this name, so bench/run.py --trace 1 needs it.
from .blocks import cross_block_norm  # noqa: F401

# Relative singular-value cutoff declaring a stacked sub-matrix rank deficient.
SPARK_DEFICIENCY_TOL = 1e-10
# Subset enumeration beyond this many blocks must be requested explicitly.
SPARK_ENUMERATION_CAP = 20
# Relative spread of column norms that the composite family accepts as equal.
UNIT_COLUMN_TOL = 1e-12
# Multiple of eps * (M + (w + 1) ||L||_F^2) that the spark screen subtracts
# from its bound on lambda_min of a trace-scaled w x w Gram tile: it covers
# the rounding of D^H D (about M eps), the Cholesky backward error (about
# (w + 1) eps ||L||_F^2) and the SVD's own rounding of the ratio it judges.
_CHOLESKY_ROUNDING = 16.0


@dataclass(frozen=True)
class CoherenceReport:
    """Measured coherence quantities of one dictionary; thresholds derive from them.

    ``spark`` is None when the enumeration was skipped and ``math.inf`` when
    the kernel is trivial (Donoho and Elad, 2003): no nonzero kernel vector
    exists, so every sparsity level is unique.  ``mu_block``/``nu``/``mu_hat``
    are None when the composite family does not apply; ``mu_hat`` alone is
    None when its denominator is nonpositive.
    """

    n_blocks: int
    mu_h: float
    mu_block: float | None
    nu: float | None
    mu_hat: float | None
    spark: int | float | None

    @property
    def spark_lower_bound(self) -> float:
        """1 + 1/mu_h, the least spark the coherence allows."""
        return 1.0 + 1.0 / self.mu_h if self.mu_h > 0 else math.inf

    @property
    def threshold_coherence(self) -> float:
        """Every s below this is recoverable by the coherence condition."""
        return self.spark_lower_bound / 2.0

    @property
    def threshold_spark(self) -> float | None:
        """Every s below spark/2 is recoverable; None when spark was skipped."""
        return None if self.spark is None else self.spark / 2.0

    def spark_bound_ok(self, slack: float = 1e-9) -> bool | None:
        """Whether spark >= 1 + 1/mu_h holds; None when spark was skipped."""
        if self.spark is None:
            return None
        return self.spark >= self.spark_lower_bound - slack

    def to_mapping(self) -> dict:
        """Flat key/value view used by reports and the CLI."""
        out: dict = {"n_blocks": self.n_blocks, "mu_h": self.mu_h}
        if self.mu_block is not None:
            out["mu_block"] = self.mu_block
            out["nu"] = self.nu
            out["mu_hat"] = "invalid" if self.mu_hat is None else self.mu_hat
        if self.spark is None:
            out["spark"] = "not-computed"
        else:
            out["spark"] = "trivial-kernel" if math.isinf(self.spark) else self.spark
            out["threshold_spark"] = self.threshold_spark
        out["threshold_coherence"] = self.threshold_coherence
        out["spark_lower_bound"] = self.spark_lower_bound
        return out


def hilbert_coherence(D: BlockDictionary) -> float:
    """Largest cross-block spectral norm over squared block injectivity.

    The denominator is indexed by the row block of each off-diagonal entry
    of ``D.cross_norms``, which holds both orderings of every pair (shared,
    so the diagonal is masked).  For unit-norm columns in size-1 blocks this
    reduces to the classical maximum inner-product coherence.
    """
    if D.n_blocks < 2:
        raise ValueError("coherence undefined for a single subspace")
    scaled = D.cross_norms / D.block_sigma_min()[:, None] ** 2
    return float(scaled[~np.eye(D.n_blocks, dtype=bool)].max())


def mutual_hilbert_coherence(D1: BlockDictionary, D2: BlockDictionary) -> float:
    """Cross-dictionary coherence; the maximum runs over all block pairs."""
    if D1.shape[0] != D2.shape[0]:
        raise ValueError(
            f"dictionaries map into different spaces: {D1.shape[0]} vs {D2.shape[0]} rows")
    scale = np.outer(D1.block_sigma_min(), D2.block_sigma_min())
    return float((cross_norm_table(D1, D2) / scale).max())


def block_coherences(D: BlockDictionary) -> tuple[float, float, float | None]:
    """Composite block-coherence family (mu_block, nu, mu_hat).

    Defined for uniform block size d and unit-norm columns (Eldar, Kuppinger
    and Boelcskei, 2010): computed on D scaled to unit columns, which needs
    column norms equal within UNIT_COLUMN_TOL.  mu_block is the largest
    entry of ``D.cross_norms`` over d; nu the largest within-block inner
    product of distinct columns; mu_hat = d * mu_block / (1 - (d-1) * nu),
    None when that denominator is nonpositive (the bound guarantees nothing).
    """
    sizes = set(D.structure.sizes)
    if len(sizes) != 1:
        raise ValueError("composite block coherence requires uniform block size")
    d = sizes.pop()
    n = D.n_blocks
    if n < 2:
        raise ValueError("coherence undefined for a single subspace")
    norms = np.linalg.norm(D.matrix, axis=0)
    if norms.max() - norms.min() > UNIT_COLUMN_TOL * norms.max():
        raise ValueError("composite block coherence requires equal column norms")
    scale = float(np.mean(norms ** 2))   # every Gram entry carries one squared norm
    mu_block = float(D.cross_norms[np.triu_indices(n, 1)].max()) / scale / d
    blocks = D.matrix.reshape(-1, n, d).transpose(1, 0, 2)
    grams = np.abs(blocks.conj().transpose(0, 2, 1) @ blocks)
    grams[:, np.arange(d), np.arange(d)] = 0.0
    nu = float(grams.max()) / scale
    denom = 1.0 - (d - 1) * nu
    mu_hat = d * mu_block / denom if denom > 0 else None
    return mu_block, nu, mu_hat


def _deficient(D: BlockDictionary, gram: np.ndarray, k: int, tol: float) -> bool:
    """Whether some k-subset of blocks stacks rank deficient; k is below the width bound.

    gram is D^H D.  A stack whose Gram tile, scaled to unit trace, has
    Cholesky factor L is proven full rank when
    det * ((w-1) / ||L||_F^2)^(w-1) - err > tol^2, with det = prod |L_ii|^2:
    that bounds lambda_min = det / (product of the other w-1 eigenvalues)
    from below, since by AM-GM that product is at most the (w-1)th power of
    their mean, and their sum is at most ||L||_F^2; err bounds the rounding.
    lambda_max is at most the unit trace, so lambda_min > tol^2 puts
    sigma_min / sigma_max above tol.  The SVD judges only the stacks left
    unproven; a group whose Cholesky fails leaves all of them unproven.
    """
    rows = D.shape[0]
    for _, cols in support_stacks(D, k):
        w = cols.shape[1]
        tiles = gram[cols[:, :, None], cols[:, None, :]]
        trace = np.einsum("bii->b", tiles).real
        try:
            L = np.linalg.cholesky(tiles / trace[:, None, None])
        except np.linalg.LinAlgError:
            unproven = cols
        else:
            # After the trace scaling every |L_ii| <= 1, so det can only underflow.
            det = np.prod(np.abs(np.diagonal(L, axis1=1, axis2=2)) ** 2, axis=1)
            fro = np.sum(np.abs(L) ** 2, axis=(1, 2))
            err = _CHOLESKY_ROUNDING * np.finfo(float).eps * (rows + (w + 1) * fro)
            unproven = cols[det * ((w - 1) / fro) ** (w - 1) - err <= tol ** 2]
        if unproven.size:
            s = np.linalg.svd(column_stacks(D, unproven), compute_uv=False)
            if np.any(s[:, -1] <= tol * s[:, 0]):
                return True
    return False


def spark_exhaustive(D: BlockDictionary, tol: float = SPARK_DEFICIENCY_TOL,
                     cap: int = SPARK_ENUMERATION_CAP) -> int | None:
    """Fewest blocks a nonzero kernel vector of D can occupy.

    A block subset admits a kernel vector occupying exactly those blocks when
    its stacked columns are rank deficient: wider than tall, or with smallest
    singular value at most tol times the largest (so tol lies in [0, 1)).
    Deficiency is monotone under supersets (zero-pad the kernel vector; by
    interlacing, adding columns only lowers the smallest singular value and
    raises the largest), so the search bisects over k.  The width bound hi,
    the fewest blocks whose widest choice has more columns than D has rows,
    is deficient outright; hi - 1, where generic dictionaries sit, is probed
    first; then (0, hi) is bisected.  Without a width bound all n blocks are
    tested, and None means even they are not deficient: the kernel is
    trivial (numerically {0}).

    Each probe screens its stacks first: a batched Cholesky factorisation of
    their Gram tiles, gathered from one D^H D per call, proves full rank
    every stack whose determinant bound on sigma_min^2 / sigma_max^2 clears
    tol^2 by more than the rounding.  The bound needs that ratio above about
    1e-7, so it proves nothing the SVD would call deficient; only the stacks
    it leaves unproven are gathered and go to the batched SVD, which decides.
    """
    if not tol >= 0:   # also rejects NaN
        raise ValueError("tolerance must be nonnegative")
    if tol >= 1:   # sigma_min <= sigma_max always: every subset would read deficient
        raise ValueError("tolerance must be below 1")
    n = D.n_blocks
    if n > cap:
        raise ValueError("exhaustive spark infeasible; raise cap explicitly")
    gram = D.matrix.conj().T @ D.matrix
    wide = np.flatnonzero(np.cumsum(sorted(D.structure.sizes, reverse=True)) > D.shape[0])
    if wide.size == 0 and not _deficient(D, gram, n, tol):
        return None
    lo, hi = 0, int(wide[0]) + 1 if wide.size else n
    probe = hi - 1
    while hi - lo > 1:
        if _deficient(D, gram, probe, tol):
            hi = probe
        else:
            lo = probe
        probe = (lo + hi) // 2
    return hi


def coherence_report(D: BlockDictionary, compute_spark: bool = True,
                     spark_tol: float = SPARK_DEFICIENCY_TOL,
                     spark_cap: int = SPARK_ENUMERATION_CAP) -> CoherenceReport:
    """Measure mu_h, the composite family and the spark of D in one report.

    The spark is None when compute_spark is False or the block count exceeds
    spark_cap, and ``math.inf`` when the kernel is trivial.
    """
    mu_h = hilbert_coherence(D)
    try:
        mu_block, nu, mu_hat = block_coherences(D)
    except ValueError:
        mu_block = nu = mu_hat = None
    spark = None
    if compute_spark and D.n_blocks <= spark_cap:
        spark = spark_exhaustive(D, tol=spark_tol, cap=spark_cap)
        if spark is None:
            spark = math.inf
    return CoherenceReport(D.n_blocks, mu_h, mu_block, nu, mu_hat, spark)
