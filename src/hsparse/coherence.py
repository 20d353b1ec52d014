"""Coherence, spark, and recovery-threshold quantities of a block dictionary.

The central quantity is the subspace coherence ``mu_h``: the largest
cross-block operator norm scaled by the squared injectivity constant of the
row block.  From it come the recovery thresholds; the spark (the fewest
blocks a nonzero kernel vector can occupy) gives the sharper one.  The
composite block-coherence family (``mu_block``, ``nu``, ``mu_hat``) is kept
for comparison: ``mu_h <= mu_hat`` whenever the latter is valid, with
equality for orthonormal blocks.  All are scale-free and read D.unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockDictionary, column_stacks, largest_cross_norm, support_stacks
# Unused here; bench/spans.py rebinds this name, so bench/run.py --trace 1 needs it.
from .blocks import cross_block_norm  # noqa: F401

# Relative singular-value cutoff declaring a stacked sub-matrix rank deficient.
SPARK_DEFICIENCY_TOL = 1e-10
# Subset enumeration beyond this many blocks must be requested explicitly.
SPARK_ENUMERATION_CAP = 20
# Relative spread of column norms that the composite family accepts as equal.
UNIT_COLUMN_TOL = 1e-12
# Absolute margin by which spark may fall short of 1 + 1/mu_h and still pass.
SPARK_BOUND_SLACK = 1e-9
# Multiple of eps * (M + (w + 1) fro) that the spark screen subtracts from
# its bound on lambda_min / t of a w x w Gram tile of trace t: it covers the
# rounding of D^H D (about M eps), the Cholesky backward error (about
# (w + 1) eps ||L||_F^2 / t, relative to the tile's own scale) and the SVD's
# own rounding of the ratio it judges.  Scaling the pivots by the trace and
# taking their product add at most (2w + 1) eps relative error to det, and
# det <= w^-w by AM-GM, so below 3 eps absolute, far inside the margin.  The
# diagonal shift s that lets every tile factor is subtracted on its own.
_CHOLESKY_ROUNDING = 16.0
_EPS = float(np.finfo(float).eps)


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

    def spark_bound_ok(self) -> bool | None:
        """Whether spark >= 1 + 1/mu_h holds; None when spark was skipped."""
        if self.spark is None:
            return None
        return self.spark >= self.spark_lower_bound - SPARK_BOUND_SLACK

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

    The maximum runs over both orderings (i, j), i != j, of every pair's
    tile norm ``D.cross_gram.norms(i, j)``, divided by sigma_min of its row
    block i squared, both of ``D.unit``.  ``largest_cross_norm`` finds it bit
    for bit from the tile bounds cached in ``D.cross_gram``, running the SVD
    only on the tiles that can hold it.  For unit-norm columns in size-1
    blocks this reduces to the classical maximum inner-product coherence.
    """
    if D.n_blocks < 2:
        raise ValueError("coherence undefined for a single subspace")
    return largest_cross_norm(D, divisor=D.unit_sigma[:, :1] ** 2,
                              pairs=~np.eye(D.n_blocks, dtype=bool))


def mutual_hilbert_coherence(D1: BlockDictionary, D2: BlockDictionary) -> float:
    """Cross-dictionary coherence; the maximum runs over all block pairs."""
    if D1.shape[0] != D2.shape[0]:
        raise ValueError(
            f"dictionaries map into different spaces: {D1.shape[0]} vs {D2.shape[0]} rows")
    scale = np.outer(D1.unit_sigma[:, 0], D2.unit_sigma[:, 0])
    return largest_cross_norm(D1, D2, divisor=scale)


def block_coherences(D: BlockDictionary) -> tuple[float, float, float | None]:
    """Composite block-coherence family (mu_block, nu, mu_hat).

    Defined for uniform block size d and unit-norm columns (Eldar, Kuppinger
    and Boelcskei, 2010): computed on D scaled to unit columns, which needs
    column norms equal within UNIT_COLUMN_TOL.  mu_block is the largest
    tile norm ``D.cross_gram.norms(i, j)``, i < j (found by
    ``largest_cross_norm``), over d; nu the largest within-block inner
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
    norms = np.linalg.norm(D.unit, axis=0)
    if norms.max() - norms.min() > UNIT_COLUMN_TOL * norms.max():
        raise ValueError("composite block coherence requires equal column norms")
    scale = float(np.mean(norms ** 2))   # every Gram entry carries one squared norm
    mu_block = largest_cross_norm(D, pairs=np.triu(np.ones((n, n), dtype=bool), 1)) / scale / d
    blocks = D.unit.reshape(-1, n, d).transpose(1, 0, 2)
    grams = np.abs(blocks.conj().transpose(0, 2, 1) @ blocks)
    grams[:, np.arange(d), np.arange(d)] = 0.0
    nu = float(grams.max()) / scale
    denom = 1.0 - (d - 1) * nu
    mu_hat = d * mu_block / denom if denom > 0 else None
    return mu_block, nu, mu_hat


def _deficient(D: BlockDictionary, k: int, tol: float) -> bool:
    """Whether some k-subset of blocks stacks rank deficient; k is below the width bound.

    Each support_stacks batch gathers its w x w tiles of D^H D, with the
    diagonal multiplied by 1 + s, and factors them in one batched Cholesky
    call.  Scaled to unit diagonal, a computed tile is within w M eps of the
    exact one, which is positive semidefinite, and the shift raises its
    lambda_min by about s.  By Demmel's condition (Demmel 1989; Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10) a tile factors
    once that lambda_min exceeds about w (w + 1) eps.  The stacks fit in D's
    M rows, so w <= M, and s = 4 M (2M + 1) eps covers w (M + w + 1) eps
    with a factor of 4 for complex arithmetic: every finite tile factors.

    With L the factor and t the trace of a shifted tile, det = prod L_ii^2
    / t^w (the factor's diagonal is real) is the product of the eigenvalues
    of L L^H / t.  By AM-GM the other w-1 multiply to at most the (w-1)th
    power of their mean, and their sum is at most ||L||_F^2 / t <= fro = 1 +
    4 (w + 1) eps, since trace(L L^H) = t + trace(dG) with |trace(dG)| <=
    gamma ||L||_F^2 for the backward error dG.  So det ((w-1) / fro)^(w-1)
    - err bounds lambda_min / t of the shifted tile from below, err covering
    the rounding (relative to the tile's own scale, so the tiles are factored
    unscaled).  The shift raised lambda_min by at most s t, so subtracting s
    bounds it for the stack's own tile, and lambda_max <= t: a stack whose
    bound clears tol^2 has sigma_min / sigma_max above tol.  The threshold
    depends only on w; a NaN det fails it.  A batch's stacks left unproven
    go to one batched SVD call, which decides.  The Gram and stacks are
    those of ``D.unit``: a column with squared norm below tiny / eps, whose
    products lose bits to underflow, gets a zero diagonal, so no tile
    holding it has a factor.  A batch whose
    Cholesky raises goes to the SVD whole; a NaN pivot reads as unproven.
    """
    M, N = D.shape
    s = 4 * M * (2 * M + 1) * _EPS
    gram = D.cross_gram.gram.copy()
    low = gram.diagonal().real < np.finfo(float).tiny / _EPS   # products may underflow
    gram.flat[::N + 1] *= np.where(low, 0.0, 1 + s)
    flat = gram.ravel()
    for _, cols in support_stacks(D, k):
        tiles = flat.take((cols * N)[:, :, None] + cols[:, None, :])
        t = np.einsum("bii->b", tiles).real
        try:   # only the pivots are read, so the factor is freed at once
            p = np.diagonal(np.linalg.cholesky(tiles), axis1=1, axis2=2).real.T * (1 / np.sqrt(t))
        except np.linalg.LinAlgError:   # a tile with no factor
            unproven = cols
        else:
            w = cols.shape[1]
            p *= p
            det = np.prod(p, axis=0)
            fro = 1 + 4 * (w + 1) * _EPS
            err = _CHOLESKY_ROUNDING * _EPS * (M + (w + 1) * fro)
            left = ~(det > (tol ** 2 + err + s) / ((w - 1) / fro) ** (w - 1))
            if not left.any():
                continue
            unproven = cols[left]
        sv = np.linalg.svd(column_stacks(D.unit, unproven), compute_uv=False)
        if np.any(sv[:, -1] <= tol * sv[:, 0]):
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

    Each probe screens its stacks first (see _deficient): one batched
    Cholesky of their Gram tiles, with a rounding-sized diagonal shift,
    proves full rank the stacks whose determinant bound on sigma_min^2 /
    sigma_max^2 clears tol^2 by the shift and the rounding; only the others
    go to the batched SVD, which decides.
    """
    if not tol >= 0:   # also rejects NaN
        raise ValueError("tolerance must be nonnegative")
    if tol >= 1:   # sigma_min <= sigma_max always: every subset would read deficient
        raise ValueError("tolerance must be below 1")
    n = D.n_blocks
    if n > cap:
        raise ValueError("exhaustive spark infeasible; raise cap explicitly")
    wide = np.flatnonzero(np.cumsum(sorted(D.structure.sizes, reverse=True)) > D.shape[0])
    if wide.size == 0 and not _deficient(D, n, tol):
        return None
    lo, hi = 0, int(wide[0]) + 1 if wide.size else n
    probe = hi - 1
    while hi - lo > 1:
        if _deficient(D, probe, tol):
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
