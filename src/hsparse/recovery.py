"""Recovery of block-sparse signals from exact linear measurements.

Three solvers for y = Phi v with v occupying few blocks:

* ``hp0_exhaustive``: fewest-occupied-blocks search by support enumeration;
* ``hbp_solve``: mixed-norm relaxation (sum of block l2 norms) solved by
  alternating-direction splitting;
* ``homp``: greedy block selection with injectivity-weighted residual
  correlations.

``guarantee_check`` evaluates the two sufficient conditions (spark-based and
coherence-based) under which all three provably return the planted signal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import (RANK_TOL, ZERO_BLOCK_TOL, BlockDictionary, BlockStructure,
                     BlockVector, block_least_squares, h1_norm)
from .coherence import SPARK_ENUMERATION_CAP, CoherenceReport

STATUS_EXACT = "exact"
STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max-iterations"
STATUS_INFEASIBLE = "infeasible"
STATUS_NON_UNIQUE = "non-unique"

# Relative block-norm cutoff for reading a support off a splitting iterate,
# which is feasible but never exactly block-sparse.
BP_SUPPORT_REL_TOL = 1e-6


@dataclass(frozen=True)
class RecoveryResult:
    """Solver outcome.

    ``support`` lists the blocks of ``solution`` with norm above the solver's
    support cutoff, and ``residual_norm`` is ||y - Phi solution|| recomputed
    at exit rather than the internally tracked value.
    """

    solution: BlockVector
    support: tuple[int, ...]
    iterations: int
    residual_norm: float
    status: str


@dataclass(frozen=True)
class BpParams:
    """Splitting parameters for the mixed-norm solver."""

    rho: float = 1.0
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        if self.rho <= 0 or self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("splitting parameters must be positive")
        if self.tol_primal >= 1 or self.tol_dual >= 1:
            raise ValueError("tolerances must be below 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _support_of(v: BlockVector, tol: float) -> tuple[int, ...]:
    norms = v.block_norms()
    return tuple(int(i) for i in np.flatnonzero(norms > tol))


def _result(D: BlockDictionary, solution: BlockVector, y: np.ndarray,
            iterations: int, status: str,
            support_tol: float = ZERO_BLOCK_TOL) -> RecoveryResult:
    residual = float(np.linalg.norm(y - D.matrix @ solution.entries))
    return RecoveryResult(solution, _support_of(solution, support_tol),
                          iterations, residual, status)


def hp0_exhaustive(D: BlockDictionary, y, tol: float = 1e-8,
                   cap: int = SPARK_ENUMERATION_CAP,
                   max_cardinality: int | None = None) -> RecoveryResult:
    """Fewest-occupied-blocks recovery by exhaustive support search.

    Supports are scanned by increasing cardinality (lexicographic within a
    cardinality); the first cardinality with a feasible least-squares fit
    (residual below tol * max(||y||, 1)) wins.  If several supports at that
    cardinality are feasible with solutions differing by more than tol in
    norm, the status is "non-unique" and the lexicographically first solution
    is returned.  ``max_cardinality`` bounds the search depth; supports up to
    that size exhausted without a feasible fit give status "infeasible".
    """
    n = D.n_blocks
    if n > cap:
        raise ValueError("exhaustive search infeasible; raise cap explicitly")
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    if yv.size != D.shape[0]:
        raise ValueError(f"measurement length {yv.size} does not match {D.shape[0]} rows")
    feas_tol = tol * max(float(np.linalg.norm(yv)), 1.0)
    evaluated = 0
    depth = n if max_cardinality is None else min(int(max_cardinality), n)

    if float(np.linalg.norm(yv)) <= feas_tol:
        return _result(D, BlockVector.zeros(D.structure), yv, 0, STATUS_EXACT)

    for k in range(1, depth + 1):
        feasible: list[BlockVector] = []
        for combo in itertools.combinations(range(n), k):
            coeffs, residual = block_least_squares(D, combo, yv)
            evaluated += 1
            if residual <= feas_tol:
                feasible.append(coeffs)
        if feasible:
            distinct = any(
                float(np.linalg.norm(a.entries - b.entries)) > tol
                for a, b in itertools.combinations(feasible, 2))
            status = STATUS_NON_UNIQUE if distinct else STATUS_EXACT
            return _result(D, feasible[0], yv, evaluated, status)
    return _result(D, BlockVector.zeros(D.structure), yv, evaluated, STATUS_INFEASIBLE)


def hbp_solve(D: BlockDictionary, y, params: BpParams | None = None,
              h1_reference: float | None = None) -> RecoveryResult:
    """Mixed-norm minimization subject to Phi u = y via splitting.

    Alternates (1) projection of the current point onto the affine feasible
    set through a precomputed pseudo-inverse, (2) blockwise shrinkage
    w_i = max(0, 1 - 1/(rho ||t_i||)) t_i of t = u + lambda (the proximal
    step of the sum-of-block-norms objective; the complex block is scaled by
    a real factor), and (3) the multiplier update lambda += u - w.  Stops
    when ||u - w|| <= tol_primal * max(||u||, 1) and the w step moved less
    than tol_dual relatively.

    The returned solution is the feasible iterate u, so the measurement
    equation holds to projection accuracy at any exit.  Its support is read
    with a relative block-norm cutoff since u is never exactly block-sparse.
    Status is "converged", or "exact" when ``h1_reference`` (e.g. the
    objective of an independent fewest-blocks solve) is supplied and matched
    within 1e-6.
    """
    params = params or BpParams()
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    if yv.size != D.shape[0]:
        raise ValueError(f"measurement length {yv.size} does not match {D.shape[0]} rows")
    mat = D.matrix
    pinv = np.linalg.pinv(mat, rcond=RANK_TOL)
    # Feasibility of the affine set: y must lie in the numerical range.
    range_gap = float(np.linalg.norm(mat @ (pinv @ yv) - yv))
    scale = max(float(np.linalg.norm(yv)), 1.0)
    sizes = np.asarray(D.structure.sizes)

    def prox(t: np.ndarray) -> np.ndarray:
        nb = D.structure.norms(t)
        factor = np.maximum(0.0, 1.0 - 1.0 / (params.rho * np.maximum(nb, 1e-300)))
        return np.repeat(factor, sizes) * t

    if range_gap > 1e-9 * scale:
        sol = BlockVector(pinv @ yv, D.structure)
        return _result(D, sol, yv, 0, STATUS_INFEASIBLE,
                       support_tol=_bp_support_tol(pinv @ yv, D.structure))

    u = np.zeros(D.structure.dim, dtype=np.complex128)
    w = np.zeros_like(u)
    lam = np.zeros_like(u)
    status = STATUS_MAX_ITER
    iterations = params.max_iter
    for it in range(1, params.max_iter + 1):
        t = w - lam
        u = t - pinv @ (mat @ t - yv)
        w_new = prox(u + lam)
        dual_move = float(np.linalg.norm(w_new - w))
        w = w_new
        lam = lam + u - w
        primal_gap = float(np.linalg.norm(u - w))
        if (primal_gap <= params.tol_primal * max(float(np.linalg.norm(u)), 1.0)
                and dual_move <= params.tol_dual * max(float(np.linalg.norm(w)), 1.0)):
            status = STATUS_CONVERGED
            iterations = it
            break

    if status == STATUS_CONVERGED and h1_reference is not None:
        sol_h1 = h1_norm(BlockVector(u, D.structure))
        if abs(sol_h1 - h1_reference) <= 1e-6 * max(1.0, abs(h1_reference)):
            status = STATUS_EXACT
    sol = BlockVector(u, D.structure)
    return _result(D, sol, yv, iterations, status,
                   support_tol=_bp_support_tol(u, D.structure))


def _bp_support_tol(u: np.ndarray, structure: BlockStructure) -> float:
    norms = structure.norms(u)
    peak = float(norms.max()) if norms.size else 0.0
    return max(ZERO_BLOCK_TOL, BP_SUPPORT_REL_TOL * peak)


def homp(D: BlockDictionary, y, tol_res: float = 1e-10,
         max_iter: int | None = None) -> RecoveryResult:
    """Greedy block pursuit with injectivity-weighted selection.

    Each iteration picks the block maximizing ||block^H r|| / sigma_min(block)
    (ties to the lowest index; blocks already selected are skipped so a
    numerically stale correlation cannot stall the loop), refits by least
    squares on the enlarged support, and updates the residual.  Stops once
    ||r|| <= tol_res * max(||y||, 1); running out of iterations or blocks
    gives status "max-iterations".
    """
    if max_iter is None:
        max_iter = D.n_blocks
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    if yv.size != D.shape[0]:
        raise ValueError(f"measurement length {yv.size} does not match {D.shape[0]} rows")
    stop = tol_res * max(float(np.linalg.norm(yv)), 1.0)
    smin = D.block_sigma_min()

    solution = BlockVector.zeros(D.structure)
    residual = yv.copy()
    selected: list[int] = []
    iterations = 0
    while float(np.linalg.norm(residual)) > stop:
        if iterations >= max_iter or len(selected) == D.n_blocks:
            return _result(D, solution, yv, iterations, STATUS_MAX_ITER)
        corr = D.matrix.conj().T @ residual
        weights = D.structure.norms(corr) / smin
        if selected:
            weights[selected] = -np.inf
        selected.append(int(np.argmax(weights)))
        solution, _ = block_least_squares(D, selected, yv)
        residual = yv - D.matrix @ solution.entries
        iterations += 1
    return _result(D, solution, yv, iterations, STATUS_EXACT)


def guarantee_check(report: CoherenceReport, s: int) -> tuple[bool, bool]:
    """Evaluate the two sufficient recovery conditions for block sparsity s.

    Returns (spark_ok, coherence_ok): s < spark/2 and s < (1 + 1/mu_h)/2,
    both strict.  A trivial kernel or zero coherence makes the corresponding
    condition hold for every s.
    """
    if s < 0:
        raise ValueError("sparsity level must be nonnegative")
    if not report.spark_computed:
        raise ValueError("report carries no spark; rerun with compute_spark")
    spark_ok = True if report.spark_trivial else s < report.spark / 2.0
    coherence_ok = True if math.isinf(report.threshold_coherence) \
        else s < report.threshold_coherence
    return spark_ok, coherence_ok
