"""Recovery of block-sparse signals from exact linear measurements.

Three solvers for y = Phi v with v occupying few blocks:

* ``hp0_exhaustive_batch``: fewest-occupied-blocks search by support
  enumeration, one screen over a batch of measurements per cardinality;
  ``hp0_exhaustive`` is its batch of one;
* ``hbp_solve_batch``: mixed-norm relaxation (sum of block l2 norms) solved
  by alternating-direction splitting, one loop over a batch of measurements;
  ``hbp_solve`` is its batch of one;
* ``homp``: greedy block selection with injectivity-weighted residual
  correlations.

All three read the factors that depend only on the dictionary from a
``SolverContext``; a sweep shares one across its trials, and a solver given
none builds a throwaway one.

``guarantee_check`` evaluates the two sufficient conditions (spark-based and
coherence-based) under which all three provably return the planted signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (RANK_TOL, ZERO_BLOCK_TOL, BlockDictionary, BlockStructure,
                     BlockVector, _fit_factored, _fit_support, column_stacks, h1_norm,
                     support_stacks)
# bench/spans.py times the least-squares calls it finds in this module.
from .blocks import block_least_squares  # noqa: F401
from .coherence import SPARK_ENUMERATION_CAP, CoherenceReport

STATUS_EXACT = "exact"
STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max-iterations"
STATUS_INFEASIBLE = "infeasible"
STATUS_NON_UNIQUE = "non-unique"

# Relative block-norm cutoff for reading a support off a splitting iterate,
# which is feasible but never exactly block-sparse.
BP_SUPPORT_REL_TOL = 1e-6
# Relative pseudo-inverse residual above which bp reports y "infeasible".
BP_RANGE_TOL = 1e-9
# Multiple of eps * cond * ||y|| by which p0's batched screen may understate
# the residual of the per-support refit that decides feasibility.
_SCREEN_ROUNDING = 100.0
# Bytes of p0 screening bases one SolverContext keeps.  A cardinality whose
# bases would take the total past it is screened from bases computed afresh
# chunk by chunk, as without a context, so memory stays bounded.
CONTEXT_CACHE_BYTES = 32 * 2**20
# Bytes of one kept support's lookup entry beyond 8 per block: its key and
# value tuples and its dict slot.
_FIT_ENTRY_BYTES = 160
# Bytes of the (B, M, T) residual one p0 screening product may build; the
# open trials of a level are screened in slices that fit it.
_SCREEN_BYTES = 4 * 2**20


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
        # Negated comparisons, so that NaN fails them too.
        if not (self.rho > 0 and self.tol_primal > 0 and self.tol_dual > 0):
            raise ValueError("splitting parameters must be positive")
        if not (self.tol_primal < 1 and self.tol_dual < 1):
            raise ValueError("tolerances must be below 1")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")


class SolverContext:
    """Factors of one dictionary that every solve on it can reuse.

    Each factor is computed on first use and kept for the context's
    lifetime; a sweep builds one per dictionary and passes it to every solve.
    Filling is not locked, so each thread needs its own context.  Results
    are bit-identical with or without sharing, because each factor is the
    expression the solver would otherwise evaluate per call:

    * ``screening_bases(k)``: p0's batched stacks and pseudo-inverses for
      every k-subset of blocks.  Kept while the context's total stays within
      CONTEXT_CACHE_BYTES; past it they are streamed afresh per call;
    * ``least_squares(support, yv)``: the least-squares fit on one support,
      read from the kept pseudo-inverse of that support when its
      cardinality's bases are kept, so p0 refits and omp steps factor a
      support at most once per context;
    * ``pinv``: bp's pseudo-inverse of the whole matrix;
    * ``adjoint``: omp's conjugate transpose of the matrix; the block
      ``sigma_min`` it also reads is stored on the dictionary.
    """

    def __init__(self, D: BlockDictionary):
        self.dictionary = D
        self._bases: dict[int, list] = {}
        # Support tuple -> (its chunk of kept bases, its row in the chunk).
        self._fits: dict[tuple[int, ...], tuple[tuple, int]] = {}
        self._cached_bytes = 0

    @cached_property
    def pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.dictionary.matrix, rcond=RANK_TOL)

    @cached_property
    def adjoint(self) -> np.ndarray:
        return self.dictionary.matrix.conj().T

    def screening_bases(self, k: int):
        """(supports, stacks, pinv, cond) per chunk of ``support_stacks(D, k)``.

        stacks holds the (B, M, w) column stacks, each contiguous; pinv their
        pseudo-inverses ``np.linalg.pinv(stacks, rcond=RANK_TOL)``, bit for
        bit those ``block_least_squares`` computes, so ||y - S P y|| is the
        residual of the least-squares fit on a support; cond is the largest
        over the smallest singular value above that cutoff.
        """
        if k in self._bases:
            return self._bases[k]
        D = self.dictionary
        bases = (_screening_basis(supports, column_stacks(D, cols))
                 for supports, cols in support_stacks(D, k))
        need = _bases_bytes(D, k)
        if self._cached_bytes + need > CONTEXT_CACHE_BYTES:
            return bases
        self._bases[k] = list(bases)
        self._cached_bytes += need
        for chunk in self._bases[k]:
            for row, support in enumerate(chunk[0].tolist()):
                self._fits[tuple(support)] = chunk, row
        return self._bases[k]

    def least_squares(self, support: tuple[int, ...],
                      yv: np.ndarray) -> tuple[np.ndarray, float]:
        """``blocks._fit_support`` of the sorted, valid support and the
        validated measurement yv, bit for bit: (coefficients, residual norm).

        A support whose cardinality ``screening_bases`` keeps is fitted from
        its kept pseudo-inverse; any other is factored afresh.
        """
        hit = self._fits.get(support)
        if hit is None:
            return _fit_support(self.dictionary, support, yv)
        (_, stacks, pinv, _), row = hit
        return _fit_factored(self.dictionary, support, yv, stacks[row], pinv[row])


def _context_for(D: BlockDictionary, context: SolverContext | None) -> SolverContext:
    """context, checked to belong to D, or a throwaway one for D."""
    if context is None:
        return SolverContext(D)
    if context.dictionary is not D:
        raise ValueError("solver context belongs to another dictionary")
    return context


def _screening_basis(supports, stacks):
    stacks = np.ascontiguousarray(stacks)
    # np.linalg.pinv(stacks, rcond=RANK_TOL) step by step, which keeps the
    # singular values that cond needs.
    u, s, vh = np.linalg.svd(stacks.conj(), full_matrices=False)
    kept = s > RANK_TOL * s[:, :1]
    inverse = np.divide(1, s, where=kept, out=np.zeros_like(s))
    pinv = np.swapaxes(vh, 1, 2) @ (inverse[:, :, None] * np.swapaxes(u, 1, 2))
    cond = s[:, 0] / np.where(kept, s, np.inf).min(axis=1)
    return supports, stacks, pinv, cond


def _bases_bytes(D: BlockDictionary, k: int) -> int:
    """Upper bound on the bytes of the screening bases of all k-subsets:
    stack and pseudo-inverse, supports and cond, and the lookup entry."""
    rows = D.shape[0]
    widest = sum(sorted(D.structure.sizes)[-k:])
    return math.comb(D.n_blocks, k) * (2 * rows * widest * 16 + 8 * (k + 1)
                                       + _FIT_ENTRY_BYTES + 8 * k)


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
                   max_cardinality: int | None = None, *,
                   context: SolverContext | None = None) -> RecoveryResult:
    """Fewest-occupied-blocks recovery by exhaustive support search:
    ``hp0_exhaustive_batch`` of the one measurement y (see there)."""
    return hp0_exhaustive_batch(D, [y], tol, cap, max_cardinality, context=context)[0]


def hp0_exhaustive_batch(D: BlockDictionary, ys, tol: float = 1e-8,
                         cap: int = SPARK_ENUMERATION_CAP,
                         max_cardinality: int | None = None, *,
                         context: SolverContext | None = None) -> list[RecoveryResult]:
    """Fewest-occupied-blocks recovery of each measurement in ys by
    exhaustive support search, all of them screened together.

    Supports are scanned by increasing cardinality (lexicographic within a
    cardinality); the first cardinality with a feasible least-squares fit
    (residual below tol * max(||y||, 1)) wins.  If several supports at that
    cardinality are feasible with solutions differing by more than tol in
    norm, the status is "non-unique" and the lexicographically first solution
    is returned.  ``max_cardinality`` bounds the search depth; supports up to
    that size exhausted without a feasible fit give status "infeasible".
    ``iterations`` counts every support of every scanned cardinality.

    Each cardinality screens the measurements still open at once: per batch
    of supports, one product R = Y - S (P Y) of the stacks S, their
    pseudo-inverses P (RANK_TOL cutoff) and the open columns of Y, taken in
    slices of trials that keep R within _SCREEN_BYTES.  Supports that pass,
    with an allowance for the rounding of the batched product, are refitted
    by ``context.least_squares`` in lexicographic order and admitted on that
    refit's residual alone; refitting stops at the first admitted solution
    farther than tol from an earlier one, which settles "non-unique".
    S and P come from ``context.screening_bases``, so a shared context
    factors each support once for all measurements and refits, as long as
    they fit in CONTEXT_CACHE_BYTES; larger ones are recomputed on every
    call and their refits factor the support afresh.  Every measurement
    gets its own RecoveryResult, in the order of ys, equal bit for bit to
    a search for it alone.
    """
    n = D.n_blocks
    if n > cap:
        raise ValueError("exhaustive search infeasible; raise cap explicitly")
    if not tol >= 0:   # also rejects NaN
        raise ValueError("tol must be nonnegative")
    context = _context_for(D, context)
    yvs = [D.measurement(y) for y in ys]
    y_norms = np.array([float(np.linalg.norm(yv)) for yv in yvs])
    feas_tols = tol * np.maximum(y_norms, 1.0)
    depth = n if max_cardinality is None else min(int(max_cardinality), n)
    zero = BlockVector.zeros(D.structure)

    results: list[RecoveryResult | None] = [None] * len(yvs)
    open_trials = []
    for j, yv in enumerate(yvs):
        if y_norms[j] <= feas_tols[j]:
            results[j] = _result(D, zero, yv, 0, STATUS_EXACT)
        else:
            open_trials.append(j)
    evaluated = 0
    for k in range(1, depth + 1):
        if not open_trials:
            break
        evaluated += math.comb(n, k)
        Y = np.stack([yvs[j] for j in open_trials], axis=1)
        passing = _screen(context.screening_bases(k), Y, y_norms[open_trials],
                          feas_tols[open_trials])
        still_open = []
        for j, candidates in zip(open_trials, passing):
            found = _refit(context, sorted(candidates), yvs[j], feas_tols[j], tol)
            if found is None:
                still_open.append(j)
            else:
                solution, status = found
                results[j] = _result(D, BlockVector(solution, D.structure), yvs[j],
                                     evaluated, status)
        open_trials = still_open
    for j in open_trials:
        results[j] = _result(D, zero, yvs[j], evaluated, STATUS_INFEASIBLE)
    return results


def _screen(bases, Y: np.ndarray, y_norms: np.ndarray,
            feas_tols: np.ndarray) -> list[list[tuple[int, ...]]]:
    """Per column of Y, the supports whose screened residual passes."""
    passing: list[list[tuple[int, ...]]] = [[] for _ in range(Y.shape[1])]
    slack = _SCREEN_ROUNDING * np.finfo(float).eps * y_norms
    for supports, stacks, pinv, cond in bases:
        step = max(1, _SCREEN_BYTES // (16 * stacks.shape[0] * stacks.shape[1]))
        for first in range(0, Y.shape[1], step):
            part = slice(first, first + step)
            Yp = Y[:, part]
            screened = np.linalg.norm(Yp - stacks @ (pinv @ Yp), axis=1)
            ok = screened <= feas_tols[part] + cond[:, None] * slack[part]
            for row, col in zip(*np.nonzero(ok)):
                passing[first + col].append(tuple(supports[row].tolist()))
    return passing


def _refit(context: SolverContext, candidates, yv: np.ndarray, feas_tol: float,
           tol: float) -> tuple[np.ndarray, str] | None:
    """(solution, status) of the first feasible refit among the sorted
    candidates, or None when none is feasible; see hp0_exhaustive_batch."""
    feasible: list[np.ndarray] = []
    for support in candidates:
        coeffs, residual = context.least_squares(support, yv)
        if residual > feas_tol:
            continue
        if any(float(np.linalg.norm(a - coeffs)) > tol for a in feasible):
            return feasible[0], STATUS_NON_UNIQUE
        feasible.append(coeffs)
    return (feasible[0], STATUS_EXACT) if feasible else None


def hbp_solve(D: BlockDictionary, y, params: BpParams | None = None,
              h1_reference: float | None = None, *,
              context: SolverContext | None = None) -> RecoveryResult:
    """Mixed-norm minimization subject to Phi u = y: ``hbp_solve_batch``
    of the one measurement y (see there)."""
    return hbp_solve_batch(D, [y], params, [h1_reference], context=context)[0]


def hbp_solve_batch(D: BlockDictionary, ys, params: BpParams | None = None,
                    h1_references=None, *,
                    context: SolverContext | None = None) -> list[RecoveryResult]:
    """Mixed-norm minimization subject to Phi u = y for each measurement in
    ys, by one splitting loop over the columns of Y = [y_1 ... y_T].

    Each column alternates (1) projection of the current point onto its
    affine feasible set through the pseudo-inverse ``context.pinv``
    (computed once per context), (2) blockwise shrinkage
    w_i = max(0, 1 - 1/(rho ||t_i||)) t_i of t = u + lambda (the proximal
    step of the sum-of-block-norms objective; the complex block is scaled by
    a real factor), and (3) the multiplier update lambda += u - w.  A column
    stops when ||u - w|| <= tol_primal * max(||u||, 1) and the w step moved
    less than tol_dual relatively; it is then frozen and dropped from the
    active set, so each step is one matrix product over the columns still
    running.  A column whose y lies outside the numerical range of Phi
    (relative pseudo-inverse residual above BP_RANGE_TOL) is not iterated:
    its status is "infeasible" and its solution pinv(Phi) y.

    Every column gets its own RecoveryResult, in the order of ys, with the
    status and iteration count of a solve of that column alone.  The
    solution is the feasible iterate u, so the measurement equation holds
    to projection accuracy at any exit; its support is read with a relative
    block-norm cutoff since u is never exactly block-sparse.  Status is
    "converged", "max-iterations", or "exact" when ``h1_references`` (one
    entry per measurement, each None or e.g. the objective of an
    independent fewest-blocks solve of that measurement) supplies a value
    the converged objective matches within 1e-6.
    """
    params = params or BpParams()
    Y = np.empty((D.shape[0], len(ys)), dtype=np.complex128)
    for j, y in enumerate(ys):
        Y[:, j] = D.measurement(y)
    if h1_references is None:
        h1_references = [None] * len(ys)
    if len(h1_references) != len(ys):
        raise ValueError(f"{len(h1_references)} h1 references for {len(ys)} measurements")
    mat = D.matrix
    pinv = _context_for(D, context).pinv
    sizes = np.asarray(D.structure.sizes)

    def prox(t: np.ndarray) -> np.ndarray:
        nb = D.structure.norms(t)
        factor = np.maximum(0.0, 1.0 - 1.0 / (params.rho * np.maximum(nb, 1e-300)))
        return np.repeat(factor, sizes, axis=0) * t

    def column_norms(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x, axis=0)

    # Feasibility of each affine set: y must lie in the numerical range.
    least_norm = pinv @ Y
    range_gap = column_norms(mat @ least_norm - Y)
    infeasible = range_gap > BP_RANGE_TOL * np.maximum(column_norms(Y), 1.0)

    U = least_norm   # the answer for infeasible columns; the rest are overwritten
    iterations = [0 if gap else params.max_iter for gap in infeasible]
    status = [STATUS_INFEASIBLE if gap else STATUS_MAX_ITER for gap in infeasible]
    active = np.flatnonzero(~infeasible)
    y = Y[:, active]
    u = np.zeros((D.structure.dim, active.size), dtype=np.complex128)
    w = np.zeros_like(u)
    lam = np.zeros_like(u)
    for it in range(1, params.max_iter + 1):
        if not active.size:
            break
        t = w - lam
        u = t - pinv @ (mat @ t - y)
        w_new = prox(u + lam)
        dual_move = column_norms(w_new - w)
        w = w_new
        lam = lam + u - w
        primal_gap = column_norms(u - w)
        done = ((primal_gap <= params.tol_primal * np.maximum(column_norms(u), 1.0))
                & (dual_move <= params.tol_dual * np.maximum(column_norms(w), 1.0)))
        if done.any():
            finished = active[done]
            U[:, finished] = u[:, done]
            for j in finished:
                iterations[j], status[j] = it, STATUS_CONVERGED
            running = ~done
            active, y, u, w, lam = (active[running], y[:, running], u[:, running],
                                    w[:, running], lam[:, running])
    U[:, active] = u

    results = []
    for j, h1_reference in enumerate(h1_references):
        sol = BlockVector(U[:, j], D.structure)
        if status[j] == STATUS_CONVERGED and h1_reference is not None:
            if abs(h1_norm(sol) - h1_reference) <= 1e-6 * max(1.0, abs(h1_reference)):
                status[j] = STATUS_EXACT
        results.append(_result(D, sol, Y[:, j], iterations[j], status[j],
                               support_tol=_bp_support_tol(U[:, j], D.structure)))
    return results


def _bp_support_tol(u: np.ndarray, structure: BlockStructure) -> float:
    norms = structure.norms(u)
    peak = float(norms.max()) if norms.size else 0.0
    return max(ZERO_BLOCK_TOL, BP_SUPPORT_REL_TOL * peak)


def homp(D: BlockDictionary, y, tol_res: float = 1e-10,
         max_iter: int | None = None, *,
         context: SolverContext | None = None) -> RecoveryResult:
    """Greedy block pursuit with injectivity-weighted selection.

    Each iteration picks the block maximizing ||block^H r|| / sigma_min(block)
    (ties to the lowest index; blocks already selected are skipped so a
    numerically stale correlation cannot stall the loop), refits by least
    squares on the enlarged support, and updates the residual.  Stops once
    ||r|| <= tol_res * max(||y||, 1); running out of iterations or blocks
    gives status "max-iterations".  The adjoint comes from ``context`` and
    is kept there for its lifetime.  y is validated once; each refit is
    ``context.least_squares``, which is ``block_least_squares`` without its
    per-call checks and reads the support's pseudo-inverse from the context
    when p0 has kept that cardinality's bases.
    """
    if max_iter is None:
        max_iter = D.n_blocks
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol_res >= 0:   # also rejects NaN
        raise ValueError("tol_res must be nonnegative")
    context = _context_for(D, context)
    yv = D.measurement(y)
    stop = tol_res * max(float(np.linalg.norm(yv)), 1.0)
    adjoint, smin = context.adjoint, D.block_sigma_min()

    solution = np.zeros(D.structure.dim, dtype=np.complex128)
    residual = yv.copy()
    selected: list[int] = []
    iterations = 0
    status = STATUS_EXACT
    while float(np.linalg.norm(residual)) > stop:
        if iterations >= max_iter or len(selected) == D.n_blocks:
            status = STATUS_MAX_ITER
            break
        corr = adjoint @ residual
        weights = D.structure.norms(corr) / smin
        if selected:
            weights[selected] = -np.inf
        selected.append(int(np.argmax(weights)))
        solution, _ = context.least_squares(tuple(sorted(selected)), yv)
        residual = yv - D.matrix @ solution
        iterations += 1
    return _result(D, BlockVector(solution, D.structure), yv, iterations, status)


def guarantee_check(report: CoherenceReport, s: int) -> tuple[bool, bool]:
    """Evaluate the two sufficient recovery conditions for block sparsity s.

    Returns (spark_ok, coherence_ok): s < threshold_spark (spark/2) and
    s < threshold_coherence ((1 + 1/mu_h)/2), both strict.  A trivial kernel
    (infinite spark) or zero coherence makes the condition hold for every s.
    """
    if s < 0:
        raise ValueError("sparsity level must be nonnegative")
    if report.spark is None:
        raise ValueError("report carries no spark; rerun with compute_spark")
    return s < report.threshold_spark, s < report.threshold_coherence
