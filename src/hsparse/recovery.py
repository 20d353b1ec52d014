"""Recovery of block-sparse signals from exact linear measurements.

Three solvers for y = Phi v with v occupying few blocks:

* ``hp0_exhaustive_batch``: fewest-occupied-blocks search by support
  enumeration, one screen over a batch of measurements per cardinality;
  ``hp0_exhaustive`` is its batch of one;
* ``hbp_solve_batch``: mixed-norm relaxation (sum of block l2 norms) solved
  by alternating-direction splitting, one loop over a batch of measurements;
  ``hbp_solve`` is its batch of one;
* ``homp_batch``: greedy block selection with injectivity-weighted residual
  correlations, one loop over a batch of measurements; ``homp`` is its
  batch of one.

All three read y as ``D.unit_measurements`` (y 2^-exponent) and multiply
only with ``D.unit`` and the factors of it that D keeps from the first solve
on.  Solutions and their tolerances keep D's units; ||y||, residuals and
their floor 2^-exponent are in unit's, so each decision is the one in D's
units scaled by an exact power of two, and D 2^k with y 2^k gives the bits
of D with y.  Result residual norms go back to D's units by one ldexp.

``guarantee_check`` evaluates the two sufficient conditions (spark-based and
coherence-based) under which all three provably return the planted signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (ZERO_BLOCK_TOL, BlockDictionary, BlockVector, block_least_squares,
                     vector_norm)
from .coherence import SPARK_ENUMERATION_CAP, CoherenceReport
from .io import exact_number

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
# Rounding allowance of p0's screen, the c of its terms: the per-support
# refit's residual may exceed the projection residual ||(I - U U^H) y|| by
# c eps cond ||y||, the computed ||y||^2 - ||U^H y||^2 may fall short of its
# exact value by c (M + r) eps ||y||^2, and the computed ||y - U (U^H y)||
# of its own by c (M + r) eps ||y|| (see _screen).
_SCREEN_ROUNDING = 100.0
# Bytes of the (B r, T) product one p0 screening batch may build, and of the
# basis rows its confirmation gathers; both are taken in slices that fit it.
_SCREEN_BYTES = 4 * 2**20


@dataclass(frozen=True)
class RecoveryResult:
    """Solver outcome.

    ``support`` lists the blocks of ``solution`` with norm above the solver's
    support cutoff, and ``residual_norm`` is ||y - Phi solution||.
    """

    solution: BlockVector
    support: tuple[int, ...]
    iterations: int
    residual_norm: float
    status: str


def _results(D: BlockDictionary, solutions: list[BlockVector], ys: np.ndarray,
             iterations: list[int], statuses: list[str],
             support_rel_tol: float = 0.0) -> list[RecoveryResult]:
    """The RecoveryResult of each solution for its measurement in ys, in
    unit's units.  The block norms of all solutions come from one 2-D
    ``BlockStructure.norms`` call; a solution's support is its blocks of
    norm above max(ZERO_BLOCK_TOL, support_rel_tol times its largest block
    norm).  Its residual norm is ||y - D.unit solution||, one matrix-vector
    product per solution, taken back to D's units by one ldexp."""
    if not solutions:
        return []
    norms = D.structure.norms(np.stack([x.entries for x in solutions], axis=1))
    occupied = norms > np.maximum(ZERO_BLOCK_TOL, support_rel_tol * norms.max(axis=0))
    return [RecoveryResult(x, tuple(np.flatnonzero(column).tolist()), iters,
                           float(np.ldexp(vector_norm(y - D.unit @ x.entries), D.exponent)),
                           status)
            for x, y, column, iters, status
            in zip(solutions, ys, occupied.T, iterations, statuses)]


def hp0_exhaustive(D: BlockDictionary, y, **options) -> RecoveryResult:
    """Fewest-occupied-blocks recovery by exhaustive support search:
    ``hp0_exhaustive_batch`` of the one measurement y (see there)."""
    return hp0_exhaustive_batch(D, [y], **options)[0]


def hp0_exhaustive_batch(D: BlockDictionary, ys, *, tol: float = 1e-8,
                         cap: int = SPARK_ENUMERATION_CAP,
                         max_cardinality: int | None = None) -> list[RecoveryResult]:
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
    of supports, one product C = U^H Y of the stacked rows U^H of the
    supports' orthonormal range bases (RANK_TOL cutoff) with the open
    columns of Y, taken in slices of trials that keep C within
    _SCREEN_BYTES, gives each support's squared projection residual
    ||y||^2 - ||U^H y||^2; the (support, trial) pairs it keeps are then
    screened on ||y - U (U^H y)|| in one batched pass, which the
    cancellation of that difference cannot blur.  Supports that pass, with
    an allowance for the rounding of the screen and of the refit, are
    refitted by ``block_least_squares`` in lexicographic order and admitted
    on that refit's residual alone; refitting stops at the first admitted
    solution farther than tol from an earlier one, which settles
    "non-unique".  U^H comes from ``D.screening_bases`` with the stacks'
    pseudo-inverses P, and the refits read P through ``D.factors``, so D
    factors each support once for all measurements, refits and later
    calls, as long as they fit in blocks.FACTOR_CACHE_BYTES; larger ones are
    recomputed on every call and their refits factor the support afresh.
    Every measurement gets its own RecoveryResult, in the order of ys,
    equal bit for bit to a search for it alone.  The floor 1 of
    max(||y||, 1) is absolute (2^-exponent in unit's units), as omp's is, so
    at the small end a y of norm at most tol closes as zero.
    """
    n = D.n_blocks
    if n > exact_number("cap", cap, int):
        raise ValueError("exhaustive search infeasible; raise cap explicitly")
    if not 0 <= tol < math.inf:   # also rejects NaN
        raise ValueError("tol must be nonnegative and finite")
    depth = n if max_cardinality is None else min(
        exact_number("max_cardinality", max_cardinality, int), n)
    if depth < 0:
        raise ValueError("max_cardinality must be nonnegative")
    yvs = D.unit_measurements(ys)
    y_norms = np.array([vector_norm(yv) for yv in yvs])
    feas_tols = tol * np.maximum(y_norms, 2.0 ** -D.exponent)
    solutions = [BlockVector.zeros(D.structure)] * len(yvs)
    iterations = [0] * len(yvs)
    status = [STATUS_EXACT] * len(yvs)
    open_trials = np.flatnonzero(y_norms > feas_tols).tolist()
    evaluated = 0
    for k in range(1, depth + 1):
        if not open_trials:
            break
        evaluated += math.comb(n, k)
        Y = np.stack([yvs[j] for j in open_trials], axis=1)
        passing = _screen(D.screening_bases(k), Y, y_norms[open_trials],
                          feas_tols[open_trials])
        still_open = []
        for j, candidates in zip(open_trials, passing):
            found = _refit(D, sorted(candidates), ys[j], math.ldexp(feas_tols[j], D.exponent), tol)
            if found is None:
                still_open.append(j)
            else:
                (solutions[j], status[j]), iterations[j] = found, evaluated
        open_trials = still_open
    for j in open_trials:
        iterations[j], status[j] = evaluated, STATUS_INFEASIBLE
    return _results(D, solutions, yvs, iterations, status)


def _screen(bases, Y: np.ndarray, y_norms: np.ndarray,
            feas_tols: np.ndarray) -> list[list[tuple[int, ...]]]:
    """Per column of Y, the supports whose screened residual passes.

    With slack = c eps ||y|| and c = _SCREEN_ROUNDING, a support whose
    refit's residual is at most feas_tol has a projection residual
    ||(I - U U^H) y|| of at most bound = feas_tol + cond slack.  The screen
    reads rho2 = ||y||^2 - ||U^H y||^2, computed within c (M + r) eps ||y||^2
    of its exact value, so it drops the supports whose rho2 exceeds bound^2
    by more than that.  Cancellation leaves rho2 no sharper than about
    sqrt(c (M + r) eps) ||y||, so the others pass only when their
    ||y - U (U^H y)||, computed within c (M + r) eps ||y|| of its exact
    value, is at most bound plus that.  The screen is thus a superset
    filter as sharp as the projection residual, and the refits decide.
    Everything here is in unit's units.
    """
    passing: list[list[tuple[int, ...]]] = [[] for _ in range(Y.shape[1])]
    eps = np.finfo(float).eps
    y2 = y_norms ** 2
    slack = _SCREEN_ROUNDING * eps * y_norms
    for supports, _, cond, basis in bases:
        rows = basis.reshape(supports.shape[0], -1, Y.shape[0])
        rounding = _SCREEN_ROUNDING * (Y.shape[0] + rows.shape[1]) * eps
        step = max(1, _SCREEN_BYTES // (16 * basis.shape[0]))
        for first in range(0, Y.shape[1], step):
            part = slice(first, first + step)
            # |U^H y|^2 summed over each support's rows, on the float view
            # (real and imaginary parts interleaved).
            C = (basis @ Y[:, part]).view(np.float64)
            C = np.add.reduce(np.square(C, out=C).reshape(*rows.shape[:2], -1), axis=1)
            rho2 = y2[part] - (C[:, 0::2] + C[:, 1::2])
            bound = feas_tols[part] + cond[:, None] * slack[part]
            near = np.nonzero(rho2 <= bound ** 2 + rounding * y2[part])
            at = first + near[1]
            ok = (_projection_residuals(rows, near[0], Y[:, at])
                  <= bound[near] + rounding * y_norms[at])
            for row, col in zip(near[0][ok].tolist(), at[ok].tolist()):
                passing[col].append(tuple(supports[row].tolist()))
    return passing


def _projection_residuals(rows: np.ndarray, which: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """||y - U (U^H y)|| of each column y of Y against the basis rows U^H of
    rows[which[i]], in slices whose gathered rows stay within _SCREEN_BYTES."""
    out = np.empty(len(which))
    step = max(1, _SCREEN_BYTES // (16 * rows[0].size))
    for first in range(0, len(which), step):
        part = slice(first, first + step)
        U, y = rows[which[part]], Y[:, part].T
        projection = np.einsum("prm,pr->pm", U.conj(), np.einsum("prm,pm->pr", U, y))
        out[part] = np.linalg.norm(y - projection, axis=1)
    return out


def _refit(D: BlockDictionary, candidates, y, feas_tol: float,
           tol: float) -> tuple[BlockVector, str] | None:
    """(solution, status) of the first feasible refit of y (in D's units, as
    block_least_squares answers, and so is feas_tol) among the sorted
    candidates, or None when none is feasible; see hp0_exhaustive_batch."""
    feasible: list[BlockVector] = []
    for support in candidates:
        solution, residual = block_least_squares(D, support, y)
        if residual > feas_tol:
            continue
        if any(float(np.linalg.norm(a.entries - solution.entries)) > tol for a in feasible):
            return feasible[0], STATUS_NON_UNIQUE
        feasible.append(solution)
    return (feasible[0], STATUS_EXACT) if feasible else None


def hbp_solve(D: BlockDictionary, y, **options) -> RecoveryResult:
    """Mixed-norm minimization subject to Phi u = y: ``hbp_solve_batch``
    of the one measurement y (see there)."""
    return hbp_solve_batch(D, [y], **options)[0]


def hbp_solve_batch(D: BlockDictionary, ys, *, rho: float = 1.0, tol_primal: float = 1e-9,
                    tol_dual: float = 1e-9, max_iter: int = 100_000) -> list[RecoveryResult]:
    """Mixed-norm minimization subject to Phi u = y for each measurement in
    ys, by one splitting loop over the columns of Y = [y_1 ... y_T].

    Each column alternates (1) projection of the current point onto its
    affine feasible set through ``D.unit`` and its pseudo-inverse ``D.pinv``
    (computed once per dictionary), (2) blockwise shrinkage
    w_i = max(0, 1 - 1/(rho ||t_i||)) t_i of t = u + lambda (the proximal
    step of the sum-of-block-norms objective; the complex block is scaled by
    a real factor), and (3) the multiplier update lambda += u - w.  A column
    stops when ||u - w|| <= tol_primal * max(||u||, 1) and the w step moved
    less than tol_dual relatively, ||w_new - w|| <= tol_dual * max(||w_new||, 1).
    The primal test is evaluated first, on every running column; the dual
    move and ||w_new|| are computed only on iterations where some column
    passes it, which leaves the outcome of the two tests together unchanged.
    A stopped column is frozen and dropped from the active set, so each step
    is one matrix product over the columns still running.  A column whose y
    lies outside the numerical range of Phi (pseudo-inverse residual above
    BP_RANGE_TOL * max(||y||, 1)) is not iterated: its status is
    "infeasible" and its solution pinv(Phi) y.

    Every column gets its own RecoveryResult, in the order of ys.  A
    column's bits depend on the batch it runs in: the BLAS rounds a column
    of a matrix product differently with the width of the product, so its
    iterates match those of a solve of it alone only to rounding.  A solve
    of each column alone gives its solution within 1e-12 relatively, and
    the same status, support and iteration count unless a stop test falls
    within that rounding of its tolerance (``test_batch_matches_solves_of_one``
    checks both).  The solution is the feasible iterate u, so the
    measurement equation holds to projection accuracy at any exit; its
    support is read with a relative block-norm cutoff since u is never
    exactly block-sparse.  Status is "converged" or "max-iterations", from
    the column's own stop tests, or "infeasible".
    """
    # Negated comparisons, so that NaN fails them too.
    if not (0 < rho < math.inf and tol_primal > 0 and tol_dual > 0):
        raise ValueError("splitting parameters must be positive and finite")
    if not (tol_primal < 1 and tol_dual < 1):
        raise ValueError("tolerances must be below 1")
    max_iter = exact_number("max_iter", max_iter, int)   # 3.0 is kept as 3, for range()
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")
    Y = np.ascontiguousarray(D.unit_measurements(ys).T)
    mat, pinv, structure = D.unit, D.pinv, D.structure

    def prox(v: np.ndarray) -> np.ndarray:
        # max(0, 1 - 1/(rho max(||v_i||, 1e-300))) v_i with the ufuncs of
        # that expression, in its order, each in place on one real buffer.
        factor = np.abs(v)
        np.square(factor, out=factor)
        factor = structure.block_sums(factor)
        np.sqrt(factor, out=factor)
        np.maximum(factor, 1e-300, out=factor)
        np.multiply(rho, factor, out=factor)
        np.divide(1.0, factor, out=factor)
        np.subtract(1.0, factor, out=factor)
        np.maximum(0.0, factor, out=factor)
        return structure.spread(factor) * v

    def column_norms(x: np.ndarray) -> np.ndarray:
        # np.linalg.norm(x, axis=0) without its dispatch: the same expression.
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))

    # Feasibility of each affine set: y must lie in the numerical range.
    least_norm = pinv @ Y
    range_gap = column_norms(mat @ least_norm - Y)
    infeasible = range_gap > BP_RANGE_TOL * np.maximum(column_norms(Y), 2.0 ** -D.exponent)

    U = least_norm   # the answer for infeasible columns; the rest are overwritten
    iterations = [0 if gap else max_iter for gap in infeasible]
    status = [STATUS_INFEASIBLE if gap else STATUS_MAX_ITER for gap in infeasible]
    active = np.flatnonzero(~infeasible)
    y = Y[:, active]
    u = np.zeros((structure.dim, active.size), dtype=np.complex128)
    w = np.zeros_like(u)
    lam = np.zeros_like(u)
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        t = w - lam
        u = t - pinv @ (mat @ t - y)
        v = u + lam
        w_old, w = w, prox(v)
        lam = v - w   # (lam + u) - w, since IEEE addition commutes
        done = column_norms(u - w) <= tol_primal * np.maximum(column_norms(u), 1.0)
        if not done.any():
            continue
        done &= column_norms(w - w_old) <= tol_dual * np.maximum(column_norms(w), 1.0)
        finished = active[done]
        if finished.size:
            U[:, finished] = u[:, done]
            for j in finished:
                iterations[j], status[j] = it, STATUS_CONVERGED
            running = ~done
            active, y, u, w, lam = (active[running], y[:, running], u[:, running],
                                    w[:, running], lam[:, running])
    U[:, active] = u
    return _results(D, [BlockVector(U[:, j], structure) for j in range(len(ys))], Y.T,
                    iterations, status, support_rel_tol=BP_SUPPORT_REL_TOL)


def homp(D: BlockDictionary, y, **options) -> RecoveryResult:
    """Greedy block pursuit of the one measurement y: ``homp_batch`` of [y]
    (see there)."""
    return homp_batch(D, [y], **options)[0]


def homp_batch(D: BlockDictionary, ys, *, tol_res: float = 1e-10,
               max_iter: int | None = None) -> list[RecoveryResult]:
    """Greedy block pursuit with injectivity-weighted selection of each
    measurement in ys, by one loop over the trials still running.

    Each iteration picks, for every running trial, the block maximizing
    ||block^H r|| / sigma_min(block) (ties to the lowest index; blocks
    already selected are skipped so a numerically stale correlation cannot
    stall the loop), refits by least squares on the enlarged support, and
    updates the residual.  A trial stops once ||r|| <= tol_res * max(||y||, 1),
    an absolute floor; running out of iterations or blocks: "max-iterations".

    Each running trial's correlations are its own product of ``D.unit^H``
    with its residual, so its pick is that of a pursuit of it alone, ties
    included; one block-norm pass over ``D.unit_sigma`` weighs them all, D's
    own weights times 2^-exponent.  Block i's rows of the adjoint and its
    sigma_min are both scaled by 2^-f_i, f_i the exponent of that sigma_min,
    once per call: exact, so the weights keep their bits, and no block's
    correlations underflow next to another's however far apart the blocks'
    scales lie.  The pseudo-inverses of the enlarged supports come from
    ``D.factors`` (kept by p0, or factored in one batched SVD per stack
    width).  Each trial's fit, residual and stop test stay its own, so every
    trial gets its own RecoveryResult, in the order of ys, equal bit for bit
    to a pursuit of it alone.  A fit is the pseudo-inverse times y,
    scattered into zeros; its residual y - Phi solution is the one the next
    stop test takes the norm of, and the result's ``residual_norm`` is that
    norm.
    """
    max_iter = D.n_blocks if max_iter is None else exact_number("max_iter", max_iter, int)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 <= tol_res < math.inf:   # also rejects NaN
        raise ValueError("tol_res must be nonnegative and finite")
    yvs = D.unit_measurements(ys)
    stops = [tol_res * max(vector_norm(yv), 2.0 ** -D.exponent) for yv in yvs]
    # The C-ordered conjugate is scaled and then transposed, so the adjoint
    # is laid out as D.unit.conj().T and the BLAS rounds its products alike.
    exponents = np.frexp(D.unit_sigma[:, 0])[1]
    adjoint = D.unit.conj()
    floats = adjoint.view(np.float64)
    np.ldexp(floats, -np.repeat(D.structure.spread(exponents), 2), out=floats)
    adjoint, smin = adjoint.T, np.ldexp(D.unit_sigma[:, :1], -exponents[:, None])
    solutions = [np.zeros(D.structure.dim, dtype=np.complex128) for _ in yvs]
    residuals = [yv.copy() for yv in yvs]
    selected: list[list[int]] = [[] for _ in yvs]
    status = [STATUS_EXACT] * len(yvs)
    running = range(len(yvs))
    while True:
        still = []
        for j in running:
            if vector_norm(residuals[j]) <= stops[j]:
                continue
            if len(selected[j]) >= max_iter or len(selected[j]) == D.n_blocks:
                status[j] = STATUS_MAX_ITER
                continue
            still.append(j)
        running = still
        if not running:
            break
        corr = np.stack([adjoint @ residuals[j] for j in running], axis=1)
        weights = D.structure.norms(corr) / smin
        for col, j in enumerate(running):
            weights[selected[j], col] = -np.inf
        for j, pick in zip(running, np.argmax(weights, axis=0).tolist()):
            selected[j].append(pick)
        supports = [tuple(sorted(selected[j])) for j in running]
        for j, support, pinv in zip(running, supports, D.factors(supports)):
            solutions[j] = np.zeros(D.structure.dim, dtype=np.complex128)
            solutions[j][D.structure.column_indices(support)] = pinv @ yvs[j]
            residuals[j] = yvs[j] - D.unit @ solutions[j]
    return _results(D, [BlockVector(x, D.structure) for x in solutions], yvs,
                    [len(chosen) for chosen in selected], status)


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
