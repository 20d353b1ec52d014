import gc
import itertools
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hsparse.blocks as blocks
import hsparse.recovery as recovery
from hsparse import (BlockDictionary, BlockStructure, BlockVector,
                     ZERO_BLOCK_TOL, coherence_report, complex_standard_normal,
                     guarantee_check, h1_norm, hbp_solve, hbp_solve_batch, homp,
                     homp_batch, hp0_exhaustive, hp0_exhaustive_batch,
                     identity_dft_pair, random_block_dictionary,
                     uniform_structure)
from hsparse.experiments import SUCCESS_TOL


def planted(D, support, seed):
    rng = np.random.default_rng(seed)
    entries = np.zeros(D.structure.dim, dtype=complex)
    for i in support:
        sl = D.structure.block_slice(i)
        entries[sl] = complex_standard_normal(rng, sl.stop - sl.start)
    v = BlockVector(entries, D.structure)
    return v, D.matrix @ entries


def rel_error(result, truth):
    return np.linalg.norm(result.solution.entries - truth.entries) / np.linalg.norm(truth.entries)


class TestHp0:
    def test_zero_measurement(self):
        D = identity_dft_pair(4)
        r = hp0_exhaustive(D, np.zeros(4))
        assert r.status == "exact"
        assert r.support == ()
        assert r.residual_norm == 0.0

    def test_recovers_one_sparse_uniquely(self):
        D = identity_dft_pair(4)
        v, y = planted(D, (5,), seed=1)
        r = hp0_exhaustive(D, y)
        assert r.status == "exact"
        assert r.support == (5,)
        assert rel_error(r, v) <= 1e-10

    def test_duplicate_column_flags_non_uniqueness(self):
        mat = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 1], np.eye(3)[:, 0]])
        D = BlockDictionary(mat, uniform_structure(3))
        r = hp0_exhaustive(D, np.array([1.0, 0, 0]))
        assert r.status == "non-unique"
        assert r.support == (0,)   # lexicographically first of the tied supports

    def test_non_unique_stops_refitting(self, monkeypatch):
        # A generic measurement in 6 rows is fitted exactly by every one of the
        # C(14, 6) = 3,003 supports of size 6; the second refit already differs
        # from the first, which settles "non-unique".
        fit = recovery.block_least_squares
        calls = []
        monkeypatch.setattr(recovery, "block_least_squares",
                            lambda *args: calls.append(args) or fit(*args))
        D = random_block_dictionary(6, (1,) * 14, 3)
        r = hp0_exhaustive(D, np.random.default_rng(5).standard_normal(6))
        assert r.status == "non-unique"
        assert r.iterations == sum(math.comb(14, k) for k in range(1, 7)) == 6475
        assert r.support == (0, 1, 2, 3, 4, 5)
        assert 1 <= len(calls) <= 2

    def test_unreachable_measurement_is_infeasible(self):
        D = BlockDictionary(np.eye(3)[:, :2], uniform_structure(2))
        r = hp0_exhaustive(D, np.array([0, 0, 1.0]))
        assert r.status == "infeasible"

    def test_search_depth_limit(self):
        D = identity_dft_pair(4)
        _, y = planted(D, (0, 5), seed=2)
        r = hp0_exhaustive(D, y, max_cardinality=1)
        assert r.status == "infeasible"

    def test_cap_enforced(self):
        D = identity_dft_pair(16)   # 32 blocks
        with pytest.raises(ValueError, match="raise cap"):
            hp0_exhaustive(D, np.zeros(16) + 1.0)
        _, y = planted(D, (3,), seed=0)
        assert hp0_exhaustive(D, y, cap=32).support == (3,)


def p0_reference(D, y, tol=1e-8, max_cardinality=None):
    """Reference: one pinv fit per support, scanned by increasing cardinality.

    Returns (status, support, iterations, solution entries).
    """
    n = D.n_blocks
    feas_tol = tol * max(np.linalg.norm(y), 1.0)
    depth = n if max_cardinality is None else min(max_cardinality, n)
    if np.linalg.norm(y) <= feas_tol:
        return "exact", (), 0, np.zeros(D.structure.dim, dtype=complex)
    evaluated = 0
    for k in range(1, depth + 1):
        feasible = []
        for combo in itertools.combinations(range(n), k):
            stacked = np.hstack([D.block(i) for i in combo])
            coef = np.linalg.pinv(stacked, rcond=1e-12) @ y
            evaluated += 1
            if np.linalg.norm(y - stacked @ coef) <= feas_tol:
                full = np.zeros(D.structure.dim, dtype=complex)
                full[D.structure.column_indices(combo)] = coef
                feasible.append(full)
        if feasible:
            distinct = any(np.linalg.norm(a - b) > tol
                           for a, b in itertools.combinations(feasible, 2))
            norms = D.structure.norms(feasible[0])
            support = tuple(int(i) for i in np.flatnonzero(norms > 1e-10))
            return ("non-unique" if distinct else "exact"), support, evaluated, feasible[0]
    return "infeasible", (), evaluated, np.zeros(D.structure.dim, dtype=complex)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(2, 6), sizes=st.lists(st.integers(1, 3), min_size=2, max_size=7),
       seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["planted", "duplicate", "unstructured"]),
       depth=st.one_of(st.none(), st.integers(1, 3)))
def test_p0_matches_per_support_reference(rows, sizes, seed, case, depth):
    """Planted, duplicate-block (non-unique), unstructured (infeasible up to a
    shallow depth, or fitted only by stacks wider than the rows) measurements."""
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if case == "duplicate":
        twins = [i for i in range(1, len(sizes)) if sizes[i] == sizes[0]]
        assume(twins)
        mat[:, structure.block_slice(twins[-1])] = mat[:, structure.block_slice(0)]
    D = BlockDictionary(mat, structure)
    if case == "unstructured":
        y = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    else:
        s = min(int(rng.integers(1, 3)), len(sizes))
        _, y = planted(D, sorted(rng.choice(len(sizes), s, replace=False)), seed=seed % 1000)
    got = hp0_exhaustive(D, y, max_cardinality=depth)
    status, support, iterations, solution = p0_reference(D, y, max_cardinality=depth)
    assert (got.status, got.support, got.iterations) == (status, support, iterations)
    assert np.array_equal(got.solution.entries, solution)


@pytest.mark.parametrize("budget", ["cached", "streamed", "sliced"])
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(2, 6), sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), depth=st.one_of(st.none(), st.integers(1, 3)))
def test_p0_batch_matches_per_support_reference(budget, rows, sizes, seed, depth):
    """One hp0_exhaustive_batch call over a zero, a duplicate-block
    (non-unique), planted and unstructured measurements gives each the
    reference's result bit for bit: with kept bases, with bases streamed
    (zero cache budget), and with the screen sliced to one trial."""
    sizes = [*sizes, sizes[0]]   # the last block duplicates the first
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat[:, structure.block_slice(len(sizes) - 1)] = mat[:, structure.block_slice(0)]
    D = BlockDictionary(mat, structure)
    ys = [np.zeros(rows, dtype=complex), planted(D, (0,), seed % 1000)[1],
          rng.standard_normal(rows) + 1j * rng.standard_normal(rows)]
    for _ in range(3):
        s = min(int(rng.integers(1, 4)), len(sizes))
        ys.append(planted(D, sorted(rng.choice(len(sizes), s, replace=False)),
                          seed=int(rng.integers(1000)))[1])
    ys = [ys[i] for i in rng.permutation(len(ys))]
    with pytest.MonkeyPatch.context() as patch:
        if budget == "streamed":
            patch.setattr(blocks, "FACTOR_CACHE_BYTES", 0)
        if budget == "sliced":
            patch.setattr(recovery, "_SCREEN_BYTES", 0)
        batch = recovery.hp0_exhaustive_batch(D, ys, max_cardinality=depth)
    assert len(batch) == len(ys)
    for y, got in zip(ys, batch):
        status, support, iterations, solution = p0_reference(D, y, max_cardinality=depth)
        assert (got.status, got.support, got.iterations) == (status, support, iterations)
        assert np.array_equal(got.solution.entries, solution)


def dictionaries_with_deficient_stacks():
    """A non-uniform random dictionary, identity/DFT, and one whose duplicate
    and scaled columns make some stacks rank deficient (RANK_TOL cutoff) and
    a nearly parallel pair makes one ill-conditioned but full rank."""
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    mat[:, 7] = mat[:, 0]
    mat[:, 6] = 2 * mat[:, 1]
    mat[:, 5] = mat[:, 2] + 1e-6 * rng.standard_normal(5)
    return [random_block_dictionary(6, (1, 2, 1, 3, 2, 1), 4, normalize="none"),
            identity_dft_pair(8), BlockDictionary(mat, uniform_structure(8))]


@pytest.mark.parametrize("D", dictionaries_with_deficient_stacks(), ids=repr)
def test_block_least_squares_matches_pinv_reference(D, monkeypatch):
    """block_least_squares fits a support of a kept cardinality from the kept
    pseudo-inverse and any other afresh, and every support afresh under a
    zero cache budget; each fit equals one by np.linalg.pinv of the stacked
    blocks of D bit for bit, and only the supports not kept reach
    _screening_basis, as stacks of D.unit."""
    rng = np.random.default_rng(0)
    yv = rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0])
    supports = [c for k in (1, 2, 3) for c in itertools.combinations(range(D.n_blocks), k)]
    stack_of = {c: np.hstack([D.block(i) for i in c]) for c in supports}
    unit_stack_of = {c: D.unit[:, D.structure.column_indices(c)] for c in supports}
    factored = []
    basis = blocks._screening_basis
    monkeypatch.setattr(blocks, "_screening_basis",
                        lambda stacks: factored.append(stacks) or basis(stacks))
    for budget in (blocks.FACTOR_CACHE_BYTES, 0):
        monkeypatch.setattr(blocks, "FACTOR_CACHE_BYTES", budget)
        fits = BlockDictionary(D.matrix, D.structure)
        for k in (1, 2):
            list(fits.screening_bases(k))
        factored.clear()
        for support in supports:
            got, residual = recovery.block_least_squares(fits, support, yv)
            stacked = stack_of[support]
            coef = np.linalg.pinv(stacked, rcond=blocks.RANK_TOL) @ yv
            expected = np.zeros(D.structure.dim, dtype=complex)
            expected[D.structure.column_indices(support)] = coef
            assert np.array_equal(got.entries, expected), (budget, support)
            assert residual == float(np.linalg.norm(yv - stacked @ coef)), (budget, support)
        fresh = [c for c in supports if budget == 0 or len(c) == 3]
        assert len(factored) == len(fresh)
        for stacks, support in zip(factored, fresh):
            assert np.array_equal(stacks, [unit_stack_of[support]])


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(3, 7), sizes=st.lists(st.integers(1, 2), min_size=4, max_size=7),
       seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
def test_screen_passes_every_feasible_support(rows, sizes, seed, offsets):
    """p0's screen passes every support whose block_least_squares residual is
    at most feas_tol, and no support whose residual exceeds its bound
    feas_tol + cond slack by more than the refit's and the screen's own
    rounding.  The dictionaries copy, scale and nearly copy columns across
    blocks, as dictionaries_with_deficient_stacks does, so some stacks are
    cut by the RANK_TOL cutoff and some ill-conditioned.  Each measurement
    is planted on a support and moved off its range by 0.5-1.5 feas_tol, so
    the residuals sit at the tolerance, where the rounding of
    ||y||^2 - ||U^H y||^2 decides, or by 10 feas_tol, a residual that this
    rounding alone would let through."""
    tol = 1e-8
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    targets = rng.choice(structure.dim, 3, replace=False).tolist()
    for target, factor, noise in zip(targets, [1, -2.5j, 1], [0, 0, 1e-6]):
        source = int(rng.choice(np.flatnonzero(block_of != block_of[target])))
        mat[:, target] = factor * mat[:, source] + noise * rng.standard_normal(rows)
    try:
        D = BlockDictionary(mat, structure)
    except ValueError:   # a block made dependent
        assume(False)
    ys = []
    for offset in offsets + [10.0]:
        support = sorted(rng.choice(len(sizes), int(rng.integers(1, 3)), replace=False))
        _, y = planted(D, support, int(rng.integers(1000)))
        stack = np.hstack([D.block(i) for i in support])
        away = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        away -= stack @ (np.linalg.pinv(stack) @ away)
        assume(np.linalg.norm(away) > 1e-3)
        ys.append(y + offset * tol * max(np.linalg.norm(y), 1.0) * away / np.linalg.norm(away))
    Y = np.stack(ys, axis=1)
    y_norms = np.linalg.norm(Y, axis=0)
    feas_tols = tol * np.maximum(y_norms, 1.0)
    eps = np.finfo(float).eps
    for k in (1, 2, 3):
        bases = D.screening_bases(k)
        passing = recovery._screen(bases, Y, y_norms, feas_tols)
        conds = {tuple(support): (cond, len(basis) // len(supports))
                 for supports, _, conds_, basis in bases
                 for support, cond in zip(supports.tolist(), conds_)}
        for support in itertools.combinations(range(len(sizes)), k):
            cond, r = conds[support]
            for j, y in enumerate(ys):
                residual = recovery.block_least_squares(D, support, y)[1]
                if residual <= feas_tols[j]:
                    assert support in passing[j], (k, support, j)
                rounding = recovery._SCREEN_ROUNDING * eps * y_norms[j]
                if support in passing[j]:
                    assert residual <= (feas_tols[j] + 2 * cond * rounding
                                        + 2 * (rows + r) * rounding), (k, support, j)


class TestHbp:
    def test_zero_measurement_converges_immediately(self):
        D = identity_dft_pair(4)
        r = hbp_solve(D, np.zeros(4))
        assert r.status == "converged"
        assert r.iterations == 1
        assert np.allclose(r.solution.entries, 0.0)

    def test_recovers_below_threshold(self):
        D = identity_dft_pair(16)   # coherence 0.25, threshold 2.5
        for seed in range(5):
            v, y = planted(D, (2, 20), seed=seed)
            r = hbp_solve(D, y)
            assert r.status == "converged"
            assert rel_error(r, v) <= 1e-5
            assert r.support == (2, 20)

    def test_matches_exhaustive_search_on_size1_blocks(self):
        D = identity_dft_pair(4)
        v, y = planted(D, (6,), seed=3)
        p0 = hp0_exhaustive(D, y)
        bp = hbp_solve(D, y)
        assert bp.status == "converged"
        assert np.linalg.norm(bp.solution.entries - p0.solution.entries) <= 1e-6

    def test_feasible_at_exit(self):
        D = identity_dft_pair(8)
        _, y = planted(D, (1, 9), seed=4)
        r = hbp_solve(D, y)
        assert r.residual_norm <= 1e-8 * max(np.linalg.norm(y), 1.0)

    def test_objective_no_worse_than_planted_point(self):
        D = identity_dft_pair(8)
        for seed in range(4):
            v, y = planted(D, (0, 5, 11), seed=seed)
            r = hbp_solve(D, y)
            assert h1_norm(r.solution) <= h1_norm(v) + 1e-5

    def test_unreachable_measurement_is_infeasible(self):
        D = BlockDictionary(np.eye(3)[:, :2], uniform_structure(2))
        r = hbp_solve(D, np.array([0, 0, 1.0]))
        assert r.status == "infeasible"

    def test_duplicated_measurement_rows_handled(self):
        base = identity_dft_pair(4)
        mat = np.vstack([base.matrix, base.matrix[:1]])   # rank-deficient rows
        D = BlockDictionary(mat, base.structure)
        v, y = planted(D, (6,), seed=6)
        r = hbp_solve(D, y)
        assert r.status == "converged"
        assert rel_error(r, v) <= 1e-5

    def test_max_iterations_status(self):
        D = identity_dft_pair(8)
        _, y = planted(D, (0, 5), seed=1)
        r = hbp_solve(D, y, max_iter=3)
        assert r.status == "max-iterations"
        assert r.iterations == 3

    def test_params_validated(self):
        D = identity_dft_pair(4)
        with pytest.raises(ValueError, match="must be positive"):
            hbp_solve(D, np.zeros(4), rho=0.0)
        with pytest.raises(ValueError, match="must be below 1"):
            hbp_solve(D, np.zeros(4), tol_primal=1.5)

    @pytest.mark.parametrize("field", ["rho", "tol_primal", "tol_dual"])
    def test_nan_params_rejected(self, field):
        # NaN used to pass every range check and run the full 100,000 iterations.
        with pytest.raises(ValueError, match="must be positive"):
            hbp_solve(identity_dft_pair(4), np.zeros(4), **{field: float("nan")})

    @pytest.mark.parametrize("value", [2.5, float("inf")])
    def test_non_integral_max_iter_rejected(self, value):
        # Both used to pass and raise TypeError from range() inside the loop.
        D = identity_dft_pair(8)
        _, y = planted(D, (0, 5), seed=1)
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            hbp_solve(D, y, max_iter=value)
        assert hbp_solve(D, y, max_iter=3.0).iterations == 3


@pytest.mark.parametrize("value", [2.5, float("inf")])
@pytest.mark.parametrize("batch", [False, True])
def test_homp_non_integral_max_iter_rejected(batch, value):
    """Rejected up front; 2.5 used to be accepted and stop after 3 blocks."""
    D = identity_dft_pair(8)
    _, y = planted(D, (1, 9), seed=0)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        if batch:
            homp_batch(D, [y], max_iter=value)
        else:
            homp(D, y, max_iter=value)


@pytest.mark.parametrize("value", [-1.0, float("nan")])
@pytest.mark.parametrize("solve, option", [(hp0_exhaustive, "tol"), (homp, "tol_res")])
def test_negative_tolerance_rejected(solve, option, value):
    """Rejected up front; -1 used to end a full search "infeasible" (p0) or
    "max-iterations" (omp), and NaN "infeasible" (p0) or "exact" at zero (omp)."""
    D = identity_dft_pair(8)
    _, y = planted(D, (1, 9), seed=0)
    with pytest.raises(ValueError, match=f"{option} must be nonnegative"):
        solve(D, y, **{option: value})


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("option", ["max_cardinality", "cap"])
def test_hp0_non_integral_option_rejected(option, value):
    """Rejected up front; max_cardinality=2.5 used to search to depth 2 and
    True to depth 1."""
    D = identity_dft_pair(8)
    _, y = planted(D, (1, 9), seed=0)
    with pytest.raises(ValueError, match=f"{option} must be an integer"):
        hp0_exhaustive(D, y, **{option: value})


class TestHomp:
    def test_zero_measurement(self):
        D = identity_dft_pair(4)
        r = homp(D, np.zeros(4))
        assert r.status == "exact"
        assert r.iterations == 0

    def test_exact_in_s_iterations_below_threshold(self):
        D = identity_dft_pair(16)   # threshold 2.5
        for s, seed in [(1, 0), (1, 5), (2, 1), (2, 9)]:
            v, y = planted(D, tuple(range(0, 32, 32 // s))[:s], seed=seed)
            r = homp(D, y)
            assert r.status == "exact"
            assert r.iterations == s
            assert rel_error(r, v) <= 1e-10

    def test_selection_compensates_column_scaling(self):
        base = identity_dft_pair(4)
        scaled = base.matrix.copy()
        scaled[:, 2] *= 10.0
        D = BlockDictionary(scaled, base.structure)
        for target in range(8):
            v, y = planted(D, (target,), seed=target)
            r = homp(D, y)
            assert r.status == "exact"
            assert r.iterations == 1
            assert r.support == (target,)

    def test_residual_nonincreasing(self):
        D = identity_dft_pair(8)
        _, y = planted(D, (0, 3, 12), seed=7)
        res = [np.linalg.norm(y)]
        for j in range(1, 5):
            res.append(homp(D, y, max_iter=j).residual_norm)
        assert all(a >= b - 1e-12 for a, b in zip(res, res[1:]))

    def test_selection_sequence_scale_invariant(self):
        D = identity_dft_pair(8)
        _, y = planted(D, (2, 7, 13), seed=8)
        for j in range(1, 4):
            a = homp(D, y, max_iter=j)
            b = homp(D, 3.0 * y, max_iter=j)
            assert a.support == b.support

    def test_max_iterations_status(self):
        D = identity_dft_pair(4)
        _, y = planted(D, (0, 5), seed=2)
        r = homp(D, y, max_iter=1)
        assert r.status == "max-iterations"
        assert r.iterations == 1


def eight_row_case():
    """The random 8-row dictionary with measurements of 1-3 blocks."""
    D = random_block_dictionary(8, (1, 2, 1, 2, 1, 1), 3)
    ys = [planted(D, (0, 2, 3), seed=0)[1]]
    ys += [planted(D, support, seed)[1] for seed, support in
           enumerate([(1,), (4,), (2, 5), (0, 1), (1, 3, 5)])]
    return D, ys


def random_cases(seed):
    """identity/DFT(16) and a random 12-row dictionary with 16 blocks of 1-3
    columns, each with 30 planted measurements of 1-5 blocks."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(d) for d in rng.integers(1, 4, size=16))
    cases = []
    for D in (identity_dft_pair(16), random_block_dictionary(12, sizes, seed)):
        ys = [planted(D, rng.choice(D.n_blocks, size=s, replace=False), seed + trial)[1]
              for s in range(1, 6) for trial in range(6)]
        cases.append((D, ys))
    return cases


SCALE_FREE_SOLVERS = {
    "p0": hp0_exhaustive_batch,
    "p0-depth-1": lambda D, ys: hp0_exhaustive_batch(D, ys, max_cardinality=1),
    "omp": homp_batch,
    "bp": lambda D, ys: hbp_solve_batch(D, ys, max_iter=300),
}


def assert_scale_free(solve, D, ys):
    """solve on (D 2^k, y 2^k) gives the solution bits, support, iterations
    and status it gives on (D, y), and the residual norm times exactly 2^k."""
    reference = solve(D, ys)
    for k in (100, 300, 520, 540):
        scaled = BlockDictionary(D.matrix * 2.0 ** k, D.structure)
        got = solve(scaled, [y * 2.0 ** k for y in ys])
        for r, g in zip(reference, got):
            assert np.array_equal(g.solution.entries, r.solution.entries), k
            assert (g.support, g.iterations, g.status) == (
                r.support, r.iterations, r.status), k
            assert g.residual_norm == math.ldexp(r.residual_norm, k), k


@pytest.mark.parametrize("algo", list(SCALE_FREE_SOLVERS))
def test_solvers_are_scale_free(algo):
    """Each solver is scale-free on the 8-row dictionary: it reads D.unit
    and y 2^-exponent, which do not depend on k.  At 520 and 540 ||y||^2
    leaves the float range in D's units.  p0 runs at full depth and at
    depth 1, where the measurements of two or three blocks end
    "infeasible"; bp stops after 300 iterations.  Negative k are left out
    on purpose: the floors max(||y||, 1) are absolute, so a y scaled below
    them closes on the floor."""
    solve = SCALE_FREE_SOLVERS[algo]
    D, ys = eight_row_case()
    first = solve(D, ys)[0]
    assert first.support == (() if algo == "p0-depth-1" else (0, 2, 3))
    if algo.startswith("p0"):
        assert (first.iterations, first.status) == ((41, "exact") if algo == "p0"
                                                    else (6, "infeasible"))
    assert_scale_free(solve, D, ys)


@pytest.mark.parametrize("algo", ["omp", "bp"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_omp_and_bp_are_scale_free_on_random_dictionaries(algo, seed):
    """omp and bp are scale-free on identity/DFT(16) and a random 12-row
    dictionary, 30 measurements each; p0 is left out, as identity/DFT(16)
    has 32 blocks, past its cap."""
    for D, ys in random_cases(seed):
        assert_scale_free(SCALE_FREE_SOLVERS[algo], D, ys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solvers_on_blocks_200_decades_apart():
    """D = diag(1, 1e-200) in single-column blocks with y = (0, 1): the
    solution's square (1e400) would overflow, and block 1's squared
    correlation underflow.  p0 and omp return block 1 "exact", omp in one
    step; bp's pseudo-inverse cuts 1e-200 under RANK_TOL, so its range test
    reports "infeasible"."""
    D = BlockDictionary(np.diag([1.0, 1e-200]), uniform_structure(2))
    y = np.array([0.0, 1.0])
    assert (hp0_exhaustive(D, y).support, hp0_exhaustive(D, y).status) == ((1,), "exact")
    got = homp(D, y)
    assert (got.support, got.status, got.iterations) == ((1,), "exact", 1)
    assert hbp_solve(D, y).status == "infeasible"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       spread=st.lists(st.integers(-450, 450), min_size=8, max_size=8))
def test_p0_and_omp_ignore_each_blocks_scale(seed, spread):
    """Block i of a random 12-row dictionary with blocks of 1-3 columns is
    scaled by 2^k_i, the k_i up to 900 apart.  A signal planted in one block
    i, with coefficients 2^-min(k_i, 0) so that it stays above the absolute
    cutoff and floor, is returned by p0, and by omp in one step wherever omp
    returns it in one step on the unscaled dictionary: p0's fit and omp's
    pick read a block only relative to its own scale.  (A longer pursuit
    fits stacks of blocks far apart in scale, whose rounding in the other
    blocks the absolute cutoff does not scale with.)  Nothing warns."""
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(int(d) for d in rng.integers(1, 4, size=8)))
    base = complex_standard_normal(rng, (12, structure.dim))
    ks = np.array(spread)
    D0 = BlockDictionary(base, structure)
    D = BlockDictionary(base * 2.0 ** np.repeat(ks, structure.sizes), structure)
    for i, k in enumerate(ks.tolist()):
        coefficients = complex_standard_normal(rng, structure.sizes[i])
        y0 = D0.block(i) @ coefficients
        y = D.block(i) @ (coefficients * 2.0 ** -min(k, 0))
        assert hp0_exhaustive(D, y, max_cardinality=1).support == (i,), i
        reference = homp(D0, y0)
        if (reference.support, reference.iterations) == ((i,), 1):
            got = homp(D, y)
            assert (got.support, got.iterations) == ((i,), 1), i


@pytest.mark.parametrize("solve", [hp0_exhaustive, homp, hbp_solve], ids=["p0", "omp", "bp"])
def test_measurement_past_the_float_range_rejected(solve):
    """D unscaled with y = D v 2^520: 2 M d ||y 2^-exponent||^2 leaves the
    float range, so each solver raises a ValueError before it starts; at
    2^505 each still finds v's blocks."""
    D = random_block_dictionary(8, (1, 2, 1, 2, 1, 1), 3)
    _, y = planted(D, (0, 2, 3), seed=0)
    with pytest.raises(ValueError, match="float range"):
        solve(D, y * 2.0 ** 520)
    assert solve(D, y * 2.0 ** 505).support == (0, 2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_least_squares_rejects_a_measurement_past_the_float_range():
    """block_least_squares reads y through D.measurement, so it raises
    the solvers' ValueError, without a warning, for y = D e_0 2^520 on D
    unscaled, and for y = 2^30 on D 2^-1000, where y 2^-exponent itself
    leaves the float range.  At 2^505 it gives the unscaled fit times
    exactly 2^505."""
    D = random_block_dictionary(8, (1, 2, 1, 2, 1, 1), 3)
    y = D.block(0)[:, 0]
    tiny = BlockDictionary(D.matrix * 2.0 ** -1000, D.structure)
    for fits, big in ((D, y * 2.0 ** 520), (tiny, np.full(8, 2.0 ** 30))):
        with pytest.raises(ValueError, match="float range"):
            recovery.block_least_squares(fits, (0,), big)
    solution, residual = recovery.block_least_squares(D, (0,), y)
    scaled, scaled_residual = recovery.block_least_squares(D, (0,), y * 2.0 ** 505)
    assert np.array_equal(scaled.entries, solution.entries * 2.0 ** 505)
    assert scaled_residual == math.ldexp(residual, 505)


def test_strided_measurements_read_as_copies():
    """Columns Y[:, j] and the rows of Y.T of a complex (M, T) array are
    strided views; block_least_squares and the three solvers read them as
    they read contiguous measurements."""
    D, ys = eight_row_case()
    Y = np.column_stack(ys)
    for solve in SCALE_FREE_SOLVERS.values():
        for got, expected in zip(solve(D, Y.T), solve(D, ys)):
            assert np.array_equal(got.solution.entries, expected.solution.entries)
            assert got.residual_norm == expected.residual_norm
    for j, y in enumerate(ys):
        solution, residual = recovery.block_least_squares(D, (0, 2, 3), Y[:, j])
        expected, expected_residual = recovery.block_least_squares(D, (0, 2, 3), y)
        assert np.array_equal(solution.entries, expected.entries)
        assert residual == expected_residual


def homp_checked_steps(D, y, tol_res=1e-10, max_iter=None):
    """Reference omp loop whose every refit is a checked block_least_squares
    call, weighing its picks in D's own units, not unit's."""
    max_iter = D.n_blocks if max_iter is None else max_iter
    yv = D.measurement(y)
    stop = tol_res * max(float(np.linalg.norm(yv)), 1.0)
    smin = np.array([np.linalg.svd(D.block(i), compute_uv=False)[-1] for i in range(D.n_blocks)])
    solution = BlockVector.zeros(D.structure)
    residual = yv.copy()
    selected = []
    while float(np.linalg.norm(residual)) > stop:
        if len(selected) >= max_iter or len(selected) == D.n_blocks:
            return solution, len(selected), "max-iterations"
        weights = D.structure.norms(D.matrix.conj().T @ residual) / smin
        weights[selected] = -np.inf
        selected.append(int(np.argmax(weights)))
        solution, _ = recovery.block_least_squares(D, selected, yv)
        residual = yv - D.matrix @ solution.entries
    return solution, len(selected), "exact"


@pytest.mark.parametrize("seed", range(6))
def test_homp_matches_checked_steps_bit_for_bit(seed):
    """homp validates y once and refits without per-step checks; its output
    is bit-identical to the loop that checks on every step."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(d) for d in rng.integers(1, 4, size=10))
    dictionaries = [identity_dft_pair(16),
                    random_block_dictionary(12, sizes, seed, normalize="none")]
    for D in dictionaries:
        for s, max_iter in [(1, None), (2, None), (3, None), (4, 2)]:
            support = tuple(sorted(rng.choice(D.n_blocks, size=s, replace=False)))
            _, y = planted(D, support, seed)
            got = homp(D, y, max_iter=max_iter)
            solution, iterations, status = homp_checked_steps(D, y, max_iter=max_iter)
            assert np.array_equal(got.solution.entries, solution.entries)
            assert (got.iterations, got.status) == (iterations, status)
            assert got.residual_norm == float(np.linalg.norm(y - D.matrix @ solution.entries))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_homp_through_p0_factors_matches_fresh(depth):
    """omp steps read the pseudo-inverses p0 kept on the dictionary
    (supports up to depth) and factor deeper ones afresh; both match homp on
    a fresh copy of the dictionary bit for bit."""
    rng = np.random.default_rng(depth)
    dictionaries = dictionaries_with_deficient_stacks()
    dictionaries.append(random_block_dictionary(12, (1, 2, 1, 3, 2, 1, 1, 2, 1, 2), 5))
    for D in dictionaries:
        ys = [planted(D, sorted(rng.choice(D.n_blocks, s, replace=False)), seed)[1]
              for s, seed in [(1, 0), (2, 1), (3, 2), (4, 3)]]
        recovery.hp0_exhaustive_batch(D, ys, max_cardinality=depth)
        copy = BlockDictionary(D.matrix, D.structure)
        for y in ys:
            got, fresh = homp(D, y), homp(copy, y)
            assert np.array_equal(got.solution.entries, fresh.solution.entries)
            assert (got.iterations, got.status, got.residual_norm) == (
                fresh.iterations, fresh.status, fresh.residual_norm)


@pytest.mark.parametrize("through_p0", [False, True], ids=["fresh", "p0-factors"])
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(2, 7), sizes=st.lists(st.integers(1, 3), min_size=2, max_size=6),
       uniform=st.booleans(), max_iter=st.one_of(st.none(), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1))
def test_homp_batch_matches_checked_steps(through_p0, rows, sizes, uniform, max_iter, seed):
    """One homp_batch call over a zero, planted and unstructured measurements
    gives each the solution bits, support, iterations, status and residual
    of the checked per-measurement loop.  Unstructured measurements on a
    tall dictionary select every block; a small max_iter stops others early.
    Non-uniform blocks put supports of several stack widths in one step,
    and a dictionary p0 filled to depth 2 serves some steps from its kept
    pseudo-inverses while deeper ones are factored in the batch."""
    if uniform:
        sizes = [sizes[0]] * len(sizes)
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    D = BlockDictionary(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        structure)
    ys = [np.zeros(rows, dtype=complex)]
    ys += [rng.standard_normal(rows) + 1j * rng.standard_normal(rows) for _ in range(2)]
    for _ in range(3):
        s = int(rng.integers(1, len(sizes) + 1))
        ys.append(planted(D, sorted(rng.choice(len(sizes), s, replace=False)),
                          seed=int(rng.integers(1000)))[1])
    ys = [ys[i] for i in rng.permutation(len(ys))]
    if through_p0:
        hp0_exhaustive_batch(D, ys, max_cardinality=2)

    assert_batch_matches_checked_steps(D, ys, max_iter)


@pytest.mark.parametrize("max_iter", [1, None])
@pytest.mark.parametrize("n", [16, 64])
def test_homp_batch_ties_match_checked_steps(n, max_iter):
    """On identity_dft, y = e_i + c f_k with |c| = 1 and c f_k[i] >= 0 ties
    the weights of blocks i and n + k exactly.  The batched product rounds
    them apart differently than a product of y alone (on n = 64 the first
    pick differs for about a third of such y), yet each trial of the batch
    still picks, and so returns, what the checked loop does."""
    D = identity_dft_pair(n)
    F = D.matrix[:, n:]
    ys = []
    for i, k in itertools.product(range(0, n, 4), range(0, n, 8)):
        y = F[:, k] * (F[i, k].conj() / abs(F[i, k]))
        y[i] += 1.0
        ys.append(y)
    rng = np.random.default_rng(n)
    ys += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
    assert_batch_matches_checked_steps(D, ys, max_iter)


def assert_batch_matches_checked_steps(D, ys, max_iter):
    batch = homp_batch(D, ys, max_iter=max_iter)
    assert len(batch) == len(ys)
    for y, got in zip(ys, batch):
        solution, iterations, status = homp_checked_steps(D, y, max_iter=max_iter)
        support = tuple(np.flatnonzero(solution.block_norms() > ZERO_BLOCK_TOL).tolist())
        assert np.array_equal(got.solution.entries, solution.entries)
        assert (got.support, got.iterations, got.status) == (support, iterations, status)
        assert got.residual_norm == float(np.linalg.norm(y - D.matrix @ solution.entries))


@pytest.mark.parametrize("dictionary, max_iter",
                         [("tall", None), ("tall", 1), ("identity_dft", 2)])
def test_homp_residual_norm_is_recomputed_value(dictionary, max_iter):
    """homp_batch reads each residual_norm off the trial's last stop test;
    it equals ||y - Phi solution|| recomputed by np.linalg.norm, bit for bit,
    for a zero measurement, converged trials and trials that run out of
    iterations (a max_iter below the planted block count, or every block of
    a tall dictionary spent on a measurement outside its range)."""
    rng = np.random.default_rng(11)
    if dictionary == "tall":
        D = random_block_dictionary(12, (1, 2, 1, 3, 2), 4)
    else:
        D = identity_dft_pair(16)
    ys = [np.zeros(D.shape[0], dtype=complex)]
    for s, seed in [(1, 0), (2, 1), (3, 2)]:
        ys.append(planted(D, sorted(rng.choice(D.n_blocks, s, replace=False)), seed)[1])
    if dictionary == "tall":
        ys.append(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    results = homp_batch(D, ys, max_iter=max_iter)
    assert {r.status for r in results} == {"exact", "max-iterations"}
    assert results[0].iterations == 0
    for y, got in zip(ys, results):
        assert got.residual_norm == float(np.linalg.norm(y - D.matrix @ got.solution.entries))


def solve(algo, D, y, depth):
    """One solve of y on D: p0 searches to depth, bp stops after 300 steps."""
    if algo == "p0":
        return hp0_exhaustive(D, y, max_cardinality=depth)
    if algo == "bp":
        return hbp_solve(D, y, max_iter=300)
    return homp(D, y)


@pytest.mark.parametrize("streamed", [False, True], ids=["cached", "streamed"])
@settings(max_examples=20, deadline=None)
@given(algo=st.sampled_from(["bp", "omp", "p0"]), rows=st.integers(2, 5),
       sizes=st.lists(st.integers(1, 3), min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_shared_dictionary_matches_fresh_solves(streamed, algo, rows, sizes, seed):
    """Measurements solved in shuffled order on one dictionary give bit for
    bit what a solve of each on a fresh copy of it gives.  p0's depths
    differ between measurements, so each reuses bases another scanned first;
    with a zero cache budget they are streamed instead of kept."""
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    D = BlockDictionary(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        structure)
    jobs = [(rng.standard_normal(rows) + 1j * rng.standard_normal(rows), 3)]
    for depth in (1, 2, 3, 2):
        s = min(int(rng.integers(1, 3)), len(sizes))
        _, y = planted(D, sorted(rng.choice(len(sizes), s, replace=False)),
                       seed=int(rng.integers(1000)))
        jobs.append((y, depth))

    fresh = [solve(algo, BlockDictionary(D.matrix, structure), y, depth) for y, depth in jobs]
    with pytest.MonkeyPatch.context() as patch:
        if streamed:
            patch.setattr(blocks, "FACTOR_CACHE_BYTES", 0)
        for i in rng.permutation(len(jobs)):
            got = solve(algo, D, *jobs[i])
            assert (got.status, got.support, got.iterations) == (
                fresh[i].status, fresh[i].support, fresh[i].iterations)
            assert np.array_equal(got.solution.entries, fresh[i].solution.entries)
            assert got.residual_norm == fresh[i].residual_norm


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 6), sizes=st.lists(st.integers(1, 3), min_size=2, max_size=5),
       uniform=st.booleans(), max_iter=st.sampled_from([3, 12, 400]),
       seed=st.integers(0, 2**32 - 1))
def test_batch_matches_solves_of_one(rows, sizes, uniform, max_iter, seed):
    """Each column of one hbp_solve_batch call gets the status, support and
    iterations of solving it alone, and its solution within 1e-12.  A batch
    mixes planted columns, a zero column (converged after one step) and, on
    a tall dictionary, a column outside the range; a small max_iter stops
    some columns while others converge.

    A column's product bits depend on the batch width, so the two solves
    agree on status and iterations only where every stop decision cleared
    its tolerance by more than the rounding: within 1e-12 of the solution,
    a stop quantity moves by 2e-12 / tol of its bound (hbp_loop_reference
    gives each column's least margin).  A column closer than that may stop
    at another iteration alone; its two solves are compared at the fewer
    iterations (at least one, whose iterate is the least-norm solution an
    infeasible column returns)."""
    if uniform:
        sizes = [sizes[0]] * len(sizes)
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    D = BlockDictionary(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        structure)
    ys = [np.zeros(rows, dtype=complex)]
    for _ in range(4):
        s = min(int(rng.integers(1, 3)), len(sizes))
        ys.append(planted(D, sorted(rng.choice(len(sizes), s, replace=False)),
                          seed=int(rng.integers(1000)))[1])
    if rows > structure.dim:
        ys.append(rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
    ys = [ys[i] for i in rng.permutation(len(ys))]
    defaults = hbp_solve_batch.__kwdefaults__
    rounding = 2e-12 / min(defaults["tol_primal"], defaults["tol_dual"])

    batch = hbp_solve_batch(D, ys, max_iter=max_iter)
    assert len(batch) == len(ys)
    reference = hbp_loop_reference(D, ys, max_iter=max_iter)
    for j, (y, got, (*_, margin)) in enumerate(zip(ys, batch, reference)):
        alone = hbp_solve(D, y, max_iter=max_iter)
        if margin > rounding:
            assert (got.status, got.support, got.iterations) == (
                alone.status, alone.support, alone.iterations)
        elif got.iterations != alone.iterations:
            capped = max(1, min(got.iterations, alone.iterations))
            got = hbp_solve_batch(D, ys, max_iter=capped)[j]
            alone = hbp_solve(D, y, max_iter=capped)
        gap = np.linalg.norm(got.solution.entries - alone.solution.entries)
        assert gap <= 1e-12 * np.linalg.norm(alone.solution.entries)


def hbp_loop_reference(D, ys, rho=1.0, tol_primal=1e-9, tol_dual=1e-9, max_iter=100_000):
    """The splitting loop of hbp_solve_batch written out with one numpy
    expression per step: the prox out of place with np.repeat on every
    structure, the multiplier update as lam + u - w, and both stop tests on
    every iteration.  Returns each column's (solution, iterations, status,
    margin): margin is the least |r - 1| over the column's stop decisions,
    r the range gap over its bound, then on each iteration the larger of
    the primal gap and the dual move over their bounds (a column stops at
    r <= 1), so the decisions hold under any rounding that moves every r by
    less than margin.  Like the solver it works in unit's units: D.unit,
    y 2^-exponent and the range test's floor 2^-exponent."""
    Y = np.empty((D.shape[0], len(ys)), dtype=np.complex128)
    for j, y in enumerate(ys):
        Y[:, j] = np.ldexp(D.measurement(y).view(float), -D.exponent).view(complex)
    mat = D.unit
    pinv = D.pinv
    sizes = np.asarray(D.structure.sizes)

    def prox(t):
        nb = D.structure.norms(t)
        factor = np.maximum(0.0, 1.0 - 1.0 / (rho * np.maximum(nb, 1e-300)))
        return np.repeat(factor, sizes, axis=0) * t

    def column_norms(x):
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))

    least_norm = pinv @ Y
    range_gap = column_norms(mat @ least_norm - Y)
    range_bound = recovery.BP_RANGE_TOL * np.maximum(column_norms(Y), 2.0 ** -D.exponent)
    infeasible = range_gap > range_bound
    margin = np.abs(range_gap / range_bound - 1)

    U = least_norm
    iterations = [0 if gap else max_iter for gap in infeasible]
    status = ["infeasible" if gap else "max-iterations" for gap in infeasible]
    active = np.flatnonzero(~infeasible)
    y = Y[:, active]
    u = np.zeros((D.structure.dim, active.size), dtype=np.complex128)
    w = np.zeros_like(u)
    lam = np.zeros_like(u)
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        t = w - lam
        u = t - pinv @ (mat @ t - y)
        w_new = prox(u + lam)
        dual_move = column_norms(w_new - w)
        w = w_new
        lam = lam + u - w
        primal_gap = column_norms(u - w)
        primal_bound = tol_primal * np.maximum(column_norms(u), 1.0)
        dual_bound = tol_dual * np.maximum(column_norms(w), 1.0)
        done = (primal_gap <= primal_bound) & (dual_move <= dual_bound)
        r = np.maximum(primal_gap / primal_bound, dual_move / dual_bound)
        margin[active] = np.minimum(margin[active], np.abs(r - 1))
        if done.any():
            finished = active[done]
            U[:, finished] = u[:, done]
            for j in finished:
                iterations[j], status[j] = it, "converged"
            running = ~done
            active, y, u, w, lam = (active[running], y[:, running], u[:, running],
                                    w[:, running], lam[:, running])
    U[:, active] = u

    return [(BlockVector(U[:, j], D.structure), iterations[j], status[j], margin[j])
            for j in range(len(ys))]


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 6),
       sizes=st.one_of(st.lists(st.integers(1, 3), min_size=2, max_size=5),
                       st.integers(2, 5).map(lambda n: [1] * n)),
       uniform=st.booleans(), rho=st.sampled_from([0.5, 1.0, 2.5]),
       max_iter=st.sampled_from([3, 12, 400]), seed=st.integers(0, 2**32 - 1))
def test_batch_matches_loop_reference_bit_for_bit(rows, sizes, uniform, rho, max_iter, seed):
    """hbp_solve_batch gives every column the solution bits, iterations,
    status, support and residual of the loop written out in full
    (hbp_loop_reference): it makes fewer numpy calls, not different
    operations.  A batch mixes planted columns, a zero column and, on a tall
    dictionary, a column outside the range; small max_iter values stop some
    columns while others converge, and rho moves the shrinkage away from 1."""
    if uniform:
        sizes = [sizes[0]] * len(sizes)
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    D = BlockDictionary(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        structure)
    ys = [np.zeros(rows, dtype=complex)]
    for _ in range(4):
        s = min(int(rng.integers(1, 3)), len(sizes))
        ys.append(planted(D, sorted(rng.choice(len(sizes), s, replace=False)),
                          seed=int(rng.integers(1000)))[1])
    if rows > structure.dim:
        ys.append(rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
    ys = [ys[i] for i in rng.permutation(len(ys))]
    batch = hbp_solve_batch(D, ys, rho=rho, max_iter=max_iter)
    assert len(batch) == len(ys)
    for y, got, (solution, iterations, status, _) in zip(
            ys, batch, hbp_loop_reference(D, ys, rho=rho, max_iter=max_iter)):
        norms = structure.norms(solution.entries)
        cutoff = max(ZERO_BLOCK_TOL, recovery.BP_SUPPORT_REL_TOL * float(norms.max()))
        assert np.array_equal(got.solution.entries, solution.entries)
        assert (got.iterations, got.status) == (iterations, status)
        assert got.support == tuple(np.flatnonzero(norms > cutoff).tolist())
        assert got.residual_norm == float(np.linalg.norm(y - D.matrix @ solution.entries))


def test_batch_of_no_measurements():
    assert hbp_solve_batch(identity_dft_pair(4), []) == []


def solve_all(D, jobs):
    """Each (algorithm, measurement) job solved on D, in order; p0 to depth 3."""
    return [solve(algo, D, y, 3) for algo, y in jobs]


def test_dictionary_freed_without_cyclic_gc():
    """The factors a dictionary keeps hold no reference back to it: with the
    cyclic collector off, it is freed as soon as its last reference goes,
    after p0, omp, bp and the coherence report have filled every factor."""
    D = random_block_dictionary(8, (1, 2, 1, 2, 1, 2), 3)
    _, y = planted(D, (1, 4), seed=0)
    solve_all(D, [("p0", y), ("omp", y), ("bp", y)])
    coherence_report(D)
    assert D._bases and D._fits and {"pinv", "cross_gram"} <= vars(D).keys()
    alive = weakref.ref(D)
    gc.disable()
    try:
        del D
        assert alive() is None
    finally:
        gc.enable()


def test_threads_sharing_a_dictionary_match_one_thread():
    """Four threads solving on one shared dictionary in different orders,
    with a short switch interval so that they race to fill its factors, each
    get bit for bit what one thread solving on a fresh copy gets; the
    dictionary keeps every support of each kept cardinality, each pointing
    at its own row of the kept bases."""
    rng = np.random.default_rng(11)
    structure = BlockStructure((1, 2, 1, 3, 2, 1, 1, 2, 1, 2))
    mat = rng.standard_normal((12, structure.dim)) + 1j * rng.standard_normal((12, structure.dim))
    jobs = []
    for s, algo in itertools.product((1, 2, 3), ("p0", "omp", "bp")):
        support = sorted(rng.choice(structure.n_blocks, s, replace=False))
        jobs.append((algo, planted(BlockDictionary(mat, structure), support, s)[1]))
    expected = solve_all(BlockDictionary(mat, structure), jobs)
    orders = [range(len(jobs)), range(len(jobs))[::-1]]
    orders += [rng.permutation(len(jobs)) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            D = BlockDictionary(mat, structure)
            with ThreadPoolExecutor(len(orders)) as pool:
                futures = [pool.submit(solve_all, D, [jobs[i] for i in order])
                           for order in orders]
                runs = [future.result(timeout=120) for future in futures]
            for order, results in zip(orders, runs):
                for i, got in zip(order, results):
                    want = expected[i]
                    assert (got.status, got.support, got.iterations, got.residual_norm) == (
                        want.status, want.support, want.iterations, want.residual_norm)
                    assert np.array_equal(got.solution.entries, want.solution.entries)
            assert set(D._bases) == {1, 2, 3}
            assert set(D._fits) == {support for k in D._bases for support in
                                    itertools.combinations(range(structure.n_blocks), k)}
            for support, ((supports, *_), row) in D._fits.items():
                assert tuple(supports[row].tolist()) == support
    finally:
        sys.setswitchinterval(interval)


class TestGuaranteeCheck:
    def test_identity_dft_pair_levels(self):
        rep = coherence_report(identity_dft_pair(4))
        assert guarantee_check(rep, 1) == (True, True)
        assert guarantee_check(rep, 2) == (False, False)

    def test_trivial_kernel_guarantees_everything(self):
        D = BlockDictionary(np.eye(4), uniform_structure(4))
        rep = coherence_report(D)
        for s in range(5):
            assert guarantee_check(rep, s) == (True, True)

    def test_negative_sparsity_rejected(self):
        rep = coherence_report(identity_dft_pair(4))
        with pytest.raises(ValueError):
            guarantee_check(rep, -1)

    def test_requires_spark(self):
        rep = coherence_report(identity_dft_pair(4), compute_spark=False)
        with pytest.raises(ValueError, match="spark"):
            guarantee_check(rep, 1)


@pytest.mark.parametrize("solve", [hp0_exhaustive, hbp_solve, homp])
def test_non_finite_measurement_rejected(solve):
    D = identity_dft_pair(8)
    _, y = planted(D, (3,), seed=0)
    y[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(D, y)
    with pytest.raises(ValueError, match="does not match"):
        solve(D, y[:7])


class TestSolverAgreement:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(6, 12), sizes=st.lists(st.integers(1, 2), min_size=2, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_all_three_agree_when_guaranteed(self, rows, sizes, seed):
        """Below both thresholds (spark/2 and (1 + 1/mu_h)/2) of a random
        dictionary, the three batch solvers each return the planted signal
        of every measurement: its support, and its entries within the
        sweep's success tolerance."""
        rng = np.random.default_rng(seed)
        structure = BlockStructure(tuple(sizes))
        shape = (rows, structure.dim)
        D = BlockDictionary(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            structure)
        report = coherence_report(D)
        guaranteed = [s for s in range(1, len(sizes) + 1) if all(guarantee_check(report, s))]
        assume(guaranteed)
        truths = [planted(D, sorted(rng.choice(len(sizes), s, replace=False)),
                          seed=int(rng.integers(1000)))
                  for s in rng.choice(guaranteed, size=4)]
        ys = [y for _, y in truths]
        solves = {"p0": hp0_exhaustive_batch(D, ys), "bp": hbp_solve_batch(D, ys),
                  "omp": homp_batch(D, ys)}
        for algo, results in solves.items():
            for (v, _), r in zip(truths, results):
                assert r.status in ("exact", "converged"), algo
                assert r.support == tuple(np.flatnonzero(v.block_norms()).tolist()), algo
                assert rel_error(r, v) <= SUCCESS_TOL[algo], algo
