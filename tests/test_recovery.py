import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hsparse.recovery as recovery
from hsparse import (BlockDictionary, BlockStructure, BpParams, BlockVector,
                     coherence_report, complex_standard_normal, guarantee_check,
                     h1_norm, hbp_solve, hbp_solve_batch, homp, hp0_exhaustive,
                     identity_dft_pair, random_block_dictionary,
                     uniform_structure)


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
        fit = recovery.SolverContext.least_squares
        calls = []
        monkeypatch.setattr(recovery.SolverContext, "least_squares",
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
            patch.setattr(recovery, "CONTEXT_CACHE_BYTES", 0)
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
def test_context_least_squares_matches_block_least_squares(D, monkeypatch):
    """A support of a kept cardinality is fitted from the kept pseudo-inverse
    and any other afresh; both give block_least_squares bit for bit."""
    fresh = []
    fit_support = recovery._fit_support
    monkeypatch.setattr(recovery, "_fit_support",
                        lambda *args: fresh.append(args[1]) or fit_support(*args))
    context = recovery.SolverContext(D)
    for k in (1, 2):
        context.screening_bases(k)
    rng = np.random.default_rng(0)
    yv = rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0])
    supports = [c for k in (1, 2, 3) for c in itertools.combinations(range(D.n_blocks), k)]
    for support in supports:
        coeffs, residual = context.least_squares(support, yv)
        expected, expected_residual = recovery.block_least_squares(D, support, yv)
        assert np.array_equal(coeffs, expected.entries), support
        assert residual == expected_residual, support
    assert fresh == [c for c in supports if len(c) == 3]


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
        bp = hbp_solve(D, y, h1_reference=h1_norm(p0.solution))
        assert bp.status == "exact"
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
        r = hbp_solve(D, y, BpParams(max_iter=3))
        assert r.status == "max-iterations"
        assert r.iterations == 3

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BpParams(rho=0.0)
        with pytest.raises(ValueError):
            BpParams(tol_primal=1.5)

    @pytest.mark.parametrize("field", ["rho", "tol_primal", "tol_dual"])
    def test_nan_params_rejected(self, field):
        # NaN used to pass every range check and run the full 100,000 iterations.
        with pytest.raises(ValueError):
            BpParams(**{field: float("nan")})


@pytest.mark.parametrize("value", [-1.0, float("nan")])
@pytest.mark.parametrize("solve, option", [(hp0_exhaustive, "tol"), (homp, "tol_res")])
def test_negative_tolerance_rejected(solve, option, value):
    """Rejected up front; -1 used to end a full search "infeasible" (p0) or
    "max-iterations" (omp), and NaN "infeasible" (p0) or "exact" at zero (omp)."""
    D = identity_dft_pair(8)
    _, y = planted(D, (1, 9), seed=0)
    with pytest.raises(ValueError, match=f"{option} must be nonnegative"):
        solve(D, y, **{option: value})


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


def homp_checked_steps(D, y, tol_res=1e-10, max_iter=None):
    """Reference omp loop whose every refit is a checked block_least_squares call."""
    max_iter = D.n_blocks if max_iter is None else max_iter
    yv = D.measurement(y)
    stop = tol_res * max(float(np.linalg.norm(yv)), 1.0)
    smin = D.block_sigma_min()
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
def test_homp_through_p0_context_matches_fresh(depth):
    """omp steps read the pseudo-inverses p0 kept (supports up to depth)
    and factor deeper ones afresh; both match a fresh homp bit for bit."""
    rng = np.random.default_rng(depth)
    dictionaries = dictionaries_with_deficient_stacks()
    dictionaries.append(random_block_dictionary(12, (1, 2, 1, 3, 2, 1, 1, 2, 1, 2), 5))
    for D in dictionaries:
        ys = [planted(D, sorted(rng.choice(D.n_blocks, s, replace=False)), seed)[1]
              for s, seed in [(1, 0), (2, 1), (3, 2), (4, 3)]]
        context = recovery.SolverContext(D)
        recovery.hp0_exhaustive_batch(D, ys, max_cardinality=depth, context=context)
        for y in ys:
            got, fresh = homp(D, y, context=context), homp(D, y)
            assert np.array_equal(got.solution.entries, fresh.solution.entries)
            assert (got.iterations, got.status, got.residual_norm) == (
                fresh.iterations, fresh.status, fresh.residual_norm)


SOLVERS = {"p0": hp0_exhaustive, "bp": hbp_solve, "omp": homp}


@pytest.mark.parametrize("streamed", [False, True], ids=["cached", "streamed"])
@settings(max_examples=20, deadline=None)
@given(algo=st.sampled_from(sorted(SOLVERS)), rows=st.integers(2, 5),
       sizes=st.lists(st.integers(1, 3), min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_shared_context_matches_fresh_solves(streamed, algo, rows, sizes, seed):
    """Measurements solved in shuffled order through one SolverContext give
    bit for bit what a fresh solve of each gives.  p0's depths differ between
    measurements, so each reuses bases another scanned first; with a zero
    cache budget they are streamed instead of kept."""
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

    def solve(y, depth, **kw):
        if algo == "p0":
            return hp0_exhaustive(D, y, max_cardinality=depth, **kw)
        if algo == "bp":
            return hbp_solve(D, y, BpParams(max_iter=300), **kw)
        return homp(D, y, **kw)

    fresh = [solve(y, depth) for y, depth in jobs]
    with pytest.MonkeyPatch.context() as patch:
        if streamed:
            patch.setattr(recovery, "CONTEXT_CACHE_BYTES", 0)
        context = recovery.SolverContext(D)
        for i in rng.permutation(len(jobs)):
            got = solve(*jobs[i], context=context)
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
    some columns while others converge, and each column's h1 reference is
    None, its own objective ("exact") or an objective it misses."""
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
    params = BpParams(max_iter=max_iter)
    context = recovery.SolverContext(D)
    objectives = [h1_norm(hbp_solve(D, y, params, context=context).solution) for y in ys]
    references = [[None, h1, h1 + 1.0][int(rng.integers(3))] for h1 in objectives]

    batch = hbp_solve_batch(D, ys, params, references, context=context)
    assert len(batch) == len(ys)
    for y, reference, got in zip(ys, references, batch):
        alone = hbp_solve(D, y, params, reference)
        assert (got.status, got.support, got.iterations) == (
            alone.status, alone.support, alone.iterations)
        gap = np.linalg.norm(got.solution.entries - alone.solution.entries)
        assert gap <= 1e-12 * np.linalg.norm(alone.solution.entries)


def test_batch_rejects_unpaired_references():
    D = identity_dft_pair(4)
    with pytest.raises(ValueError, match="2 h1 references for 1 measurements"):
        hbp_solve_batch(D, [np.ones(4)], h1_references=[None, None])
    assert hbp_solve_batch(D, []) == []


@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_context_of_another_dictionary_rejected(algo):
    D = identity_dft_pair(4)
    with pytest.raises(ValueError, match="another dictionary"):
        SOLVERS[algo](D, np.ones(4), context=recovery.SolverContext(identity_dft_pair(4)))


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
    def test_all_three_agree_when_guaranteed(self):
        """Below the coherence threshold every solver returns the same signal."""
        D = identity_dft_pair(8)   # threshold ~1.91: s = 1 guaranteed
        rep = coherence_report(D)
        assert guarantee_check(rep, 1) == (True, True)
        for seed in range(6):
            target = (seed * 3) % 16
            v, y = planted(D, (target,), seed=seed)
            p0 = hp0_exhaustive(D, y)
            bp = hbp_solve(D, y)
            om = homp(D, y)
            for r in (p0, bp, om):
                assert rel_error(r, v) <= 1e-5
