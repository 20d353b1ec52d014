"""Deterministic experiment harness: recovery sweeps and certification.

A phase-transition run plants a random block-sparse signal per (sparsity,
trial) cell, recovers it with each configured algorithm, and records exact
success.  Every trial derives its own generator state from (seed, s, trial),
so results do not depend on execution order and identical configurations
produce byte-identical output files.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import io as hio
from .blocks import BlockDictionary, BlockVector, h1_norm
from .coherence import SPARK_ENUMERATION_CAP, coherence_report
from .io import exact_number
from .models import (MultiCosetSpec, complex_standard_normal, identity_dft_pair,
                     multicoset_matrix, random_block_dictionary)
from .recovery import (BpParams, RecoveryResult, SolverContext, hbp_solve_batch,
                       homp, hp0_exhaustive_batch)
# bench/spans.py times the per-solve names it finds in this module.
from .recovery import hbp_solve, hp0_exhaustive  # noqa: F401

ALGORITHMS = ("bp", "omp", "p0")
# Exact-recovery tolerances entering the success verdict.
SUCCESS_TOL = {"p0": 1e-6, "omp": 1e-6, "bp": 1e-5}
# Config ``tolerances`` key -> (algorithm, solver parameter it sets, type).
TOLERANCE_KEYS = {
    "p0_tol": ("p0", "tol", float),
    "omp_tol_res": ("omp", "tol_res", float),
    "bp_rho": ("bp", "rho", float),
    "bp_tol_primal": ("bp", "tol_primal", float),
    "bp_tol_dual": ("bp", "tol_dual", float),
    "bp_max_iter": ("bp", "max_iter", int),
}
# Trials of one level solved together; a level with more is run in batches
# of this many, so a sweep's memory does not grow with its trial count.
_TRIAL_BATCH = 256

# Columns written to CSV, in order.
CSV_FIELDS = ("s", "trial", "algorithm", "success", "rel_error",
              "support_match", "iterations", "residual_norm")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (sparsity, trial, algorithm) cell."""

    s: int
    trial: int
    algorithm: str
    success: bool
    rel_error: float
    support_match: bool
    iterations: int
    residual_norm: float

    def csv_row(self) -> list[str]:
        return [hio.csv_cell(getattr(self, name)) for name in CSV_FIELDS]


def parse_trial_row(row: list[str]) -> TrialRecord:
    """Rebuild a TrialRecord from its CSV cells."""
    if len(row) != len(CSV_FIELDS):
        raise ValueError(f"expected {len(CSV_FIELDS)} cells, got {len(row)}")
    return TrialRecord(
        s=int(row[0]), trial=int(row[1]), algorithm=row[2],
        success=row[3] == "true", rel_error=float(row[4]),
        support_match=row[5] == "true", iterations=int(row[6]),
        residual_norm=float(row[7]))


@dataclass
class ExperimentConfig:
    """Declarative description of a recovery sweep.

    ``dictionary`` names either a file ({"kind": "file", "path": ...}) or a
    constructor ({"kind": "identity_dft" | "multicoset" | "random", ...}).
    ``tolerances`` maps TOLERANCE_KEYS (p0_tol, omp_tol_res, bp_rho,
    bp_tol_primal, bp_tol_dual, bp_max_iter; ``recover`` sets them with
    --tol-p0, --tol-res, --rho, --tol-primal, --tol-dual, --max-iter) to finite
    numbers, integral for bp_max_iter and the integer fields (3.0 reads as 3);
    omitted options take the solver's default.
    """

    dictionary: dict
    algorithms: tuple[str, ...] = ALGORITHMS
    s_min: int = 1
    s_max: int = 1
    trials: int = 1
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self):
        for name in ("s_min", "s_max", "trials", "seed"):
            setattr(self, name, exact_number(name, getattr(self, name), int))
        if not isinstance(self.tolerances, dict):
            raise ValueError("tolerances must be an object")
        for key, value in self.tolerances.items():
            if key not in TOLERANCE_KEYS:
                raise ValueError(f"unknown tolerances key {key!r}; known: {sorted(TOLERANCE_KEYS)}")
            exact_number(key, value, TOLERANCE_KEYS[key][2])
        if not isinstance(self.algorithms, (list, tuple)):
            raise ValueError(f"algorithms must be a list, got {self.algorithms!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        self.algorithms = tuple(sorted(set(self.algorithms)))
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if self.trials < 1:
            raise ValueError("need at least one trial per sparsity")
        if not 1 <= self.s_min <= self.s_max:
            raise ValueError("need 1 <= s_min <= s_max")

    @classmethod
    def from_mapping(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "dictionary" not in doc:
            raise ValueError("config needs a dictionary source")
        return cls(**doc)

    def to_mapping(self) -> dict:
        return {**asdict(self), "algorithms": list(self.algorithms)}


def _integers(name: str, values) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return tuple(exact_number(name, v, int) for v in values)


def build_dictionary(source: dict) -> BlockDictionary:
    """Materialize a dictionary source description."""
    if not isinstance(source, dict) or "kind" not in source:
        raise ValueError('dictionary source needs a "kind"')
    kind = source["kind"]
    if kind == "file":
        if not isinstance(source.get("path"), str):
            raise ValueError(f"path must be a path string, got {source.get('path')!r}")
        return hio.load_block_dictionary(source["path"])
    if kind == "identity_dft":
        return identity_dft_pair(exact_number("n", source["n"], int))
    if kind == "multicoset":
        rows = source.get("rows")
        if rows is None:
            rows = list(range(1, exact_number("m", source["m"], int) + 1))
        spec = MultiCosetSpec(exact_number("n", source["n"], int), _integers("rows", rows),
                              exact_number("period", source.get("period", 1.0), float))
        return multicoset_matrix(spec)
    if kind == "random":
        return random_block_dictionary(
            exact_number("rows", source["rows"], int),
            _integers("block_sizes", source["block_sizes"]),
            exact_number("seed", source["seed"], int), source.get("normalize", "columns"))
    raise ValueError(f"unknown dictionary kind: {kind!r}")


def plant_signal(D: BlockDictionary, s: int, master_seed: int,
                 trial: int) -> tuple[BlockVector, tuple[int, ...]]:
    """Draw an s-block-sparse signal for one trial cell.

    The generator state depends only on (master_seed, s, trial), never on
    scheduling, so sweeps are reproducible under any execution order.
    """
    rng = np.random.default_rng([master_seed, s, trial])
    n = D.n_blocks
    support = tuple(sorted(int(i) for i in rng.choice(n, size=s, replace=False)))
    entries = np.zeros(D.structure.dim, dtype=np.complex128)
    for i in support:
        sl = D.structure.block_slice(i)
        entries[sl] = complex_standard_normal(rng, sl.stop - sl.start)
    return BlockVector(entries, D.structure), support


def run_algorithm(algo: str, D: BlockDictionary, ys, tolerances: dict,
                  cap: int = SPARK_ENUMERATION_CAP, max_cardinality: int | None = None,
                  h1_references=None,
                  context: SolverContext | None = None) -> list[RecoveryResult]:
    """Solve each measurement in ys with solver ``algo``, given the options
    ``tolerances`` sets for it (see TOLERANCE_KEYS); options not given keep
    the solver's default.  Returns one result per measurement, in order.

    p0 screens all measurements together in one ``hp0_exhaustive_batch``
    call; omp solves them one by one; bp solves them all in one
    ``hbp_solve_batch`` call, with ``h1_references`` (one per measurement,
    or None) qualifying its results as "exact".  ``context`` is a
    SolverContext built for D and shared by every call on D (a sweep keeps
    one for its whole run): it holds the factors that depend only on D
    (p0's stacks and their pseudo-inverses, within
    recovery.CONTEXT_CACHE_BYTES, which p0's refits and omp's steps also
    read; bp's pseudo-inverse; omp's adjoint), each computed on first use.
    Without one, each solver call builds a throwaway context.
    """
    opts = {param: exact_number(key, tolerances[key], kind)
            for key, (owner, param, kind) in TOLERANCE_KEYS.items()
            if owner == algo and key in tolerances}
    if algo == "p0":
        return hp0_exhaustive_batch(D, ys, cap=cap, max_cardinality=max_cardinality,
                                    context=context, **opts)
    if algo == "omp":
        return [homp(D, y, context=context, **opts) for y in ys]
    if algo == "bp":
        return hbp_solve_batch(D, ys, BpParams(**opts), h1_references, context=context)
    raise ValueError(f"unknown algorithm: {algo!r}")


def evaluate_trial(result: RecoveryResult, truth: BlockVector,
                   support: tuple[int, ...], algo: str) -> tuple[bool, float, bool]:
    rel_error = float(np.linalg.norm(result.solution.entries - truth.entries))
    rel_error /= max(float(np.linalg.norm(truth.entries)), 1e-300)
    support_match = result.support == support
    success = support_match and rel_error <= SUCCESS_TOL[algo]
    return success, rel_error, support_match


def run_phase_transition(config: ExperimentConfig) -> list[TrialRecord]:
    """Run the sweep; write CSV and a JSON sidecar when config.out is set.

    All solves share one SolverContext, so the factors that depend only on
    the dictionary are computed once per sweep rather than once per trial.
    The trials of a level are planted together, at most _TRIAL_BATCH at a
    time, and each algorithm gets them in one ``run_algorithm`` call, so p0
    screens them and bp solves them as one batch.
    """
    D = build_dictionary(config.dictionary)
    n = D.n_blocks
    if config.s_max > n:
        raise ValueError(f"s_max {config.s_max} exceeds {n} blocks")
    records: list[TrialRecord] = []
    context = SolverContext(D)
    # p0 first so its objectives can qualify the relaxation results as exact.
    order = [a for a in ("p0", "omp", "bp") if a in config.algorithms]

    for s in range(config.s_min, config.s_max + 1):
        for first in range(0, config.trials, _TRIAL_BATCH):
            trials = range(first, min(first + _TRIAL_BATCH, config.trials))
            planted = [plant_signal(D, s, config.seed, trial) for trial in trials]
            ys = [D.matrix @ truth.entries for truth, _ in planted]
            h1_refs = None
            for algo in order:
                results = run_algorithm(algo, D, ys, config.tolerances, cap=n,
                                        max_cardinality=s, h1_references=h1_refs,
                                        context=context)
                if algo == "p0":
                    h1_refs = [h1_norm(result.solution) for result in results]
                for trial, (truth, support), result in zip(trials, planted, results):
                    success, rel_error, support_match = evaluate_trial(
                        result, truth, support, algo)
                    records.append(TrialRecord(
                        s=s, trial=trial, algorithm=algo, success=success,
                        rel_error=rel_error, support_match=support_match,
                        iterations=result.iterations,
                        residual_norm=result.residual_norm))
    records.sort(key=lambda r: (r.s, r.trial, r.algorithm))

    if config.out:
        write_outputs(config, D, records)
    return records


def write_outputs(config: ExperimentConfig, D: BlockDictionary,
                  records: list[TrialRecord]) -> tuple[str, str]:
    csv_path = config.out + ".csv"
    json_path = config.out + ".json"
    lines = [",".join(CSV_FIELDS)]
    lines += [",".join(r.csv_row()) for r in records]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    report = coherence_report(D)
    sidecar = {
        "seed": config.seed,
        "config": config.to_mapping(),
        "coherence_report": report.to_mapping(),
    }
    hio.write_document(json_path, sidecar)
    return csv_path, json_path


def max_guaranteed_sparsity(threshold: float | None, n_blocks: int) -> int | str:
    """Largest s with s < threshold (strict); the full block count if vacuous."""
    if threshold is None:
        return "not-computed"
    if math.isinf(threshold):
        return n_blocks
    return max(0, int(math.ceil(threshold - 1e-12)) - 1)


def run_certify(D: BlockDictionary, compute_spark: bool = True,
                spark_cap: int = SPARK_ENUMERATION_CAP) -> dict:
    """Certification document: report, guaranteed sparsity levels, ordering.

    For uniform block sizes and equal column norms the composite-vs-subspace
    coherence comparison is included with a verdict: "equal" (orthonormal-block
    case), "improved" (strict inequality), "invalid" (composite bound vacuous),
    or "violated", which flags a numerical anomaly.
    """
    report = coherence_report(D, compute_spark=compute_spark, spark_cap=spark_cap)
    doc = report.to_mapping()
    doc["max_guaranteed_s_spark"] = max_guaranteed_sparsity(report.threshold_spark,
                                                            report.n_blocks)
    doc["max_guaranteed_s_coherence"] = max_guaranteed_sparsity(
        report.threshold_coherence, report.n_blocks)
    bound_ok = report.spark_bound_ok()
    if bound_ok is not None:
        doc["spark_bound_ok"] = bound_ok
    if report.mu_block is not None:
        if report.mu_hat is None:
            verdict = "invalid"
        elif abs(report.mu_h - report.mu_hat) <= 1e-10:
            verdict = "equal"
        elif report.mu_h < report.mu_hat:
            verdict = "improved"
        else:
            verdict = "violated"
        doc["mu_comparison"] = verdict
    return doc
