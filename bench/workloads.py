"""Workload inputs and output checks for the hsparse benchmark.

Every input is generated here, from the workload seed, with plain numpy, and
written as files in the program's own document layout; the program sees only
those files.  The reference values that outputs are checked against are
computed here too, with plain numpy and without calling into hsparse.

A workload is a list of CLI commands run in order; one run of that list is a
pass.  An op is one certify document on the certify workloads and one trial
cell ``(s, trial)`` on the sweep workloads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Acceptance tolerance for mu_h and its closed forms.
MU_TOL = 1e-10
# Slack on the spark >= 1 + 1/mu_h law, as in CoherenceReport.spark_bound_ok.
SPARK_SLACK = 1e-9

# The per-subset (non-uniform) spark path; reused by certify-spark and
# sweep-exact so the sweep's sidecar runs that path too.
NONUNIFORM_12 = (1, 2, 1, 3, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 2)


@dataclass
class Dictionary:
    """A generated dictionary and what the benchmark knows about it."""

    label: str
    matrix: np.ndarray
    sizes: tuple[int, ...]
    # Closed-form mu_h where theory gives one (identity/DFT, consecutive
    # multicoset rows); checked in addition to the Gram reference.
    closed_form_mu: float | None = None
    mu_ref: float = field(default=math.nan)


@dataclass
class Command:
    """One CLI invocation of a pass and the files it produces."""

    argv: list[str]
    ops: int
    dictionary: Dictionary
    out: str               # certify: report path; experiment: output prefix
    solves: int = 0        # experiment: rows expected in the CSV


@dataclass
class Plan:
    kind: str              # "certify" or "sweep"
    commands: list[Command]


# ---------------------------------------------------------------- inputs

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def random_dictionary(label, rows, sizes, rng) -> Dictionary:
    """Complex Gaussian entries, every column scaled to unit norm."""
    cols = sum(sizes)
    mat = (rng.standard_normal((rows, cols))
           + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)
    mat /= np.linalg.norm(mat, axis=0, keepdims=True)
    return Dictionary(label, mat, tuple(sizes))


def identity_dft(n: int) -> Dictionary:
    grid = np.outer(np.arange(n), np.arange(n))
    dft = np.exp(-2j * np.pi * grid / n) / math.sqrt(n)
    mat = np.hstack([np.eye(n, dtype=np.complex128), dft])
    return Dictionary(f"identity_dft_{n}", mat, (1,) * (2 * n),
                      closed_form_mu=1.0 / math.sqrt(n))


def multicoset(n: int, rows) -> Dictionary:
    """Reduced multicoset matrix with period 1, i.e. entries scaled by 1/n.

    The scale is kept as the ``model multicoset`` command writes it: the
    composite verdict of ``certify`` depends on it (see the notes).
    """
    rows = tuple(rows)
    ks = np.asarray(rows, dtype=np.float64)[:, None]
    ls = np.arange(1, n + 1, dtype=np.float64)[None, :]
    mat = np.exp(2j * np.pi * ks * ls / n) / n
    if rows == tuple(range(1, len(rows) + 1)):
        return Dictionary(f"multicoset_{n}_rows1-{len(rows)}", mat, (1,) * n,
                          closed_form_mu=dirichlet_coherence(n, len(rows)))
    return Dictionary(f"multicoset_{n}_rows{'-'.join(map(str, rows))}", mat, (1,) * n)


def dirichlet_coherence(n: int, m: int) -> float:
    """max over d = 1..n-1 of |sum_{k=1..m} exp(2 pi i k d / n)| / m."""
    d = np.arange(1, n)[:, None]
    k = np.arange(1, m + 1)[None, :]
    return float(np.abs(np.exp(2j * np.pi * k * d / n).sum(axis=1)).max() / m)


def subspace_coherence(mat: np.ndarray, sizes) -> float:
    """mu_h from one Gram matrix: max over i != j of ||D_i^H D_j|| / smin_i^2."""
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    smin = np.array([np.linalg.svd(mat[:, o:o + d], compute_uv=False)[-1]
                     for o, d in zip(offsets, sizes)])
    gram = mat.conj().T @ mat
    sizes = np.asarray(sizes)
    best = 0.0
    for a in np.unique(sizes):
        rows_i = np.flatnonzero(sizes == a)
        cols_a = offsets[rows_i][:, None] + np.arange(a)
        for b in np.unique(sizes):
            rows_j = np.flatnonzero(sizes == b)
            cols_b = offsets[rows_j][:, None] + np.arange(b)
            tiles = gram[cols_a[:, None, :, None], cols_b[None, :, None, :]]
            norms = np.linalg.svd(tiles, compute_uv=False)[..., 0]
            norms[rows_i[:, None] == rows_j[None, :]] = 0.0
            best = max(best, float((norms / smin[rows_i, None] ** 2).max()))
    return best


def write_dictionary(path: str, d: Dictionary) -> None:
    flat = d.matrix.reshape(-1)
    doc = {"rows": d.matrix.shape[0], "cols": d.matrix.shape[1],
           "block_sizes": list(d.sizes),
           "real": flat.real.tolist(), "imag": flat.imag.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))   # json.dump would take the slow pure-Python encoder


def _certify_plan(dicts, workdir, extra) -> Plan:
    commands = []
    for i, d in enumerate(dicts):
        path = os.path.join(workdir, f"{i}-{d.label}.json")
        out = os.path.join(workdir, f"{i}-{d.label}.certify.json")
        write_dictionary(path, d)
        commands.append(Command(["certify", path, *extra, "--out", out], 1, d, out))
    return Plan("certify", commands)


def _sweep_plan(d, source, algorithms, s_max, trials, seed, workdir) -> Plan:
    out = os.path.join(workdir, "sweep")
    config = {"dictionary": source, "algorithms": list(algorithms), "s_min": 1,
              "s_max": s_max, "trials": trials, "seed": seed, "out": out}
    path = os.path.join(workdir, "sweep.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    cells = s_max * trials
    return Plan("sweep", [Command(["experiment", "--config", path], cells, d, out,
                                  solves=cells * len(algorithms))])


def certify_wide(seed, workdir) -> Plan:
    """Pairwise coherence scan dominates; no spark, no solver."""
    dicts = [identity_dft(128),
             multicoset(128, range(1, 33)),
             random_dictionary("random_64x4x64", 64, (4,) * 64, _rng(seed, 1)),
             random_dictionary("random_48x2x96", 48, (2,) * 96, _rng(seed, 2)),
             random_dictionary("random_40x123x30", 40, (1, 2, 3) * 30, _rng(seed, 3))]
    return _certify_plan(dicts, workdir, ["--no-spark"])


def certify_spark(seed, workdir) -> Plan:
    """Spark enumeration dominates: small dictionaries, both spark paths."""
    dicts = [random_dictionary("random_8x14", 8, (1,) * 14, _rng(seed, 4)),
             random_dictionary("random_12_nonuniform", 12, NONUNIFORM_12, _rng(seed, 5)),
             random_dictionary("random_10x2x9", 10, (2,) * 9, _rng(seed, 6)),
             multicoset(14, range(1, 7)),
             multicoset(16, (1, 3, 4, 9, 11))]
    return _certify_plan(dicts, workdir, [])


def sweep_relax(seed, workdir) -> Plan:
    """bp dominates; the program builds identity_dft(64) itself."""
    d = identity_dft(64)
    return _sweep_plan(d, {"kind": "identity_dft", "n": 64},
                       ("bp", "omp"), 4, 50, int(_rng(seed, 7).integers(2**31)), workdir)


def sweep_exact(seed, workdir) -> Plan:
    """p0 enumeration dominates; some cells lie beyond the recovery threshold.

    bp is left out: past the threshold single bp solves take 10k-55k
    iterations on about half the seeds, which swings the pass time by 1.6x
    from seed to seed.  sweep-relax measures bp.
    """
    d = random_dictionary("random_12_nonuniform", 12, NONUNIFORM_12, _rng(seed, 8))
    path = os.path.join(workdir, "sweep.dictionary.json")
    write_dictionary(path, d)
    return _sweep_plan(d, {"kind": "file", "path": path},
                       ("p0", "omp"), 3, 40, int(_rng(seed, 9).integers(2**31)), workdir)


WORKLOADS = {"certify-wide": certify_wide, "certify-spark": certify_spark,
             "sweep-relax": sweep_relax, "sweep-exact": sweep_exact}


def compute_references(plan: Plan) -> None:
    for command in plan.commands:
        d = command.dictionary
        d.mu_ref = subspace_coherence(d.matrix, d.sizes)


# ---------------------------------------------------------------- checks

def _mu_errors(mu, d: Dictionary) -> list[str]:
    errors = []
    if not abs(mu - d.mu_ref) <= MU_TOL:
        errors.append(f"mu_h {mu!r} differs from the Gram reference {d.mu_ref!r}")
    if d.closed_form_mu is not None and not abs(mu - d.closed_form_mu) <= MU_TOL:
        errors.append(f"mu_h {mu!r} differs from the closed form {d.closed_form_mu!r}")
    return errors


def _spark_errors(report: dict, d: Dictionary) -> list[str]:
    spark = report.get("spark")
    if spark == "not-computed":
        return []
    value = len(d.sizes) + 1 if spark == "trivial-kernel" else spark
    if not value >= 1.0 + 1.0 / d.mu_ref - SPARK_SLACK:
        return [f"spark {spark!r} below 1 + 1/mu_h = {1.0 + 1.0 / d.mu_ref!r}"]
    return []


def check_certify(command: Command) -> list[str]:
    with open(command.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    return _mu_errors(doc["mu_h"], command.dictionary) + _spark_errors(doc, command.dictionary)


@dataclass
class SweepOutput:
    csv_bytes: bytes
    json_bytes: bytes
    rows: list[dict]


def read_sweep(command: Command) -> SweepOutput:
    with open(command.out + ".csv", "rb") as fh:
        csv_bytes = fh.read()
    with open(command.out + ".json", "rb") as fh:
        json_bytes = fh.read()
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    return SweepOutput(csv_bytes, json_bytes, rows)


def check_sweep(command: Command, out: SweepOutput, first: SweepOutput | None) -> list[str]:
    errors = []
    if len(out.rows) != command.solves:
        errors.append(f"CSV has {len(out.rows)} rows, expected {command.solves}")
    if first is not None and (out.csv_bytes != first.csv_bytes
                              or out.json_bytes != first.json_bytes):
        errors.append("CSV or JSON bytes differ from the first pass")
    report = json.loads(out.json_bytes)["coherence_report"]
    errors += _mu_errors(report["mu_h"], command.dictionary)
    errors += _spark_errors(report, command.dictionary)
    return errors
