"""The output contract of hsparse: the files a change must leave byte for byte.

    python3 tools/contract.py [BASE]        # from a checkout of the head

The head writes the manifest's inputs once, into a temporary directory.  Each
tree then runs every command as ``python3 -W error::RuntimeWarning -m
hsparse.cli ...``, with its own ``src`` on PYTHONPATH, from an output
directory of its own; a nonzero exit ends the run and names the command.
Without BASE only the head runs, and only the sampling-period families, whose
cells (CSV columns 1-4, 6 and 7) must not change with the period.  With a base
checkout every file either tree writes is compared byte for byte, and a file
only one tree writes is a problem too.  Prints ``N files compared`` and one
line per problem; exits 1 on any problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
NONUNIFORM = "1,2,1,3,2,1,1,2,1,2,1,1,2,1,1,2"
COSET64 = "multicoset --n 64 --rows 1,3,4,9,11,17,20,30"

# Sweep configs, all at s_min 1 and seed 7; each tree writes <name>.csv and <name>.json.
SWEEPS = {
    # identity/DFT with bp and omp.
    "relax": {"dictionary": {"kind": "identity_dft", "n": 32}, "algorithms": ["bp", "omp"],
              "s_max": 3, "trials": 20},
    # p0 and omp on a random dictionary with non-uniform blocks.
    "exact": {"dictionary": {"kind": "random", "rows": 12, "seed": 5,
                             "block_sizes": [int(d) for d in NONUNIFORM.split(",")]},
              "algorithms": ["p0", "omp"], "s_max": 3, "trials": 20},
    # the multi-coset operator with all three solvers.
    "mixed": {"dictionary": {"kind": "multicoset", "n": 16, "m": 6},
              "algorithms": ["p0", "omp", "bp"], "s_max": 3, "trials": 20},
    # prox repeats the shrink factors over blocks of 1-3; 30 of 45 bp rows stop at the budget.
    "bp": {"dictionary": {"kind": "random", "rows": 16, "seed": 3, "block_sizes": [1, 2, 3] * 4},
           "algorithms": ["bp", "omp"], "s_max": 3, "trials": 15,
           "tolerances": {"bp_rho": 0.5, "bp_max_iter": 60}},
    # spark 2: RANK_TOL truncates some stacks, and all 60 p0 trials are "non-unique".
    "deficient": {"dictionary": {"kind": "multicoset", "n": 12, "rows": [2, 4, 6, 8]},
                  "algorithms": ["p0", "omp"], "s_max": 3, "trials": 20},
    # blocks of up to 10 columns: numpy's reduction order over one or a batch could differ.
    "wide": {"dictionary": {"kind": "random", "rows": 24, "seed": 11,
                            "block_sizes": [8, 9, 10, 8, 2, 1, 3, 9]},
             "algorithms": ["p0", "omp", "bp"], "s_max": 2, "trials": 15},
}

# Certify inputs: name, --seed, model arguments, certified with spark.  Each
# tree writes certify-<name>.json.
CERTIFY = [
    # identity/DFT: mu_h, mu_block and mu_hat of single columns.
    ("idft", 0, "identity-dft --n 64", False),
    # uniform blocks of 2: mu_block and mu_hat past single columns.
    ("pairs", 1, f"random --rows 48 --block-sizes {','.join('2' * 96)}", False),
    # uniform blocks of 4.
    ("quads", 2, f"random --rows 64 --block-sizes {','.join('4' * 64)}", False),
    # mixed blocks of 1-3.
    ("mixed", 3, f"random --rows 40 --block-sizes {','.join('123' * 30)}", False),
    # the multi-coset matrix at period 1.
    ("coset", 0, COSET64, False),
    # entries near 1e-82: squaring a Gram entry of D would leave the normal range.
    ("cosetfine", 0, f"{COSET64} --period 1e-80", False),
    # entries near 1e78: likewise at the large end.
    ("cosetcoarse", 0, f"{COSET64} --period 1e80", False),
    # a small random dictionary with spark.
    ("small", 4, "random --rows 8 --block-sizes 1,2,1,2,1,2,1,2", True),
    # the certify-spark benchmark's 12 rows with blocks of 1-3: spark 6.
    ("nonuniform", 5, f"random --rows 12 --block-sizes {NONUNIFORM}", True),
    # the certify-spark benchmark's 8 x 14 single columns: spark 9.
    ("columns", 6, f"random --rows 8 --block-sizes {','.join('1' * 14)}", True),
    # spark 4 sits below the first probe, so a deficient probe exits early.
    ("deficient", 0, "multicoset --n 16 --rows 1,3,4,9,11", True),
    # spark 10; C(16, 9) = 11,440 subsets, longer than one unranking run of 512.
    ("runs", 7, f"random --rows 9 --block-sizes {','.join('1' * 16)}", True),
    # spark 6; widths 6 and 7 hold 1,650 subsets each, so runs end inside a width.
    ("widths", 8, f"random --rows 10 --block-sizes {','.join('121' * 5 + '1')}", True),
    # unnormalised columns (norms 1.7-3.9), so each Gram tile's trace enters the screen; spark 5.
    ("unnormed", 9, "random --rows 8 --normalize none --block-sizes 1,2,1,2,1,2,1,2,1,2,1,1", True),
    # unnormalised single columns: spark 10, C(15, 9) = 5,005 subsets in its probe.
    ("unnormedcolumns", 10, f"random --rows 9 --normalize none --block-sizes {','.join('1' * 15)}",
     True),
    # picket-fence kernels: Gram tiles singular up to rounding, where unshifted Cholesky can fail.
    ("picket", 0, "identity-dft --n 9", True),
]

# --seed, model arguments and plant_signal's (s, master seed, trial) of the
# measurement that p0, omp and bp each solve, as recover-<algo>.json and .solution.json.
# The sweeps' 3-block signal; recover loads D itself, so nothing is shared between solves.
RECOVER = (5, f"random --rows 12 --block-sizes {NONUNIFORM}", (3, 7, 0))

# The uncertainty commands: the picket fence for n = 16 (its stdout and two
# vectors), that pair audited on the identity and Fourier bases, and the
# kernel audit of a kernel sample and of the picket-fence kernel vector [u; -v]
# of identity/DFT n = 9.  "> FILE" keeps stdout in FILE.
UNCERTAINTY = [
    "uncertainty picket-fence --n 16 --out pf > pf.stdout.json",
    "uncertainty audit-pair --dict-a {inputs}/identity.json --dict-b {inputs}/fourier.json"
    " --u pf.u.json --v pf.v.json --set-u 0,4,8,12 --set-v 0,4,8,12 --out audit-pair.json",
    *(f"uncertainty audit-kernel --dict {{inputs}}/pair.json --vector {{inputs}}/{vector}.json"
      f" --out audit-kernel-{vector}.json" for vector in ("sample", "comb")),
]

# Sampling-period families, run at seed 2: prefix, model, experiment
# arguments, periods.  The period only scales D, and each solver is scale-free,
# so every period must give the cells of the first.
PERIODS = [
    # omp: D^H r squared overflows at 1e-80; ||y||^2 and squares of D.unit^H r at 1e-160.
    ("omp", COSET64, "--algos omp --s-min 1 --s-max 4 --trials 30", ("1", "1e-80", "1e-160")),
    # p0 and bp: ||y||^2 would overflow in D's units at 1e-160.
    ("p0", "multicoset --n 16 --rows 1,3,4,9,11,13",
     "--algos p0,bp --s-min 1 --s-max 3 --trials 20", ("1", "1e-160")),
]

# The benchmark's sweep workloads, built by bench/workloads.py for these seeds.
BENCH_SWEEPS = ("sweep-exact", "sweep-relax")
BENCH_SEEDS = range(1, 9)


def hsparse(tree: Path, cwd: Path, command: str) -> None:
    """One CLI run of tree's src from cwd, stdout kept after " > "; a nonzero exit ends the run."""
    args, _, stdout = command.partition(" > ")
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hsparse.cli", *args.split()],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True)
    if done.returncode:
        sys.exit(f"{tree}: exit {done.returncode}: hsparse {args}\n{done.stderr.decode()}")
    if stdout:
        (cwd / stdout).write_bytes(done.stdout)


def write_inputs(inputs: Path, full: bool) -> list[str]:
    """Write the inputs with the head and return the commands each tree runs.

    Without ``full`` only the period families' inputs and commands."""
    run = []
    for prefix, model, args, periods in PERIODS:
        for p in periods:
            hsparse(HEAD, inputs, f"model {model} --period {p} --out {prefix}-coset-{p}.json")
            run.append(f"--seed 2 experiment --dict {inputs}/{prefix}-coset-{p}.json {args}"
                       f" --out {prefix}-{p}")
    if not full:
        return run
    for name, config in SWEEPS.items():
        config = {"s_min": 1, "seed": 7, **config, "out": name}
        (inputs / f"{name}.config.json").write_text(json.dumps(config))
        run.append(f"experiment --config {inputs}/{name}.config.json")
    for name, seed, model, spark in CERTIFY:
        hsparse(HEAD, inputs, f"--seed {seed} model {model} --out certify-{name}.json")
        run.append(f"certify {inputs}/certify-{name}.json{'' if spark else ' --no-spark'}"
                   f" --out certify-{name}.json")
    sys.path[:0] = [str(HEAD / "src"), str(HEAD / "bench")]
    import numpy as np
    import workloads
    from hsparse import (BlockVector, fourier_basis, identity_basis, identity_dft_pair, io,
                         kernel_sample, picket_fence)
    from hsparse.experiments import plant_signal

    seed, model, planted = RECOVER
    hsparse(HEAD, inputs, f"--seed {seed} model {model} --out recover-dict.json")
    D = io.load_block_dictionary(inputs / "recover-dict.json")
    io.save_measurement(inputs / "recover-y.json", D.matrix @ plant_signal(D, *planted)[0].entries)
    run += [f"recover --algo {algo} --dict {inputs}/recover-dict.json"
            f" --obs {inputs}/recover-y.json --out recover-{algo}" for algo in ("p0", "omp", "bp")]
    D = identity_dft_pair(9)
    u, v, _, _ = picket_fence(9)
    io.save_block_dictionary(inputs / "identity.json", identity_basis(16))
    io.save_block_dictionary(inputs / "fourier.json", fourier_basis(16))
    io.save_block_dictionary(inputs / "pair.json", D)
    io.save_block_vector(inputs / "sample.json", kernel_sample(D, 3))
    io.save_block_vector(inputs / "comb.json",
                         BlockVector(np.concatenate([u.entries, -v.entries]), D.structure))
    run += [command.format(inputs=inputs) for command in UNCERTAINTY]
    for name in BENCH_SWEEPS:
        for seed in BENCH_SEEDS:
            workdir = inputs / f"{name}-{seed}"
            workdir.mkdir()
            config = Path(workloads.WORKLOADS[name](seed, str(workdir)).commands[0].argv[2])
            # The plan writes an absolute out; the sidecars name it, so both trees get one name.
            config.write_text(json.dumps({**json.loads(config.read_text()), "out": workdir.name}))
            run.append(f"experiment --config {config}")
    return run


def compare(base: Path, head: Path) -> tuple[int, list[str]]:
    """The number of files either directory holds, and one line per problem."""
    names = sorted({p.relative_to(d) for d in (base, head) for p in d.rglob("*") if p.is_file()})
    problems = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name}: written by the {'base' if a.is_file() else 'head'} only")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: bytes differ between the base and the head")
    return len(names), problems


def period_problems(out: Path) -> list[str]:
    """One line per period whose cells differ from its family's first period."""
    problems = []
    for prefix, _, _, periods in PERIODS:
        cells = {p: [[f for i, f in enumerate(line.split(",")) if i in (0, 1, 2, 3, 5, 6)]
                     for line in (out / f"{prefix}-{p}.csv").read_text().splitlines()]
                 for p in periods}
        problems += [f"{prefix}-{p}.csv: cells differ from period {periods[0]}"
                     for p in periods[1:] if cells[p] != cells[periods[0]]]
    return problems


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and argv[0].startswith("-"):
        sys.exit("usage: python3 tools/contract.py [BASE]")
    base = Path(argv[0]).resolve() if argv else None
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        commands = write_inputs(tmp / "inputs", full=base is not None)
        for name, tree in {"head": HEAD, **({"base": base} if base else {})}.items():
            (tmp / name).mkdir()
            for command in commands:
                hsparse(tree, tmp / name, command)
        problems = period_problems(tmp / "head")
        if base:
            count, different = compare(tmp / "base", tmp / "head")
            print(f"{count} files compared")
            problems += different
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
