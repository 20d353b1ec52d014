"""Command-line front end.

Subcommands: analyze, spark, recover, model, uncertainty, experiment,
certify.  Reports go to stdout as key-value JSON unless --out is given;
a one-line summary with every touched path and the effective seed is always
printed to stderr.

Exit codes: 0 success, 1 validation error, 2 numerical anomaly (an audit or
ordering that exact arithmetic forbids failed), 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io as hio
from .blocks import NumericalAnomaly
from .coherence import (SPARK_DEFICIENCY_TOL, SPARK_ENUMERATION_CAP,
                        coherence_report, spark_exhaustive)
from .experiments import (ALGORITHMS, TOLERANCE_KEYS, ExperimentConfig, build_dictionary,
                          run_algorithm, run_certify, run_phase_transition)
from .uncertainty import (IMAGE_MATCH_TOL, KERNEL_RESIDUAL_TOL, gup_audit,
                          kernel_uncertainty_audit, picket_fence)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ANOMALY = 2
EXIT_IO = 3


class _CliError(ValueError):
    """Validation failure surfaced with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _emit(doc: dict, out: str | None, touched: list[str]):
    if out:
        hio.write_document(out, doc)
        touched.append(out)
    else:
        sys.stdout.write(hio.dumps_document(doc))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as err:
        raise _CliError(f"expected a comma-separated integer list: {text!r}") from err


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use; parse_args returns fresh namespaces."""
    parser = _Parser(prog="hsparse",
                     description="Block-sparse recovery toolkit")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in outputs and used where randomness is drawn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="coherence/spark report for a dictionary file")
    p.add_argument("dictionary")
    p.add_argument("--no-spark", action="store_true")
    p.add_argument("--spark-cap", type=int, default=SPARK_ENUMERATION_CAP)
    p.add_argument("--tol-spark", type=float, default=SPARK_DEFICIENCY_TOL)
    p.add_argument("--out")

    p = sub.add_parser("spark", help="exhaustive spark of a dictionary file")
    p.add_argument("dictionary")
    p.add_argument("--cap", type=int, default=SPARK_ENUMERATION_CAP)
    p.add_argument("--tol-spark", type=float, default=SPARK_DEFICIENCY_TOL)
    p.add_argument("--out")

    p = sub.add_parser("recover", help="solve one recovery instance")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--obs", required=True, help="measurement vector file")
    p.add_argument("--tol-res", dest="omp_tol_res", type=float, help="omp stop tolerance")
    p.add_argument("--tol-p0", dest="p0_tol", type=float, help="p0 feasibility tolerance")
    p.add_argument("--rho", dest="bp_rho", type=float)
    p.add_argument("--tol-primal", dest="bp_tol_primal", type=float)
    p.add_argument("--tol-dual", dest="bp_tol_dual", type=float)
    p.add_argument("--max-iter", dest="bp_max_iter", type=int)
    p.add_argument("--cap", type=int, default=SPARK_ENUMERATION_CAP)
    p.add_argument("--out", help="prefix: writes <out>.json and <out>.solution.json")

    p = sub.add_parser("model", help="materialize a structured dictionary")
    kind = p.add_subparsers(dest="model_kind", required=True)
    q = kind.add_parser("multicoset")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rows", type=str, required=True, help="comma list, 1-based; e.g. 1,2")
    q.add_argument("--period", type=float, default=1.0)
    q.add_argument("--out", required=True)
    q = kind.add_parser("identity-dft")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", required=True)
    q = kind.add_parser("random")
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--block-sizes", type=str, required=True, help="comma list; e.g. 2,2,2,2")
    q.add_argument("--normalize", choices=("columns", "none"), default="columns")
    q.add_argument("--out", required=True)

    p = sub.add_parser("uncertainty", help="uncertainty audits")
    unc = p.add_subparsers(dest="audit_kind", required=True)
    q = unc.add_parser("audit-kernel")
    q.add_argument("--dict", dest="dictionary", required=True)
    q.add_argument("--vector", required=True)
    q.add_argument("--tol-kernel", type=float, default=KERNEL_RESIDUAL_TOL,
                   help="largest ||D.unit v|| / ||v|| of a kernel vector (unit = D 2^-e)")
    q.add_argument("--out")
    q = unc.add_parser("audit-pair")
    q.add_argument("--dict-a", required=True)
    q.add_argument("--dict-b", required=True)
    q.add_argument("--u", required=True)
    q.add_argument("--v", required=True)
    q.add_argument("--set-u", required=True, help="comma list of block indices")
    q.add_argument("--set-v", required=True)
    q.add_argument("--tol-match", type=float, default=IMAGE_MATCH_TOL)
    q.add_argument("--out")
    q = unc.add_parser("picket-fence")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", help="prefix: writes <out>.u.json and <out>.v.json")

    p = sub.add_parser("experiment", help="deterministic recovery sweep")
    p.add_argument("--config", help="JSON config; its keys override flags")
    p.add_argument("--dict", dest="dictionary", help="dictionary file when no config")
    p.add_argument("--algos", type=str, default=",".join(ALGORITHMS))
    p.add_argument("--s-min", type=int)
    p.add_argument("--s-max", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out", help="output prefix for CSV and JSON sidecar")

    p = sub.add_parser("certify", help="thresholds and coherence-ordering verdict")
    p.add_argument("dictionary")
    p.add_argument("--no-spark", action="store_true")
    p.add_argument("--spark-cap", type=int, default=SPARK_ENUMERATION_CAP)
    p.add_argument("--out")
    return parser


def _cmd_analyze(args, touched) -> int:
    D = hio.load_block_dictionary(args.dictionary)
    touched.append(args.dictionary)
    report = coherence_report(D, compute_spark=not args.no_spark,
                              spark_tol=args.tol_spark, spark_cap=args.spark_cap)
    _emit(report.to_mapping(), args.out, touched)
    return EXIT_OK


def _cmd_spark(args, touched) -> int:
    D = hio.load_block_dictionary(args.dictionary)
    touched.append(args.dictionary)
    value = spark_exhaustive(D, tol=args.tol_spark, cap=args.cap)
    doc = {"n_blocks": D.n_blocks,
           "spark": "trivial-kernel" if value is None else value}
    _emit(doc, args.out, touched)
    return EXIT_OK


def _cmd_recover(args, touched) -> int:
    D = hio.load_block_dictionary(args.dictionary)
    y = hio.load_measurement(args.obs)
    touched += [args.dictionary, args.obs]
    tolerances = {key: value for key, value in vars(args).items()
                  if key in TOLERANCE_KEYS and value is not None}
    [result] = run_algorithm(args.algo, D, [y], tolerances, cap=args.cap)
    doc = {
        "algorithm": args.algo,
        "status": result.status,
        "support": list(result.support),
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
    }
    _emit(doc, args.out and args.out + ".json", touched)
    if args.out:
        hio.save_block_vector(args.out + ".solution.json", result.solution)
        touched.append(args.out + ".solution.json")
    return EXIT_OK


def _cmd_model(args, touched) -> int:
    if args.model_kind == "multicoset":
        source = {"kind": "multicoset", "n": args.n,
                  "rows": _int_list(args.rows), "period": args.period}
    elif args.model_kind == "identity-dft":
        source = {"kind": "identity_dft", "n": args.n}
    else:
        source = {"kind": "random", "rows": args.rows,
                  "block_sizes": _int_list(args.block_sizes),
                  "seed": args.seed, "normalize": args.normalize}
    hio.save_block_dictionary(args.out, build_dictionary(source))
    touched.append(args.out)
    return EXIT_OK


def _cmd_uncertainty(args, touched) -> int:
    if args.audit_kind == "audit-kernel":
        D = hio.load_block_dictionary(args.dictionary)
        v = hio.load_block_vector(args.vector)
        touched += [args.dictionary, args.vector]
        profile = kernel_uncertainty_audit(D, v, tol_kernel=args.tol_kernel)
        doc = {
            "n_blocks": D.n_blocks,
            "all_hold": all(row.holds for row in profile),
            "entries": [{"k": row.k, "epsilon": row.epsilon,
                         "bound": row.bound, "holds": row.holds}
                        for row in profile],
        }
        _emit(doc, args.out, touched)
        return EXIT_OK if doc["all_hold"] else EXIT_ANOMALY
    if args.audit_kind == "audit-pair":
        Da = hio.load_block_dictionary(args.dict_a)
        Db = hio.load_block_dictionary(args.dict_b)
        u = hio.load_block_vector(args.u)
        v = hio.load_block_vector(args.v)
        touched += [args.dict_a, args.dict_b, args.u, args.v]
        audit = gup_audit(Da, Db, u, v, _int_list(args.set_u),
                          _int_list(args.set_v), tol_match=args.tol_match)
        _emit(audit.to_mapping(), args.out, touched)
        return EXIT_OK if audit.holds and not audit.anomaly else EXIT_ANOMALY
    u, v, set_u, set_v = picket_fence(args.n)
    doc = {"n": args.n, "set_u": list(set_u), "set_v": list(set_v)}
    if args.out:
        hio.save_block_vector(args.out + ".u.json", u)
        hio.save_block_vector(args.out + ".v.json", v)
        touched += [args.out + ".u.json", args.out + ".v.json"]
    sys.stdout.write(hio.dumps_document(doc))
    return EXIT_OK


def _cmd_experiment(args, touched) -> int:
    merged = {name: getattr(args, name) for name in ("s_min", "s_max", "trials", "seed", "out")
              if getattr(args, name) is not None}
    merged["algorithms"] = [a for a in args.algos.split(",") if a]
    if args.dictionary:
        merged["dictionary"] = {"kind": "file", "path": args.dictionary}
    if args.config:
        doc = hio.load_document(args.config)
        touched.append(args.config)
        if not isinstance(doc, dict):
            raise _CliError("experiment config must be a JSON object")
        merged.update(doc)   # config wins over flags, flags over defaults
    if "dictionary" not in merged:
        raise _CliError("experiment needs a dictionary (config key or --dict)")
    config = ExperimentConfig.from_mapping(merged)
    args.seed = config.seed   # the summary line reports the seed that ran
    records = run_phase_transition(config)
    if config.out:
        touched += [config.out + ".csv", config.out + ".json"]
    _emit({"trials": len(records), "failures": sum(not r.success for r in records)}, None, touched)
    return EXIT_OK


def _cmd_certify(args, touched) -> int:
    D = hio.load_block_dictionary(args.dictionary)
    touched.append(args.dictionary)
    doc = run_certify(D, compute_spark=not args.no_spark, spark_cap=args.spark_cap)
    _emit(doc, args.out, touched)
    anomalous = doc.get("mu_comparison") == "violated" or doc.get("spark_bound_ok") is False
    return EXIT_ANOMALY if anomalous else EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "spark": _cmd_spark,
    "recover": _cmd_recover,
    "model": _cmd_model,
    "uncertainty": _cmd_uncertainty,
    "experiment": _cmd_experiment,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    touched: list[str] = []
    args = argparse.Namespace(seed=0)
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, touched)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        code = EXIT_VALIDATION
    except NumericalAnomaly as err:
        print(f"numerical anomaly: {err}", file=sys.stderr)
        code = EXIT_ANOMALY
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        code = EXIT_IO
    except SystemExit as err:     # argparse --help
        return int(err.code or 0)
    paths = " ".join(touched) if touched else "-"
    print(f"hsparse: exit={code} seed={args.seed} paths: {paths}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
