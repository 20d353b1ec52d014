import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hsparse
import hsparse.experiments as experiments
from hsparse import (BlockDictionary, BlockVector, hbp_solve, homp,
                     hp0_exhaustive, identity_dft_pair, random_block_dictionary,
                     uniform_structure)
from hsparse.cli import main
from hsparse.io import (load_block_dictionary, load_block_vector,
                        load_measurement, save_block_dictionary,
                        save_block_vector, save_measurement)


# Random Gaussian 64 x 4: injective, with mu_h about 0.16 once columns are unit.
_TALL = np.random.default_rng(0).standard_normal((64, 4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelAndAnalyze:
    def test_identity_dft_pipeline(self, tmp_path, capsys):
        dict_path = str(tmp_path / "d.json")
        code, _, err = run(capsys, "model", "identity-dft", "--n", "4",
                           "--out", dict_path)
        assert code == 0
        assert dict_path in err

        code, out, _ = run(capsys, "analyze", dict_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["mu_h"] == pytest.approx(0.5)
        assert doc["spark"] == 4

        report_path = str(tmp_path / "report.json")
        code, out, _ = run(capsys, "analyze", dict_path, "--out", report_path)
        assert code == 0 and out == ""
        assert json.loads(open(report_path).read())["mu_h"] == pytest.approx(0.5)

    def test_multicoset_and_spark(self, tmp_path, capsys):
        dict_path = str(tmp_path / "L.json")
        code, _, _ = run(capsys, "model", "multicoset", "--n", "4",
                         "--rows", "1,2", "--out", dict_path)
        assert code == 0
        code, out, _ = run(capsys, "spark", dict_path)
        assert code == 0
        assert json.loads(out)["spark"] == 3

    def test_random_model_uses_seed(self, tmp_path, capsys):
        a, b, c = (str(tmp_path / f"{k}.json") for k in "abc")
        run(capsys, "--seed", "5", "model", "random", "--rows", "6",
            "--block-sizes", "2,2", "--out", a)
        run(capsys, "--seed", "5", "model", "random", "--rows", "6",
            "--block-sizes", "2,2", "--out", b)
        run(capsys, "--seed", "6", "model", "random", "--rows", "6",
            "--block-sizes", "2,2", "--out", c)
        ma, mb, mc = (load_block_dictionary(p).matrix for p in (a, b, c))
        assert np.array_equal(ma, mb)
        assert not np.array_equal(ma, mc)


class TestRecover:
    @pytest.mark.parametrize("algo", ["p0", "bp", "omp"])
    def test_round_trip_recovery(self, algo, tmp_path, capsys):
        D = identity_dft_pair(4)
        truth = np.zeros(8, dtype=complex)
        truth[6] = 1.5 - 0.5j
        dict_path = str(tmp_path / "d.json")
        obs_path = str(tmp_path / "y.json")
        out_prefix = str(tmp_path / "result")
        save_block_dictionary(dict_path, D)
        save_measurement(obs_path, D.matrix @ truth)

        code, _, _ = run(capsys, "recover", "--algo", algo, "--dict", dict_path,
                         "--obs", obs_path, "--out", out_prefix)
        assert code == 0
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["support"] == [6]
        solution = load_block_vector(out_prefix + ".solution.json")
        assert np.linalg.norm(solution.entries - truth) <= 1e-5

    # Each recover option against a direct solver call with that option; every
    # value is chosen so that the result differs from the solver's default.
    @pytest.mark.parametrize("algo, flags, direct", [
        ("p0", ["--tol-p0", "1.0"], lambda D, y: hp0_exhaustive(D, y, tol=1.0)),
        ("omp", ["--tol-res", "0.9"], lambda D, y: homp(D, y, tol_res=0.9)),
        ("bp", ["--rho", "4"], lambda D, y: hbp_solve(D, y, rho=4.0)),
        ("bp", ["--tol-primal", "1e-4"],
         lambda D, y: hbp_solve(D, y, tol_primal=1e-4)),
        ("bp", ["--tol-dual", "1e-4"],
         lambda D, y: hbp_solve(D, y, tol_dual=1e-4)),
        ("bp", ["--max-iter", "3"], lambda D, y: hbp_solve(D, y, max_iter=3)),
    ], ids=["tol-p0", "tol-res", "rho", "tol-primal", "tol-dual", "max-iter"])
    def test_option_reaches_solver(self, algo, flags, direct, tmp_path, capsys):
        D = identity_dft_pair(8)
        truth = np.zeros(16, dtype=complex)
        truth[[1, 12]] = [1.5 - 0.5j, 0.8 + 0.3j]
        dict_path = str(tmp_path / "d.json")
        obs_path = str(tmp_path / "y.json")
        save_block_dictionary(dict_path, D)
        save_measurement(obs_path, D.matrix @ truth)
        argv = ["recover", "--algo", algo, "--dict", dict_path, "--obs", obs_path]

        code, out, _ = run(capsys, *argv, *flags)
        assert code == 0
        expected = direct(D, load_measurement(obs_path))
        assert json.loads(out) == {
            "algorithm": algo, "status": expected.status,
            "support": list(expected.support), "iterations": expected.iterations,
            "residual_norm": expected.residual_norm}
        _, default_out, _ = run(capsys, *argv)
        assert json.loads(default_out) != json.loads(out)
        if flags[0] == "--max-iter":
            assert (expected.status, expected.iterations) == ("max-iterations", 3)

    @pytest.mark.parametrize("algo", ["p0", "omp", "bp"])
    def test_recover_matches_experiment(self, algo, tmp_path, capsys, monkeypatch):
        """Every planted measurement of a sweep, whose solves share the
        factors its dictionary keeps and whose bp solves run a level at a
        time, gets the status and iterations from recover that it got in the
        sweep."""
        solve, seen = experiments.run_algorithm, []

        def capture(*args, **kw):
            results = solve(*args, **kw)
            seen.extend(results)
            return results

        monkeypatch.setattr(experiments, "run_algorithm", capture)
        D = random_block_dictionary(6, (1, 2, 1, 2, 1, 1, 2), 3)
        dict_path = str(tmp_path / "d.json")
        obs_path = str(tmp_path / "y.json")
        save_block_dictionary(dict_path, D)
        config = {"dictionary": {"kind": "file", "path": dict_path}, "algorithms": [algo],
                  "s_min": 1, "s_max": 2, "trials": 3, "seed": 4,
                  "out": str(tmp_path / "sweep")}
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, _, _ = run(capsys, "experiment", "--config", str(tmp_path / "c.json"))
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(seen) == 6
        D = load_block_dictionary(dict_path)
        for row, swept in zip(rows, seen):
            record = experiments.parse_trial_row(row.split(","))
            truth, _ = experiments.plant_signal(D, record.s, 4, record.trial)
            save_measurement(obs_path, D.matrix @ truth.entries)
            code, out, _ = run(capsys, "recover", "--algo", algo, "--dict", dict_path,
                               "--obs", obs_path)
            assert code == 0
            doc = json.loads(out)
            assert (doc["status"], doc["iterations"]) == (swept.status, swept.iterations)
            assert doc["iterations"] == record.iterations


class TestUncertaintyCommands:
    def test_picket_fence_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "pf")
        code, out, _ = run(capsys, "uncertainty", "picket-fence", "--n", "16",
                           "--out", prefix)
        assert code == 0
        doc = json.loads(out)
        assert doc["set_u"] == [0, 4, 8, 12]
        u = load_block_vector(prefix + ".u.json")
        assert np.count_nonzero(u.entries) == 4

    def test_audit_pair_on_picket_fence(self, tmp_path, capsys):
        from hsparse import fourier_basis, identity_basis, picket_fence
        n = 16
        paths = {k: str(tmp_path / f"{k}.json") for k in ("da", "db", "u", "v")}
        save_block_dictionary(paths["da"], identity_basis(n))
        save_block_dictionary(paths["db"], fourier_basis(n))
        u, v, U, V = picket_fence(n)
        save_block_vector(paths["u"], u)
        save_block_vector(paths["v"], v)
        code, out, _ = run(capsys, "uncertainty", "audit-pair",
                           "--dict-a", paths["da"], "--dict-b", paths["db"],
                           "--u", paths["u"], "--v", paths["v"],
                           "--set-u", ",".join(map(str, U)),
                           "--set-v", ",".join(map(str, V)))
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["lhs"] == 16

    def test_audit_kernel(self, tmp_path, capsys):
        from hsparse import kernel_sample
        D = identity_dft_pair(8)
        dict_path = str(tmp_path / "d.json")
        vec_path = str(tmp_path / "v.json")
        save_block_dictionary(dict_path, D)
        save_block_vector(vec_path, kernel_sample(D, 3))
        code, out, _ = run(capsys, "uncertainty", "audit-kernel",
                           "--dict", dict_path, "--vector", vec_path)
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_anomalous_pair_exits_two(self, tmp_path, capsys):
        e1, e2 = np.eye(4)[:, 0], np.eye(4)[:, 1]
        Da = BlockDictionary(np.column_stack([e1, e1]), uniform_structure(2))
        Db = BlockDictionary(np.column_stack([e2, e2]), uniform_structure(2))
        sign = BlockVector(np.array([1.0, -1.0]), Da.structure)
        paths = {k: str(tmp_path / f"{k}.json") for k in ("da", "db", "u", "v")}
        save_block_dictionary(paths["da"], Da)
        save_block_dictionary(paths["db"], Db)
        save_block_vector(paths["u"], sign)
        save_block_vector(paths["v"], sign)
        code, out, _ = run(capsys, "uncertainty", "audit-pair",
                           "--dict-a", paths["da"], "--dict-b", paths["db"],
                           "--u", paths["u"], "--v", paths["v"],
                           "--set-u", "0,1", "--set-v", "0,1")
        assert code == 2
        assert json.loads(out)["anomaly"] is True

    def test_zero_coherence_kernel_audit_exits_two(self, tmp_path, capsys):
        """At --tol-kernel 1 the identity's e_0 passes the kernel test, and the
        orthogonal blocks then give the zero coherence no kernel can have."""
        paths = {k: str(tmp_path / f"{k}.json") for k in ("d", "v")}
        save_block_dictionary(paths["d"], BlockDictionary(np.eye(4), uniform_structure(4)))
        save_block_vector(paths["v"], BlockVector(np.eye(4)[0], uniform_structure(4)))
        code, out, err = run(capsys, "uncertainty", "audit-kernel", "--dict", paths["d"],
                             "--vector", paths["v"], "--tol-kernel", "1")
        assert (code, out) == (2, "")
        assert err.startswith("numerical anomaly: zero coherence") and "Traceback" not in err


class TestExperimentAndCertify:
    def test_experiment_with_config(self, tmp_path, capsys):
        config = {
            "dictionary": {"kind": "identity_dft", "n": 8},
            "algorithms": ["omp", "p0"],
            "s_min": 1, "s_max": 1, "trials": 2, "seed": 7,
            "out": str(tmp_path / "sweep"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0
        assert json.loads(out)["failures"] == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.json").exists()
        assert "seed=7" in err     # the summary line reports the seed that ran
        assert json.loads((tmp_path / "sweep.json").read_text())["seed"] == 7

    def test_experiment_dict_flag_matches_file_config(self, tmp_path, capsys):
        """--dict FILE sweeps the dictionary a config names as {"kind": "file",
        "path": FILE}: the two CSV files are equal byte for byte."""
        dict_path = str(tmp_path / "d.json")
        save_block_dictionary(dict_path, random_block_dictionary(6, (1, 2, 1, 2, 1), 3))
        flags = ["--algos", "p0,omp,bp", "--s-min", "1", "--s-max", "2", "--trials", "3"]
        config = {"dictionary": {"kind": "file", "path": dict_path},
                  "out": str(tmp_path / "config")}
        (tmp_path / "c.json").write_text(json.dumps(config))
        for source in (["--dict", dict_path, "--out", str(tmp_path / "flag")],
                       ["--config", str(tmp_path / "c.json")]):
            code, _, _ = run(capsys, "--seed", "4", "experiment", *source, *flags)
            assert code == 0
        flag_csv = (tmp_path / "flag.csv").read_bytes()
        assert flag_csv == (tmp_path / "config.csv").read_bytes()
        assert len(flag_csv.splitlines()) == 1 + 3 * 2 * 3

    @pytest.mark.parametrize("config_seed, ran", [(None, 3), (7, 7)])
    def test_experiment_summary_seed_with_flag(self, tmp_path, capsys, config_seed, ran):
        """--seed 3 runs when the config names no seed; a config seed wins."""
        config = {"dictionary": {"kind": "identity_dft", "n": 8},
                  "algorithms": ["omp"], "s_min": 1, "s_max": 1, "trials": 2,
                  "out": str(tmp_path / "sweep")}
        if config_seed is not None:
            config["seed"] = config_seed
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "--seed", "3", "experiment", "--config", str(cfg_path))
        assert code == 0
        assert f"seed={ran} " in err
        assert json.loads((tmp_path / "sweep.json").read_text())["seed"] == ran

    def test_config_overrides_flags(self, tmp_path, capsys):
        config = {"dictionary": {"kind": "identity_dft", "n": 8},
                  "algorithms": ["omp"], "trials": 3}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "experiment", "--config", str(cfg_path),
                           "--trials", "1", "--algos", "p0,bp")
        assert code == 0
        assert json.loads(out)["trials"] == 3   # one algorithm, three trials

    def test_config_tolerances_reach_solver(self, tmp_path, capsys):
        csv_text = []
        for max_iter in (3, 3.0):
            config = {"dictionary": {"kind": "identity_dft", "n": 8}, "algorithms": ["bp"],
                      "s_max": 2, "trials": 2, "tolerances": {"bp_max_iter": max_iter},
                      "out": str(tmp_path / "sweep")}
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config))
            code, _, _ = run(capsys, "experiment", "--config", str(cfg_path))
            assert code == 0
            csv_text.append((tmp_path / "sweep.csv").read_text())
        assert csv_text[0] == csv_text[1]
        rows = [row.split(",") for row in csv_text[0].splitlines()]
        column = rows[0].index("iterations")
        assert len(rows) == 5 and max(int(row[column]) for row in rows[1:]) == 3

    def test_certify(self, tmp_path, capsys):
        dict_path = str(tmp_path / "d.json")
        run(capsys, "model", "identity-dft", "--n", "16", "--out", dict_path)
        code, out, _ = run(capsys, "certify", dict_path, "--no-spark")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_guaranteed_s_coherence"] == 2

    @pytest.mark.parametrize("matrix", [
        np.eye(4),
        _TALL / np.linalg.norm(_TALL, axis=0),
    ], ids=["identity", "injective-small-coherence"])
    def test_certify_trivial_kernel(self, matrix, tmp_path, capsys):
        """An injective dictionary has infinite spark, which meets any 1 + 1/mu_h."""
        dict_path = str(tmp_path / "d.json")
        save_block_dictionary(dict_path, BlockDictionary(matrix, uniform_structure(4)))
        code, out, _ = run(capsys, "certify", dict_path)
        doc = json.loads(out)
        assert code == 0 and doc["mu_h"] < 1 / 4   # so 1 + 1/mu_h > n + 1
        assert doc["spark"] == "trivial-kernel" and doc["threshold_spark"] == "inf"
        assert doc["spark_bound_ok"] is True
        assert doc["max_guaranteed_s_spark"] == 4

    def test_certify_multicoset_model(self, tmp_path, capsys):
        """The composite family reads the model's scaled columns as unit columns."""
        dict_path = str(tmp_path / "coset.json")
        run(capsys, "model", "multicoset", "--n", "8", "--rows", "1,2,3", "--out", dict_path)
        code, out, _ = run(capsys, "certify", dict_path)
        assert code == 0
        assert json.loads(out)["mu_comparison"] == "equal"

    def test_certify_vacuous_composite_bound(self, tmp_path, capsys):
        """Three blocks of three unit columns around one shared direction, in
        9 rows: nu is about 0.93, so 1 - (d - 1) nu < 0 and the composite
        bound guarantees nothing.  mu_hat and mu_comparison read "invalid",
        which is no anomaly: certify exits 0."""
        mat = np.full((9, 9), 1 / 3) + 0.3 * np.eye(9)
        dict_path = str(tmp_path / "d.json")
        save_block_dictionary(dict_path, BlockDictionary(mat / np.linalg.norm(mat, axis=0),
                                                         uniform_structure(3, 3)))
        code, out, _ = run(capsys, "certify", dict_path)
        doc = json.loads(out)
        assert code == 0 and doc["nu"] == pytest.approx(0.93, abs=0.01)
        assert doc["mu_hat"] == doc["mu_comparison"] == "invalid"

    @pytest.mark.parametrize("period", ["1e-160", "1e-80", "1e80", "1e150"])
    def test_certify_multicoset_is_scale_free(self, period, tmp_path, capsys):
        """The sampling period scales every entry and cancels from mu_h and the
        spark, even where squaring a Gram entry (1e-80, 1e80, 1e150) or D^H D
        itself (1e-160) would over- or underflow, and no warning is raised."""
        docs = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for p in ("1", period):
                dict_path = str(tmp_path / f"coset-{p}.json")
                run(capsys, "model", "multicoset", "--n", "8", "--rows", "1,2,3", "--period", p,
                    "--out", dict_path)
                code, out, err = run(capsys, "certify", dict_path)
                assert code == 0 and "Warning" not in err
                docs.append(json.loads(out))
        assert caught == []
        reference, doc = docs
        assert doc["mu_comparison"] == "equal" and doc["max_guaranteed_s_coherence"] == 1
        assert doc["spark"] == reference["spark"] == 4
        assert doc["mu_h"] == pytest.approx(reference["mu_h"], rel=0, abs=1e-12)


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/dict.json")
        assert code == 3
        assert "i/o error" in err

    def test_bad_arguments_are_validation_errors(self, capsys):
        code, _, _ = run(capsys, "recover", "--algo", "magic",
                         "--dict", "x", "--obs", "y")
        assert code == 1

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dictionary": {"kind": "identity_dft", "n": 8},
                                   "trials": 0}))
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("override", [
        {"tolerances": {"bp_max_iters": 3}},
        {"tolerances": {"p0_tol": "abc"}},
        {"tolerances": [1e-8]},
        {"tolerances": {"bp_max_iter": 2.5}},
        {"tolerances": {"bp_rho": float("nan")}},
        {"trials": "3"},
        {"s_max": "2"},
        {"seed": True},
        {"algorithms": 5},
        {"algorithms": [["bp"]]},
        {"algorithms": [1, "bp"]},
        {"out": 5},
        [1, 2],
        {"algorithms": ["p0"], "tolerances": {"p0_tol": -1}},
        {"algorithms": ["omp"], "tolerances": {"omp_tol_res": -1}},
        {"dictionary": {"kind": "random", "rows": 4, "block_sizes": 5, "seed": 0}},
        {"dictionary": {"kind": "multicoset", "n": 8, "rows": 3}},
        {"dictionary": {"kind": "identity_dft", "n": [4]}},
        {"dictionary": {"kind": "multicoset", "n": 8, "rows": [1, 2], "period": [1]}},
        {"dictionary": {"kind": "file", "path": 0}},
        {"dictionary": {"n": 4}},
    ], ids=["unknown-key", "string-value", "list", "fractional-max-iter", "nan",
            "string-trials", "string-s-max", "bool-seed", "number-algorithms",
            "nested-algorithms", "number-in-algorithms",
            "number-out", "top-level-list", "negative-p0-tol", "negative-omp-tol-res",
            "number-block-sizes", "number-multicoset-rows", "list-n", "list-period",
            "number-path", "no-kind"])
    def test_malformed_config_is_validation_error(self, override, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        doc = {"dictionary": {"kind": "identity_dft", "n": 4}, "algorithms": ["bp"]}
        cfg.write_text(json.dumps(override if isinstance(override, list) else {**doc, **override}))
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "hsparse: exit=1" in err

    @pytest.mark.parametrize("argv, message", [
        (["model", "random", "--rows", "4", "--block-sizes", "2,x", "--out", "{n}"],
         "expected a comma-separated integer list"),
        (["model", "identity-dft", "--n", "1", "--out", "{n}"], "need dimension at least 2"),
        (["experiment", "--algos", "omp"], "needs a dictionary"),
        (["experiment", "--dict", "{d}", "--algos", ","], "need at least one algorithm"),
        (["recover", "--algo", "omp", "--dict", "{d}", "--obs", "{d}"],
         "expected a single-column vector document"),
    ], ids=["block-sizes", "identity-dft-n", "no-dictionary", "no-algorithm", "dictionary-as-obs"])
    def test_rejected_arguments_are_validation_errors(self, argv, message, tmp_path, capsys):
        paths = {"d": str(tmp_path / "d.json"), "n": str(tmp_path / "new.json")}
        save_block_dictionary(paths["d"], identity_dft_pair(4))
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not os.path.exists(paths["n"])

    def test_non_finite_dictionary_is_validation_error(self, tmp_path, capsys):
        dict_path = tmp_path / "d.json"
        dict_path.write_text(json.dumps({"rows": 2, "cols": 2, "block_sizes": [1, 1],
                                         "real": [1.0, 0.0, float("nan"), 1.0],
                                         "imag": [0.0, 0.0, 0.0, 0.0]}))
        code, _, err = run(capsys, "certify", str(dict_path))
        assert code == 1
        assert "non-finite" in err

    @pytest.mark.parametrize("field, value, code", [
        ("rows", 4.7, 1), ("cols", 8.5, 1), ("rows", "4", 1),
        ("block_sizes", [True] * 8, 1), ("block_sizes", [1.5] * 8, 1),
        ("rows", 4.0, 0), ("block_sizes", [1.0] * 8, 0),
    ], ids=["fractional-rows", "fractional-cols", "string-rows", "bool-block-sizes",
            "fractional-block-sizes", "integral-float-rows", "integral-float-block-sizes"])
    def test_non_integral_dictionary_field(self, field, value, code, tmp_path, capsys):
        dict_path = tmp_path / "d.json"
        save_block_dictionary(dict_path, identity_dft_pair(4))
        doc = json.loads(dict_path.read_text())
        dict_path.write_text(json.dumps({**doc, field: value}))
        got, _, err = run(capsys, "analyze", str(dict_path), "--no-spark")
        assert got == code
        assert ("Traceback" not in err) and (code == 0 or f"{field} must be an integer" in err)

    @pytest.mark.parametrize("flag", ["--tol-spark", "--tol-kernel", "--tol-match"])
    def test_nan_tolerance_is_validation_error(self, flag, tmp_path, capsys):
        """Each input would pass its check under NaN: a spark of 5 on
        identity_dft(4) (the true spark is 4), a vector outside the kernel,
        and two signals whose images differ.  inf passed the last two too:
        the kernel audit exited 2 and the pair audit 0."""
        D = identity_dft_pair(4)
        paths = {k: str(tmp_path / f"{k}.json") for k in ("d", "u", "v")}
        save_block_dictionary(paths["d"], D)
        save_block_vector(paths["u"], BlockVector(np.eye(8)[0], D.structure))
        save_block_vector(paths["v"], BlockVector(np.eye(8)[1], D.structure))
        argv = {"--tol-spark": ["spark", paths["d"]],
                "--tol-kernel": ["uncertainty", "audit-kernel", "--dict", paths["d"],
                                 "--vector", paths["u"]],
                "--tol-match": ["uncertainty", "audit-pair", "--dict-a", paths["d"],
                                "--dict-b", paths["d"], "--u", paths["u"], "--v", paths["v"],
                                "--set-u", "0", "--set-v", "1"]}[flag]
        for value in ("nan",) if flag == "--tol-spark" else ("nan", "inf"):
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 1
            assert out == "" and "must be nonnegative" in err

    @pytest.mark.parametrize("command, value", [("spark", "1.5"), ("spark", "1"),
                                                ("analyze", "1.5"), ("analyze", "inf")])
    def test_spark_tolerance_of_one_or_more_is_validation_error(self, command, value,
                                                                tmp_path, capsys):
        """Every stack has sigma_min <= sigma_max, so such a tolerance would
        report a spark of 1 for the identity, whose kernel is trivial."""
        dict_path = str(tmp_path / "d.json")
        save_block_dictionary(dict_path, BlockDictionary(np.eye(4), uniform_structure(4)))
        code, out, err = run(capsys, command, dict_path, "--tol-spark", value)
        assert code == 1
        assert out == "" and "tolerance must be below 1" in err

    def test_string_and_bool_entries_are_validation_errors(self, tmp_path, capsys):
        dict_path = tmp_path / "d.json"
        dict_path.write_text(json.dumps({"rows": 2, "cols": 2, "block_sizes": [1, 1],
                                         "real": ["1", "0", "0", True],
                                         "imag": [0.0, 0.0, 0.0, 0.0]}))
        code, out, err = run(capsys, "analyze", str(dict_path), "--no-spark")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "real must be a list of numbers" in err

    def test_summary_line_on_stderr(self, tmp_path, capsys):
        dict_path = str(tmp_path / "d.json")
        code, _, err = run(capsys, "model", "identity-dft", "--n", "4",
                           "--out", dict_path)
        assert code == 0
        summary = [line for line in err.splitlines() if line.startswith("hsparse:")]
        assert len(summary) == 1
        assert "seed=0" in summary[0] and dict_path in summary[0]


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    """One process serves several commands, a failing one among them, and each
    prints what a fresh interpreter prints: no parsed option carries over."""
    dict_path = str(tmp_path / "d.json")
    save_block_dictionary(dict_path, identity_dft_pair(4))
    commands = [["certify", dict_path, "--no-spark"],
                ["certify", dict_path, "--spark-cap", "many"],
                ["certify", dict_path]]
    src = os.path.dirname(os.path.dirname(hsparse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in commands:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "hsparse.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and json.loads(out)["spark"] == 4
