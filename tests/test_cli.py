import json

import numpy as np
import pytest

import hsparse.experiments as experiments
from hsparse import (BlockDictionary, BlockVector, BpParams, hbp_solve, homp,
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
        ("bp", ["--rho", "4"], lambda D, y: hbp_solve(D, y, BpParams(rho=4.0))),
        ("bp", ["--tol-primal", "1e-4"],
         lambda D, y: hbp_solve(D, y, BpParams(tol_primal=1e-4))),
        ("bp", ["--tol-dual", "1e-4"],
         lambda D, y: hbp_solve(D, y, BpParams(tol_dual=1e-4))),
        ("bp", ["--max-iter", "3"], lambda D, y: hbp_solve(D, y, BpParams(max_iter=3))),
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
        """Every planted measurement of a sweep, whose solves share one solver
        context and whose bp solves run a level at a time, gets the status
        and iterations from recover that it got in the sweep."""
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
        assert "seed=0" in err     # global flag untouched; config seed echoed in sidecar
        assert json.loads((tmp_path / "sweep.json").read_text())["seed"] == 7

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
        {"out": 5},
        [1, 2],
        {"algorithms": ["p0"], "tolerances": {"p0_tol": -1}},
        {"algorithms": ["omp"], "tolerances": {"omp_tol_res": -1}},
        {"dictionary": {"kind": "random", "rows": 4, "block_sizes": 5, "seed": 0}},
        {"dictionary": {"kind": "multicoset", "n": 8, "rows": 3}},
        {"dictionary": {"kind": "identity_dft", "n": [4]}},
        {"dictionary": {"kind": "multicoset", "n": 8, "rows": [1, 2], "period": [1]}},
        {"dictionary": {"kind": "file", "path": 0}},
    ], ids=["unknown-key", "string-value", "list", "fractional-max-iter", "nan",
            "string-trials", "string-s-max", "bool-seed", "number-algorithms",
            "number-out", "top-level-list", "negative-p0-tol", "negative-omp-tol-res",
            "number-block-sizes", "number-multicoset-rows", "list-n", "list-period",
            "number-path"])
    def test_malformed_config_is_validation_error(self, override, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        doc = {"dictionary": {"kind": "identity_dft", "n": 4}, "algorithms": ["bp"]}
        cfg.write_text(json.dumps(override if isinstance(override, list) else {**doc, **override}))
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "hsparse: exit=1" in err

    def test_non_finite_dictionary_is_validation_error(self, tmp_path, capsys):
        dict_path = tmp_path / "d.json"
        dict_path.write_text(json.dumps({"rows": 2, "cols": 2, "block_sizes": [1, 1],
                                         "real": [1.0, 0.0, float("nan"), 1.0],
                                         "imag": [0.0, 0.0, 0.0, 0.0]}))
        code, _, err = run(capsys, "certify", str(dict_path))
        assert code == 1
        assert "non-finite" in err

    def test_summary_line_on_stderr(self, tmp_path, capsys):
        dict_path = str(tmp_path / "d.json")
        code, _, err = run(capsys, "model", "identity-dft", "--n", "4",
                           "--out", dict_path)
        assert code == 0
        summary = [line for line in err.splitlines() if line.startswith("hsparse:")]
        assert len(summary) == 1
        assert "seed=0" in summary[0] and dict_path in summary[0]
