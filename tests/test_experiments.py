import csv
import json
import math

import numpy as np
import pytest

from hsparse import experiments, identity_basis, identity_dft_pair
from hsparse.experiments import (ExperimentConfig, build_dictionary,
                                 max_guaranteed_sparsity, parse_trial_row,
                                 plant_signal, run_certify,
                                 run_phase_transition)


def small_config(**overrides):
    base = dict(
        dictionary={"kind": "identity_dft", "n": 8},
        algorithms=("p0", "bp", "omp"),
        s_min=1, s_max=1, trials=3, seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trial"):
            small_config(trials=0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            small_config(algorithms=("p0", "lasso"))

    def test_rejects_bad_sparsity_range(self):
        with pytest.raises(ValueError):
            small_config(s_min=3, s_max=2)

    @pytest.mark.parametrize("name", ["s_min", "s_max", "trials", "seed"])
    @pytest.mark.parametrize("value", ["1", True, 1.5, None, float("inf")])
    def test_rejects_non_integer_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_config(**{name: value})

    def test_integral_floats_read_as_integers(self):
        config = small_config(s_max=2.0, trials=3.0, tolerances={"bp_max_iter": 50.0})
        assert (config.s_max, config.trials) == (2, 3)
        assert type(config.trials) is int
        assert config.tolerances == {"bp_max_iter": 50.0}   # recorded as given

    @pytest.mark.parametrize("tolerances, match", [
        ({"p0_tolerance": 1e-8}, "unknown tolerances key"),
        ({"omp_tol_res": "1e-10"}, "omp_tol_res must be a finite number"),
        ({"bp_max_iter": 2.5}, "bp_max_iter must be an integer"),
        ({"bp_tol_dual": float("inf")}, "bp_tol_dual must be a finite number"),
        ({"bp_rho": False}, "bp_rho must be a finite number"),
        ([("p0_tol", 1e-8)], "tolerances must be an object"),
    ])
    def test_rejects_malformed_tolerances(self, tolerances, match):
        with pytest.raises(ValueError, match=match):
            small_config(tolerances=tolerances)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"dictionary": {"kind": "identity_dft", "n": 4},
                                           "bogus": 1})

    def test_mapping_round_trip(self):
        config = small_config()
        again = ExperimentConfig.from_mapping(config.to_mapping())
        assert again.to_mapping() == config.to_mapping()


class TestBuildDictionary:
    def test_named_constructors(self):
        D = build_dictionary({"kind": "identity_dft", "n": 4})
        assert D.shape == (4, 8)
        L = build_dictionary({"kind": "multicoset", "n": 4, "m": 2})
        assert L.shape == (2, 4)
        L2 = build_dictionary({"kind": "multicoset", "n": 4, "rows": [1, 3]})
        assert L2.shape == (2, 4)
        R = build_dictionary({"kind": "random", "rows": 6,
                              "block_sizes": [2, 2], "seed": 1})
        assert R.shape == (6, 4)

    def test_file_source(self, tmp_path):
        from hsparse.io import save_block_dictionary
        path = tmp_path / "d.json"
        save_block_dictionary(path, identity_dft_pair(4))
        D = build_dictionary({"kind": "file", "path": str(path)})
        assert D.shape == (4, 8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_dictionary({"kind": "wavelet"})


class TestPlanting:
    def test_deterministic_per_cell(self):
        D = identity_dft_pair(8)
        v1, s1 = plant_signal(D, 2, 9, 4)
        v2, s2 = plant_signal(D, 2, 9, 4)
        assert s1 == s2
        assert np.array_equal(v1.entries, v2.entries)
        v3, _ = plant_signal(D, 2, 9, 5)
        assert not np.array_equal(v1.entries, v3.entries)

    def test_support_size_and_occupancy(self):
        D = identity_dft_pair(8)
        v, support = plant_signal(D, 3, 1, 0)
        assert len(support) == 3
        norms = v.block_norms()
        assert set(np.flatnonzero(norms > 0)) == set(support)


class TestPhaseTransition:
    def test_all_succeed_below_threshold(self):
        records = run_phase_transition(small_config())
        assert len(records) == 9
        assert all(r.success for r in records)
        assert all(r.support_match for r in records)

    def test_rows_sorted_and_parseable(self):
        records = run_phase_transition(small_config(trials=2))
        keys = [(r.s, r.trial, r.algorithm) for r in records]
        assert keys == sorted(keys)
        for r in records:
            again = parse_trial_row(r.csv_row())
            assert again.s == r.s and again.algorithm == r.algorithm
            assert again.rel_error == r.rel_error
            assert again.success == r.success

    def test_s_max_validated_against_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            run_phase_transition(small_config(s_max=17))

    def test_outputs_byte_identical_across_reruns(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_phase_transition(small_config(out=str(out1)))
        run_phase_transition(small_config(out=str(out2)))
        assert (out1.parent / "run1.csv").read_bytes() == \
               (out2.parent / "run2.csv").read_bytes()
        j1 = (out1.parent / "run1.json").read_bytes()
        j2 = (out2.parent / "run2.json").read_bytes()
        assert j1.replace(b"run1", b"") == j2.replace(b"run2", b"")

    def test_sidecar_contents(self, tmp_path):
        out = tmp_path / "run"
        run_phase_transition(small_config(out=str(out)))
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["seed"] == 42
        assert doc["config"]["s_max"] == 1
        assert doc["coherence_report"]["n_blocks"] == 16
        csv_lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "s,trial,algorithm,success,rel_error," \
                               "support_match,iterations,residual_norm"
        assert len(csv_lines) == 1 + 9


def test_trial_batches_match_one_batch(tmp_path, monkeypatch):
    """A level split into batches of 3 trials (3 + 3 + 1) gives the files and
    bp statuses of the level solved as one batch.  Past the threshold of
    identity_dft(4) some bp solves miss the p0 objective, so "converged"
    and "exact" both occur and each trial must get its own p0 objective."""
    solve, statuses = experiments.run_algorithm, []

    def capture(algo, *args, **kw):
        results = solve(algo, *args, **kw)
        if algo == "bp":
            statuses[-1] += [r.status for r in results]
        return results

    monkeypatch.setattr(experiments, "run_algorithm", capture)
    rows = []
    for batch in (experiments._TRIAL_BATCH, 3):
        monkeypatch.setattr(experiments, "_TRIAL_BATCH", batch)
        statuses.append([])
        out = str(tmp_path / f"batch{batch}")
        run_phase_transition(small_config(dictionary={"kind": "identity_dft", "n": 4},
                                          algorithms=("p0", "bp"), s_max=3, trials=7,
                                          out=out))
        with open(out + ".csv", encoding="utf-8") as fh:
            rows.append(list(csv.DictReader(fh)))
    assert statuses[0] == statuses[1]
    assert {"exact", "converged"} <= set(statuses[0])
    assert len(rows[0]) == len(rows[1]) == 42
    for whole, split in zip(*rows):
        for name in ("rel_error", "residual_norm"):
            assert math.isclose(float(whole.pop(name)), float(split.pop(name)),
                                rel_tol=1e-12, abs_tol=1e-14)
        assert whole == split


class TestMaxGuaranteedSparsity:
    def test_threshold_arithmetic(self):
        assert max_guaranteed_sparsity(2.5, 32) == 2       # 2 < 2.5, 3 is not
        assert max_guaranteed_sparsity(2.0, 32) == 1       # strict inequality
        assert max_guaranteed_sparsity(float("inf"), 8) == 8
        assert max_guaranteed_sparsity(None, 8) == "not-computed"
        assert max_guaranteed_sparsity(0.5, 8) == 0


class TestCertify:
    def test_identity_dft_sixteen(self):
        doc = run_certify(identity_dft_pair(16), compute_spark=False)
        assert doc["mu_h"] == pytest.approx(0.25, abs=1e-12)
        assert doc["threshold_coherence"] == pytest.approx(2.5, abs=1e-12)
        assert doc["max_guaranteed_s_coherence"] == 2
        assert doc["spark"] == "not-computed"
        assert doc["max_guaranteed_s_spark"] == "not-computed"

    def test_two_coset_matrix(self):
        from hsparse import MultiCosetSpec, multicoset_matrix
        doc = run_certify(multicoset_matrix(MultiCosetSpec(4, (1, 2))))
        assert doc["spark"] == 3
        assert doc["max_guaranteed_s_spark"] == 1   # 1 < 3/2
        assert doc["spark_bound_ok"] is True

    def test_trivial_kernel_guarantees_all_levels(self):
        doc = run_certify(identity_basis(4))
        assert doc["spark"] == "trivial-kernel"
        assert doc["max_guaranteed_s_spark"] == 4
        assert doc["max_guaranteed_s_coherence"] == 4

    def test_orthonormal_block_verdict(self):
        import numpy as np
        from hsparse import BlockDictionary, BlockStructure
        rng = np.random.default_rng(0)
        blocks = []
        for _ in range(4):
            g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
            blocks.append(np.linalg.qr(g)[0])
        D = BlockDictionary(np.hstack(blocks), BlockStructure((2,) * 4))
        doc = run_certify(D, compute_spark=False)
        assert doc["mu_comparison"] == "equal"

    def test_strict_improvement_verdict(self):
        from hsparse import random_block_dictionary
        doc = run_certify(random_block_dictionary(16, (2,) * 8, 319),
                          compute_spark=False)
        assert doc["mu_comparison"] == "improved"
