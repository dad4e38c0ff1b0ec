import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from utilcal import PatchRecord, PatchSequence, UtilitySpec, estimators
from utilcal.cli import main
from utilcal.dataset import (
    load_predictions_csv,
    write_labels_csv,
    write_predictions_csv,
)


@pytest.fixture
def two_point_files(tmp_path):
    rc = main(["synth", "two-point", "--n-per-group", "20",
               "--out", str(tmp_path / "tp")])
    assert rc == 0
    return {
        "preds": str(tmp_path / "tp.preds.csv"),
        "labels": str(tmp_path / "tp.labels.csv"),
        "dist": str(tmp_path / "tp.dist.json"),
    }


class TestSynth:
    def test_two_point_files(self, two_point_files):
        probs = load_predictions_csv(two_point_files["preds"])
        assert probs.shape == (40, 3)
        dist = json.loads(open(two_point_files["dist"]).read())
        assert len(dist["support"]) == 2

    def test_calibrated_one_hot_support(self, tmp_path):
        # a single one-hot support point forces a constant label
        spec = {
            "support": [[1.0, 0.0]],
            "weights": [1.0],
            "cond_label": [[1.0, 0.0]],
        }
        spec_path = tmp_path / "dist.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["synth", "miscalibrated", "--spec", str(spec_path),
                   "--n", "30", "--out", str(tmp_path / "m")])
        assert rc == 0
        labels = np.loadtxt(tmp_path / "m.labels.csv", dtype=int)
        assert np.all(labels == 0)

    def test_population_roundtrip(self, tmp_path, two_point_files):
        from utilcal import UtilitySpec, population_uc
        from utilcal.dataset import load_distribution_json

        dist = load_distribution_json(two_point_files["dist"])
        assert population_uc(dist, UtilitySpec.top_class()) == pytest.approx(
            0.2, abs=1e-15
        )

    def test_miscalibrated_without_spec_exit_2(self, tmp_path):
        rc = main(["synth", "miscalibrated", "--n", "10",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "spec",
        [[1], {"support": [[0.5, 0.5]], "weights": "x", "cond_label": [[0.5, 0.5]]}],
        ids=["list", "weights-x"],
    )
    def test_miscalibrated_malformed_spec_exit_3(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "dist.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["synth", "miscalibrated", "--spec", str(spec_path),
                   "--n", "10", "--out", str(tmp_path / "m")])
        assert rc == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_bad_n_per_group_exit_2(self, tmp_path):
        rc = main(["synth", "two-point", "--n-per-group", "30",
                   "--out", str(tmp_path / "x")])
        assert rc == 2


class TestValidateCmd:
    def test_ok(self, two_point_files, capsys):
        rc = main(["validate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"]])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "n", "C", "max_row_sum_deviation", "min_entry", "strict", "renormalized"
        }

    def test_fatal_exit_2(self, tmp_path):
        write_predictions_csv(tmp_path / "bad.csv", np.array([[0.7, 0.7]]))
        write_labels_csv(tmp_path / "bad_labels.csv", np.array([0]))
        rc = main(["validate", "--preds", str(tmp_path / "bad.csv"),
                   "--labels", str(tmp_path / "bad_labels.csv")])
        assert rc == 2

    def test_renormalize_writes_output(self, tmp_path):
        write_predictions_csv(tmp_path / "noisy.csv", np.array([[0.5000004, 0.5]]))
        write_labels_csv(tmp_path / "noisy_labels.csv", np.array([0]))
        out = tmp_path / "fixed.csv"
        rc = main(["validate", "--preds", str(tmp_path / "noisy.csv"),
                   "--labels", str(tmp_path / "noisy_labels.csv"),
                   "--renormalize", "--out", str(out)])
        assert rc == 0
        fixed = load_predictions_csv(out)
        assert abs(fixed.sum() - 1.0) <= 1e-12

    def test_evaluate_renormalize_reads_the_repaired_rows(self, tmp_path):
        # evaluate --renormalize reports on exactly the rows that
        # validate --renormalize --out writes
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(4), 60) * (1.0 + rng.uniform(-4e-4, 4e-4, (60, 1)))
        write_predictions_csv(tmp_path / "noisy.csv", probs)
        write_labels_csv(tmp_path / "l.csv", rng.integers(0, 4, 60))
        labels = ["--labels", str(tmp_path / "l.csv")]
        assert main(["validate", "--preds", str(tmp_path / "noisy.csv"), *labels,
                     "--renormalize", "--out", str(tmp_path / "fixed.csv")]) == 0
        for name, preds, extra in (("a.json", "noisy.csv", ["--renormalize"]),
                                   ("b.json", "fixed.csv", [])):
            assert main(["evaluate", "--preds", str(tmp_path / preds), *labels,
                         "--utility", "comb", "--out", str(tmp_path / name),
                         *extra]) == 0
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        # the noise is large enough that the unrepaired rows score differently
        assert main(["evaluate", "--preds", str(tmp_path / "noisy.csv"), *labels,
                     "--utility", "comb", "--out", str(tmp_path / "c.json")]) == 0
        assert (tmp_path / "c.json").read_bytes() != a

    def test_out_without_renormalize_exit_2(self, two_point_files, tmp_path, capsys):
        out = tmp_path / "fixed.csv"
        rc = main(["validate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"], "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestEvaluateCmd:
    def test_two_point_report(self, two_point_files, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--bins", "3", "--bin-kind", "equal-width",
                   "--utility", "top_class", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["tce_binned"] == 0.0
        assert report["uc"]["top_class"]["value"] == pytest.approx(0.2, abs=1e-12)

    def test_stdout_is_the_bytes_of_out(self, two_point_files, tmp_path, capsys):
        args = ["evaluate", "--preds", two_point_files["preds"],
                "--labels", two_point_files["labels"], "--utility", "comb"]
        out = tmp_path / "report.json"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_empty_utility_selection_omits_uc(self, two_point_files, tmp_path):
        out = tmp_path / "report.json"
        main(["evaluate", "--preds", two_point_files["preds"],
              "--labels", two_point_files["labels"], "--out", str(out)])
        report = json.loads(out.read_text())
        assert "uc" not in report
        assert "uc_comb" in report

    def test_comb_and_json_utilities(self, two_point_files, tmp_path):
        spec_path = tmp_path / "lin.json"
        spec_path.write_text(json.dumps(
            {"family": "linear", "params": {"a": [1.0, -1.0, 0.0]}}
        ))
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--utility", "comb", "--utility", str(spec_path),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert "class_wise_0" in report["uc"] and "linear" in report["uc"]
        pool_values = [v["value"] for k, v in report["uc"].items()
                       if k.startswith(("class_wise", "top_k"))]
        assert report["uc_comb"] == max(pool_values)

    def test_malformed_csv_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.5\n0.4,oops\n")
        write_labels_csv(tmp_path / "l.csv", np.array([0, 0]))
        rc = main(["evaluate", "--preds", str(bad),
                   "--labels", str(tmp_path / "l.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "row" in err or "line" in err

    def test_fatal_validation_exit_2(self, tmp_path):
        write_predictions_csv(tmp_path / "p.csv", np.array([[0.7, 0.7]]))
        write_labels_csv(tmp_path / "l.csv", np.array([0]))
        rc = main(["evaluate", "--preds", str(tmp_path / "p.csv"),
                   "--labels", str(tmp_path / "l.csv")])
        assert rc == 2

    @pytest.mark.parametrize("renormalize", [[], ["--renormalize"]])
    def test_nan_row_exit_2(self, tmp_path, capsys, renormalize):
        write_predictions_csv(tmp_path / "p.csv", np.array([[0.5, 0.5], [np.nan, 0.5]]))
        write_labels_csv(tmp_path / "l.csv", np.array([0, 1]))
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--preds", str(tmp_path / "p.csv"),
                   "--labels", str(tmp_path / "l.csv"), "--out", str(out)]
                  + renormalize)
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_utility_key_exit_3(self, two_point_files, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"family": "top_k", "params": {"K": 2}}))
        rc = main(["evaluate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--utility", str(spec_path)])
        assert rc == 3
        assert "'K'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, code",
        [
            ({"family": "class_wise", "params": {"c": 1.5}}, 3),
            ({"family": "top_k", "params": {"k": 1.5}}, 3),
            ({"family": "linear", "params": {"a": [float("nan"), 0.0, 0.0]}}, 2),
            # float() overflowed with a traceback
            ({"family": "dcg", "params": {"gamma": 10**400}}, 2),
            ({"params": {}}, 3),
            ({"family": "top_j"}, 3),
        ],
    )
    def test_bad_utility_json_params(self, two_point_files, tmp_path, capsys, params, code):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(params))
        rc = main(["evaluate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--utility", str(spec_path)])
        assert rc == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "token", ["class_wise:abc", "top_k:1.5", "dcg:nan", "dcg:inf", "rank", "top_class:1"]
    )
    def test_bad_utility_token_exit_2(self, two_point_files, capsys, token):
        rc = main(["evaluate", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"], "--utility", token])
        assert rc == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_missing_file_exit_3(self, tmp_path, capsys):
        """numpy's "not found." text on one stderr line, exit code 3."""
        missing = tmp_path / "nope.csv"
        rc = main(["evaluate", "--preds", str(missing),
                   "--labels", str(tmp_path / "nope2.csv")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {missing} not found.\n"


class TestEcdfCmd:
    def test_sidecar_band(self, two_point_files, tmp_path):
        out = tmp_path / "ecdf.csv"
        rc = main(["ecdf", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--family", "linear", "--m", "1500", "--delta", "0.05",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "ecdf.csv.json").read_text())
        assert meta["band_halfwidth"] == pytest.approx(0.03507, abs=5e-6)
        assert len(out.read_text().splitlines()) == 1501

    def test_single_row(self, two_point_files, tmp_path):
        out = tmp_path / "one.csv"
        main(["ecdf", "--preds", two_point_files["preds"],
              "--labels", two_point_files["labels"],
              "--family", "rank", "--m", "1", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == "error,cdf"

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_thread_count_below_one_exit_2(self, two_point_files, tmp_path, threads):
        rc = main(["ecdf", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--family", "linear", "--m", "5", "--threads", threads,
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2

    def test_threads_flag_runs_one_pool(self, two_point_files, tmp_path, monkeypatch):
        from utilcal import ecdf

        calls = []
        pool = ecdf.uc_hat_pool

        def counting(data, specs):
            calls.append(len(specs))
            return pool(data, specs)

        monkeypatch.setattr(ecdf, "uc_hat_pool", counting)
        assert main(["ecdf", "--preds", two_point_files["preds"],
                     "--labels", two_point_files["labels"],
                     "--family", "linear", "--m", "30", "--threads", "2",
                     "--out", str(tmp_path / "e.csv")]) == 0
        assert calls == [30]

    def test_rerun_byte_identical(self, two_point_files, tmp_path):
        args = ["ecdf", "--preds", two_point_files["preds"],
                "--labels", two_point_files["labels"],
                "--family", "linear", "--m", "50", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv"), "--threads", "4"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestPatchCmds:
    def test_fit_history_and_apply(self, tmp_path):
        main(["synth", "two-point", "--n-per-group", "100",
              "--out", str(tmp_path / "tp")])
        seq_path = tmp_path / "seq.json"
        rc = main(["patch-fit", "--preds", str(tmp_path / "tp.preds.csv"),
                   "--labels", str(tmp_path / "tp.labels.csv"),
                   "--epsilon", "0.01", "--out", str(seq_path)])
        assert rc == 0
        hist_lines = (tmp_path / "seq.json.history.csv").read_text().splitlines()
        assert hist_lines[0] == "iteration,err,brier"
        briers = [float(line.split(",")[2]) for line in hist_lines[1:]]
        assert all(a >= b for a, b in zip(briers, briers[1:]))

        out_csv = tmp_path / "patched.csv"
        rc = main(["patch-apply", str(seq_path),
                   "--preds", str(tmp_path / "tp.preds.csv"),
                   "--out", str(out_csv)])
        assert rc == 0
        patched = load_predictions_csv(out_csv)
        assert np.max(np.abs(patched.sum(axis=1) - 1.0)) <= 1e-9

    def test_apply_empty_sequence_identity_bytes(self, tmp_path):
        # an already calibrated dataset fits to an empty sequence; applying it
        # must reproduce the input file byte for byte
        probs = np.eye(3)[np.arange(30) % 3]
        write_predictions_csv(tmp_path / "p.csv", probs)
        write_labels_csv(tmp_path / "l.csv", np.arange(30) % 3)
        seq_path = tmp_path / "seq.json"
        main(["patch-fit", "--preds", str(tmp_path / "p.csv"),
              "--labels", str(tmp_path / "l.csv"), "--out", str(seq_path)])
        assert json.loads(seq_path.read_text())["records"] == []
        out_csv = tmp_path / "out.csv"
        main(["patch-apply", str(seq_path), "--preds", str(tmp_path / "p.csv"),
              "--out", str(out_csv)])
        assert out_csv.read_bytes() == (tmp_path / "p.csv").read_bytes()

    @pytest.mark.parametrize(
        "args",
        [["--epsilon", "nan"], ["--epsilon", "nan", "--max-iters", "3"],
         ["--augment", "-4"], ["--epsilon", "1e-300"], ["--max-iters", "0"]],
        ids=["epsilon-nan", "epsilon-nan-capped", "augment-negative",
             "epsilon-cap-infinite", "max-iters-0"],
    )
    def test_fit_bad_config_exit_2(self, tmp_path, two_point_files, capsys, args):
        seq_path = tmp_path / "seq.json"
        rc = main(["patch-fit", "--preds", two_point_files["preds"],
                   "--labels", two_point_files["labels"],
                   "--out", str(seq_path), *args])
        assert rc == 2
        assert not seq_path.exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("family", ["decision", "gain_matrix"])
    def test_apply_record_that_masks_no_row(self, tmp_path, two_point_files, family):
        # v of these records lies in [-1, 1]: no row reaches [5, 6], so the
        # rows pass through unchanged
        C = 3
        matrix = np.full((C, C), 0.5)
        np.fill_diagonal(matrix, 1.0)  # a gain matrix has a unit diagonal
        spec = getattr(UtilitySpec, family)(matrix)
        seq_path = tmp_path / "seq.json"
        PatchSequence((PatchRecord(spec, 5.0, 6.0, 1, 0.5),), C).save(str(seq_path))
        out_csv = tmp_path / "o.csv"
        rc = main(["patch-apply", str(seq_path), "--preds", two_point_files["preds"],
                   "--out", str(out_csv)])
        assert rc == 0
        want = load_predictions_csv(two_point_files["preds"])
        assert load_predictions_csv(str(out_csv)).tobytes() == want.tobytes()

    def test_apply_dimension_mismatch_exit_2(self, tmp_path, two_point_files):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"C": 5, "records": [], "history": []}))
        rc = main(["patch-apply", str(seq_path),
                   "--preds", two_point_files["preds"],
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2


    def test_apply_off_simplex_row_exit_2(self, tmp_path, capsys):
        # evaluate rejects these rows; patch-apply must not project them
        write_predictions_csv(tmp_path / "p.csv",
                              np.array([[0.2, 0.3, 0.5], [3.0, -2.0, 0.5]]))
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"C": 3, "records": [
            {"spec": {"family": "top_class"}, "lo": 0.0, "hi": 1.0,
             "sign": 1, "step": 0.1}]}))
        rc = main(["patch-apply", str(seq_path), "--preds", str(tmp_path / "p.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert not (tmp_path / "o.csv").exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("bound", ["lo", "hi"])
    def test_apply_nan_interval_bound_exit_2(self, tmp_path, two_point_files,
                                             capsys, bound):
        record = {"spec": {"family": "top_class"}, "lo": 0.2, "hi": 0.9,
                  "sign": 1, "step": 0.1}
        record[bound] = float("nan")
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"C": 3, "records": [record]}))
        assert "NaN" in seq_path.read_text()
        rc = main(["patch-apply", str(seq_path),
                   "--preds", two_point_files["preds"],
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert not (tmp_path / "o.csv").exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "lo, hi", [("-1e400", "0.9"), ("0.2", "1e400"), ("-1e400", "1e400"),
                   (str(-10**400), "0.9")],
        ids=["lo", "hi", "both", "lo-integer"],
    )
    def test_apply_infinite_interval_bound_exit_2(self, tmp_path, two_point_files,
                                                  capsys, lo, hi):
        # JSON reads 1e400 as inf; such a record would move every row
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(
            '{"C": 3, "records": [{"spec": {"family": "top_class"}, '
            f'"lo": {lo}, "hi": {hi}, "sign": 1, "step": 2.0}}]}}'
        )
        rc = main(["patch-apply", str(seq_path),
                   "--preds", two_point_files["preds"],
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert not (tmp_path / "o.csv").exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_apply_impossible_history_exit_2(self, tmp_path, two_point_files, capsys):
        # no fit writes a history entry without a record, a NaN err or a
        # Brier score outside [0, 2]
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"C": 3, "records": [], "history": [
            {"err": float("nan"), "brier_before": -5, "brier_after": 7, "step": 9}]}))
        rc = main(["patch-apply", str(seq_path),
                   "--preds", two_point_files["preds"],
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert not (tmp_path / "o.csv").exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "sequence",
        [
            [1, 2],  # a list, not an object
            {"C": 3, "records": [7]},
            {"C": 3, "records": [{"spec": {"family": "top_class"}, "lo": "abc",
                                  "hi": 0.5, "sign": 1, "step": 0.1}]},
            {"C": 3, "records": [{"spec": {"family": "top_class"}, "lo": 0.2,
                                  "hi": 0.5, "sign": -1.7, "step": 0.1}]},
            {"C": 2.9, "records": []},
            {"C": 3, "records": [{"spec": {"family": "top_class"}, "lo": "0.2",
                                  "hi": 0.5, "sign": 1, "step": 0.1}]},
            {"C": 3, "records": [{"spec": {"family": "top_class"}, "lo": 0.2,
                                  "hi": True, "sign": 1, "step": 0.1}]},
            {"C": 3, "records": [{"spec": {"family": "top_class"}, "lo": 0.2,
                                  "hi": 0.5, "sign": 1, "step": "0.5"}]},
            {"C": 3, "records": [{"spec": {"family": "top_class"}, "lo": 0.2,
                                  "hi": 0.5, "sign": 1, "step": 0.1}],
             "history": [{"err": True, "brier_before": 0.5, "brier_after": 0.4,
                          "step": 0.1}]},
        ],
        ids=["list", "record-7", "lo-abc", "sign-float", "C-float", "lo-string",
             "hi-true", "step-string", "err-true"],
    )
    def test_apply_malformed_sequence_exit_3(self, tmp_path, two_point_files,
                                             capsys, sequence):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(sequence))
        rc = main(["patch-apply", str(seq_path),
                   "--preds", two_point_files["preds"],
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestOracleCheckCmd:
    def test_small_run_passes(self, capsys):
        rc = main(["oracle-check", "--trials", "25", "--n-max", "50",
                   "--c-max", "5", "--seed", "1"])
        assert rc == 0
        assert "all trials within" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [["--trials", "0"], ["--trials", "-1"], ["--n-max", "0"], ["--c-max", "1"]],
        ids=["trials-0", "trials--1", "n-max-0", "c-max-1"],
    )
    def test_empty_or_impossible_run_exit_2(self, capsys, args):
        assert main(["oracle-check", "--trials", "2", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_fault_injection_fails_with_seed(self, capsys, monkeypatch):
        real = estimators.uc_hat
        calls = []

        def perturbed(preds, spec):  # the first trial's estimate 1e-6 too high
            calls.append(None)
            est = real(preds, spec)
            return replace(est, value=est.value + 1e-6) if len(calls) == 1 else est

        monkeypatch.setattr(estimators, "uc_hat", perturbed)
        rc = main(["oracle-check", "--trials", "3", "--seed", "7"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL at trial 0" in out and "7" in out


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "calibrated", "--seed", "-1", "--out", "{out}"],
        ["ecdf", "--family", "linear", "--m", "3", "--seed", "-2", "--out", "{out}",
         "--preds", "{preds}", "--labels", "{labels}"],
        ["patch-fit", "--augment", "2", "--seed", "-3", "--out", "{out}",
         "--preds", "{preds}", "--labels", "{labels}"],
        ["oracle-check", "--trials", "2", "--seed", "-3"],
    ],
    ids=["synth", "ecdf", "patch-fit", "oracle-check"],
)
def test_negative_seed_exit_2(tmp_path, two_point_files, capsys, args):
    paths = dict(two_point_files, out=str(tmp_path / "out"))
    assert main([a.format(**paths) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "seed" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("header", [False, True], ids=["empty", "header-only"])
@pytest.mark.parametrize("empty", ["preds", "labels", "patch-apply"])
def test_csv_without_rows_exit_3(tmp_path, two_point_files, capsys, header, empty):
    path = tmp_path / "empty.csv"
    path.write_text("a,b,c\n" if header else "")
    if empty == "patch-apply":
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"C": 3, "records": [], "history": []}))
        args = ["patch-apply", str(seq), "--preds", str(path),
                "--out", str(tmp_path / "o.csv")]
    else:
        files = dict(two_point_files, **{empty: str(path)})
        args = ["evaluate", "--preds", files["preds"], "--labels", files["labels"]]
    rc = main(args + (["--header"] if header else []))
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == f"error: {path}: no data rows\n"


class TestDeterminism:
    def test_commands_rerun_byte_identical(self, tmp_path):
        main(["synth", "calibrated", "--n", "200", "--classes", "4",
              "--support", "3", "--seed", "5", "--out", str(tmp_path / "a")])
        main(["synth", "calibrated", "--n", "200", "--classes", "4",
              "--support", "3", "--seed", "5", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.preds.csv").read_bytes() == \
            (tmp_path / "b.preds.csv").read_bytes()
        assert (tmp_path / "a.labels.csv").read_bytes() == \
            (tmp_path / "b.labels.csv").read_bytes()

        for name in ("r1.json", "r2.json"):
            main(["evaluate", "--preds", str(tmp_path / "a.preds.csv"),
                  "--labels", str(tmp_path / "a.labels.csv"),
                  "--utility", "comb", "--out", str(tmp_path / name)])
        assert (tmp_path / "r1.json").read_bytes() == \
            (tmp_path / "r2.json").read_bytes()


class TestEntryPoint:
    """``python -m utilcal.cli`` runs ``entry()``, whose ``sys.exit`` hands
    ``main``'s return value to the shell as the exit code."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["oracle-check", "--trials", "3"], 0),
            (["evaluate", "--preds", "{missing}", "--labels", "{labels}"], 3),
            (["evaluate", "--preds", "{preds}", "--labels", "{labels}", "--bins", "0"], 2),
        ],
        ids=["oracle-check", "missing-preds", "bins-0"],
    )
    def test_exit_code(self, two_point_files, tmp_path, args, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        paths = dict(two_point_files, missing=str(tmp_path / "nope.csv"))
        done = subprocess.run(
            [sys.executable, "-m", "utilcal.cli", *(a.format(**paths) for a in args)],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == code, done.stderr
