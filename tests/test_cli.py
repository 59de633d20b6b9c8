import inspect
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import randist.anomaly
import randist.data
import randist.encoder
import randist.forks
from randist import cli
from randist.anomaly import BoostConfig, run_anomaly
from randist.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from randist.clustering import run_clustering
from randist.data import load_csv, standardize, synth_anomaly, synth_blobs, write_csv
from randist.encoder import TrainConfig
from randist.metrics import auc_pr, auc_roc
from randist.persist import load_ensemble
from randist.report import parse_report, strip_volatile


@pytest.fixture(scope="module")
def anomaly_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "anomaly.csv"
    write_csv(synth_anomaly(280, 20, 6, seed=3), path)
    return str(path)


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    write_csv(synth_blobs(3, 50, 10, seed=4), path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, parse_report(captured.out), captured.err


ANOMALY_ARGS = [
    "--label-column", "label", "--m", "12", "--epochs", "15",
    "--members", "2", "--batch-size", "64", "--seed", "5",
]


class TestAnomalyCommand:
    def test_report_fields_and_artifacts(self, capsys, tmp_path, anomaly_csv):
        scores_path = tmp_path / "scores.csv"
        model_path = tmp_path / "ens.rdst"
        report_path = tmp_path / "report.txt"
        code, report, _ = _run(
            capsys,
            ["anomaly", "--input", anomaly_csv, *ANOMALY_ARGS,
             "--out-scores", str(scores_path), "--out-model", str(model_path),
             "--out-report", str(report_path)],
        )
        assert code == EXIT_OK
        assert report["config.task"] == "anomaly"
        assert report["config.m"] == "12" and "config.k" not in report  # m is the one width
        assert report["config.epochs"] == "15"
        assert float(report["metrics.auc_roc"]) > 0.8
        assert "metrics.auc_pr" in report and "timing.train_seconds" in report
        assert "loss.first_epoch_total_mean" in report
        assert report["version"]
        # report file matches stdout
        assert parse_report(report_path.read_text()) == report
        # scores round-trip and reproduce the metrics
        rows = scores_path.read_text().strip().splitlines()
        assert rows[0] == "index,score,label"
        assert len(rows) == 301  # 300 data rows + header
        assert len(load_ensemble(model_path)) == 2

    def test_eval_reproduces_metrics(self, capsys, tmp_path, anomaly_csv):
        scores_path = tmp_path / "scores.csv"
        code, report, _ = _run(
            capsys,
            ["anomaly", "--input", anomaly_csv, *ANOMALY_ARGS,
             "--out-scores", str(scores_path)],
        )
        assert code == EXIT_OK
        code, eval_report, _ = _run(
            capsys,
            ["eval", "--input", str(scores_path), "--score-column", "score",
             "--label-column", "label"],
        )
        assert code == EXIT_OK
        assert eval_report["metrics.auc_roc"] == report["metrics.auc_roc"]
        assert eval_report["metrics.auc_pr"] == report["metrics.auc_pr"]

    def test_eval_report_names_its_default_label_column(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,1\n")
        code, report, _ = _run(capsys, ["eval", "--input", str(p)])
        assert code == EXIT_OK
        assert report["config.label_column"] == "label"
        assert report["metrics.auc_roc"] == "1.0"

    def test_deterministic_reports(self, capsys, anomaly_csv):
        args = ["anomaly", "--input", anomaly_csv, *ANOMALY_ARGS]
        code1, r1, _ = _run(capsys, args)
        code2, r2, _ = _run(capsys, args)
        assert code1 == code2 == EXIT_OK
        assert strip_volatile(r1) == strip_volatile(r2)

    def test_report_counts_member_processes(self, capsys, anomaly_csv, monkeypatch):
        monkeypatch.setattr(randist.forks, "_openblas_num_threads", lambda: lambda: 1)
        args = ["anomaly", "--input", anomaly_csv, *ANOMALY_ARGS]
        code, report, _ = _run(capsys, args)
        assert code == EXIT_OK
        assert report["timing.member_processes"] == str(min(2, len(os.sched_getaffinity(0))))
        monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: 1)
        code, alone, _ = _run(capsys, args)
        assert code == EXIT_OK and alone["timing.member_processes"] == "1"
        assert strip_volatile(alone) == strip_volatile(report)

    def test_reports_are_byte_identical_at_one_and_two_processes(self, capsys, tmp_path, monkeypatch):
        # two load shares and two member processes against one of each
        path = tmp_path / "t.csv"
        write_csv(synth_anomaly(280, 20, 6, seed=3), path)
        runs = []
        for p in (1, 2):
            monkeypatch.setattr(randist.data, "process_count", lambda limit: min(limit, p))
            monkeypatch.setattr(randist.data, "SHARE_MIN_BYTES", 1)
            monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: min(limit, p))
            out = {name: tmp_path / f"{p}.{name}" for name in ("scores", "model")}
            code, report, _ = _run(capsys, ["anomaly", "--input", str(path), *ANOMALY_ARGS,
                                            "--out-scores", str(out["scores"]), "--out-model", str(out["model"])])
            assert code == EXIT_OK
            assert report["timing.load_processes"] == report["timing.member_processes"] == str(p)
            assert float(report["timing.load_seconds"]) > 0
            del report["config.out_scores"], report["config.out_model"]
            runs.append((strip_volatile(report), out["scores"].read_bytes(), out["model"].read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("task", ["cluster", "project"])
    def test_cluster_and_project_report_the_load(self, capsys, tmp_path, task):
        path = tmp_path / "b.csv"
        write_csv(synth_blobs(2, 20, 3), path)
        args = {"cluster": ["--m", "4", "--epochs", "1", "--restarts", "1", "--label-column", "label"],
                "project": ["--k", "4", "--out-matrix", str(tmp_path / "p.csv")]}[task]
        code, report, _ = _run(capsys, [task, "--input", str(path), *args])
        assert code == EXIT_OK
        assert report["timing.load_processes"] == "1" and float(report["timing.load_seconds"]) > 0

    def test_identity_source_takes_the_data_width(self, capsys, anomaly_csv):
        args = ["anomaly", "--input", anomaly_csv, "--label-column", "label", "--source", "identity",
                "--epochs", "5", "--members", "2", "--batch-size", "96"]
        code, report, _ = _run(capsys, args)
        assert code == EXIT_OK and report["config.m"] == "6"

    def test_identity_source_rejects_a_given_m(self, capsys, tmp_path, anomaly_csv):
        message = "m cannot be set with source = identity, whose width is the data's, got m = 5"
        code, _, err = _run(capsys, ["anomaly", "--input", anomaly_csv, "--source", "identity", "--m", "5"])
        assert code == EXIT_CONFIG and message in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("source = identity\nm = 5\n")
        code, _, err = _run(capsys, ["anomaly", "--config", str(cfg), "--input", anomaly_csv])
        assert code == EXIT_CONFIG and message in err

    def test_scores_without_labels(self, capsys, tmp_path, anomaly_csv):
        scores_path = tmp_path / "s.csv"
        code, report, _ = _run(
            capsys,
            ["anomaly", "--input", anomaly_csv, "--m", "12", "--epochs", "5",
             "--members", "1", "--batch-size", "64", "--filter-rounds", "0",
             "--out-scores", str(scores_path)],
        )
        assert code == EXIT_OK
        assert "metrics.auc_roc" not in report
        header = scores_path.read_text().splitlines()[0]
        assert header == "index,score"


class TestClusterCommand:
    def test_report_and_assignments(self, capsys, tmp_path, blob_csv):
        assign_path = tmp_path / "assign.csv"
        model_path = tmp_path / "model.rdst"
        code, report, _ = _run(
            capsys,
            ["cluster", "--input", blob_csv, "--label-column", "label",
             "--m", "16", "--epochs", "40", "--restarts", "3",
             "--batch-size", "50", "--seed", "2",
             "--out-assignments", str(assign_path), "--out-model", str(model_path)],
        )
        assert code == EXIT_OK
        assert report["config.m"] == "16" and "config.k" not in report  # m is the one width
        assert float(report["metrics.nmi_mean"]) > 0.8
        assert "metrics.f_std" in report
        rows = assign_path.read_text().strip().splitlines()
        assert rows[0] == "index,cluster,label"
        assert len(rows) == 151
        [model] = load_ensemble(model_path)  # a one-member model file
        assert model.has_decoder and model.m == model.random_map.out_dim == 16


    def test_a_training_lane_changes_no_output(self, capsys, tmp_path, blob_csv, monkeypatch):
        # m = batch: each step's decoder branch runs on a lane when a CPU is spare
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(randist.encoder, "process_count", lambda limit: min(limit, lanes))
            out = {name: tmp_path / f"{lanes}.{name}" for name in ("assignments", "model")}
            code, report, _ = _run(
                capsys,
                ["cluster", "--input", blob_csv, "--label-column", "label", "--m", "16",
                 "--batch-size", "16", "--epochs", "3", "--restarts", "2",
                 "--out-assignments", str(out["assignments"]), "--out-model", str(out["model"])],
            )
            assert code == EXIT_OK and report["timing.train_lanes"] == str(lanes)
            del report["config.out_assignments"], report["config.out_model"]
            runs.append((strip_volatile(report), out["assignments"].read_bytes(), out["model"].read_bytes()))
        assert runs[0] == runs[1]


class TestProjectCommand:
    def test_identity_projection_equals_standardized_input(self, capsys, tmp_path, blob_csv):
        out = tmp_path / "proj.csv"
        code, report, _ = _run(
            capsys,
            ["project", "--input", blob_csv, "--label-column", "label",
             "--source", "identity", "--out-matrix", str(out)],
        )
        assert code == EXIT_OK
        assert report["config.k"] == "10"
        data = load_csv(blob_csv, label_column="label")
        expected = standardize(data)[0].features
        got = load_csv(out).features
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_rff_projection_shape(self, capsys, tmp_path, blob_csv):
        out = tmp_path / "proj.csv"
        code, report, _ = _run(
            capsys,
            ["project", "--input", blob_csv, "--label-column", "label",
             "--k", "7", "--out-matrix", str(out)],
        )
        assert code == EXIT_OK
        got = load_csv(out)
        assert got.d == 7 and got.n == 150

    def test_requires_out_matrix(self, capsys, blob_csv):
        code, _, err = _run(capsys, ["project", "--input", blob_csv])
        assert code == EXIT_CONFIG
        assert "out_matrix" in err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path, anomaly_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "label_column = label\nm = 12\nepochs = 9\nmembers = 1\n"
            "batch_size = 64\nfilter_rounds = 0\nseed = 5\n# comment line\n"
        )
        code, report, _ = _run(
            capsys,
            ["anomaly", "--config", str(cfg), "--input", anomaly_csv, "--epochs", "4"],
        )
        assert code == EXIT_OK
        assert report["config.epochs"] == "4"  # flag wins
        assert report["config.m"] == "12"  # file value survives

    def test_unknown_config_key(self, capsys, tmp_path, anomaly_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, _, err = _run(capsys, ["anomaly", "--config", str(cfg), "--input", anomaly_csv])
        assert code == EXIT_CONFIG
        assert "no_such_key" in err

    def test_none_in_config_file_leaves_the_default(self, capsys, tmp_path, anomaly_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = none\nablation = none\n")
        code, report, _ = _run(
            capsys, ["anomaly", "--config", str(cfg), "--input", anomaly_csv, *ANOMALY_ARGS]
        )
        assert code == EXIT_OK
        assert report["config.learning_rate"] == "0.1"
        assert report["config.ablation"] == "none"

    @pytest.mark.parametrize(
        "task, line",
        [("anomaly", "task = cluster"), ("anomaly", "restarts = 3"),
         ("anomaly", "score_column = s"), ("cluster", "members = 3")],
        ids=["task = cluster", "restarts = 3", "score_column = s", "cluster-members = 3"],
    )
    def test_config_key_of_another_subcommand_is_unknown(
        self, capsys, tmp_path, anomaly_csv, task, line
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _, err = _run(capsys, [task, "--config", str(cfg), "--input", anomaly_csv])
        assert code == EXIT_CONFIG
        assert f"line 1: unknown config key {line.split()[0]!r}" in err

    def test_all_validation_problems_reported_at_once(self, capsys, anomaly_csv):
        code, _, err = _run(
            capsys,
            ["anomaly", "--input", anomaly_csv, "--epochs", "0",
             "--learning-rate", "-1", "--members", "0"],
        )
        assert code == EXIT_CONFIG
        assert "epochs" in err and "learning_rate" in err and "members" in err

    @pytest.mark.parametrize("flag,value", [("--m", "0"), ("--aux-weight", "-1"), ("--members", "0")])
    def test_library_problem_found_before_input_is_read(self, capsys, tmp_path, flag, value):
        code, _, err = _run(
            capsys, ["anomaly", "--input", str(tmp_path / "missing.csv"), flag, value]
        )
        assert code == EXIT_CONFIG
        assert f"{flag[2:].replace('-', '_')} must be" in err

    @pytest.mark.parametrize(
        "task, flag",
        [
            ("eval", "--standardize"),
            ("eval", "--seed=1"),
            ("eval", "--members=2"),
            ("project", "--members=2"),
        ],
        ids=["--standardize", "--seed=1", "--members=2", "project---members=2"],
    )
    def test_eval_takes_no_training_options(self, capsys, task, flag):
        with pytest.raises(SystemExit) as exc:
            main([task, "--input", "scores.csv", flag])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_table_too_small_to_filter_exits_2(self, capsys, tmp_path):
        path = tmp_path / "small.csv"
        write_csv(synth_anomaly(383, 20, 4, seed=1), path)  # 403 rows, one short of the defaults' 404
        code, _, err = _run(capsys, ["anomaly", "--input", str(path), "--members", "1", "--epochs", "1"])
        assert code == EXIT_CONFIG
        assert "need at least 384 (2 x batch_size): set filter_rounds = 0 or a smaller batch_size" in err

    def test_workers_is_no_longer_an_option(self, capsys, tmp_path, anomaly_csv):
        with pytest.raises(SystemExit) as exc:
            main(["anomaly", "--input", anomaly_csv, "--workers", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 1\n")
        code, _, err = _run(capsys, ["anomaly", "--config", str(cfg), "--input", anomaly_csv])
        assert code == EXIT_CONFIG
        assert "line 1: unknown config key 'workers'" in err

    def test_missing_input(self, capsys):
        code, _, err = _run(capsys, ["anomaly"])
        assert code == EXIT_CONFIG
        assert "input" in err

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["anomaly", "--input", str(tmp_path / "missing.csv")]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("flag", ["--out-report", "--out-scores", "--out-model"])
    def test_output_path_that_is_a_directory_exits_3(self, capsys, tmp_path, anomaly_csv, flag):
        target = tmp_path / "out"
        target.mkdir()
        args = ["anomaly", "--input", anomaly_csv, "--members", "1", "--epochs", "1",
                "--filter-rounds", "0", flag, str(target)]
        code, _, err = _run(capsys, args)
        assert code == EXIT_IO and "input/output error" in err
        # the temp file the write went through is gone with the failed replace
        assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any(target.iterdir())

    def test_huge_label_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("a,b,label\n1,2,0\n3,4,1e30\n")
        code, _, err = _run(capsys, ["anomaly", "--input", str(p), "--label-column", "label"])
        assert code == EXIT_IO
        assert "label cell '1e30' at row 3 is outside the int64 range" in err
        assert "Traceback" not in err

    def test_cell_over_csv_field_limit_is_input_error(self, capsys, tmp_path):
        p, out = tmp_path / "long.csv", tmp_path / "proj.csv"
        p.write_text("a,b\n1," + "2" * 200_001 + "\n3,4\n")
        code, _, err = _run(capsys, ["project", "--input", str(p), "--k", "4", "--out-matrix", str(out)])
        assert code == EXIT_IO
        assert "cannot read row 2: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "task,flag,value",
        [
            ("cluster", "--learning-rate", "nan"),
            ("cluster", "--learning-rate", "inf"),
            ("cluster", "--aux-weight", "nan"),
            ("cluster", "--aux-weight", "inf"),
        ],
    )
    def test_non_finite_value_is_config_error(self, capsys, blob_csv, task, flag, value):
        code, _, err = _run(
            capsys,
            [task, "--input", blob_csv, "--label-column", "label", "--m", "8", "--epochs", "2",
             "--restarts", "1", flag, value],
        )
        assert code == EXIT_CONFIG
        assert f"{flag[2:].replace('-', '_')} must be" in err and "finite" in err

    def test_eval_rejects_fractional_label(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,1\n0.4,0.5\n")
        code, _, err = _run(
            capsys, ["eval", "--input", str(p), "--score-column", "score", "--label-column", "label"]
        )
        assert code == EXIT_IO
        assert "bad row 4" in err and "'0.5' is not an int64 integer" in err

    def test_eval_rejects_label_float64_cannot_hold(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,9007199254740993\n")
        code, _, err = _run(
            capsys, ["eval", "--input", str(p), "--score-column", "score", "--label-column", "label"]
        )
        assert code == EXIT_IO
        assert "bad row 3" in err and "'9007199254740993' is not an int64 integer" in err

    def test_eval_rejects_non_finite_score(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\nnan,1\n0.4,0\n")
        code, _, err = _run(
            capsys, ["eval", "--input", str(p), "--score-column", "score", "--label-column", "label"]
        )
        assert code == EXIT_IO
        assert "bad row 3" in err and "score 'nan' is not finite" in err

    def test_eval_cell_over_csv_field_limit_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.5,0\n" + "1" * 200_001 + ",1\n")
        code, _, err = _run(capsys, ["eval", "--input", str(p)])
        assert code == EXIT_IO
        assert "cannot read row 3: field larger than field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--score-column", "nope"], "score column 'nope' not found in header ['score', 'label']"),
            (["--score-column", "7"], "score column index 7 out of range for 2 columns"),
            (["--no-has-header", "--score-column", "0"],
             "label column given by name but file has no header"),
        ],
    )
    def test_eval_selects_columns_as_load_csv_does(self, capsys, tmp_path, flags, message):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,1\n")
        code, _, err = _run(capsys, ["eval", "--input", str(p), *flags])
        assert code == EXIT_IO
        assert err == f"input/output error: {message}\n"

    def test_eval_reads_padded_cells_as_load_csv_does(self, capsys, tmp_path):
        # a cell padded with what str.strip removes loads in load_csv, so eval reads it too
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n\x1c0.5,0\n0.9 ,\x1c1\n0.1,\t0\u3000\n")
        data = load_csv(p, label_column="label")
        code, report, err = _run(
            capsys, ["eval", "--input", str(p), "--score-column", "score", "--label-column", "label"]
        )
        assert code == EXIT_OK, err
        assert report["data.rows"] == "3"
        assert report["metrics.auc_roc"] == repr(auc_roc(data.features[:, 0], data.labels))
        assert report["metrics.auc_pr"] == repr(auc_pr(data.features[:, 0], data.labels))

    def test_k_is_not_a_cluster_option(self, capsys, tmp_path, blob_csv):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", blob_csv, "--m", "8", "--k", "8"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --k 8" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 8\n")
        code, _, err = _run(capsys, ["cluster", "--config", str(cfg), "--input", blob_csv])
        assert code == EXIT_CONFIG
        assert "line 1: unknown config key 'k'" in err

    def test_k_is_not_an_anomaly_option(self, capsys, tmp_path, anomaly_csv):
        with pytest.raises(SystemExit) as exc:
            main(["anomaly", "--input", anomaly_csv, "--m", "10", "--k", "20"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --k 20" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 20\n")
        code, _, err = _run(capsys, ["anomaly", "--config", str(cfg), "--input", anomaly_csv])
        assert code == EXIT_CONFIG
        assert "line 1: unknown config key 'k'" in err

    @pytest.mark.parametrize(
        "task, flag",
        [(task, flag) for task in ("anomaly", "cluster") for flag in ("--bandwidth", "--density", "--leaky-slope")]
        + [("cluster", "--kmeans-max-iters"), ("project", "--bandwidth"), ("project", "--density")],
    )
    def test_removed_option_is_unknown(self, capsys, tmp_path, task, flag):
        # fixed values now: the median-heuristic rff bandwidth, srp density 1/sqrt(d),
        # the encoder's slope 0.01 and at most 300 K-means rounds
        with pytest.raises(SystemExit) as exc:
            main([task, "--input", "data.csv", flag, "1"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, err = _run(capsys, [task, "--config", str(cfg), "--input", "data.csv"])
        assert code == EXIT_CONFIG
        assert f"line 1: unknown config key {key!r}" in err

    def test_bad_choice_in_config_file_listed_with_library_problems(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ablation = bogus\nsource = nope\nepochs = 0\n")
        code, _, err = _run(
            capsys, ["cluster", "--config", str(cfg), "--input", str(tmp_path / "missing.csv")]
        )
        assert code == EXIT_CONFIG
        assert err == (
            "config error: invalid configuration:\n"
            "source must be one of ('rff', 'srp', 'identity'), got 'nope'\n"
            "ablation must be one of ('none', 'no_pair_loss', 'no_aux_loss'), got 'bogus'\n"
            "epochs must be >= 1, got 0\n"
        )

    def test_bad_source_in_anomaly_config_file_listed_once(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source = nope\n")
        code, _, err = _run(
            capsys, ["anomaly", "--config", str(cfg), "--input", str(tmp_path / "missing.csv")]
        )
        assert code == EXIT_CONFIG
        assert err.count("source must be one of") == 1

    @pytest.mark.parametrize(
        "task, flag",
        [("anomaly", "--ablation=bogus"), ("cluster", "--ablation=no_boosting"),
         ("cluster", "--source=nope")],
    )
    def test_bad_choice_flag_is_rejected_by_the_parser(self, capsys, task, flag):
        with pytest.raises(SystemExit) as exc:
            main([task, "--input", "data.csv", flag])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err


class TestCliOwnedDefaults:
    """Options whose default the command line owns: unset they take it, a
    file value replaces it, a flag beats the file, and `none` leaves it."""

    CASES = [
        ("cluster", "restarts", 30, "3", 3, ["--restarts", "5"], 5),
        ("anomaly", "has_header", True, "false", False, ["--has-header"], True),
        ("cluster", "has_header", True, "no", False, ["--has-header"], True),
        ("anomaly", "standardize", True, "false", False, ["--standardize"], True),
        ("project", "standardize", True, "0", False, ["--standardize"], True),
    ]
    IDS = ["cluster-restarts", "anomaly-has_header", "cluster-has_header",
           "anomaly-standardize", "project-standardize"]

    def _parse(self, tmp_path, task, line=None, flags=()):
        argv = [task, "--input", "data.csv", *flags]
        if line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line + "\n")
            argv += ["--config", str(cfg)]
        return cli.parse_options(argv)[0]

    @pytest.mark.parametrize("task, key, default, raw, value, flags, flagged", CASES, ids=IDS)
    def test_precedence(self, tmp_path, task, key, default, raw, value, flags, flagged):
        assert getattr(self._parse(tmp_path, task), key) == default
        assert getattr(self._parse(tmp_path, task, f"{key} = {raw}"), key) == value
        assert getattr(self._parse(tmp_path, task, f"{key} = {raw}", flags), key) == flagged
        assert getattr(self._parse(tmp_path, task, f"{key} = none"), key) == default

    def test_default_reaches_the_report(self, capsys, blob_csv):
        code, report, _ = _run(
            capsys,
            ["cluster", "--input", blob_csv, "--label-column", "label", "--m", "8",
             "--epochs", "2"],
        )
        assert code == EXIT_OK
        assert report["config.restarts"] == "30"
        assert report["config.has_header"] == report["config.standardize"] == "true"


def _library_defaults(task: str) -> dict:
    """The defaults the library owns for a task's options: its config
    dataclasses' fields and its pipeline function's keyword defaults."""
    if task == "anomaly":
        boost = BoostConfig(train=TrainConfig.anomaly_defaults())
        owners, pipeline = [asdict(boost.train), asdict(boost)], run_anomaly
    else:
        owners, pipeline = [asdict(TrainConfig.clustering_defaults())], run_clustering
    defaults = {
        name: p.default
        for name, p in inspect.signature(pipeline).parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    for owner in owners:
        defaults.update(owner)
    return defaults


class TestShippedConfigs:
    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    def _resolve(self, task, config_file=True):
        path = str(self.CONFIGS / f"{task}.cfg")
        argv = [task, "--input", "data.csv"] + (["--config", path] if config_file else [])
        cfg, options = cli.parse_options(argv)
        values = cli._parse_config_file(path, options) if config_file else {}
        cli._validate(cfg, options)
        return values, cfg, options

    def test_every_config_is_covered(self):
        assert sorted(p.stem for p in self.CONFIGS.glob("*.cfg")) == [
            "anomaly", "cluster", "eval", "project"
        ]

    @pytest.mark.parametrize("task", ["anomaly", "cluster", "eval", "project"])
    def test_config_resolves(self, task):
        values, cfg, _ = self._resolve(task)
        assert all(getattr(cfg, key) == value for key, value in values.items() if value is not None)

    @pytest.mark.parametrize("task", ["anomaly", "cluster"])
    def test_config_restates_library_defaults(self, task):
        # `ablation = none` reads as unset, so its resolved value is compared
        values, cfg, _ = self._resolve(task)
        defaults = _library_defaults(task)
        owned = sorted(set(values) & set(defaults))
        assert {"m", "epochs", "learning_rate", "seed", "source", "ablation"} <= set(owned)
        assert {key: getattr(cfg, key) for key in owned} == {key: defaults[key] for key in owned}

    @pytest.mark.parametrize("task", ["anomaly", "cluster"])
    def test_unset_options_take_library_defaults(self, task):
        _, cfg, options = self._resolve(task, config_file=False)
        defaults = _library_defaults(task)
        owned = sorted(set(options) & set(defaults))
        assert {key: getattr(cfg, key) for key in owned} == {key: defaults[key] for key in owned}
