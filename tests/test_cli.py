import gc
import inspect
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import randist
import randist.anomaly
import randist.clustering
import randist.data
import randist.encoder
import randist.forks
from randist import cli
from randist.anomaly import BoostConfig, run_anomaly
from randist.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from randist.clustering import restart_scores, run_clustering
from randist.data import load_csv, standardize, synth_anomaly, synth_blobs, write_csv
from randist.encoder import TrainConfig
from randist.metrics import auc_pr, auc_roc
from randist.persist import load_ensemble
from randist.report import parse_report, strip_volatile

from conftest import child_env


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

    # identity's members train at the data's width, so it takes no m
    # no_boosting runs no filter round, so the report echoes 0 rounds over the flag's 2
    @pytest.mark.parametrize("args, filter_rounds", [
        (ANOMALY_ARGS, "1"),
        ([*ANOMALY_ARGS, "--source", "srp"], "1"),
        ([*ANOMALY_ARGS[:2], *ANOMALY_ARGS[4:], "--source", "identity", "--learning-rate", "0.001"], "1"),
        ([*ANOMALY_ARGS, "--ablation", "no_boosting", "--filter-rounds", "2"], "0"),
    ], ids=["rff", "srp", "identity", "no_boosting"])
    def test_reports_are_byte_identical_at_one_and_two_processes(self, capsys, tmp_path, monkeypatch, args,
                                                                  filter_rounds):
        # two load shares and two member processes against one of each
        path = tmp_path / "t.csv"
        write_csv(synth_anomaly(280, 20, 6, seed=3), path)
        runs = []
        for p in (1, 2):
            monkeypatch.setattr(randist.data, "process_count", lambda limit: min(limit, p))
            monkeypatch.setattr(randist.data, "SHARE_MIN_BYTES", 1)
            monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: min(limit, p))
            out = {name: tmp_path / f"{p}.{name}" for name in ("scores", "model")}
            code, report, _ = _run(capsys, ["anomaly", "--input", str(path), *args,
                                            "--out-scores", str(out["scores"]), "--out-model", str(out["model"])])
            assert code == EXIT_OK
            assert report["timing.load_processes"] == report["timing.member_processes"] == str(p)
            assert float(report["timing.load_seconds"]) > 0
            assert report["config.filter_rounds"] == filter_rounds
            del report["config.out_scores"], report["config.out_model"]
            runs.append((strip_volatile(report), out["scores"].read_bytes(), out["model"].read_bytes()))
        assert runs[0] == runs[1]

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

    def test_one_class_labels_score_without_metrics(self, capsys, tmp_path):
        # AUCs need both classes: a table of normals alone is scored, not rejected
        p, scores_path = tmp_path / "normals.csv", tmp_path / "s.csv"
        write_csv(synth_anomaly(300, 0, 6, seed=3), p)
        code, report, _ = _run(
            capsys,
            ["anomaly", "--input", str(p), *ANOMALY_ARGS, "--epochs", "2", "--out-scores", str(scores_path)],
        )
        assert code == EXIT_OK
        assert not any(key.startswith("metrics.") for key in report)
        rows = scores_path.read_text().splitlines()
        assert rows[0] == "index,score,label" and len(rows) == 301

    def test_label_other_than_0_or_1_is_rejected_before_training(self, capsys, tmp_path, monkeypatch):
        data = synth_anomaly(280, 20, 6, seed=3)
        data.labels[4] = 2
        p = tmp_path / "three.csv"
        write_csv(data, p)
        trained = []
        monkeypatch.setattr(randist.anomaly, "boost_train_member", lambda *args: trained.append(args))
        code, _, err = _run(capsys, ["anomaly", "--input", str(p), *ANOMALY_ARGS])
        assert code == EXIT_IO and not trained
        assert err == f"input/output error: bad row 6 in {p}: label 2.0 is not 0 or 1\n"

    def test_report_gives_the_peak_memory_of_the_run_and_its_children(self, capsys, anomaly_csv, monkeypatch):
        monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: min(limit, 2))  # a forked member
        code, report, _ = _run(capsys, ["anomaly", "--input", anomaly_csv, *ANOMALY_ARGS])
        assert code == EXIT_OK and report["timing.member_processes"] == "2"
        keys = {"timing.peak_rss_mb", "timing.children_peak_rss_mb"}
        assert all(float(report[key]) > 0 for key in keys)
        assert not keys & strip_volatile(report).keys()

    def test_imports_and_runs_without_the_resource_module(self, tmp_path):
        # as on Windows: the report leaves the peak-memory keys out
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,1\n")
        script = ("import sys; sys.modules['resource'] = None; from randist.cli import main; "
                  f"sys.exit(main(['eval', '--input', {str(p)!r}]))")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(1),
                              timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        report = parse_report(done.stdout)
        assert report["metrics.auc_roc"] == "1.0" and not any("peak_rss" in key for key in report)

    def test_importing_randist_loads_no_module_it_imports_on_use(self):
        # signal (the fork runner), concurrent.futures (the training lane) and
        # decimal (labels from 2**53) are imported where they are used
        lazy = ("signal", "concurrent.futures", "decimal")
        script = f"import sys, randist; print(sorted(set({lazy!r}) & sys.modules.keys()))"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(1),
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


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

    def test_report_gives_the_load(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        write_csv(synth_blobs(2, 20, 3), path)
        args = ["--m", "4", "--epochs", "1", "--restarts", "1", "--label-column", "label"]
        code, report, _ = _run(capsys, ["cluster", "--input", str(path), *args])
        assert code == EXIT_OK
        assert report["timing.load_processes"] == "1" and float(report["timing.load_seconds"]) > 0

    def test_identity_frozen_baseline_is_k_means_on_the_standardized_table(self, capsys, blob_csv):
        code, report, _ = _run(
            capsys,
            ["cluster", "--input", blob_csv, "--label-column", "label", "--source", "identity", "--m", "8",
             "--epochs", "2", "--learning-rate", "0.01", "--restarts", "3", "--seed", "2"],
        )
        assert code == EXIT_OK and float(report["timing.baseline_seconds"]) > 0
        data = standardize(load_csv(blob_csv, label_column="label"))[0]
        nmis, fs, _ = restart_scores(data.features, data.labels, 3, 2)
        baseline = {key: value for key, value in report.items() if key.startswith("baseline.")}
        assert baseline == {
            "baseline.frozen.nmi_mean": repr(float(nmis.mean())),
            "baseline.frozen.nmi_std": repr(float(nmis.std())),
            "baseline.frozen.f_mean": repr(float(fs.mean())),
            "baseline.frozen.f_std": repr(float(fs.std())),
        }

    def test_every_k_means_goes_through_kmeans(self, capsys, blob_csv, monkeypatch):
        calls = []
        real = randist.clustering.kmeans

        def counting(rows, k, seeds, lane=None):
            calls.append(len(seeds))
            return real(rows, k, seeds, lane)

        monkeypatch.setattr(randist.clustering, "kmeans", counting)
        code, _, _ = _run(capsys, ["cluster", "--input", blob_csv, "--label-column", "label",
                                   "--m", "16", "--epochs", "2", "--restarts", "3"])
        assert code == EXIT_OK and calls == [3, 3]  # the learned space, then the frozen baseline

    def test_frozen_baseline_is_the_same_across_repeats_and_lanes(self, capsys, blob_csv, monkeypatch):
        # m = batch: each step's decoder branch runs on a lane when a CPU is spare
        baselines = []
        for lanes in (1, 2, 2):
            monkeypatch.setattr(randist.forks, "process_count", lambda limit: min(limit, lanes))
            code, report, _ = _run(
                capsys,
                ["cluster", "--input", blob_csv, "--label-column", "label", "--m", "16",
                 "--batch-size", "16", "--epochs", "3", "--restarts", "3"],
            )
            assert code == EXIT_OK and report["timing.train_lanes"] == str(lanes)
            baselines.append({key: value for key, value in report.items() if key.startswith("baseline.")})
        assert len(baselines[0]) == 4
        assert baselines[0] == baselines[1] == baselines[2]

    def test_a_training_lane_changes_no_output(self, capsys, tmp_path, blob_csv, monkeypatch):
        # m = batch: each step's decoder branch runs on a lane when a CPU is spare
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(randist.forks, "process_count", lambda limit: min(limit, lanes))
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


@pytest.fixture(scope="module")
def unscaled_csv(tmp_path_factory):
    """An anomaly table whose columns are neither centred nor of unit spread."""
    path = tmp_path_factory.mktemp("data") / "unscaled.csv"
    data = synth_anomaly(280, 20, 6, seed=3)
    data.features = data.features * np.linspace(0.5, 2.0, 6) + 1.0
    write_csv(data, path)
    return str(path)


class TestOneCopyOfTheTable:
    @pytest.mark.parametrize("task, entry, table, args", [
        ("anomaly", "run_anomaly", "anomaly_csv", ANOMALY_ARGS),
        ("cluster", "run_clustering", "blob_csv", ["--label-column", "label", "--m", "8", "--epochs", "2",
                                                   "--restarts", "1"]),
    ])
    def test_the_raw_table_is_dead_once_standardized(self, capsys, tmp_path, monkeypatch, request,
                                                      task, entry, table, args):
        loaded, alive = [], []
        real_entry = getattr(cli, entry)

        def load(*a, **kw):
            data = load_csv(*a, **kw)
            loaded.append(weakref.ref(data.features))
            return data

        def enter(*a, **kw):
            gc.collect()
            alive.append(loaded[0]() is not None)
            return real_entry(*a, **kw)

        monkeypatch.setattr(cli, "load_csv", load)
        monkeypatch.setattr(cli, entry, enter)
        monkeypatch.chdir(tmp_path)
        code, _, _ = _run(capsys, [task, "--input", request.getfixturevalue(table), "--standardize", *args])
        assert code == EXIT_OK
        assert alive == [False]

    @pytest.mark.parametrize("ablation, train_fields, boost_fields", [
        ("none", {}, {}),
        ("no_pair_loss", {"use_pair_loss": False}, {}),
        ("no_aux_loss", {"use_aux_loss": False}, {}),
        ("no_boosting", {}, {"filter_rounds": 0}),
    ], ids=["none", "no_pair_loss", "no_aux_loss", "no_boosting"])
    def test_anomaly_scores_are_the_librarys(self, capsys, tmp_path, unscaled_csv, ablation, train_fields,
                                             boost_fields):
        # at the default rate 0.1 training on the unscaled columns diverges
        train = TrainConfig.anomaly_defaults(m=12, epochs=15, batch_size=64, learning_rate=0.01, seed=5,
                                             **train_fields)
        config = BoostConfig(train=train, members=2, **boost_fields)
        scores = {}
        for flag in (True, False):
            path = tmp_path / f"{flag}.csv"
            code, _, _ = _run(capsys, ["anomaly", "--input", unscaled_csv, *ANOMALY_ARGS, "--learning-rate", "0.01",
                                       "--ablation", ablation,
                                       "--standardize" if flag else "--no-standardize", "--out-scores", str(path)])
            assert code == EXIT_OK
            expected = run_anomaly(load_csv(unscaled_csv, label_column="label"), config, standardize=flag).scores
            scores[flag] = load_csv(path, label_column="label").features[:, 1]
            assert scores[flag].tobytes() == expected.tobytes()
        # the CLI standardizes, not the library: the flag still reaches the scores
        assert not np.array_equal(scores[True], scores[False])

    @pytest.mark.parametrize("flag, ablation, fields", [
        (True, "none", {}),
        (False, "none", {}),
        (True, "no_pair_loss", {"use_pair_loss": False}),
        (True, "no_aux_loss", {"use_aux_loss": False}),
    ], ids=["True", "False", "no_pair_loss", "no_aux_loss"])
    def test_cluster_assignments_are_the_librarys(self, capsys, tmp_path, blob_csv, flag, ablation, fields):
        path = tmp_path / "assign.csv"
        code, _, _ = _run(capsys, ["cluster", "--input", blob_csv, "--label-column", "label", "--m", "8",
                                   "--epochs", "3", "--batch-size", "32", "--learning-rate", "0.01",
                                   "--restarts", "3", "--seed", "2", "--ablation", ablation,
                                   "--standardize" if flag else "--no-standardize", "--out-assignments", str(path)])
        assert code == EXIT_OK
        config = TrainConfig.clustering_defaults(m=8, epochs=3, batch_size=32, learning_rate=0.01, seed=2, **fields)
        result = run_clustering(load_csv(blob_csv, label_column="label"), config, restarts=3, standardize=flag)
        got = load_csv(path, label_column="label").features[:, 1]
        np.testing.assert_array_equal(got, result.assignments)


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

    @pytest.mark.parametrize("task, args, problem", [
        ("anomaly", ["--m", "0"], "m must be"),
        ("anomaly", ["--aux-weight", "-1"], "aux_weight must be"),
        ("anomaly", ["--members", "0"], "members must be"),
        ("cluster", [], "label_column is required: clustering evaluation needs ground-truth labels"),
    ], ids=["--m-0", "--aux-weight--1", "--members-0", "cluster-without-labels"])
    def test_library_problem_found_before_input_is_read(self, capsys, tmp_path, task, args, problem):
        code, _, err = _run(
            capsys, [task, "--input", str(tmp_path / "missing.csv"), *args]
        )
        assert code == EXIT_CONFIG
        assert problem in err

    @pytest.mark.parametrize(
        "task, flag",
        [
            ("eval", "--standardize"),
            ("eval", "--seed=1"),
            ("eval", "--members=2"),
        ],
        ids=["--standardize", "--seed=1", "--members=2"],
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
        p, out = tmp_path / "long.csv", tmp_path / "scores.csv"
        p.write_text("a,b\n1," + "2" * 200_001 + "\n3,4\n")
        code, _, err = _run(capsys, ["anomaly", "--input", str(p), "--out-scores", str(out)])
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
        assert "bad row 4" in err and "label 0.5 is not 0 or 1" in err

    def test_eval_rejects_label_float64_cannot_hold(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,9007199254740993\n")
        code, _, err = _run(
            capsys, ["eval", "--input", str(p), "--score-column", "score", "--label-column", "label"]
        )
        assert code == EXIT_IO
        assert "bad row 3" in err and "label 9007199254740992.0 is not 0 or 1" in err

    def test_eval_rejects_non_finite_score(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\nnan,1\n0.4,0\n")
        code, _, err = _run(
            capsys, ["eval", "--input", str(p), "--score-column", "score", "--label-column", "label"]
        )
        assert code == EXIT_IO
        assert "non-finite cell 'nan' at row 3, column 'score'" in err

    def test_eval_rejects_a_label_other_than_0_or_1(self, capsys, tmp_path):
        # an integer label is not enough: the metrics rank 1s against 0s
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,1\n0.4,2\n")
        code, _, err = _run(capsys, ["eval", "--input", str(p)])
        assert code == EXIT_IO
        assert err == f"input/output error: bad row 4 in {p}: label 2.0 is not 0 or 1\n"

    def test_eval_rejects_a_bad_cell_in_a_column_it_does_not_select(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("index,score,label\n0,0.1,0\n1,0.9,1\nx,0.4,0\n")
        code, _, err = _run(capsys, ["eval", "--input", str(p)])
        assert code == EXIT_IO
        assert err == "input/output error: non-numeric cell 'x' at row 4, column 'index'\n"

    def test_eval_reads_a_header_it_is_told_is_absent_as_a_bad_cell(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.1,0\n0.9,1\n")
        code, _, err = _run(capsys, ["eval", "--input", str(p), "--no-has-header", "--score-column", "0"])
        assert code == EXIT_IO
        assert err == "input/output error: non-numeric cell 'score' at row 1, column 0\n"

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
        p.write_text(("" if "--no-has-header" in flags else "score,label\n") + "0.1,0\n0.9,1\n")
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
        + [("cluster", "--kmeans-max-iters")],
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

    def test_project_is_not_a_subcommand(self, capsys):
        # the frozen space it wrote out is rd.apply(map, X), and cluster reports K-means on it
        with pytest.raises(SystemExit) as exc:
            main(["project", "--input", "data.csv", "--out-matrix", "p.csv"])
        assert exc.value.code == EXIT_CONFIG
        assert "argument task: invalid choice: 'project'" in capsys.readouterr().err

    def test_bad_choice_in_config_file_listed_with_library_problems(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ablation = bogus\nsource = nope\nepochs = 0\n")
        code, _, err = _run(
            capsys, ["cluster", "--config", str(cfg), "--input", str(tmp_path / "missing.csv"),
                     "--label-column", "label"]
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


class TestAblations:
    def _resolve(self, task, *flags):
        """The fields of the library config a run resolves to, a BoostConfig's TrainConfig's among them."""
        cfg, options = cli.parse_options([task, "--input", "data.csv", "--label-column", "label", *flags])
        values = asdict(cli._validate(cfg, options))
        return {**values.pop("train", {}), **values}

    CASES = [
        ("anomaly", "none", {}),
        ("anomaly", "no_pair_loss", {"use_pair_loss": False}),
        ("anomaly", "no_aux_loss", {"use_aux_loss": False}),
        ("anomaly", "no_boosting", {"filter_rounds": 0}),
        ("cluster", "none", {}),
        ("cluster", "no_pair_loss", {"use_pair_loss": False}),
        ("cluster", "no_aux_loss", {"use_aux_loss": False}),
    ]

    @pytest.mark.parametrize("task, ablation, changed", CASES, ids=[f"{t}-{a}" for t, a, _ in CASES])
    def test_sets_only_its_fields(self, task, ablation, changed):
        plain = self._resolve(task, "--aux-weight", "0.5", "--seed", "4")
        ablated = self._resolve(task, "--aux-weight", "0.5", "--seed", "4", "--ablation", ablation)
        assert {key: value for key, value in ablated.items() if plain[key] != value} == changed


class TestCliOwnedDefaults:
    """Options whose default the command line owns: unset they take it, a
    file value replaces it, a flag beats the file, and `none` leaves it."""

    CASES = [
        ("cluster", "restarts", 30, "3", 3, ["--restarts", "5"], 5),
        ("anomaly", "has_header", True, "false", False, ["--has-header"], True),
        ("cluster", "has_header", True, "no", False, ["--has-header"], True),
        ("anomaly", "standardize", True, "false", False, ["--standardize"], True),
    ]
    IDS = ["cluster-restarts", "anomaly-has_header", "cluster-has_header", "anomaly-standardize"]

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
    dataclasses' fields and its pipeline function's keyword defaults.
    `ablation` is not among them: the command line owns it."""
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
        labels = ["--label-column", "label"] if task == "cluster" and not config_file else []
        argv = [task, "--input", "data.csv", *labels] + (["--config", path] if config_file else [])
        cfg, options = cli.parse_options(argv)
        values = cli._parse_config_file(path, options) if config_file else {}
        cli._validate(cfg, options)
        return values, cfg, options

    def test_every_config_is_covered(self):
        assert sorted(p.stem for p in self.CONFIGS.glob("*.cfg")) == ["anomaly", "cluster", "eval"]

    @pytest.mark.parametrize("task", ["anomaly", "cluster", "eval"])
    def test_config_resolves(self, task):
        values, cfg, _ = self._resolve(task)
        assert all(getattr(cfg, key) == value for key, value in values.items() if value is not None)

    def test_configs_run_and_write_the_outputs_they_name(self, capsys, tmp_path, monkeypatch, anomaly_csv, blob_csv):
        monkeypatch.chdir(tmp_path)  # the outputs' paths are relative
        for task, args in (("anomaly", ["--input", anomaly_csv, "--members", "2", "--epochs", "5",
                                        "--batch-size", "64"]),
                           ("eval", ["--input", "scores.csv"]),
                           ("cluster", ["--input", blob_csv, "--m", "16", "--epochs", "3", "--batch-size", "32",
                                        "--restarts", "3"])):
            code, _, _ = _run(capsys, [task, "--config", str(self.CONFIGS / f"{task}.cfg"), *args])
            assert code == EXIT_OK
        written = {path.name: path.stat().st_size for path in tmp_path.iterdir()}
        assert sorted(written) == ["anomaly_report.txt", "assignments.csv", "cluster_report.txt",
                                   "eval_report.txt", "scores.csv"]
        assert all(written.values())

    @pytest.mark.parametrize("task", ["anomaly", "cluster"])
    def test_config_restates_library_defaults(self, task):
        values, cfg, options = self._resolve(task)
        defaults = _library_defaults(task)
        owned = sorted(set(values) & set(defaults))
        assert {"m", "epochs", "learning_rate", "seed", "source"} <= set(owned)
        assert {key: getattr(cfg, key) for key in owned} == {key: defaults[key] for key in owned}
        # `ablation = none` reads as unset, so its resolved value is compared
        assert "ablation" in values and cfg.ablation == options["ablation"].default == "none"

    @pytest.mark.parametrize("task", ["anomaly", "cluster"])
    def test_unset_options_take_library_defaults(self, task):
        _, cfg, options = self._resolve(task, config_file=False)
        defaults = _library_defaults(task)
        owned = sorted(set(options) & set(defaults))
        assert {key: getattr(cfg, key) for key in owned} == {key: defaults[key] for key in owned}
