"""Smoke tests: each experiment script runs end to end on tiny arguments."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# (script, argv, first words of the table rows it must print)
CASES = [
    # 420 rows keep 2 x 192 after the default 5% filter round
    (
        "run_synthetic_anomaly",
        ["--n-normal", "400", "--n-anomaly", "20", "--dim", "4", "--members", "1",
         "--epochs", "1", "--source", "srp"],
        ["full", "no_pair_loss", "no_aux_loss", "no_boosting"],
    ),
    (
        "run_synthetic_clustering",
        ["--clusters", "2", "--per-cluster", "20", "--dim", "3", "--m", "8",
         "--epochs", "1", "--restarts", "1", "--all-sources"],
        ["raw standardized", "learned (rff)", "learned (srp)"],
    ),
    (
        "sweep_embedding_dim",
        ["--dims", "4", "--members", "1", "--epochs", "1"],
        ["     4 "],
    ),
]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,rows", CASES, ids=[case[0] for case in CASES])
def test_script_runs(capsys, name, argv, rows):
    assert _load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for row in rows:
        assert any(line.startswith(row) for line in lines), (row, lines)


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == {name for name, _, _ in CASES}
