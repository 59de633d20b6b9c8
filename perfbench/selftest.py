"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the limits its format sets, runs every
workload once at minimal length untraced and traced, and asserts that each
declared metric is emitted with its unit and that the output checks pass.
On anomaly-paper it also asserts today's call identity (the encoder's
`apply` calls equal its train calls plus its SGD steps) and that a second
traced run gives the same counts. Last, it runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must
fail without printing a result.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
# per-layer counts, which must repeat exactly between runs of the same code
COUNTS = (
    "encoder.train.calls", "encoder.train.steps", "mappings.build.calls",
    "mappings.apply.train.calls", "mappings.apply.score.calls", "anomaly.score_rows.calls",
    "anomaly.score_rows.rows", "metrics.calls",
)


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> dict:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, f"{workload} trace={trace} failed its checks:\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{m['name']} has no value: {got}"
        if not trace:
            assert got["value"] != 0, f"{m['name']} reads 0"
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "anomaly-paper", 0)
        assert proc.returncode != 0, "the benchmark passed with no program to measure"
        assert '"metrics"' not in proc.stdout, "the benchmark printed a result with no program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("BENCHMARK.json: ok")
    for w in spec["workloads"]:
        check_run(spec, w["name"], 0)
        layers = check_run(spec, w["name"], 1)
        if w["name"] == "anomaly-paper":
            calls = layers["mappings.apply.train.calls"]
            expected = layers["encoder.train.calls"] + layers["encoder.train.steps"]
            assert calls == expected, f"apply calls from the encoder {calls} != {expected}"
            again = check_run(spec, w["name"], 1)
            for name in COUNTS:
                assert layers[name] == again[name], f"{name} differs between runs: {layers[name]} vs {again[name]}"
        print(f"{w['name']}: ok")
    check_bare_directory()
    print("bare directory: fails without a result, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
