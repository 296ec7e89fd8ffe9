"""Smoke test of the benchmark itself, at toy size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1 does not
collect it (``testpaths = ["tests"]``).  Every workload runs untraced and
traced on a few hundred observations for one measured second.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import drivers, spec
from benchmarks.e2e.run import result_line

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
DECLARED = spec.declared()
#: Per-layer metrics that are rightly zero when nothing goes wrong.
MAY_BE_ZERO = {
    "sparql.fallback_ratio", "serving.cache.evictions",
    "serving.cache.plan_hit_ratio", "serving.executor.rejected",
    "server.tenancy.shed",
}


def serve_children() -> set[int]:
    """Pids of live ``repro serve`` processes."""
    pids = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    words = handle.read().split(b"\0")
            except OSError:
                continue
            if b"repro" in words and b"serve" in words:
                pids.add(int(entry))
    return pids


@pytest.fixture(scope="session")
def inputs_cache(tmp_path_factory) -> str:
    """Generated inputs are shared: two workloads use the same cube."""
    return str(tmp_path_factory.mktemp("inputs"))


def run_once(tmp_path, inputs_cache, workload: str, trace: int) -> dict:
    finished = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy",
         "--out", str(tmp_path), "--inputs-cache", inputs_cache],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(finished.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_workload_emits_every_declared_metric(tmp_path, inputs_cache, workload):
    before = serve_children()
    untraced = run_once(tmp_path, inputs_cache, workload, 0)
    traced = run_once(tmp_path, inputs_cache, workload, 1)
    assert serve_children() <= before, "a repro serve child outlived its run"

    for line, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
        for name, metric in line["metrics"].items():
            assert math.isfinite(metric["value"]), name
            if section == "end_to_end":
                assert metric["value"] > 0, name
            elif name not in MAY_BE_ZERO:
                assert metric["value"] != 0, name

    spans = [json.loads(line) for line in
             (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()]
    ids = {span["id"] for span in spans}
    assert spans and len(ids) == len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids

    with open(tmp_path / f"result-{workload}-trace.json") as handle:
        document = json.load(handle)
    assert document["ranking"] and document["step_cover"] > 0.9
    assert document["environment"]["PYTHONHASHSEED"] == "0"


def test_set_run_compares_http_with_inproc_and_fails_on_a_bad_digest(tmp_path):
    command = [sys.executable, "-m", "benchmarks.e2e", "run", "--toy",
               "--seconds", "1", "--workload", "explore_inproc",
               "--workload", "explore_http"]
    env = drivers.child_env()
    good = subprocess.run(command + ["--out", str(tmp_path / "good")],
                          cwd=spec.ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=120)
    assert good.returncode == 0, good.stdout[-2000:]
    with open(tmp_path / "good" / "result.json") as handle:
        result = json.load(handle)
    assert result["failures"] == []
    assert "step_p50_ms@explore_http" in result["summary"]

    bad = subprocess.run(
        command + ["--out", str(tmp_path / "bad"), "--corrupt-digest"],
        cwd=spec.ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=120)
    assert bad.returncode != 0
    assert "answers differ" in bad.stdout


def test_server_child_is_reaped_when_the_client_fails():
    before = serve_children()
    with pytest.raises(ZeroDivisionError):
        with drivers.ServerChild(os.devnull, drivers.child_env()) as child:
            assert child.process.poll() is None
            raise ZeroDivisionError
    assert child.process.poll() is not None
    assert serve_children() <= before


def test_result_line_has_the_contract_keys():
    line = json.loads(result_line(
        {"failed": 0, "attempted": 3, "metrics": {}, "other": 1}))
    assert line == {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
