"""Self-test of the benchmark at a tiny size.

Every workload must emit each metric that ``BENCHMARK.json`` names, with its
unit, and the oracles must reject a planted wrong answer.  Run from the
repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json

import pytest

import run
import workloads
from meadows import Real

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)
TINY_SECONDS = 0.5


def _assert_metrics(result, spec):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run.run_untraced(name, seed=3, seconds=TINY_SECONDS, setup_repeats=1)
    assert result["correct"], result["messages"]
    assert result["attempted"] > 0 and result["info"]["failed_ratio"] == 0
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    line = json.loads(run._contract_line(result))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    result = run.run_traced(name, seed=3, rounds=1)
    assert result["correct"], result["messages"]
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    exact_calls = [v["value"] for k, v in metrics.items() if k.startswith("exact.") and ".calls" in k]
    if name == "finite-symbolic":
        assert not any(exact_calls) and metrics["exact.sessions"]["value"] == 0
    else:
        assert any(exact_calls) and metrics["exact.sessions"]["value"] > 0


@pytest.mark.parametrize("name", ["laws-exact", "towers-deep"])
def test_oracles_reject_a_planted_wrong_equality(name, monkeypatch):
    monkeypatch.setattr(Real, "__eq__", lambda self, other: True)
    result = run.run_untraced(name, seed=3, seconds=TINY_SECONDS, setup_repeats=1)
    assert not result["correct"]
    assert result["info"]["failed_ratio"] > 0


def test_golden_file_matches_its_corpus():
    rows = json.loads(workloads.GOLDEN_PATH.read_text())
    assert [row[0] for row in rows] == workloads.golden_corpus()
