"""Tests of the benchmark harness itself (``python -m pytest bench -q``).

Outside tier-1 on purpose: ``pytest.ini``'s ``testpaths`` does not list
``bench/``.  Everything runs on the internal 2c x 1a ``smoke`` workload except
the leak check, which needs a search wide enough to spin the worker pool up.
"""

import dataclasses
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import trace as layer_trace  # noqa: E402  (bench/trace.py, not the stdlib module)
import worker  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    """``(workloads module, cells, expected, references)`` after set-up."""
    return worker.setup("smoke")


def _pass(smoke, **kwargs):
    workloads, cells, expected, references = smoke
    expected = kwargs.pop("expected", expected)
    observed, failures, _wall, _cpu = worker.run_pass(
        workloads, cells, expected, references, random.Random(7), **kwargs
    )
    return observed, failures


def _comparable(observed: dict) -> dict:
    """Answers without the fields that are timings."""
    return {
        cell: {k: v for k, v in answer.items() if k != "worker_cpu_s"}
        for cell, answer in observed.items()
    }


def test_smoke_pass_matches_its_pins(smoke):
    observed, failures = _pass(smoke)
    assert failures == []
    assert set(observed) == {cell.id for cell in smoke[1]}


def test_wrong_pin_and_raising_cell_both_count_as_failed(smoke):
    workloads, cells, expected, _ = smoke
    wrong = json.loads(json.dumps(expected))
    wrong["smoke/compiled"]["expect"]["states"] += 1

    def run_cell(cell):
        if cell.id == "smoke/reduced":
            raise RuntimeError("injected")
        return workloads.run_cell(cell)

    observed, failures = _pass(smoke, expected=wrong, run_cell=run_cell)
    by_cell = {failure["cell"]: failure for failure in failures}
    assert set(by_cell) == {"smoke/compiled", "smoke/reduced"}
    assert "states" in by_cell["smoke/compiled"]["problems"][0]
    assert "injected" in by_cell["smoke/reduced"]["exception"]
    # The other cells still ran and matched.
    assert {"smoke/vectorized", "smoke/emit"} <= set(observed)
    assert len(failures) / len(cells) == 0.5  # what failed_share reports


def _bindings(tracer):
    """Every object a probe could replace, as found right now."""
    import importlib

    found = {}
    for probe in tracer.probes:
        module = importlib.import_module(probe.module)
        if probe.owner:
            found[(probe.module, probe.owner, probe.attr)] = vars(
                getattr(module, probe.owner)
            )[probe.attr]
            continue
        original = getattr(module, probe.attr)
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro.") or mod is tracer.extra_modules[0]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        found[(name, None, attr)] = value
    return found


def test_wrappers_restore_every_binding_and_leave_counts_identical(smoke):
    workloads = smoke[0]
    tracer = layer_trace.Tracer(extra_modules=(workloads,))
    before = _bindings(tracer)
    plain, _ = _pass(smoke)
    with tracer.installed():
        patched = _bindings(tracer)
        assert all(patched.get(key) is not value for key, value in before.items())
        traced, failures = _pass(smoke, tracer=tracer)
    assert failures == []
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert _comparable(traced) == _comparable(plain)
    # The module-level re-exports were all found: generate is bound in
    # repro, repro.core, repro.core.generator and the harness itself.
    generate_bindings = [k for k in before if k[2] == "generate" and k[1] is None]
    assert len(generate_bindings) >= 4


def test_layer_self_times_sum_to_the_traced_pass(smoke):
    workloads, cells, expected, references = smoke
    tracer = layer_trace.Tracer(extra_modules=(workloads,))
    with tracer.installed():
        _, failures, wall, _ = worker.run_pass(
            workloads, cells, expected, references, random.Random(7), tracer=tracer
        )
    assert failures == []
    assert abs(layer_trace.layer_self_seconds(tracer) / wall - 1) < 0.05
    metrics = layer_trace.layer_metrics(tracer, passes=1)
    totals = tracer.layer_totals()
    # search.self_s is the verify span minus every wrapped call below it.
    assert metrics["search.self_s"] < metrics["verify.total_s"]
    assert metrics["kernel.enabled.calls"] == totals["kernel.enabled"][0] > 0
    assert metrics["canonical.canonicalize.calls"] > 0  # smoke/reduced
    assert 0 < metrics["store.new_share"] <= 1
    # Coarse spans nest: every verify span sits under a cell span.
    spans = tracer.spans
    for span in spans:
        if span["name"] == "verify":
            assert spans[span["parent"]]["name"] == layer_trace.CELL_LAYER
            assert span["start"] <= span["end"]


def test_bogus_probe_target_reads_null_and_is_listed_missing(smoke):
    workloads = smoke[0]
    probes = tuple(
        dataclasses.replace(p, attr="no_such_method") if p.layer == "kernel.enabled"
        else p
        for p in layer_trace.PROBES
    ) + (layer_trace.Probe("bogus.module", "repro.no_such_module", None, "f"),)
    tracer = layer_trace.Tracer(probes=probes, extra_modules=(workloads,))
    with tracer.installed():
        _, failures = _pass(smoke, tracer=tracer)
    assert failures == []
    assert tracer.probes_missing == ["kernel.enabled", "bogus.module"]
    metrics = layer_trace.layer_metrics(tracer, passes=1)
    assert metrics["kernel.enabled_s"] is None
    assert metrics["kernel.enabled.calls"] is None
    assert metrics["kernel.check.calls"] > 0


def _child_pids() -> set[int]:
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                children.add(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_parallel_cell_leaves_no_shm_segment_and_no_child(smoke):
    workloads, _, _, _ = smoke
    # The reduced 3c x 2a space: small (29 533 states) but with levels wide
    # enough to spin up the two-worker pool, like full-3c-par2.
    cell = workloads.Cell("leak", "MSI", "stalling", caches=3, accesses=2,
                          symmetry=True, strategy="parallel", processes=2)
    segments = set(os.listdir("/dev/shm"))
    children = _child_pids()
    answer = workloads.run_cell(cell)
    assert answer["ok"] and answer["states"] == 29533
    assert answer["stats"]["worker_states"], "the worker pool never spun up"
    assert set(os.listdir("/dev/shm")) == segments
    assert multiprocessing.active_children() == []
    from multiprocessing import resource_tracker

    # multiprocessing's resource tracker stays until exit by design.
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    assert _child_pids() - children <= {tracker}


def test_benchmark_json_names_what_the_harness_measures(smoke):
    workloads = smoke[0]
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == workloads.PUBLIC_WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layer_trace.METRICS
    )
    assert [m["name"] for m in spec["end_to_end"]] == [
        "pass_s", "pass_cpu_s", "peak_rss_mb", "setup_s"
    ]
    expected = worker.load_expected()
    for name in workloads.PUBLIC_WORKLOADS:
        for cell in workloads.WORKLOADS[name]["cells"]:
            assert cell.id in expected, f"{cell.id} has no pin"
            assert expected[cell.id]["pinned_by"]
    matrix = workloads.WORKLOADS["matrix-2c"]["cells"]
    assert len(matrix) == 86
    assert sum(1 for c in matrix if not expected[c.id]["expect"]["ok"]) == 4


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_prints_the_result_object_last(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "10", "--trace", trace],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.judge(steady, [1.02, 1.03, 1.01, 1.02], 0.10)[0] == "within"
    assert compare.judge(steady, [1.20, 1.21, 1.19, 1.20], 0.10)[0] == "worse"
    assert compare.judge(steady, [0.80, 0.81, 0.79, 0.80], 0.10)[0] == "better"
    noisy = [1.0, 1.3, 0.8, 1.2]
    assert compare.judge(noisy, [1.1, 0.9, 1.25, 1.0], 0.10)[0] == "unresolved"
    # Wider spread than the bound, but every run of B beats every run of A.
    assert compare.judge(noisy, [0.5, 0.6, 0.7, 0.55], 0.10)[0] == "better"
