"""``record_run`` writes where it is told to, and nowhere else.

E7/E9/E12 call it on every tier-1 run and ``BENCH_results.json`` is a
tracked file: a test run that appended to it left the work tree dirty.
"""

from bench_reporting import DEFAULT_RESULTS_PATH, load_results, record_run

from repro.verification import VerificationResult

RESULT = VerificationResult(
    ok=True, states_explored=10, transitions_explored=20, elapsed_seconds=0.5
)
CONFIG = dict(protocol="MSI", config="stalling", num_caches=2, accesses=1,
              symmetry=False)


def test_record_run_leaves_the_committed_file_alone(monkeypatch):
    monkeypatch.delenv("BENCH_RESULTS_PATH", raising=False)
    before = DEFAULT_RESULTS_PATH.read_bytes()
    entry = record_run("unit-test", RESULT, **CONFIG)
    assert entry["bench_id"] == "unit-test" and entry["states_per_second"] == 20
    assert DEFAULT_RESULTS_PATH.read_bytes() == before
    # Reads still default to the committed trajectory.
    assert load_results() == load_results(DEFAULT_RESULTS_PATH) != []


def test_record_run_appends_to_the_file_the_variable_names(monkeypatch, tmp_path):
    target = tmp_path / "results.json"
    monkeypatch.setenv("BENCH_RESULTS_PATH", str(target))
    before = DEFAULT_RESULTS_PATH.read_bytes()
    entry = record_run("unit-test", RESULT, **CONFIG)
    assert load_results(target) == [entry]
    assert load_results() == [entry]
    assert DEFAULT_RESULTS_PATH.read_bytes() == before
