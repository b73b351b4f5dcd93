"""Production reach: every function in ``src/`` is entered by a user's run,
or :data:`ALLOWLIST` says why not.

The runs (:func:`user_runs`) are what a user runs: ``generate ->
compiled() -> emit_murphi`` / ``emit_dot`` and a 2-cache ``verify()`` for
every bundled protocol and policy, then one cell per axis (faults, two
addresses, litmus programs, reduced 3-cache searches on both kernels),
budgets with and without a checkpoint, DFS, the fleet, expected failures,
a user ``(system, state)`` predicate, ``random_walk`` with coverage and the
two fast examples.  They run in one child process (so import-time calls
count and no earlier test has warmed a cache) under :func:`sys.setprofile`,
which records every Python code object entered.  A code object is matched
to the ``def`` that :mod:`ast` finds in ``src/`` by file, first line and
name (:func:`defs_in`).

The test fails on an unreached function missing from the allowlist and on
an allowlisted function that was reached, so the list cannot go stale.
When a new user path appears, add a run to :func:`user_runs` rather than
an entry here.  Standard library only: the child process is this file run
as a script.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: What may keep an unreached function in ``src/``.  Every
#: :data:`ALLOWLIST` reason starts with one of these.
ERROR = "error or refusal path"
DOCUMENTED = "documented in README or an example"
PROBE = "called only by a bench/ probe"

#: The one module-wide entry: every function of the module may go
#: unreached, but not all of them.
MODULE_WIDE = {
    "repro.verification.engine.parallel":
        "the fleet's workers run in forked children the profiler does not see",
}

#: Unreached function -> why it stays in ``src/``.
ALLOWLIST: dict[str, str] = {
    "repro.dsl.validation.ValidationReport.error":
        f"{ERROR}: records what is wrong with an invalid SSP",
    "repro.system.codec.StateCodec.overflow":
        f"{ERROR}: the LaneOverflow for a value too wide for its lane",
    "repro.system.kernel.TransitionKernel._error":
        f"{ERROR}: words a generated function's failure code",
    "repro.system.kernel.TransitionKernel._apply_overflow":
        f"{ERROR}: raises a plan's LaneOverflow when it is applied",
    "repro.system.codec.StateCodec.encode":
        f"{PROBE}: codec.encode (bench/trace.py)",
    "repro.system.codec.StateCodec.encode.record":
        f"{PROBE}: part of StateCodec.encode",
    "repro.system.codec._opt_lane":
        f"{PROBE}: used only by StateCodec.encode",
    "repro.system.codec._pair":
        f"{PROBE}: used only by StateCodec.encode",
    "repro.system.codec.StateCodec.relabel_via_tables":
        f"{PROBE}: codec.relabel_via_tables (bench/trace.py)",
    "repro.verification.engine.store.StateStore.intern_children":
        f"{PROBE}: store.intern_children (bench/trace.py)",
}


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def defs_in(root: Path) -> dict[tuple[str, int, str], str]:
    """Every ``def`` under *root*: ``(file, first line, name)`` -> its
    dotted name.  The first line is the first decorator's, as it is for the
    code object's ``co_firstlineno``."""
    found: dict[tuple[str, int, str], str] = {}

    def visit(node, prefix: str, filename: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = f"{prefix}.{child.name}"
                found[(filename, first, child.name)] = name
                visit(child, name, filename)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", filename)
            else:
                visit(child, prefix, filename)

    for path in sorted(root.rglob("*.py")):
        filename = os.path.realpath(path)
        visit(ast.parse(path.read_text(), filename),
              _module_name(path, root), filename)
    return found


def key_of(code) -> tuple[str, int, str]:
    """The :func:`defs_in` key a code object matches."""
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


@contextlib.contextmanager
def profiled(codes: set):
    """Add to *codes* every Python code object entered inside the block."""

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield codes
    finally:
        sys.setprofile(None)


def unreached(defs: dict, codes) -> set[str]:
    """The dotted names of the *defs* that no code in *codes* entered."""
    entered = {key_of(code) for code in codes}
    return {name for key, name in defs.items() if key not in entered}


def user_runs(mutants: dict, scratch: str) -> None:
    """What a user runs.  *mutants* are broken protocols (built by the
    tests' helpers outside the profiled region); *scratch* is a directory
    for checkpoint files."""
    from repro import protocols
    from repro.backends import emit_dot, emit_murphi
    from repro.core import GenerationConfig, generate
    from repro.dsl.types import AccessKind
    from repro.system import FaultModel, System, Workload
    from repro.verification import LITMUS_TESTS, random_walk, verify

    from verification_helpers import invariants_for, never_fires, workload_for

    def expect(result, ok=True):
        assert result.ok is ok, result.summary
        print(result.summary)
        for event in result.trace:
            print(event)
        return result

    generated = {}
    for name in protocols.available_protocols():
        spec = protocols.load(name)
        for policy, config in (("nonstalling", GenerationConfig.nonstalling()),
                               ("stalling", GenerationConfig.stalling())):
            protocol = generated[(name, policy)] = generate(spec, config)
            protocol.compiled()
            emit_murphi(protocol, num_caches=3)
            emit_dot(protocol.cache)
            emit_dot(protocol.directory, include_stalls=True)
            expect(verify(System(protocol, num_caches=2,
                                 workload=workload_for(name)),
                          invariants=invariants_for(name)))

    msi = generated[("MSI", "nonstalling")]
    stalling = generated[("MSI", "stalling")]
    one = Workload(max_accesses_per_cache=1)
    # Faults: a passing duplicate cell, the failing 3-cache one (a duplicated
    # Inv_Ack counted twice), re-queue and strict-order reorder.
    expect(verify(System(msi, num_caches=2, workload=one,
                         faults=FaultModel(duplicate=True))))
    expect(verify(System(msi, num_caches=3, workload=one,
                         faults=FaultModel(duplicate=True))), ok=False)
    expect(verify(System(stalling, num_caches=2,
                         faults=FaultModel(reorder=True))))
    expect(verify(System(stalling, num_caches=2, faults=FaultModel(
        reorder=True, requeue=False))), ok=False)
    expect(verify(System(msi, num_caches=2, workload=one, num_addresses=2)))
    for litmus in LITMUS_TESTS:
        test = litmus()
        expect(verify(System(stalling, num_caches=2, workload=test.workload),
                      invariants=test.invariants()))

    load_store = Workload(max_accesses_per_cache=1,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE))
    three = System(msi, num_caches=3, workload=load_store)
    for kernel in ("compiled", "vectorized"):
        expect(verify(three, symmetry=True, kernel=kernel))
    expect(verify(System(generated[("MSI-Unordered", "nonstalling")],
                         num_caches=3, workload=load_store), symmetry=True))

    # Budgets: a checkpointed leg and its resume, and a clipped level.
    for kernel in ("compiled", "vectorized"):
        path = os.path.join(scratch, f"{kernel}.ckpt")
        leg = verify(System(msi, num_caches=2), max_states=500,
                     checkpoint=path, kernel=kernel)
        assert leg.partial, leg.summary
        expect(verify(System(msi, num_caches=2), max_states=500,
                      checkpoint=path, kernel=kernel))
        assert verify(System(msi, num_caches=2), max_states=500,
                      kernel=kernel).partial

    expect(verify(System(msi, num_caches=2), strategy="dfs"))
    # Expected failures: a violation on the fleet and reduced (its trace is
    # concretized), and a protocol error the batch kernel replays per state.
    swmr = System(mutants["swmr"], num_caches=2)
    expect(verify(swmr, strategy="parallel"), ok=False)
    expect(verify(swmr, symmetry=True), ok=False)
    expect(verify(System(mutants["missing-inv"], num_caches=2),
                  kernel="vectorized"), ok=False)
    expect(verify(System(msi, num_caches=2, workload=one),
                  invariants=(never_fires,)))
    walk = random_walk(System(msi, num_caches=3), runs=20, max_steps=60,
                       seed=1, track_coverage=True)
    assert walk.ok, walk.summary
    print(walk.summary)

    for example in ("quickstart.py", "compare_with_primer.py"):
        runpy.run_path(str(ROOT / "examples" / example), run_name="__main__")


def run_reach() -> set[str]:
    """The dotted names :func:`main` reports unreached, from a child
    process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(ROOT / "tests" / "verification")]))
    child = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_every_function_in_src_is_reached_or_allowlisted():
    defs = defs_in(SRC)
    assert len(set(defs.values())) == len(defs), "two defs share a name"
    missed = run_reach()
    wide = {name for name in missed
            if any(name.startswith(module + ".") for module in MODULE_WIDE)}
    unlisted = sorted(missed - wide - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - missed) + [
        module for module in MODULE_WIDE
        if not any(name.startswith(module + ".") for name in wide)]
    assert not unlisted, (
        "unreached by every user run and not allowlisted -- delete it, move "
        "it beside the tests, or add the run that reaches it:\n  "
        + "\n  ".join(unlisted))
    assert not stale, (
        "allowlisted but reached -- drop the entry:\n  " + "\n  ".join(stale))
    assert all(reason.startswith((ERROR, DOCUMENTED, PROBE))
               for reason in ALLOWLIST.values())


SAMPLE = """\
def fn():  # the exec-generated fn below has this line and name
    return 0


def decorate(function):
    def wrapper(*args):
        return function(*args)
    return wrapper


@decorate
def decorated():
    return 1


@decorate
def decorated_idle():
    return 2


class Box:
    @property
    def value(self):
        return 3

    @property
    def idle(self):
        return 4


def outer():
    def inner():
        return 5

    def inner_idle():
        return 6

    return inner()


def generated():
    namespace = {}
    exec("def fn():\\n    return 7\\n", namespace)
    return namespace["fn"]()
"""


def test_the_matcher_classifies_each_kind_of_def(tmp_path):
    """A decorated function's code starts at its first decorator, a
    property is a def, a nested def is its own code object, and an
    ``exec``-generated function (the kernel's kind) matches no def in
    ``src/``, even one with its name and first line."""
    (tmp_path / "sample.py").write_text(SAMPLE)
    defs = defs_in(tmp_path)
    codes: set = set()
    sys.path.insert(0, str(tmp_path))
    try:
        with profiled(codes):
            import sample
            sample.decorated()
            assert sample.Box().value == 3
            sample.outer()
            assert sample.generated() == 7
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("sample", None)
    assert len(defs) == 11
    assert unreached(defs, codes) == {
        "sample.fn", "sample.decorated_idle", "sample.Box.idle",
        "sample.outer.inner_idle",
    }


def main() -> None:
    """Print the dotted names of the ``src/`` functions no user run enters,
    as one JSON list on the last line."""
    defs = defs_in(SRC)
    codes: set = set()
    with contextlib.redirect_stdout(io.StringIO()):
        with profiled(codes):
            import repro.analysis, repro.backends, repro.verification  # noqa: F401
        # The tests' helpers choose cells and break protocols; what they
        # call themselves is not a user's run.
        from repro import protocols
        from verification_helpers import make_missing_inv_mutant, make_swmr_mutant
        mutants = {"swmr": make_swmr_mutant(protocols.load("MSI")),
                   "missing-inv": make_missing_inv_mutant(protocols.load("MSI"))}
        with tempfile.TemporaryDirectory() as scratch, profiled(codes):
            user_runs(mutants, scratch)
    print(json.dumps(sorted(unreached(defs, codes))))


if __name__ == "__main__":
    main()
