"""Names the design removed stay removed.

Each row of :data:`GUARDS` is ``(pattern, scope, reason)``: no line of a
file under *scope* (a directory or one file, relative to the repository
root) matches *pattern*, an extended regular expression searched line by
line as ``grep -rnE`` would.  A match means a second implementation of
something that has one home is growing back; the reason says which.

Standard library only.  Byte-compiled caches are skipped, and so is this
module, whose table spells the patterns out.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SYSTEM_VALUES = ("src/repro/system/message.py", "src/repro/system/node_state.py",
                 "src/repro/system/network.py")


def module_names_under_tests() -> str:
    """Every module name under ``tests/``, as one alternation."""
    return "|".join(sorted({p.stem for p in (ROOT / "tests").rglob("*.py")}))


GUARDS = [
    # One production interpretation of a protocol: the compiled kernel is
    # the only code in src/ that executes a transition.
    (r"executor|\.apply\(", ("src",),
     "src/ names an executor or calls .apply( again: the object-level "
     "executor is the tests' oracle (tests/verification/reference_system.py)"),
    (r"_emit_net|_enabled_general|_replay|_apply_(duplicate|reorder)_plan|\b_simple\b",
     ("src",),
     "src/ has a second successor construction again: every configuration "
     "splices a successor out of its parent's key"),
    (r"def (send|deliverable|deliver|deliver_at|duplicate|reorderable|reorder"
     r"|in_flight|with_state)\b", ("src/repro/system",),
     "src/repro/system steps a network or a node state again: only the "
     "tests' reference network steps, and every splice is held to it"),
    (r"emit_net|reference_network", ("src", "tests"),
     "a second network oracle is back"),
    (r"_edited|_START_SKIP|_parse_planes", ("src",),
     "src/ re-parses plane combinations or splices through an edit list "
     "again: a section is parsed once, and a splice writes it front to back"),
    (r"_signature_orbit|_ORDER3|has_saved_ids|encodings_of|def parsed_network",
     ("src",),
     "src/ has a second region classifier or a test-only codec helper again"),
    (r"def (relabeled|sort_key|writers_and_readers|message_sort_key"
     r"|relabel_event)\b", ("src",),
     "src/ has an object-level relabel, sort key or invariant predicate "
     "again: the kernel words violations and the canonicalizer ranks keys"),
    (r"def (is_quiescent|is_complete)\b", ("src/repro/system/system.py",),
     "System has an object-level state predicate again"),
    (r"def (encoded|from_encoded|encode_event|encode_packed|decode_packed"
     r"|initial_state|make_network|empty|_asked|accesses_starting_transactions"
     r"|request_messages|resolve_state)\b|COMPILED_INVARIANTS", ("src",),
     "src/ has an object-to-key path, a test-only helper or a second "
     "invariant compile rule again: the codec owns the key layout"),
    (r"^(CF_[A-Z_]+|[A-Z_]*_ENCODED_WIDTH)\s*=", SYSTEM_VALUES,
     "a lane constant is defined outside system/codec.py again"),
    (r"StateSets|reinterpretations", ("src",),
     "src/ keeps write-only generator bookkeeping again: each state carries "
     "its State-Set membership, and the directory derives reinterpretation "
     "from the SSP"),
    (r"^\s*(from|import)\s+(tests|" + module_names_under_tests() + r")\b", ("src",),
     "a module under src/ imports from tests/"),
    # One conformance matrix: whole searches are held to reference_search
    # in tests/verification/test_conformance.py alone.
    (r"def (_workload|_invariants|_plain_invariants|_search_checked|_counts)\b",
     ("tests",),
     "a test module defines its own parity helper again; add a cell or a "
     "mode to test_conformance.py"),
    # Mutants rebuild a controller through its public calls, so an index
    # the controller adds later is rebuilt too.
    (r"\.(_transitions|_index|_by_state)\b", ("tests",),
     "a test writes ControllerFsm's private tables again; rebuild the "
     "controller through its constructor, add_state and add_transition"),
]


def files_in(scope: str):
    path = ROOT / scope
    if path.is_file():
        yield path
        return
    for file in sorted(path.rglob("*")):
        if (file.is_file() and "__pycache__" not in file.parts
                and file != Path(__file__).resolve()):
            yield file


def matches(pattern: str, scopes) -> list[str]:
    """``path:line: text`` of every line under *scopes* matching *pattern*."""
    regex = re.compile(pattern)
    found = []
    for scope in scopes:
        for file in files_in(scope):
            try:
                lines = file.read_text().splitlines()
            except UnicodeDecodeError:
                continue
            found += [f"{file.relative_to(ROOT)}:{n}: {line.strip()}"
                      for n, line in enumerate(lines, 1) if regex.search(line)]
    return found


@pytest.mark.parametrize("pattern, scopes, reason", GUARDS,
                         ids=[f"{scopes[0]}:{pattern[:40]}"
                              for pattern, scopes, _ in GUARDS])
def test_removed_name_stays_removed(pattern, scopes, reason):
    found = matches(pattern, scopes)
    assert not found, reason + ":\n" + "\n".join(found)
