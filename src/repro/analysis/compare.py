"""Comparison of a generated controller against a hand-written baseline.

Used for the Table VI experiment: compare the generated non-stalling MSI
cache controller against the primer's controller and report

* states present in one but not the other (the paper: ProtoGen adds
  ``IM_AD_S``, ``IM_AD_I``, ``IM_AD_SI``, ``SM_AD_S``);
* states the generator merged that the baseline keeps separate (the paper:
  ``IM_A_S = SM_A_S`` and friends);
* (state, event) cells where the baseline stalls but the generated controller
  does not -- the "stalls less often" claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fsm import AccessEvent, ControllerFsm, MessageEvent
from repro.dsl.types import AccessKind
from repro.protocols.primer import BaselineController, EVENTS


#: Mapping from the baseline's event-column names to generated-FSM stimuli.
_COLUMN_TO_EVENT = {
    "Load": AccessEvent(AccessKind.LOAD),
    "Store": AccessEvent(AccessKind.STORE),
    "Replacement": AccessEvent(AccessKind.REPLACEMENT),
    "Fwd_GetS": MessageEvent("Fwd_GetS"),
    "Fwd_GetM": MessageEvent("Fwd_GetM"),
    "Inv": MessageEvent("Inv"),
    "Put_Ack": MessageEvent("Put_Ack"),
    "Data_ack0": MessageEvent("Data"),
    "Data_acks": MessageEvent("Data"),
    "Inv_Ack": MessageEvent("Inv_Ack"),
    "Last_Inv_Ack": MessageEvent("Inv_Ack"),
}


@dataclass
class ComparisonReport:
    """Structural diff between a generated controller and a baseline."""

    generated_name: str
    baseline_name: str
    generated_states: set[str] = field(default_factory=set)
    baseline_states: set[str] = field(default_factory=set)
    extra_states: set[str] = field(default_factory=set)
    missing_states: set[str] = field(default_factory=set)
    merged_states: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: cells (state, column) stalled by the baseline but not by the generated FSM
    unstalled_cells: set[tuple[str, str]] = field(default_factory=set)
    #: cells stalled by the generated FSM but not by the baseline
    newly_stalled_cells: set[tuple[str, str]] = field(default_factory=set)


def _generated_names_with_aliases(fsm: ControllerFsm) -> dict[str, str]:
    """Map every generated name *and alias* to its canonical generated name."""
    names: dict[str, str] = {}
    for state in fsm.states():
        names[state.name] = state.name
        for alias in state.aliases:
            names[alias] = state.name
    return names


def _generated_cell_stalls(fsm: ControllerFsm, state: str, column: str) -> bool | None:
    """Whether the generated controller stalls in the cell; None if no entry."""
    event = _COLUMN_TO_EVENT.get(column)
    if event is None:
        return None
    candidates = fsm.candidates(state, event)
    if not candidates:
        return None
    return all(t.stall for t in candidates)


def compare_with_baseline(fsm: ControllerFsm, baseline: BaselineController) -> ComparisonReport:
    """Compare generated controller *fsm* against *baseline*."""
    alias_map = _generated_names_with_aliases(fsm)
    generated_states = {s.name for s in fsm.states()}
    baseline_states = set(baseline.states)

    report = ComparisonReport(
        generated_name=fsm.name,
        baseline_name=baseline.name,
        generated_states=generated_states,
        baseline_states=baseline_states,
    )

    # States the generator has that the baseline does not (matching by name or alias).
    for name in generated_states:
        state = fsm.state(name)
        known_names = {name, *state.aliases}
        if not (known_names & baseline_states):
            report.extra_states.add(name)

    # Baseline states that the generator covers only via a merge.
    for name in generated_states:
        state = fsm.state(name)
        merged = tuple(alias for alias in state.aliases if alias in baseline_states)
        if merged and name in baseline_states:
            report.merged_states[name] = merged

    # Baseline states with no counterpart at all.
    for name in baseline_states:
        if name not in alias_map:
            report.missing_states.add(name)

    # Stall-cell comparison over the baseline's grid.
    for state in baseline.states:
        generated_state = alias_map.get(state)
        if generated_state is None:
            continue
        for column in EVENTS:
            baseline_cell = baseline.cell(state, column)
            generated_stalls = _generated_cell_stalls(fsm, generated_state, column)
            if baseline_cell == "stall" and generated_stalls is False:
                report.unstalled_cells.add((state, column))
            if (
                baseline_cell is not None
                and baseline_cell != "stall"
                and generated_stalls is True
            ):
                report.newly_stalled_cells.add((state, column))
    return report
