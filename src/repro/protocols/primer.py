"""Hand-written baseline: the primer's MSI cache controllers.

These tables transcribe the *primer* (Sorin, Hill & Wood, "A Primer on Memory
Consistency and Cache Coherence") behaviour shown in the paper's Table VI --
the non-bold / struck-through entries -- and serve as the comparison baseline
for experiment E6 (Table VI) and the Section VI-A/VI-B claims:

* the primer's **non-stalling** MSI cache controller has 18 states and still
  stalls forwarded requests in ``IM^AD`` and ``SM^AD``;
* ProtoGen's generated controller stalls less (it has the extra states
  ``IM^AD_S``, ``IM^AD_I``, ``IM^AD_SI``, ``SM^AD_S``) and merges
  ``IM^A_S = SM^A_S``-style pairs.

Each cell is ``None`` (impossible / blank in the table), the string
``"stall"``, or a ``(action text, next state)`` pair.  The action text is
informal -- the baseline is used for *structural* comparison (states, stalls,
targets), not for execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Column order of the primer table (paper Table VI).
EVENTS = (
    "Load",
    "Store",
    "Replacement",
    "Fwd_GetS",
    "Fwd_GetM",
    "Inv",
    "Put_Ack",
    "Data_ack0",
    "Data_acks",
    "Inv_Ack",
    "Last_Inv_Ack",
)

Cell = None | str | tuple[str, str]


@dataclass
class BaselineController:
    """A hand-written controller table used as a comparison baseline."""

    name: str
    rows: dict[str, dict[str, Cell]] = field(default_factory=dict)

    @property
    def states(self) -> list[str]:
        return list(self.rows)

    @property
    def num_states(self) -> int:
        return len(self.rows)

    def cell(self, state: str, event: str) -> Cell:
        return self.rows.get(state, {}).get(event)

    def stall_cells(self) -> set[tuple[str, str]]:
        return {
            (state, event)
            for state, row in self.rows.items()
            for event, cell in row.items()
            if cell == "stall"
        }

    @property
    def num_stalls(self) -> int:
        return len(self.stall_cells())

    def transitions(self) -> int:
        return sum(
            1
            for row in self.rows.values()
            for cell in row.values()
            if cell is not None and cell != "stall"
        )


def _row(**cells: Cell) -> dict[str, Cell]:
    unknown = set(cells) - set(EVENTS)
    if unknown:
        raise ValueError(f"unknown events {unknown}")
    return {event: cells.get(event) for event in EVENTS}


def nonstalling_msi_cache() -> BaselineController:
    """The primer's non-stalling MSI cache controller (Table VI, non-bold entries)."""
    rows = {
        "I": _row(Load=("send GetS to Dir", "IS_D"), Store=("send GetM to Dir", "IM_AD")),
        "IS_D": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv=("send Inv-Ack to Req", "IS_D_I"),
            Data_ack0=("-", "S"), Data_acks=("-", "S"),
        ),
        "IS_D_I": _row(
            Load="stall", Store="stall", Replacement="stall",
            Data_ack0=("-", "I"), Data_acks=("-", "I"),
        ),
        "IM_AD": _row(
            Load="stall", Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall",
            Data_ack0=("-", "M"), Data_acks=("-", "IM_A"), Inv_Ack=("ack--", "IM_AD"),
        ),
        "IM_A": _row(
            Load="stall", Store="stall", Replacement="stall",
            Fwd_GetS=("-", "IM_A_S"), Fwd_GetM=("-", "IM_A_I"),
            Inv_Ack=("ack--", "IM_A"), Last_Inv_Ack=("-", "M"),
        ),
        "IM_A_S": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv=("send Inv-Ack to Req", "IM_A_SI"),
            Inv_Ack=("ack--", "IM_A_S"),
            Last_Inv_Ack=("send Data to Req and Dir", "S"),
        ),
        "IM_A_SI": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv_Ack=("ack--", "IM_A_SI"),
            Last_Inv_Ack=("send Data to Req and Dir", "I"),
        ),
        "IM_A_I": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv_Ack=("ack--", "IM_A_I"),
            Last_Inv_Ack=("send Data to Req", "I"),
        ),
        "S": _row(
            Load=("hit", "S"), Store=("send GetM to Dir", "SM_AD"),
            Replacement=("send PutS to Dir", "SI_A"),
            Inv=("send Inv-Ack to Req", "I"),
        ),
        "SM_AD": _row(
            Load=("hit", "SM_AD"), Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall",
            Inv=("send Inv-Ack to Req", "IM_AD"),
            Data_ack0=("-", "M"), Data_acks=("-", "SM_A"), Inv_Ack=("ack--", "SM_AD"),
        ),
        "SM_A": _row(
            Load=("hit", "SM_A"), Store="stall", Replacement="stall",
            Fwd_GetS=("-", "SM_A_S"), Fwd_GetM=("-", "SM_A_I"),
            Inv_Ack=("ack--", "SM_A"), Last_Inv_Ack=("-", "M"),
        ),
        "SM_A_S": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv=("send Inv-Ack to Req", "SM_A_SI"),
            Inv_Ack=("ack--", "SM_A_S"),
            Last_Inv_Ack=("send Data to Req and Dir", "S"),
        ),
        "SM_A_SI": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv_Ack=("ack--", "SM_A_SI"),
            Last_Inv_Ack=("send Data to Req and Dir", "I"),
        ),
        "SM_A_I": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv_Ack=("ack--", "SM_A_I"),
            Last_Inv_Ack=("send Data to Req", "I"),
        ),
        "M": _row(
            Load=("hit", "M"), Store=("hit", "M"),
            Replacement=("send PutM + Data to Dir", "MI_A"),
            Fwd_GetS=("send Data to Req and Dir", "S"),
            Fwd_GetM=("send Data to Req", "I"),
        ),
        "MI_A": _row(
            Load="stall", Store="stall", Replacement="stall",
            Fwd_GetS=("send Data to Req and Dir", "SI_A"),
            Fwd_GetM=("send Data to Req", "II_A"),
            Put_Ack=("-", "I"),
        ),
        "SI_A": _row(
            Load="stall", Store="stall", Replacement="stall",
            Inv=("send Inv-Ack to Req", "II_A"),
            Put_Ack=("-", "I"),
        ),
        "II_A": _row(
            Load="stall", Store="stall", Replacement="stall",
            Put_Ack=("-", "I"),
        ),
    }
    return BaselineController(name="primer-nonstalling-MSI-cache", rows=rows)


#: The cells where the paper reports ProtoGen stalls less than the primer's
#: non-stalling protocol (Table VI, bold entries replacing struck-out stalls).
PROTOGEN_UNSTALLED_CELLS = {
    ("IM_AD", "Fwd_GetS"),
    ("IM_AD", "Fwd_GetM"),
    ("SM_AD", "Fwd_GetS"),
    ("SM_AD", "Fwd_GetM"),
}

#: State pairs the paper reports ProtoGen merged relative to the primer.
PROTOGEN_MERGED_PAIRS = {
    ("IM_A_S", "SM_A_S"),
    ("IM_A_SI", "SM_A_SI"),
    ("IM_A_I", "SM_A_I"),
}

#: Extra transient states the paper reports in ProtoGen's generated protocol.
PROTOGEN_EXTRA_STATES = {"IM_AD_S", "IM_AD_I", "IM_AD_SI", "SM_AD_S"}
