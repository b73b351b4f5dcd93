"""E4 -- Figure 1: the S->M transaction when the other transaction was
ordered earlier (Case 1): SM_AD + Inv responds immediately and restarts the
own transaction from IM_AD."""

from conftest import banner

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.core.fsm import MessageEvent
from repro.dsl.types import describe_action


def test_figure1_case1_earlier_ordered_transaction():
    generated = generate(protocols.load("MSI"), GenerationConfig.nonstalling())
    cache = generated.cache

    banner("Figure 1 -- cache S->M transaction with T_other -> T_own")
    for state in ("S", "SM_AD", "IM_AD", "IM_A", "M"):
        sets = ",".join(sorted(cache.state(state).state_sets))
        print(f"  state {state:7s} in State Sets {{{sets}}}")
    [inv] = cache.candidates("SM_AD", MessageEvent("Inv"))
    print(
        f"  SM_AD + Inv: {'; '.join(describe_action(a) for a in inv.actions)} "
        f"-> {inv.next_state}"
    )

    assert inv.next_state == "IM_AD"
    assert not inv.stall
    assert set(cache.state("SM_AD").state_sets) == {"S", "M"}
    assert set(cache.state("IM_AD").state_sets) == {"I", "M"}
