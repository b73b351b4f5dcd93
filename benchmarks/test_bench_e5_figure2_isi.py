"""E5 -- Figure 2: the I->S transaction receiving an Invalidation (the ISI
situation): immediate Inv-Ack, one final load, then drop to I."""

from conftest import banner

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.core.fsm import MessageEvent
from repro.dsl.types import PerformAccess, Send, describe_action


def test_figure2_isi_immediate_transition_and_response():
    generated = generate(protocols.load("MSI"), GenerationConfig.nonstalling())
    cache = generated.cache

    banner("Figure 2 -- the I->S transition and the ISI state")
    print(f"  IS_D   State Sets: {sorted(cache.state('IS_D').state_sets)}")
    print(f"  IS_D_I State Sets: {sorted(cache.state('IS_D_I').state_sets)}")
    [inv] = cache.candidates("IS_D", MessageEvent("Inv"))
    print(f"  IS_D + Inv: {'; '.join(describe_action(a) for a in inv.actions)} "
          f"-> {inv.next_state}")
    for completion in cache.candidates("IS_D_I", MessageEvent("Data")):
        print(f"  IS_D_I + Data: {'; '.join(describe_action(a) for a in completion.actions)} "
              f"-> {completion.next_state}")

    assert inv.next_state == "IS_D_I"
    assert any(isinstance(a, Send) and a.message == "Inv_Ack" for a in inv.actions)
    assert set(cache.state("IS_D_I").state_sets) == {"I"}
    for completion in cache.candidates("IS_D_I", MessageEvent("Data")):
        assert completion.next_state == "I"
        assert any(isinstance(a, PerformAccess) for a in completion.actions)
