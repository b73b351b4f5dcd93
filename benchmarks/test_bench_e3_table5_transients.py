"""E3 -- Table V: transient states added in the absence of concurrency.

Regenerates the I->M transaction's transient chain (IM_AD, IM_A) and the
Step-2 State Sets listed in Section V-C.
"""

from conftest import banner

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.core.fsm import AccessEvent, MessageEvent
from repro.dsl.types import AccessKind, describe_action


def test_table5_transient_states_without_concurrency():
    generated = generate(protocols.load("MSI"), GenerationConfig.nonstalling())
    cache = generated.cache

    banner("Table V -- adding transient states (no concurrency), I->M transaction")
    [store] = cache.candidates("I", AccessEvent(AccessKind.STORE))
    print(f"  I     store: {'; '.join(describe_action(a) for a in store.actions)} "
          f"/ {store.next_state}")
    for state in ("IM_AD", "IM_A"):
        for transition in cache.candidates(state, MessageEvent("Data")) + cache.candidates(
            state, MessageEvent("Inv_Ack")
        ):
            guard = f"[{transition.event.guard}]" if transition.event.guard else ""
            print(f"  {state:6s} {transition.event.message}{guard}: -> {transition.next_state}")

    banner("Step-2 State Sets (paper Section V-C)")
    stable = [s.name for s in cache.stable_states()]
    for stable_state in stable:
        members = sorted(
            s.name for s in cache.states()
            if stable_state in s.state_sets and not s.meta.get("chain") and not s.meta.get("stale")
        )
        print(f"  {stable_state} = {{{', '.join(members)}}}")

    assert store.next_state == "IM_AD"
    assert {t.next_state for t in cache.candidates("IM_AD", MessageEvent("Data"))} == {"M", "IM_A"}
    assert set(cache.state("IM_AD").state_sets) == {"I", "M"}
    assert set(cache.state("IM_A").state_sets) == {"M"}
