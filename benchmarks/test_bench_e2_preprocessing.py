"""E2 -- Tables III and IV: MOSI preprocessing (forwarded-request renaming).

The paper's example: in a natural MOSI SSP, Fwd_GetS can arrive at a cache in
both M and O; ProtoGen renames the O-state arrival to O_Fwd_GetS so a cache
can deduce the serialization order at the directory.
"""

from conftest import banner

from repro import protocols
from repro.core.preprocess import forwarded_arrival_states, preprocess


def test_mosi_forwarded_request_renaming():
    result = preprocess(protocols.load("MOSI"))

    original = protocols.load("MOSI")
    banner("Table III -- MOSI SSP before preprocessing")
    for message, states in forwarded_arrival_states(original).items():
        print(f"  {message:12s} arrives in stable states: {states}")

    banner("Table IV -- MOSI SSP after preprocessing")
    for message, states in forwarded_arrival_states(result.spec).items():
        print(f"  {message:12s} arrives in stable states: {states}")
    print(f"  renamings applied: {result.renamings}")

    assert result.renamings["Fwd_GetS"] == ["Fwd_GetS", "O_Fwd_GetS"]
    assert forwarded_arrival_states(result.spec)["O_Fwd_GetS"] == ["O"]
    assert forwarded_arrival_states(result.spec)["Fwd_GetS"] == ["M"]
