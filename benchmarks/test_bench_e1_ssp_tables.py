"""E1 -- Tables I and II: the atomic MSI stable state protocol.

Regenerates the content of the paper's input tables from the bundled MSI SSP,
built and strictly validated (the "front end" of the tool).
"""

from conftest import banner

from repro import protocols
from repro.dsl.types import AccessKind, describe_action
from repro.dsl.validation import validate_protocol


def _build_and_validate():
    spec = protocols.load("MSI")
    validate_protocol(spec, strict=True)
    return spec


def test_table1_and_table2_msi_ssp():
    spec = _build_and_validate()

    banner("Table I -- specification of cache in atomic MSI protocol")
    cache = spec.cache
    for state in cache.state_names():
        row = [f"state {state}:"]
        for access in (AccessKind.LOAD, AccessKind.STORE, AccessKind.REPLACEMENT):
            transaction = cache.transaction_for(state, access)
            if transaction is not None and transaction.request is not None:
                row.append(f"{access}: send {transaction.request.message} "
                           f"-> {transaction.final_state}")
            elif cache.state(state).permission.allows(access):
                row.append(f"{access}: hit")
        for reaction in (r for r in cache.reactions if r.state == state):
            actions = ", ".join(describe_action(a) for a in reaction.actions)
            row.append(f"{reaction.message}: {actions} -> {reaction.next_state}")
        print("  " + " | ".join(row))

    banner("Table II -- specification of directory in atomic MSI protocol")
    directory = spec.directory
    for state in directory.state_names():
        row = [f"state {state}:"]
        for reaction in (r for r in directory.reactions if r.state == state):
            actions = ", ".join(describe_action(a) for a in reaction.actions)
            guard = f" [{reaction.guard}]" if reaction.guard else ""
            row.append(f"{reaction.message}{guard}: {actions} -> {reaction.next_state}")
        for transaction in directory.transactions_from(state):
            row.append(
                f"{transaction.initiator}: forward and wait -> {transaction.final_state}"
            )
        print("  " + " | ".join(row))

    # Shape checks mirroring the paper's tables.
    assert set(cache.state_names()) == {"I", "S", "M"}
    assert set(directory.state_names()) == {"I", "S", "M"}
    assert cache.transaction_for("I", AccessKind.LOAD).request.message == "GetS"
    assert directory.transaction_for("M", "GetS") is not None
