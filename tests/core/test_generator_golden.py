"""Golden digests of the generator's output.

Every generated controller is dumped in a canonical text form -- states in
insertion order (kind, permission, State Sets, aliases, meta), transitions in
insertion order (state, event, actions, next state, stall, absorb) -- together
with the message catalog and the preprocessing renamings, and the dump's
sha256 is pinned per configuration.  Insertion order is part of the output:
Murphi rule names carry a transition's index.

The grid is every bundled protocol x every concurrency policy x hardening
on / off, plus MSI with each non-default generator knob.  A refactor of
``repro.core`` or ``repro.dsl`` must leave every digest unchanged; a change
that is meant to alter generated protocols updates the pins in the same
commit, and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import protocols
from repro.core import ConcurrencyPolicy, GenerationConfig, generate


def _sets(values) -> str:
    return "{" + ",".join(sorted(values)) + "}"


def _dump_fsm(fsm) -> list[str]:
    lines = [f"fsm {fsm.name} {fsm.kind!r} initial={fsm.initial}"]
    for state in fsm.states():
        meta = ",".join(f"{key}={state.meta[key]!r}" for key in sorted(state.meta))
        lines.append(
            f"state {state.name} {state.kind!r} {state.permission!r} "
            f"sets={_sets(state.state_sets)} aliases={state.aliases!r} meta={meta}"
        )
    for t in fsm.transitions():
        lines.append(
            f"transition {t.state} {t.event!r} {t.actions!r} -> {t.next_state} "
            f"stall={t.stall} absorb={t.absorb}"
        )
    return lines


def dump(generated) -> str:
    lines = [f"protocol {generated.name}"]
    lines += _dump_fsm(generated.cache)
    lines += _dump_fsm(generated.directory)
    lines += [f"message {message!r}" for message in generated.messages]
    lines += [f"renaming {key} -> {value!r}" for key, value in generated.renamings.items()]
    return "\n".join(lines) + "\n"


def digest(generated) -> str:
    return hashlib.sha256(dump(generated).encode()).hexdigest()


_POLICIES = {
    "stalling": ConcurrencyPolicy.STALLING,
    "deferred": ConcurrencyPolicy.NONSTALLING_DEFERRED,
    "immediate": ConcurrencyPolicy.NONSTALLING_IMMEDIATE,
}

_KNOBS = {
    "no-merge": dict(merge_equivalent_states=False),
    "no-transient-access": dict(allow_transient_accesses=False),
    "no-stale-put": dict(generate_stale_put_handling=False),
    "limit-1": dict(pending_transaction_limit=1),
}


def _grid() -> dict[str, tuple[str, GenerationConfig]]:
    grid = {}
    for name in protocols.available_protocols():
        for label, policy in _POLICIES.items():
            for harden in (True, False):
                key = f"{name}/{label}/{'hardened' if harden else 'plain'}"
                grid[key] = (name, GenerationConfig(policy=policy, harden=harden))
    for label, knob in _KNOBS.items():
        grid[f"MSI/immediate/hardened/{label}"] = ("MSI", GenerationConfig(**knob))
    return grid


GRID = _grid()

PINNED: dict[str, str] = {
    "MESI/deferred/hardened":
        "bce40bd07011c4876b4ad657fe88de36a183734bd2179a7f547f0281e2fd36bd",
    "MESI/deferred/plain":
        "a587911acd7d38f75446977c986c1f460e979572939fbfee3e6eaaa9c5967d18",
    "MESI/immediate/hardened":
        "74143b5c4687ddb4aa7586109028a0d0c2c028c6876525b5ee4f49d8317eae2d",
    "MESI/immediate/plain":
        "e81e8d6f2ea6ce826569161617655051f3de34950d72cab07fbd32c32806ad70",
    "MESI/stalling/hardened":
        "bfb36be511620e03097bdaaff4f9bfe21733695d52e34fcbc658572565f44013",
    "MESI/stalling/plain":
        "f1cc4c7239f5a2bc54d9e94253d646b33d60295b61eab0abe5e3f9e6371d4fb4",
    "MOSI/deferred/hardened":
        "0c10d8d02338b3ea66852217791cd55423a80ffd5aefcb3409f0db94a182984b",
    "MOSI/deferred/plain":
        "628da49c15e23964c2cb261b87887439a152531debb9dd0133093bc2e0c94885",
    "MOSI/immediate/hardened":
        "d070c2f50aca0771a0614571cc95f448dac49f94193891a17cf056be8c83beaa",
    "MOSI/immediate/plain":
        "f88c1162b1e59b66bdc837be6fe5296cc7c4b7c87a52db770d16719da6b88f46",
    "MOSI/stalling/hardened":
        "4967d855af79042a330051d573227a0094d88cb78e28be0efff31d313863cc4e",
    "MOSI/stalling/plain":
        "c461a2567213d737a0d0d3210e435d1ceb088915079080727e7d4e390f85e086",
    "MSI-Unordered/deferred/hardened":
        "f780860264a172888f205f632a10a627ec522e2844e15455f3408d86df7f1577",
    "MSI-Unordered/deferred/plain":
        "b22b99302983f5b4427381732b9a5dfe3044ace521f909128d5c69a578092814",
    "MSI-Unordered/immediate/hardened":
        "f0c38a59b3beb143f2a3fecd99c829bce33ae279025042c8ad837dc40cf8a717",
    "MSI-Unordered/immediate/plain":
        "cdd510a1299126717a0b1cc00e27797dbd781a71f80c926b593cd891c19c23ea",
    "MSI-Unordered/stalling/hardened":
        "36d22bb2e2aac4871db2279db84202a3aa853f991521a1e9084c9cd9f3e055cc",
    "MSI-Unordered/stalling/plain":
        "a058963a554d88596385e5dc137f9625d52f5b2d5009f83e7a655f1a950f6709",
    "MSI-Upgrade/deferred/hardened":
        "3c43de5e3234d6e671228a9628ca05bec1eefd654fbbc96656b70b2a1d93ac9e",
    "MSI-Upgrade/deferred/plain":
        "cd4b9361ddf77cc9a5a01034df92043aad4477ecc424bce222063c2e7df22b6a",
    "MSI-Upgrade/immediate/hardened":
        "9bda2bcfb195bab52e2f81aee158b305809901a78103f0c8cadffe31f85100da",
    "MSI-Upgrade/immediate/plain":
        "f0ee0d1c2c165f997693d9ef123de7db7c88573b20c2584cd2792b5bb1784176",
    "MSI-Upgrade/stalling/hardened":
        "87222651347eebe2a3b8c55223f643cf64f0062a79e38b2554edbafa23b918e6",
    "MSI-Upgrade/stalling/plain":
        "64de8b7b0b344ea39b59c98cf73bbe4bf69ff9aefaee636e43c554ae6d8908cd",
    "MSI/deferred/hardened":
        "b5e53878e6ec9c0d35d1dd4bf7b98c974a31ea544a8ae8c9913011c9a289c90c",
    "MSI/deferred/plain":
        "4dc4eaf57db3ede1992965f6c1273b47b2e021bb71e747a9de62c0eab0299359",
    "MSI/immediate/hardened":
        "4448a2c97a40e88fa63effc201a182488ca9b052a6b67fba028281f4d9b87c10",
    "MSI/immediate/hardened/limit-1":
        "db2ab5b0bb6b5980c88b54dc98403ffcfef230e1fbc684ce7a3f2f271f518467",
    "MSI/immediate/hardened/no-merge":
        "984e5d5d86c20bbd88ababfdf15db85ac86c024ccde381c7f1b54a53f5da87b2",
    "MSI/immediate/hardened/no-stale-put":
        "eb0b42a1891c6584de3cdbc5d38247c6ebc51095fb90eafe40fe536da436aba6",
    "MSI/immediate/hardened/no-transient-access":
        "02e58e281a4916be93ac6e679bcc37c49448eca4caaeb00e901bf79c6b7a40db",
    "MSI/immediate/plain":
        "6f2ce2ce51ece3b58536c9dbe8c5163c2cb26ab31306e68d68db75ab91b55401",
    "MSI/stalling/hardened":
        "d08d623e9767a5e578fdacf5d43de91357076d80ec0edcd9da866c5789470b81",
    "MSI/stalling/plain":
        "4fe6cd0071d73a48e85f44cb2c758fc6d6701cf16ad1b98fd869bbd28d5b3010",
    "TSO-CC/deferred/hardened":
        "2c7a071a171fdde9bc4db3750e232d79be738d3a7812d5b51255e188fc0fb781",
    "TSO-CC/deferred/plain":
        "2d267187336069c7b4c0e25159e66988af2d969837233cf8ae1b1b1f796a41cd",
    "TSO-CC/immediate/hardened":
        "2c7a071a171fdde9bc4db3750e232d79be738d3a7812d5b51255e188fc0fb781",
    "TSO-CC/immediate/plain":
        "2d267187336069c7b4c0e25159e66988af2d969837233cf8ae1b1b1f796a41cd",
    "TSO-CC/stalling/hardened":
        "d8195286ce22ca8a7b82085693a3eb4fff4ecad6eedc2e453829522e0b56d66a",
    "TSO-CC/stalling/plain":
        "5f698b192e30018ce0e8a8d55723d617035ad454fd03c0c3b2c4bd925493e8ed",
}


@pytest.mark.parametrize("key", sorted(GRID))
def test_generated_protocol_is_pinned(key):
    name, config = GRID[key]
    assert digest(generate(protocols.load(name), config)) == PINNED[key]


def test_the_grid_is_pinned_whole():
    assert len(GRID) == 40
    assert set(PINNED) == set(GRID)


if __name__ == "__main__":  # print the pins for a deliberate update
    for key in sorted(GRID):
        name, config = GRID[key]
        print(f'    "{key}":\n        "{digest(generate(protocols.load(name), config))}",')
