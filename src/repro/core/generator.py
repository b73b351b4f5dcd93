"""ProtoGen: putting it all together (paper Section V-G).

:func:`generate` is the public entry point of the library.  Given a stable
state protocol specification and a :class:`~repro.core.config.GenerationConfig`
it runs:

1. SSP validation and preprocessing (forwarded-request renaming);
2. Step 1 -- State Sets (Section V-B): every stable state starts its own
   State Set; a transient state joins the set of every stable state in which
   the directory might see the block while the cache holds it in that
   transient state.  The membership is recorded on each state
   (:attr:`~repro.core.fsm.FsmState.state_sets`) and is what Step 3 reads to
   tell an earlier-ordered forwarded request from a later-ordered one;
3. Step 2 -- transient states in the absence of concurrency;
4. Step 3 -- concurrency accommodation, to fixpoint;
5. Step 4 -- access-permission assignment;
6. directory-controller generation;
7. the optional hardening pass (:mod:`repro.core.harden`).

Two rules are written once and shared by the steps.  The SSP is walked
through :meth:`~repro.dsl.ssp.ControllerSpec.handlers` (each reaction, then
each transaction, with its state, initiator and actions), and rewritten
through :meth:`~repro.dsl.ssp.ControllerSpec.rewrite_actions`.  Every
generated default -- hits, stalls, stale-Put acknowledgments, absorptions,
miss recoveries -- is added by :meth:`~repro.core.fsm.ControllerFsm.fill`,
which gives an unhandled ``(state, event)`` slot its default.  Request
reinterpretation is no default: the directory copies the SSP's transitions
for one request onto another (:mod:`repro.core.directory`).

:func:`generate` returns a :class:`~repro.core.fsm.GeneratedProtocol`
containing the cache and directory finite state machines.
"""

from __future__ import annotations

from repro.core.concurrency import accommodate_concurrency
from repro.core.config import GenerationConfig
from repro.core.context import CacheGenContext
from repro.core.directory import generate_directory
from repro.core.fsm import ControllerFsm, GeneratedProtocol
from repro.core.harden import harden_protocol
from repro.core.permissions import assign_access_permissions
from repro.core.preprocess import preprocess
from repro.core.transient import build_initial_transients, emit_reactions
from repro.dsl.ssp import ProtocolSpec
from repro.dsl.validation import validate_protocol


def generate(
    spec: ProtocolSpec,
    config: GenerationConfig | None = None,
    *,
    validate: bool = True,
) -> GeneratedProtocol:
    """Generate the concurrent protocol for the stable state protocol *spec*."""
    config = config or GenerationConfig()
    if validate:
        validate_protocol(spec, strict=True)

    preprocessed = preprocess(spec)
    working = preprocessed.spec

    cache_fsm = _generate_cache(working, config)
    directory_fsm = generate_directory(working, config)
    if config.harden:
        harden_protocol(working, cache_fsm, directory_fsm)

    return GeneratedProtocol(
        name=working.name,
        cache=cache_fsm,
        directory=directory_fsm,
        messages=working.messages,
        config=config,
        source_spec=working,
        renamings=preprocessed.renamings,
    )


def _generate_cache(spec: ProtocolSpec, config: GenerationConfig) -> ControllerFsm:
    ctx = CacheGenContext(spec, config)
    ctx.add_stable_states()                  # Step 1: State Sets start as {stable}
    emit_reactions(ctx.fsm, ctx.spec.cache)  # SSP behaviour at stable states
    build_initial_transients(ctx)            # Step 2
    accommodate_concurrency(ctx)             # Step 3 (drains the worklist to fixpoint)
    assign_access_permissions(ctx)           # Step 4
    return ctx.fsm
