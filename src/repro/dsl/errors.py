"""Exception hierarchy for the SSP specification layer and the generator."""

from __future__ import annotations


class ProtoGenError(Exception):
    """Base class for every error raised by the repro package."""


class SpecError(ProtoGenError):
    """An SSP specification is structurally malformed.

    Raised while *building* a specification: unknown state names, duplicate
    transitions for the same (state, event) pair, references to undeclared
    message types, and so on.
    """


class ValidationError(ProtoGenError):
    """An SSP specification is well formed but not a valid atomic protocol.

    Raised by :mod:`repro.dsl.validation` when the atomic-model checks fail,
    for example when a stable state grants write permission to two different
    controllers, or a transaction references a final state that does not
    exist.
    """


class GenerationError(ProtoGenError):
    """The generator could not complete (e.g. the SSP violates an assumption
    that ProtoGen relies on, such as a missing restart transaction)."""
