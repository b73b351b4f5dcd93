"""Shared fixtures: bundled SSPs and generated protocols (cached per session)."""

from __future__ import annotations

import pytest

from repro.core import GenerationConfig, generate
from repro import protocols
from repro.protocols.primer import BaselineController, _row
from repro.verification.engine import core as engine_core


@pytest.fixture(scope="session")
def msi_spec():
    return protocols.msi.build()


@pytest.fixture(scope="session")
def mesi_spec():
    return protocols.mesi.build()


@pytest.fixture(scope="session")
def mosi_spec():
    return protocols.mosi.build()


@pytest.fixture(scope="session")
def msi_nonstalling(msi_spec):
    return generate(msi_spec, GenerationConfig.nonstalling())


@pytest.fixture(scope="session")
def msi_stalling(msi_spec):
    return generate(msi_spec, GenerationConfig.stalling())


@pytest.fixture(scope="session")
def mesi_nonstalling(mesi_spec):
    return generate(mesi_spec, GenerationConfig.nonstalling())


@pytest.fixture(scope="session")
def mosi_nonstalling(mosi_spec):
    return generate(mosi_spec, GenerationConfig.nonstalling())


@pytest.fixture(scope="session")
def all_generated():
    """Every bundled protocol generated in both configurations."""
    result = {}
    for name in protocols.available_protocols():
        spec = protocols.load(name)
        result[(name, "nonstalling")] = generate(spec, GenerationConfig.nonstalling())
        result[(name, "stalling")] = generate(spec, GenerationConfig.stalling())
    return result


@pytest.fixture
def explorations(monkeypatch):
    """Every ``Exploration`` that ``verify`` builds during the test."""
    made = []

    class Recorded(engine_core.Exploration):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            made.append(self)

    monkeypatch.setattr(engine_core, "Exploration", Recorded)
    return made


@pytest.fixture(scope="session")
def primer_stalling_cache() -> BaselineController:
    """The primer's *stalling* MSI cache controller (Section VI-A baseline).

    In the stalling protocol a cache in a transient state stalls every
    forwarded request until its own transaction completes; the extra
    ``IM_A_S``-style states do not exist.
    """
    rows = {
        "I": _row(Load=("send GetS to Dir", "IS_D"), Store=("send GetM to Dir", "IM_AD")),
        "IS_D": _row(
            Load="stall", Store="stall", Replacement="stall", Inv="stall",
            Data_ack0=("-", "S"), Data_acks=("-", "S"),
        ),
        "IM_AD": _row(
            Load="stall", Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall",
            Data_ack0=("-", "M"), Data_acks=("-", "IM_A"), Inv_Ack=("ack--", "IM_AD"),
        ),
        "IM_A": _row(
            Load="stall", Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall",
            Inv_Ack=("ack--", "IM_A"), Last_Inv_Ack=("-", "M"),
        ),
        "S": _row(
            Load=("hit", "S"), Store=("send GetM to Dir", "SM_AD"),
            Replacement=("send PutS to Dir", "SI_A"),
            Inv=("send Inv-Ack to Req", "I"),
        ),
        "SM_AD": _row(
            Load=("hit", "SM_AD"), Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall", Inv="stall",
            Data_ack0=("-", "M"), Data_acks=("-", "SM_A"), Inv_Ack=("ack--", "SM_AD"),
        ),
        "SM_A": _row(
            Load=("hit", "SM_A"), Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall",
            Inv_Ack=("ack--", "SM_A"), Last_Inv_Ack=("-", "M"),
        ),
        "M": _row(
            Load=("hit", "M"), Store=("hit", "M"),
            Replacement=("send PutM + Data to Dir", "MI_A"),
            Fwd_GetS=("send Data to Req and Dir", "S"),
            Fwd_GetM=("send Data to Req", "I"),
        ),
        "MI_A": _row(
            Load="stall", Store="stall", Replacement="stall",
            Fwd_GetS="stall", Fwd_GetM="stall",
            Put_Ack=("-", "I"),
        ),
        "SI_A": _row(
            Load="stall", Store="stall", Replacement="stall", Inv="stall",
            Put_Ack=("-", "I"),
        ),
    }
    return BaselineController(name="primer-stalling-MSI-cache", rows=rows)
