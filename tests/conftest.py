"""Shared fixtures: bundled SSPs and generated protocols (cached per session)."""

from __future__ import annotations

import pytest

from repro.core import GenerationConfig, generate
from repro import protocols
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
