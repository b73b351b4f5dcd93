"""Tests for the network values: what a decoded state holds in flight.

Stepping a network -- delivery, sends, faults -- is the tests' reference
network (``tests/verification/reference_system.py``) and is tested there.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.system import System
from repro.system.message import Message
from repro.system.network import OrderedNetwork, UnorderedNetwork

MTYPES = ("Data", "GetM", "GetS", "Inv", "Put_Ack")  # sorted, as the codec's


def _msg(mtype="Data", src=0, dst=1, vnet=1, **kw):
    return Message(mtype=mtype, src=src, dst=dst, vnet=vnet, **kw)


def _values(messages):
    """*messages* in flight as both network values, laid out as the codec
    lays them out: FIFO channels sorted by key, a bag sorted by encoded
    record."""
    channels: dict = {}
    for m in messages:
        channels.setdefault((m.src, m.dst, m.vnet), []).append(m)
    ordered = OrderedNetwork(tuple(sorted((k, tuple(q)) for k, q in channels.items())))
    bag = sorted(messages, key=lambda m: (
        m.mtype, m.src, m.dst, m.vnet,
        *((0, 0) if v is None else (1, v) for v in (m.requestor, m.data, m.ack_count))))
    return ordered, UnorderedNetwork(tuple(bag))


class TestNetworkValues:
    def test_is_value_object(self):
        a, b = _values([_msg("GetS")]), _values([_msg("GetS")])
        assert a == b
        assert hash(a) == hash(b)

    def test_ordered_flag(self):
        assert OrderedNetwork().ordered
        assert not UnorderedNetwork().ordered


_messages = st.builds(
    Message,
    mtype=st.sampled_from(MTYPES),
    src=st.integers(min_value=-1, max_value=2),
    dst=st.integers(min_value=-1, max_value=2),
    requestor=st.none() | st.integers(min_value=0, max_value=2),
    data=st.none() | st.integers(min_value=0, max_value=3),
    ack_count=st.none() | st.integers(min_value=0, max_value=2),
    vnet=st.integers(min_value=0, max_value=1),
)


@pytest.fixture(scope="module")
def codecs(msi_nonstalling):
    """``ordered -> codec`` of MSI at three caches (every node ID above)."""
    return {ordered: System(msi_nonstalling, num_caches=3, ordered=ordered).codec()
            for ordered in (True, False)}


class TestNetworkProperties:
    @given(st.lists(_messages, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_networks_hashable_for_state_snapshots(self, messages):
        for net, again in zip(_values(messages), _values(messages)):
            assert hash(net) == hash(again)

    @given(st.lists(_messages, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_encoded_round_trips(self, codecs, messages):
        """Both values, laid out by the codec of their network kind and
        read back."""
        for net in _values(messages):
            codec = codecs[net.ordered]
            state = replace(codec.decode(codec.unpack(codec.root())), network=net)
            assert codec.decode(codec.encode(state)) == state
