"""Execution substrate: caches, directory, interconnect, whole-system model."""

from repro.system.codec import LaneOverflow, StateCodec
from repro.system.kernel import TransitionKernel
from repro.system.message import DIRECTORY_ID, Message
from repro.system.network import Network, OrderedNetwork, UnorderedNetwork
from repro.system.node_state import CacheNodeState, DirectoryNodeState
from repro.system.vectorized import VectorizedKernel
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    FaultModel,
    GlobalState,
    IssueAccess,
    LitmusWorkload,
    ReorderMessage,
    System,
    SystemEvent,
    Workload,
)

__all__ = [
    "DIRECTORY_ID",
    "CacheNodeState",
    "DeliverMessage",
    "DirectoryNodeState",
    "DuplicateMessage",
    "FaultModel",
    "GlobalState",
    "IssueAccess",
    "LaneOverflow",
    "LitmusWorkload",
    "Message",
    "Network",
    "OrderedNetwork",
    "ReorderMessage",
    "StateCodec",
    "System",
    "SystemEvent",
    "TransitionKernel",
    "UnorderedNetwork",
    "VectorizedKernel",
    "Workload",
]
