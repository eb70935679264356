"""Registers :class:`~repro.core.appvisor.rpc.ContextDelta` with the
wire codec.

Schema ids are assigned in registration order, and the order of the
classes registered at import time fixes every frame's wire bytes (the
golden digests in ``tests/test_wire_golden.py`` pin them).  The delta
frame joined the protocol after every frame in
:mod:`repro.core.appvisor.rpc` and :mod:`repro.replication.frames`, so
it is registered here, in a module that nothing imports at module
level: the proxy imports it before it sends its first delta.  Every
other schema keeps the id, and so the bytes, it had before the frame
existed.
"""

from repro.core.appvisor.rpc import ContextDelta
from repro.openflow.serialization import register_dataclass

register_dataclass(ContextDelta)
