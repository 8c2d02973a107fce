"""Memory request / command vocabulary."""

import pytest

from repro.dram.commands import MemoryRequest, RequestKind
from repro.errors import ConfigurationError


def test_request_ids_unique():
    a = MemoryRequest(RequestKind.READ, 0, 0.0)
    b = MemoryRequest(RequestKind.READ, 0, 0.0)
    assert a.request_id != b.request_id


def test_default_size_is_32_bytes():
    # A 64 B line striped over two physical channels (§3.3).
    assert MemoryRequest(RequestKind.READ, 0, 0.0).bytes == 32


def test_is_write_flag():
    assert MemoryRequest(RequestKind.WRITE, 0, 0.0).is_write
    assert not MemoryRequest(RequestKind.READ, 0, 0.0).is_write


def test_request_validation():
    with pytest.raises(ConfigurationError):
        MemoryRequest(RequestKind.READ, -1, 0.0)
    with pytest.raises(ConfigurationError):
        MemoryRequest(RequestKind.READ, 0, -1.0)
    with pytest.raises(ConfigurationError):
        MemoryRequest(RequestKind.READ, 0, 0.0, bytes=0)
