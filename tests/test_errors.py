"""Tests for the exception hierarchy (``repro.errors``)."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    HandoffError,
    MobilityError,
    NetworkError,
    ProtocolError,
    ProxyError,
    ReproError,
    SchedulingError,
    SimulationError,
    UnknownNodeError,
    VerificationError,
)


@pytest.mark.parametrize("exc", [
    SimulationError, SchedulingError, NetworkError, UnknownNodeError,
    ProtocolError, HandoffError, ProxyError, MobilityError, ConfigError,
    VerificationError,
])
def test_all_errors_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        raise exc("boom")


def test_scheduling_error_is_simulation_error():
    assert issubclass(SchedulingError, SimulationError)
    assert issubclass(UnknownNodeError, NetworkError)
    assert issubclass(HandoffError, ProtocolError)

