"""Fixtures for the serve tests."""

from __future__ import annotations

import functools

import pytest

from tests.serve.chaos import Chaos


@pytest.fixture
def chaos(monkeypatch):
    """``chaos(svc, worker_die=K, compile_stall_ms=T, slow_request_ms=T)``
    injects failures into *svc* for the rest of the test and returns
    the :class:`~tests.serve.chaos.Chaos` that counts them."""
    return functools.partial(Chaos, monkeypatch=monkeypatch)
