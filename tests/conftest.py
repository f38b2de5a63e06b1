"""Shared fixtures for the test suite: the serve layer and step spies.

The serve fixtures are thin wrappers over ``tests.serve_helpers`` —
see that module and docs/TESTING.md for what each workload/environment
is for.
"""

from __future__ import annotations

import pytest

from tests.serve_helpers import contract_env, gated_env


@pytest.fixture()
def contract_service():
    """(service, InProcessClient) with the ``t_contract`` workload."""
    with contract_env() as pair:
        yield pair


@pytest.fixture()
def gated_service():
    """(service, InProcessClient) with the blockable ``t_gated``
    workload — concurrency tests hold jobs in flight with it."""
    with gated_env() as pair:
        yield pair


@pytest.fixture()
def call_cycles(monkeypatch):
    """``call_cycles(owner, name)`` wraps the ``owner.name(self, cycle)``
    method for the test and returns the list of cycles it is called
    with — e.g. which cycles the event engine stepped rather than
    skipped."""

    def install(owner, name):
        original = getattr(owner, name)
        cycles = []

        def spy(self, cycle):
            cycles.append(cycle)
            return original(self, cycle)

        monkeypatch.setattr(owner, name, spy)
        return cycles

    return install
