"""Shared fixtures for the test suite: the serve layer, step spies and
the march path.

The serve fixtures are thin wrappers over ``tests.serve_helpers`` —
see that module and docs/TESTING.md for what each workload/environment
is for.
"""

from __future__ import annotations

import pytest

from repro.dft.march import MarchTest
from repro.verify.march import march_reference
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


@pytest.fixture()
def use_reference_march(monkeypatch):
    """``use_reference_march()`` replaces the fault-sparse
    ``MarchTest.run`` with the cell-by-cell ``march_reference`` for the
    rest of the test."""

    def install():
        monkeypatch.setattr(MarchTest, "run", march_reference)

    return install


@pytest.fixture(params=["fast", "reference"])
def march_path(request, use_reference_march):
    """Runs the test once on each march path; the value is the path's
    name."""
    if request.param == "reference":
        use_reference_march()
    return request.param
