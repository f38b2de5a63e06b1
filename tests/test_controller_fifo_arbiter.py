"""Tests for repro.controller.fifo and repro.controller.arbiter."""

import pytest

from repro.controller.arbiter import (
    PriorityArbiter,
    RoundRobinArbiter,
    TDMArbiter,
)
from repro.controller.fifo import ClientFifo
from repro.controller.request import Request
from repro.errors import ConfigurationError


def req(rid, client="a", address=0, cycle=0):
    return Request(
        request_id=rid,
        client=client,
        address=address,
        is_read=True,
        created_cycle=cycle,
    )


class TestClientFifo:
    def test_fifo_order(self):
        fifo = ClientFifo(client="a", capacity=4)
        fifo.push(req(0))
        fifo.push(req(1))
        assert fifo.pop().request_id == 0
        assert fifo.pop().request_id == 1

    def test_capacity_enforced(self):
        fifo = ClientFifo(client="a", capacity=2)
        fifo.push(req(0))
        fifo.push(req(1))
        assert fifo.full
        with pytest.raises(ConfigurationError):
            fifo.push(req(2))

    def test_high_water_mark(self):
        fifo = ClientFifo(client="a", capacity=8)
        for i in range(5):
            fifo.push(req(i))
        for _ in range(3):
            fifo.pop()
        assert fifo.high_water_mark == 5

    def test_underflow(self):
        with pytest.raises(ConfigurationError):
            ClientFifo(client="a").pop()

    def test_stall_counting(self):
        fifo = ClientFifo(client="a", capacity=1)
        fifo.push(req(0))
        fifo.record_stall()
        fifo.record_stall()
        assert fifo.stall_cycles == 2


class TestRoundRobinArbiter:
    def test_rotates_fairly(self):
        fifos = [ClientFifo(client=name) for name in "abc"]
        for index, fifo in enumerate(fifos):
            fifo.push(req(index, client=fifo.client))
            fifo.push(req(index + 10, client=fifo.client))
        arbiter = RoundRobinArbiter()
        order = [arbiter.select(fifos, cycle).client for cycle in range(6)]
        assert order[:3] == ["a", "b", "c"]
        assert order[3:] == ["a", "b", "c"]

    def test_skips_empty(self):
        fifos = [ClientFifo(client="a"), ClientFifo(client="b")]
        fifos[1].push(req(0, client="b"))
        arbiter = RoundRobinArbiter()
        assert arbiter.select(fifos, 0).client == "b"

    def test_all_empty_returns_none(self):
        fifos = [ClientFifo(client="a")]
        assert RoundRobinArbiter().select(fifos, 0) is None


class TestPriorityArbiter:
    def test_urgent_first(self):
        fifos = [ClientFifo(client="slow"), ClientFifo(client="urgent")]
        for fifo in fifos:
            fifo.push(req(0, client=fifo.client))
        arbiter = PriorityArbiter(priorities={"urgent": 0, "slow": 5})
        assert arbiter.select(fifos, 0).client == "urgent"

    def test_unknown_client_lowest_urgency(self):
        fifos = [ClientFifo(client="known"), ClientFifo(client="unknown")]
        for fifo in fifos:
            fifo.push(req(0, client=fifo.client))
        arbiter = PriorityArbiter(priorities={"known": 3})
        assert arbiter.select(fifos, 0).client == "known"

    def test_negative_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorityArbiter(priorities={"a": -1})


class TestTDMArbiter:
    def test_slot_ownership(self):
        fifos = [ClientFifo(client="a"), ClientFifo(client="b")]
        for fifo in fifos:
            fifo.push(req(0, client=fifo.client))
            fifo.push(req(1, client=fifo.client))
        arbiter = TDMArbiter(schedule=["a", "b"])
        assert arbiter.select(fifos, 0).client == "a"
        assert arbiter.select(fifos, 1).client == "b"
        assert arbiter.select(fifos, 2).client == "a"

    def test_non_work_conserving_wastes_slot(self):
        fifos = [ClientFifo(client="a"), ClientFifo(client="b")]
        fifos[1].push(req(0, client="b"))
        arbiter = TDMArbiter(schedule=["a", "b"], work_conserving=False)
        assert arbiter.select(fifos, 0) is None  # a's slot, a empty

    def test_work_conserving_reassigns_slot(self):
        fifos = [ClientFifo(client="a"), ClientFifo(client="b")]
        fifos[1].push(req(0, client="b"))
        arbiter = TDMArbiter(schedule=["a", "b"], work_conserving=True)
        assert arbiter.select(fifos, 0).client == "b"

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            TDMArbiter(schedule=[])
