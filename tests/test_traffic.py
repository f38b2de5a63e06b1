"""Tests for repro.traffic: patterns and clients."""

import itertools

import pytest

from repro.errors import ConfigurationError
from repro.traffic.client import ClientKind, MemoryClient
from repro.traffic.patterns import (
    BlockPattern,
    MotionCompensationPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
)


def take(pattern, n):
    return list(itertools.islice(pattern.addresses(), n))


class TestSequentialPattern:
    def test_linear_then_wraps(self):
        pattern = SequentialPattern(base=100, length=4)
        assert take(pattern, 6) == [100, 101, 102, 103, 100, 101]

    def test_stays_in_window(self):
        pattern = SequentialPattern(base=10, length=50)
        assert all(10 <= a < 60 for a in take(pattern, 200))

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            SequentialPattern(base=0, length=0)


class TestStridedPattern:
    def test_stride(self):
        pattern = StridedPattern(base=0, length=16, stride=4)
        assert take(pattern, 5) == [0, 4, 8, 12, 0]

    def test_zero_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            StridedPattern(base=0, length=16, stride=0)


class TestRandomPattern:
    def test_reproducible(self):
        a = take(RandomPattern(base=0, length=1000, seed=7), 100)
        b = take(RandomPattern(base=0, length=1000, seed=7), 100)
        assert a == b

    def test_different_seeds_differ(self):
        a = take(RandomPattern(base=0, length=1000, seed=1), 100)
        b = take(RandomPattern(base=0, length=1000, seed=2), 100)
        assert a != b

    def test_in_window(self):
        addresses = take(RandomPattern(base=500, length=100, seed=0), 2000)
        assert all(500 <= a < 600 for a in addresses)

    def test_covers_window(self):
        addresses = take(RandomPattern(base=0, length=16, seed=0), 2000)
        assert set(addresses) == set(range(16))


class TestBlockPattern:
    def test_first_tile_visits_rows(self):
        pattern = BlockPattern(
            base=0, width=8, height=8, block_w=2, block_h=2
        )
        first_tile = take(pattern, 4)
        # 2x2 tile at origin: (0,0) (0,1) then next raster line.
        assert first_tile == [0, 1, 8, 9]

    def test_addresses_in_surface(self):
        pattern = BlockPattern(
            base=100, width=16, height=16, block_w=4, block_h=4
        )
        addresses = take(pattern, 16 * 16)
        assert all(100 <= a < 100 + 256 for a in addresses)

    def test_tile_spans_multiple_dram_pages(self):
        # The structural page-miss source: a 16-line tile touches 16
        # distinct raster lines, each potentially a different page.
        pattern = BlockPattern(
            base=0, width=720, height=32, block_w=16, block_h=16
        )
        one_tile = take(pattern, 16 * 16)
        lines = {a // 720 for a in one_tile}
        assert len(lines) == 16

    def test_bad_block(self):
        with pytest.raises(ConfigurationError):
            BlockPattern(base=0, width=8, height=8, block_w=9, block_h=2)


class TestMotionCompensationPattern:
    def test_reproducible(self):
        kwargs = dict(base=0, width=64, height=64, seed=11)
        a = take(MotionCompensationPattern(**kwargs), 512)
        b = take(MotionCompensationPattern(**kwargs), 512)
        assert a == b

    def test_in_frame(self):
        pattern = MotionCompensationPattern(
            base=1000, width=64, height=64, max_displacement=8, seed=3
        )
        addresses = take(pattern, 4096)
        assert all(1000 <= a < 1000 + 64 * 64 for a in addresses)

    def test_displacement_moves_blocks(self):
        # Compare a full frame of tiles: corner tiles may clip to the
        # same position, but across 16 tiles the displaced stream must
        # diverge from the static one.
        static = take(
            MotionCompensationPattern(
                base=0, width=64, height=64, max_displacement=0, seed=1
            ),
            4096,
        )
        moving = take(
            MotionCompensationPattern(
                base=0, width=64, height=64, max_displacement=16, seed=1
            ),
            4096,
        )
        assert static != moving


class TestMemoryClient:
    def _client(self, rate):
        return MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=rate,
        )

    def test_rate_pacing(self):
        client = self._client(0.25)
        issued = 0
        for cycle in range(400):
            if client.wants_to_issue(cycle):
                client.next_request()
                issued += 1
            else:
                client.tick()
        assert issued == pytest.approx(100, abs=2)

    def test_full_rate(self):
        client = self._client(1.0)
        issued = 0
        for cycle in range(100):
            if client.wants_to_issue(cycle):
                client.next_request()
                issued += 1
            else:
                client.tick()
        assert issued == 100

    def test_read_fraction_extremes(self):
        reader = MemoryClient(
            name="r",
            pattern=SequentialPattern(base=0, length=64),
            rate=1.0,
            read_fraction=1.0,
        )
        writer = MemoryClient(
            name="w",
            pattern=SequentialPattern(base=0, length=64),
            rate=1.0,
            read_fraction=0.0,
        )
        assert reader.next_request()[1] is True
        assert writer.next_request()[1] is False

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            self._client(0.0)
        with pytest.raises(ConfigurationError):
            self._client(1.5)


