"""Address pattern generators.

Each pattern is an infinite iterator of word addresses within a client's
address window.  The repertoire covers the paper's application domains:

* sequential / strided — stream buffers, display refresh, disk channels;
* random — control structures, switching tables;
* 2D block — video macroblock traffic (a rectangle of pixels spans
  several rows of a raster-scan frame buffer, the canonical source of
  page misses);
* motion compensation — 2D blocks at pseudo-random displacements, the
  MPEG2 decoder's dominant read traffic.

Patterns are deterministic given their seed, so experiments reproduce
exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class AccessPattern(abc.ABC):
    """Infinite word-address stream within ``[base, base + length)``."""

    @abc.abstractmethod
    def addresses(self):  # pragma: no cover - interface
        """Yield word addresses forever."""
        raise NotImplementedError

    @staticmethod
    def _check_window(base: int, length: int) -> None:
        if base < 0:
            raise ConfigurationError(f"base must be >= 0, got {base}")
        if length <= 0:
            raise ConfigurationError(f"length must be positive, got {length}")


@dataclass(frozen=True)
class SequentialPattern(AccessPattern):
    """Linear sweep, wrapping at the window end.

    Attributes:
        base: Window start (word address).
        length: Window length in words.
    """

    base: int
    length: int

    def __post_init__(self) -> None:
        self._check_window(self.base, self.length)

    def addresses(self):
        offset = 0
        while True:
            yield self.base + offset
            offset = (offset + 1) % self.length


@dataclass(frozen=True)
class StridedPattern(AccessPattern):
    """Constant-stride sweep (column-of-matrix, interlaced field reads).

    Attributes:
        base: Window start.
        length: Window length in words.
        stride: Address increment per access.
    """

    base: int
    length: int
    stride: int

    def __post_init__(self) -> None:
        self._check_window(self.base, self.length)
        if self.stride == 0:
            raise ConfigurationError("stride must be non-zero")

    def addresses(self):
        offset = 0
        while True:
            yield self.base + offset
            offset = (offset + self.stride) % self.length


@dataclass(frozen=True)
class RandomPattern(AccessPattern):
    """Uniformly random addresses in the window (worst-case locality).

    Attributes:
        base: Window start.
        length: Window length in words.
        seed: RNG seed for reproducibility.
    """

    base: int
    length: int
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_window(self.base, self.length)

    def addresses(self):
        rng = np.random.default_rng(self.seed)
        while True:
            # Draw in batches for speed; yield one at a time.
            batch = rng.integers(0, self.length, size=1024)
            for offset in batch:
                yield self.base + int(offset)


@dataclass(frozen=True)
class BlockPattern(AccessPattern):
    """Raster-order sweep of 2D blocks over a 2D surface.

    Models frame-buffer traffic: the surface is ``width x height`` words
    in raster order; accesses visit ``block_w x block_h`` tiles
    left-to-right, top-to-bottom, row by row within each tile.  A tile
    touches ``block_h`` distinct raster lines, i.e. (for typical page
    sizes) several DRAM pages — the structural source of page misses in
    video traffic.

    Attributes:
        base: Word address of the surface origin.
        width: Surface width in words.
        height: Surface height in lines.
        block_w: Tile width in words.
        block_h: Tile height in lines.
    """

    base: int
    width: int
    height: int
    block_w: int
    block_h: int

    def __post_init__(self) -> None:
        self._check_window(self.base, self.width * self.height)
        if not 0 < self.block_w <= self.width:
            raise ConfigurationError(
                f"block width {self.block_w} outside (0, {self.width}]"
            )
        if not 0 < self.block_h <= self.height:
            raise ConfigurationError(
                f"block height {self.block_h} outside (0, {self.height}]"
            )

    def addresses(self):
        while True:
            for tile_y in range(0, self.height - self.block_h + 1, self.block_h):
                for tile_x in range(0, self.width - self.block_w + 1, self.block_w):
                    for line in range(self.block_h):
                        row_start = (tile_y + line) * self.width + tile_x
                        for dx in range(self.block_w):
                            yield self.base + row_start + dx


@dataclass(frozen=True)
class MotionCompensationPattern(AccessPattern):
    """Motion-compensated block fetches from a reference frame.

    For each macroblock position, fetch a ``block_w x block_h`` region at
    a bounded random displacement — the read pattern of an MPEG2 motion
    compensation unit against its reference frame store.  Displacements
    break page locality in both dimensions.

    Attributes:
        base: Word address of the reference-frame origin.
        width: Frame width in words.
        height: Frame height in lines.
        block_w: Prediction block width in words.
        block_h: Prediction block height in lines.
        max_displacement: Maximum |motion vector| component in words/lines.
        seed: RNG seed.
    """

    base: int
    width: int
    height: int
    block_w: int = 16
    block_h: int = 16
    max_displacement: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_window(self.base, self.width * self.height)
        if self.block_w > self.width or self.block_h > self.height:
            raise ConfigurationError("block exceeds frame")
        if self.max_displacement < 0:
            raise ConfigurationError("displacement must be >= 0")

    def addresses(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for tile_y in range(0, self.height - self.block_h + 1, self.block_h):
                for tile_x in range(0, self.width - self.block_w + 1, self.block_w):
                    dx = int(rng.integers(-self.max_displacement, self.max_displacement + 1))
                    dy = int(rng.integers(-self.max_displacement, self.max_displacement + 1))
                    x = min(max(tile_x + dx, 0), self.width - self.block_w)
                    y = min(max(tile_y + dy, 0), self.height - self.block_h)
                    for line in range(self.block_h):
                        row_start = (y + line) * self.width + x
                        for off in range(self.block_w):
                            yield self.base + row_start + off
