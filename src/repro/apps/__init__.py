"""Application memory models: the paper's case studies and markets.

* :mod:`repro.apps.video` — frame geometry (PAL/NTSC, chroma formats),
* :mod:`repro.apps.mpeg2` — the MPEG2 decoder memory subsystem
  (Section 4.1 case study),
* :mod:`repro.apps.graphics` — 3D graphics frame stores (the laptop
  accelerator market of Section 2),
* :mod:`repro.apps.network` — network switch packet buffers (the high-end
  market: up to 128 Mbit, 512-bit interfaces),
* :mod:`repro.apps.storage` — disk / printer controller memory (embedded
  processor + program/data storage),
* :mod:`repro.apps.trends` — the processor-memory performance gap
  (Section 4.2),
* :mod:`repro.apps.iram` — merged processor+DRAM (IRAM) improvement
  factors,
* :mod:`repro.apps.markets` — Section 2's advisability rules of thumb and
  market size data.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ChromaFormat": "video",
    "VideoStandard": "video",
    "FrameGeometry": "video",
    "PAL": "video",
    "NTSC": "video",
    "frame_bits": "video",
    "MPEG2MemoryBudget": "mpeg2",
    "DecoderVariant": "mpeg2",
    "GraphicsFrameStore": "graphics",
    "SwitchBuffer": "network",
    "EmbeddedControllerMemory": "storage",
    "TrendModel": "trends",
    "PROCESSOR_TREND": "trends",
    "DRAM_CORE_TREND": "trends",
    "IRAMModel": "iram",
    "AMATModel": "iram",
    "CacheLevel": "iram",
    "MarketForecast": "markets",
    "MarketSegment": "markets",
    "SEGMENTS": "markets",
    "advisability_score": "markets",
    "PC_GENERATIONS": "pcmemory",
    "PCGeneration": "pcmemory",
    "device_growth_rate": "pcmemory",
    "forced_overprovision_mbit": "pcmemory",
    "system_growth_rate": "pcmemory",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
