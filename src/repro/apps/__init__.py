"""Application memory models: the paper's case studies and markets.

* :mod:`repro.apps.video` — frame geometry (PAL/NTSC, chroma formats),
* :mod:`repro.apps.mpeg2` — the MPEG2 decoder memory subsystem
  (Section 4.1 case study),
* :mod:`repro.apps.trends` — the processor-memory performance gap
  (Section 4.2),
* :mod:`repro.apps.iram` — merged processor+DRAM (IRAM) improvement
  factors,
* :mod:`repro.apps.markets` — Section 2's advisability rules of thumb and
  market size data,
* :mod:`repro.apps.pcmemory` — Section 4's PC main-memory granularity
  (systems growing at half the device rate).
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
