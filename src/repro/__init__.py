"""CereSZ reproduction: error-bounded lossy compression on a simulated
Cerebras CS-2 wafer-scale engine.

Reproduces Song et al., *"CereSZ: Enabling and Scaling Error-bounded Lossy
Compression on Cerebras CS-2"*, HPDC 2024. See ``DESIGN.md`` for the system
inventory and ``EXPERIMENTS.md`` for the paper-vs-measured record.

Quick start::

    import numpy as np
    from repro import CereSZ

    codec = CereSZ()
    result = codec.compress(field, rel=1e-3)   # REL error bound, paper 5.1.3
    restored = codec.decompress(result.stream)
    assert np.max(np.abs(restored - field)) <= result.eps
    print(result.ratio)

Top-level surface:

* :class:`CereSZ` — the compressor (NumPy reference path);
* :mod:`repro.wse` — the wafer-scale-engine simulator substrate;
* :mod:`repro.baselines` — SZ3 / SZp / cuSZ / cuSZp reimplementations;
* :mod:`repro.datasets` — synthetic SDRBench-like field generators;
* :mod:`repro.metrics` — PSNR / SSIM / ratio / error-bound checks;
* :mod:`repro.perf` — wafer & device throughput models (Figs 7, 10-14);
* :mod:`repro.harness` — regenerates every table and figure of the paper.
"""

from repro.config import BLOCK_SIZE, DEFAULT_WAFER, FULL_WAFER, WaferConfig
from repro.core.compressor import CereSZ, CompressionResult
from repro.core.parallel import (
    compress_sharded,
    decompress_sharded,
    is_sharded,
)
from repro.core.streaming import (
    FrameReader,
    FrameWriter,
    compress_stream,
    decompress_stream,
)
from repro.core.wse_compressor import WSECereSZ
from repro.errors import (
    CompressionError,
    ErrorBoundError,
    FabricError,
    FormatError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "CereSZ",
    "WSECereSZ",
    "CompressionResult",
    "FrameWriter",
    "FrameReader",
    "compress_stream",
    "decompress_stream",
    "compress_sharded",
    "decompress_sharded",
    "is_sharded",
    "WaferConfig",
    "DEFAULT_WAFER",
    "FULL_WAFER",
    "BLOCK_SIZE",
    "ReproError",
    "CompressionError",
    "FormatError",
    "ErrorBoundError",
    "FabricError",
    "__version__",
]
