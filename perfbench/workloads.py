"""The benchmark's workloads: inputs, pinned knobs, calls and oracles.

Every workload drives the public API (``CereSZ``, ``WSECereSZ``) in the
calling process with one thread. Every knob a workload depends on is
passed explicitly, so a change of a library default cannot silently change
what a workload measures. Inputs come from
:func:`repro.datasets.generate_field` with consecutive seeds starting at
the benchmark's ``--seed``, concatenated.

The ``heavy`` and ``idle`` lists name the per-layer metrics (see
``layers.py``) each workload loads and leaves idle, so a change to one
layer can name both the workload that should move and the one that
should not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import CereSZ, WSECereSZ
from repro.datasets import generate_field

REL = 1e-3
BLOCK_SIZE = 32
PREDICTOR = "lorenzo1d"
#: Values in each host field (8 MiB of float32). Sized, like every input
#: here, so that one call takes well under a second on a 2-vCPU VM and a
#: run's median rests on dozens of calls spread over the whole run.
HOST_ELEMS = 2 << 20
#: Values in the small input of the set-up probe's first call.
WARMUP_ELEMS = 1 << 14
#: The paper's full wafer is 750 x 994, but one 994-column call runs
#: 15-25 s on a shared 2-vCPU VM, a single sample per run whose speed is
#: whatever the neighbours leave. 256 columns keep relay chains that
#: dominate the template row and all 750 replica merges at ~3 s a call.
WAFER_ROWS, WAFER_COLS = 750, 256
PIPELINE_ELEMS = 1 << 14


def concat_fields(dataset: str, seed: int, n: int) -> np.ndarray:
    """``n`` float32 values: field 0 of ``dataset`` at seeds seed, seed+1, ..."""
    parts, have = [], 0
    while have < n:
        part = generate_field(dataset, 0, seed=seed + len(parts)).reshape(-1)
        parts.append(part[: n - have])
        have += parts[-1].size
    return np.ascontiguousarray(np.concatenate(parts), dtype=np.float32)


@dataclass(frozen=True)
class Compressed:
    """What the audit and the metrics need from one compress call."""

    stream: bytes
    eps: float
    ratio: float
    raw_bytes: int
    makespan_cycles: float = 0.0


def from_wafer(r) -> Compressed:
    return Compressed(
        r.stream, r.result.eps, r.result.ratio, r.result.original_bytes,
        r.makespan_cycles,
    )


def host_v1_oracle(x: np.ndarray) -> tuple[bytes, np.ndarray]:
    """``CereSZ`` v1 stream of ``x`` and its host decode."""
    host = CereSZ(block_size=BLOCK_SIZE, fast=True, predictor=PREDICTOR)
    stream = host.compress(
        x, rel=REL, index=False, checksum=False, jobs=None, fast=True,
        predictor=PREDICTOR,
    ).stream
    return stream, host.decompress(stream, jobs=None, fast=True).reshape(-1)


class HostRoundTrip:
    """Fused ``CereSZ`` compress + decompress of a host field."""

    tiles = 1
    decodes_per_compress = 1

    def __init__(self, name, why, dataset, *, index, checksum, heavy, idle):
        self.name, self.why, self.dataset = name, why, dataset
        self.index, self.checksum = index, checksum
        self.heavy, self.idle = heavy, idle
        self.knobs = {
            "api": "CereSZ", "dataset": dataset, "values": HOST_ELEMS,
            "fast": True, "predictor": PREDICTOR, "block_size": BLOCK_SIZE,
            "rel": REL, "index": index, "checksum": checksum, "jobs": None,
        }

    def make_input(self, seed: int) -> np.ndarray:
        return concat_fields(self.dataset, seed, HOST_ELEMS)

    def warmup_input(self, seed: int) -> np.ndarray:
        return concat_fields(self.dataset, seed, WARMUP_ELEMS)

    def build(self) -> CereSZ:
        return CereSZ(block_size=BLOCK_SIZE, fast=True, predictor=PREDICTOR)

    def _compress(self, codec: CereSZ, x: np.ndarray, fast: bool):
        r = codec.compress(
            x, rel=REL, index=self.index, checksum=self.checksum,
            jobs=None, fast=fast, predictor=PREDICTOR,
        )
        return Compressed(r.stream, r.eps, r.ratio, r.original_bytes)

    def compress(self, codec: CereSZ, x: np.ndarray) -> Compressed:
        return self._compress(codec, x, True)

    def decompress(self, codec: CereSZ, stream: bytes) -> np.ndarray:
        return codec.decompress(stream, jobs=None, fast=True).reshape(-1)

    def oracle(self, x: np.ndarray) -> tuple[bytes, np.ndarray]:
        """The reference (``fast=False``) stream and its reference decode."""
        ref = CereSZ(block_size=BLOCK_SIZE, fast=False, predictor=PREDICTOR)
        stream = self._compress(ref, x, False).stream
        return stream, ref.decompress(stream, jobs=None, fast=False).reshape(-1)


class WaferTiled:
    """A full-height Fig 14 wafer (one row tiled 750 times), host decode."""

    tiles = WAFER_ROWS
    #: A host decode costs about a quarter of the wafer compress; two per
    #: compress balance the sample counts of the two directions.
    decodes_per_compress = 2
    name = "wafer-750x256"
    why = (
        "Fig 14 shape: WSECereSZ 750x256 multi hybrid jobs=1 tile_rows,"
        " 256-block HACC row, rel1e-3, host v1 decode. Heavy: relay events,"
        " merge_replica, GC, header walk. Idle: CRC, pack_records"
    )
    heavy = (
        "engine.run_s", "trace.merge_replica_s", "simulate.compose_self_s",
        "python.gc_s", "encoding.scan_offsets_s", "encoding.decode_blocks_s",
        "mapping.stream_s",
    )
    idle = ("integrity.crc_build_s", "integrity.crc_verify_s",
            "encoding.pack_records_s")
    knobs = {
        "api": "WSECereSZ.compress(tile_rows=True) + WSECereSZ.decompress",
        "dataset": "HACC", "values": WAFER_COLS * BLOCK_SIZE,
        "rows": WAFER_ROWS, "cols": WAFER_COLS, "strategy": "multi",
        "pipeline_length": 1, "mode": "hybrid", "jobs": 1,
        "predictor": PREDICTOR, "block_size": BLOCK_SIZE, "rel": REL,
        "container": "v1",
    }

    def make_input(self, seed: int) -> np.ndarray:
        return concat_fields("HACC", seed, WAFER_COLS * BLOCK_SIZE)

    def warmup_input(self, seed: int) -> np.ndarray:
        # A short row on the full mesh: every code path of the timed call,
        # including all 750 replica merges, at a fraction of the events.
        return concat_fields("HACC", seed, 8 * BLOCK_SIZE)

    def build(self) -> WSECereSZ:
        return WSECereSZ(
            WAFER_ROWS, WAFER_COLS, strategy="multi", pipeline_length=1,
            mode="hybrid", jobs=1, block_size=BLOCK_SIZE, predictor=PREDICTOR,
        )

    def compress(self, codec: WSECereSZ, x: np.ndarray) -> Compressed:
        return from_wafer(codec.compress(x, rel=REL, tile_rows=True))

    def decompress(self, codec: WSECereSZ, stream: bytes) -> np.ndarray:
        return codec.decompress(stream).reshape(-1)

    def oracle(self, x: np.ndarray) -> tuple[bytes, np.ndarray]:
        """``CereSZ`` on the tiled field (v1) and its host decode."""
        return host_v1_oracle(np.tile(x, WAFER_ROWS))


class WaferPipeline:
    """Algorithm-1 pipelines on a small event-simulated mesh, both ways."""

    tiles = 1
    decodes_per_compress = 1
    name = "wafer-pipeline"
    why = (
        "WSECereSZ 16x16 pipeline L=8 event jobs=1, 16Ki HACC rel1e-3,"
        " compress + decompress_on_wafer. Heavy: stepped sub-stage engine,"
        " Alg 1. Idle: relays, replica merge, CRC"
    )
    heavy = ("engine.run_s", "engine.events", "lower.lower_s", "plan.build_s")
    idle = ("trace.merge_replica_s", "simulate.compose_self_s",
            "integrity.crc_build_s", "integrity.crc_verify_s",
            "encoding.pack_records_s")
    knobs = {
        "api": "WSECereSZ.compress + WSECereSZ.decompress_on_wafer",
        "dataset": "HACC", "values": PIPELINE_ELEMS, "rows": 16, "cols": 16,
        "strategy": "pipeline", "pipeline_length": 8, "mode": "event",
        "jobs": 1, "predictor": PREDICTOR, "block_size": BLOCK_SIZE,
        "rel": REL, "container": "v1",
    }

    def make_input(self, seed: int) -> np.ndarray:
        return concat_fields("HACC", seed, PIPELINE_ELEMS)

    def warmup_input(self, seed: int) -> np.ndarray:
        return concat_fields("HACC", seed, WARMUP_ELEMS)

    def build(self) -> WSECereSZ:
        return WSECereSZ(
            16, 16, strategy="pipeline", pipeline_length=8, mode="event",
            jobs=1, block_size=BLOCK_SIZE, predictor=PREDICTOR,
        )

    def compress(self, codec: WSECereSZ, x: np.ndarray) -> Compressed:
        return from_wafer(codec.compress(x, rel=REL))

    def decompress(self, codec: WSECereSZ, stream: bytes) -> np.ndarray:
        return codec.decompress_on_wafer(stream)[0].reshape(-1)

    def oracle(self, x: np.ndarray) -> tuple[bytes, np.ndarray]:
        """The host v1 stream and its host decode."""
        return host_v1_oracle(x)


WORKLOADS = {
    w.name: w
    for w in (
        HostRoundTrip(
            "host-turbulent",
            "2Mi HACC, CereSZ fast lorenzo1d bs32 rel1e-3 checksum (v3),"
            " ratio~3. Heavy: pack_records, CRC build+verify, decode_blocks."
            " Idle: v1 header walk, wafer simulator",
            "HACC", index=True, checksum=True,
            heavy=("encoding.pack_records_s", "integrity.crc_build_s",
                   "integrity.crc_verify_s", "encoding.decode_blocks_s",
                   "predictors.reconstruct_s"),
            idle=("encoding.scan_offsets_s", "engine.run_s",
                  "trace.merge_replica_s"),
        ),
        HostRoundTrip(
            "host-smooth",
            "2Mi RTM, CereSZ fast lorenzo1d bs32 rel1e-3 index=False (v1),"
            " ~97% zero blocks, ratio~27. Heavy: fastpath quantize+predict,"
            " header walk. Idle: CRC, wafer sim; shuffle nearly idle",
            "RTM", index=False, checksum=False,
            heavy=("fastpath.compress_self_s", "predictors.predict_s",
                   "quantize.resolve_bound_s", "encoding.scan_offsets_s"),
            idle=("integrity.crc_build_s", "integrity.crc_verify_s",
                  "encoding.index_offsets_s", "engine.run_s"),
        ),
        WaferTiled(),
        WaferPipeline(),
    )
}
