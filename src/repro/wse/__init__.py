"""Functional discrete-event simulator of the Cerebras CS-2 wafer-scale engine.

The simulator models the architectural features the paper's mapping relies on
(Section 2.1):

* a 2D mesh of processing elements (PEs), each with its own program counter,
  48 KB of SRAM, and a fabric router;
* five cardinal dataflow directions per PE: RAMP (to the local processor),
  EAST, WEST, NORTH, SOUTH;
* 24 logical channels ("colors") whose per-PE input/output directions the
  program configures;
* data structure descriptors (DSDs) naming memory buffers and fabric
  endpoints, moved with asynchronous ``mov32``-style operations that activate
  a color on completion;
* the data-triggered task model: a task bound to a color runs only when that
  color is activated, either explicitly or by a completed transfer.

Execution is event driven. Compute time is charged through an explicit cycle
cost model (:mod:`repro.wse.cost`) calibrated to the paper's Tables 1-3;
fabric transfers are charged per-wavelet injection plus per-hop latency.
Data moves at array granularity (one event per DSD transfer, not one per
wavelet) which keeps simulation tractable while preserving dataflow ordering
and cycle accounting.
"""

from repro.wse.wavelet import Direction, Wavelet
from repro.wse.color import Color, ColorAllocator
from repro.wse.router import RouteRule, Router
from repro.wse.memory import SramAllocator
from repro.wse.dsd import FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.pe import ProcessingElement, Task, TaskContext
from repro.wse.fabric import Fabric
from repro.wse.engine import Engine, SimulationReport
from repro.wse.cost import CycleModel, StageCost, PAPER_CYCLE_MODEL
from repro.wse.trace import TraceRecorder, PETrace

__all__ = [
    "Direction",
    "Wavelet",
    "Color",
    "ColorAllocator",
    "RouteRule",
    "Router",
    "SramAllocator",
    "Mem1dDsd",
    "FabinDsd",
    "FaboutDsd",
    "ProcessingElement",
    "Task",
    "TaskContext",
    "Fabric",
    "Engine",
    "SimulationReport",
    "CycleModel",
    "StageCost",
    "PAPER_CYCLE_MODEL",
    "TraceRecorder",
    "PETrace",
]
