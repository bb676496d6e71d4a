"""Janus: pre-execution hardware and its software interface.

This package is the paper's primary contribution (§4):

* :class:`IntermediateResultBuffer` — stores pre-executed sub-operation
  results at the memory controller, isolated from processor/memory
  state, with data-copy validation, metadata-change invalidation,
  aging, and drop-on-full semantics (§4.3.1, §4.6);
* :class:`PreExecRequestQueue` and the decoder after it — buffering,
  coalescing, and cache-line splitting of pre-execution requests
  (§4.3.2, Fig. 7);
* :class:`JanusEngine` — ties the request queue, the IRB, and the shared BMO
  units together: pumps requests, pre-executes what the available
  inputs allow, and services the actual write when it arrives;
* :class:`JanusInterface` — the software API of Table 2 (``PRE_INIT``,
  ``PRE_ADDR``/``PRE_DATA``/``PRE_BOTH``/``PRE_BOTH_VAL`` and the
  deferred ``_BUF`` variants with ``PRE_START_BUF``).
"""

from repro.janus.api import JanusInterface, PreObj
from repro.janus.engine import JanusEngine
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.janus.misuse import MisuseReport, diagnose
from repro.janus.overhead import hardware_overhead_report
from repro.janus.queues import (
    PreExecOperation,
    PreExecRequest,
    PreExecRequestQueue,
    decode_request,
)

__all__ = [
    "IntermediateResultBuffer",
    "IrbEntry",
    "JanusEngine",
    "JanusInterface",
    "MisuseReport",
    "diagnose",
    "PreExecOperation",
    "PreExecRequest",
    "PreExecRequestQueue",
    "PreObj",
    "decode_request",
    "hardware_overhead_report",
]
