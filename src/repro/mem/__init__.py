"""Memory substrate: functional NVM, heap, caches, device timing.

Two parallel views of memory exist, mirroring a real encrypted NVM
system:

* the **volatile view** (``NvmSystem.volatile``) — the plaintext
  bytes the program reads and writes through the cache hierarchy;
* the **persistent NVM** (``NvmSystem.nvm``) — the bytes that
  actually live on the device, which with encryption enabled are
  ciphertext, written only by the memory controller after the BMOs.

Both are :class:`FunctionalMemory` stores.

Crash tests drop the volatile view and reconstruct program state from
the persistent side through the BMO metadata, which is what makes the
crash-consistency guarantees testable rather than assumed.
"""

from repro.mem.cache import CacheModel
from repro.mem.heap import NvmHeap
from repro.mem.memory import FunctionalMemory
from repro.mem.nvm_device import NvmDevice
from repro.mem.shard import ShardRouter
from repro.mem.write_queue import WriteQueue

__all__ = [
    "CacheModel",
    "FunctionalMemory",
    "NvmDevice",
    "NvmHeap",
    "ShardRouter",
    "WriteQueue",
]
