"""NVM device timing: channels as queuing servers.

A channel is busy for ``write_service_ns`` per 64 B line write
(PCM-class timings; Table 3 uses a 533 MHz PCM with long tWR).  With
several cores issuing traffic the channel queue grows and write-queue
drains slow down — the contention that makes Janus's relative
benefit shrink at 8 cores (paper §5.2.1, trend 1).

Only writes reach a channel: the write queue drains through
:meth:`NvmDevice.write`.  Core loads are timed by
``Core._access_latency``, which charges ``read_service_ns`` on a
cache miss (plus the controller's decrypt penalty) without occupying
a channel.

In the sharded machine (``SystemConfig.shards > 1``) each memory
controller owns one ``NvmDevice`` fronting its own channel group —
``MemoryConfig.channels`` is per controller, as in real DDR-T/NVDIMM
topologies, so shard count multiplies total channel parallelism
(``shards=1`` keeps the classic single device, bit for bit).
"""

from typing import Callable, Dict, Optional

from repro.common.config import MemoryConfig
from repro.obs.metrics import MetricsScope
from repro.sim import Resource, Simulator


class NvmDevice:
    """Channel-level timing model in front of the functional memory.

    Besides timing, the device keeps per-line write counts — the raw
    material of the endurance problem wear-leveling exists to solve
    (Table 1).  ``wear_statistics`` summarises the distribution so
    tests and benches can show Start-Gap flattening it.
    """

    def __init__(self, sim: Simulator, config: MemoryConfig,
                 stats: Optional[MetricsScope] = None,
                 shard_id: int = 0,
                 local_addr=None):
        self.sim = sim
        self.cfg = config
        self.shard_id = shard_id
        #: Global -> shard-local address map for channel hashing.  A
        #: sharded device sees stride-interleaved global addresses;
        #: hashing those directly would alias whole stripes onto a
        #: subset of channels, so the machine passes the router's
        #: densifying map.  ``None`` (unsharded) hashes the address
        #: as-is.
        self._local_addr = local_addr
        self._channels = [
            Resource(sim, capacity=1, name=f"nvm-s{shard_id}ch{i}"
                     if shard_id else f"nvm-ch{i}")
            for i in range(config.channels)
        ]
        #: line address -> number of device writes (cell wear).
        self.write_counts: Dict[int, int] = {}
        self.stats = stats if stats is not None else MetricsScope("nvm")
        self._c_writes = None

    def _channel_index(self, addr: int) -> int:
        if self._local_addr is not None:
            addr = self._local_addr(addr)
        return (addr // 64) % len(self._channels)

    def write(self, addr: int, done: Callable, *args) -> None:
        """Occupy the line's channel for one line write, then call
        ``done(*args)``.

        The channel grant is one callback, in the slot a process
        granted the channel resumed in; it holds the channel
        for ``write_service_ns``, and the callback at the end releases
        it and calls ``done`` in the same dispatch.
        """
        counter = self._c_writes
        if counter is None:
            # Resolved at the first write: a device never written
            # registers no ``writes`` counter.
            counter = self._c_writes = self.stats.counter("writes")
        counter.value += 1
        self.write_counts[addr] = self.write_counts.get(addr, 0) + 1
        channel = self._channels[self._channel_index(addr)]
        channel.request(self._granted, channel, done, args)

    def _granted(self, channel: Resource, done: Callable, args) -> None:
        self.sim._schedule(self.cfg.write_service_ns, self._written,
                           channel, done, args)

    def _written(self, channel: Resource, done: Callable, args) -> None:
        channel.release()
        done(*args)

    def wear_statistics(self) -> Dict[str, float]:
        """Summary of the per-line wear distribution."""
        if not self.write_counts:
            return {"lines": 0, "max": 0, "mean": 0.0, "imbalance": 0.0}
        counts = list(self.write_counts.values())
        mean = sum(counts) / len(counts)
        worst = max(counts)
        return {
            "lines": len(counts),
            "max": worst,
            "mean": mean,
            # max/mean: 1.0 is perfectly even wear; the hot-spot
            # factor wear-leveling is meant to pull down.
            "imbalance": worst / mean if mean else 0.0,
        }
