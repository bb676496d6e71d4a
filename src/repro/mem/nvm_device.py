"""NVM device timing: channels as queuing servers.

A channel is busy for ``read_service_ns`` / ``write_service_ns`` per
64 B access (PCM-class timings; Table 3 uses a 533 MHz PCM with long
tWR).  With several cores issuing traffic the channel queue grows and
memory latency inflates — the contention that makes Janus's relative
benefit shrink at 8 cores (paper §5.2.1, trend 1).

In the sharded machine (``SystemConfig.shards > 1``) each memory
controller owns one ``NvmDevice`` fronting its own channel group —
``MemoryConfig.channels`` is per controller, as in real DDR-T/NVDIMM
topologies, so shard count multiplies total channel parallelism
(``shards=1`` keeps the classic single device, bit for bit).
Per-channel bandwidth and queueing accounting
(:meth:`channel_statistics`) lives in plain attributes, not the
metrics registry, so enabling it costs no snapshot bytes.
"""

from typing import Dict, List, Optional

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
                 channels: Optional[int] = None,
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
        n_channels = channels if channels is not None \
            else config.channels
        self._channels = [
            Resource(sim, capacity=1, name=f"nvm-s{shard_id}ch{i}"
                     if shard_id else f"nvm-ch{i}")
            for i in range(n_channels)
        ]
        self.reads = 0
        self.writes = 0
        #: line address -> number of device writes (cell wear).
        self.write_counts: Dict[int, int] = {}
        # Per-channel queueing/bandwidth accounting (plain Python, so
        # the metrics snapshot stays identical whether or not anyone
        # reads it): accesses completed, time spent waiting for the
        # channel, and busy (service) time per channel.
        self._ch_accesses: List[int] = [0] * n_channels
        self._ch_wait_ns: List[float] = [0.0] * n_channels
        self._ch_busy_ns: List[float] = [0.0] * n_channels
        self.stats = stats if stats is not None else MetricsScope("nvm")
        #: Optional ``repro.faults.FaultInjector`` (set by ``attach``).
        #: Read-side media faults are armed here on the timing path;
        #: write-side corruption applies where the functional bytes
        #: land (the write-queue drain / ADR flush).
        self.injector = None

    def _count(self, name: str) -> None:
        self.stats.counter(name).add()

    def _channel_index(self, addr: int) -> int:
        if self._local_addr is not None:
            addr = self._local_addr(addr)
        return (addr // 64) % len(self._channels)

    def _channel_for(self, addr: int) -> Resource:
        return self._channels[self._channel_index(addr)]

    def _access(self, addr: int, service_ns: float):
        """Process: acquire the line's channel, serve, and account.

        Event-for-event identical to ``Resource.use`` — the wait/busy
        bookkeeping happens between existing yields, never adding one.
        """
        index = self._channel_index(addr)
        channel = self._channels[index]
        arrival = self.sim.now
        grant = channel.acquire()
        try:
            yield grant
        except BaseException:
            channel.cancel(grant)
            raise
        self._ch_accesses[index] += 1
        self._ch_wait_ns[index] += self.sim.now - arrival
        self._ch_busy_ns[index] += service_ns
        try:
            yield self.sim.delay(service_ns)
        finally:
            channel.release()

    def read_access(self, addr: int):
        """Process: occupy the channel for one line read."""
        self.reads += 1
        self._count("reads")
        if self.injector is not None:
            self.injector.on_device_read(addr)
        yield from self._access(addr, self.cfg.read_service_ns)

    def write_access(self, addr: int):
        """Process: occupy the channel for one line write."""
        self.writes += 1
        self._count("writes")
        self.write_counts[addr] = self.write_counts.get(addr, 0) + 1
        yield from self._access(addr, self.cfg.write_service_ns)

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

    def channel_statistics(self) -> List[Dict[str, float]]:
        """Per-channel queueing/bandwidth summary, in channel order.

        ``accesses`` / ``busy_ns`` measure delivered bandwidth (64 B
        per access over busy time); ``mean_wait_ns`` and the live
        ``queue_length`` expose queueing pressure per channel.
        """
        out = []
        for index, channel in enumerate(self._channels):
            accesses = self._ch_accesses[index]
            out.append({
                "channel": index,
                "accesses": accesses,
                "busy_ns": self._ch_busy_ns[index],
                "wait_ns": self._ch_wait_ns[index],
                "mean_wait_ns": self._ch_wait_ns[index] / accesses
                if accesses else 0.0,
                "utilisation": channel.utilisation(),
                "queue_length": channel.queue_length,
            })
        return out

    def utilisation(self) -> float:
        """Mean utilisation across channels."""
        if not self._channels:
            return 0.0
        return sum(c.utilisation() for c in self._channels) \
            / len(self._channels)
