"""Deterministic random-number generation.

Every stochastic choice in the simulator (workload keys, payload
bytes, dedup-duplicate injection, crash points) flows through a
:class:`DeterministicRng` so that a run is exactly reproducible from
its seed.  Independent streams are derived by name so that, e.g.,
adding an extra random draw in a workload does not perturb the crash
injector's stream.
"""

import hashlib
import random


class DeterministicRng:
    """A named hierarchy of seeded :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._root = random.Random(seed)

    @property
    def seed(self) -> int:
        """The root seed this hierarchy was created from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return an independent stream derived from ``(seed, name)``.

        The same ``(seed, name)`` pair always yields an identical
        stream, regardless of how many other streams were created.
        """
        digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def fork(self, name: str) -> "DeterministicRng":
        """Derive a child hierarchy, e.g. one per simulated core."""
        digest = hashlib.sha256(f"{self._seed}/{name}".encode()).digest()
        return DeterministicRng(int.from_bytes(digest[:8], "big"))
