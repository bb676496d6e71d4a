"""Sub-operations, per-write contexts, and the BMO base class."""

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.common.errors import SimulationError


class ExternalInput(enum.Enum):
    """The two external inputs a write request carries (paper §3.1)."""

    ADDR = "addr"
    DATA = "data"


#: Shorthands used throughout the BMO definitions.
ADDR = ExternalInput.ADDR
DATA = ExternalInput.DATA


@dataclass(frozen=True)
class SubOp:
    """One decomposed step of a BMO.

    ``deps`` names predecessor sub-ops (same or other BMO — the graph
    does not care, which is exactly the point of the decomposition).
    ``external`` lists *direct* external inputs; the transitive closure
    is computed by :class:`repro.bmo.graph.DependencyGraph`.
    ``run`` performs the functional work: it may read shared mechanism
    state but must only write into the :class:`BmoContext` (so that
    pre-execution leaves processor/memory state untouched —
    requirement 1 of §3.2).
    """

    name: str
    bmo: str
    latency_ns: float
    deps: Tuple[str, ...] = ()
    external: FrozenSet[ExternalInput] = frozenset()
    run: Optional[Callable[["BmoContext"], None]] = None

    def execute(self, ctx: "BmoContext") -> None:
        """Run the functional action, recording completion in ``ctx``."""
        if self.run is not None:
            self.run(ctx)
        ctx.completed.add(self.name)


@dataclass
class BmoContext:
    """Everything the sub-operations of one line-write compute.

    The context is the "intermediate results" cell of an IRB entry:
    it accumulates counter, OTP, fingerprint, duplicate verdict,
    ciphertext, MAC, Merkle path, etc.  It never aliases shared
    mechanism state; committing the results to the shared mechanisms
    is a separate, explicit step owned by the pipeline.
    """

    addr: Optional[int] = None
    data: Optional[bytes] = None
    #: Sub-op names whose functional action has run.
    completed: set = field(default_factory=set)
    #: Free-form slots filled by sub-ops.
    values: Dict[str, object] = field(default_factory=dict)

    @property
    def available_inputs(self) -> FrozenSet[ExternalInput]:
        inputs = set()
        if self.addr is not None:
            inputs.add(ADDR)
        if self.data is not None:
            inputs.add(DATA)
        return frozenset(inputs)

    def require(self, key: str):
        """Fetch a value produced by an earlier sub-op, or fail loudly."""
        try:
            return self.values[key]
        except KeyError:
            raise SimulationError(
                f"sub-operation ordering bug: {key!r} not yet computed "
                f"(completed={sorted(self.completed)})") from None

    def merge_from(self, other: "BmoContext") -> None:
        """Adopt another context's results (IRB hit path).

        Used when a write arrives and finds pre-executed results: the
        write's fresh context absorbs what the pre-execution computed.
        """
        self.completed |= other.completed
        for key, value in other.values.items():
            self.values.setdefault(key, value)
        if self.addr is None:
            self.addr = other.addr
        if self.data is None:
            self.data = other.data


class BackendOperation:
    """Base class for a BMO mechanism.

    Subclasses own their shared metadata (dedup tables, counters,
    Merkle tree), declare their sub-operations via :meth:`subops`, and
    implement :meth:`commit` — the only place shared state mutates,
    called by the memory controller when the actual write lands.

    ``invalidation_hooks`` lets the Janus IRB subscribe to metadata
    changes that would stale pre-executed results (paper §4.3.1,
    cause 2).
    """

    name = "bmo"

    def __init__(self) -> None:
        self.invalidation_hooks = []

    def subops(self) -> Tuple[SubOp, ...]:
        raise NotImplementedError

    def commit(self, ctx: BmoContext) -> None:
        """Apply the context's results to shared mechanism state."""

    def notify_metadata_change(self, **details) -> None:
        """Tell subscribers (the IRB) that shared metadata changed."""
        for hook in self.invalidation_hooks:
            hook(self.name, details)

    # -- persistence ---------------------------------------------------
    def unreconstructable_metadata(self) -> dict:
        """Metadata that cannot be rebuilt from NVM data alone and must
        therefore be persisted atomically with the data (paper §4.3).
        """
        return {}

    def restore_metadata(self, snapshot: dict) -> None:
        """Recovery path: reinstall persisted metadata."""
