"""Graceful degradation: retry, back off, correct, or poison — never
crash.

The :class:`DegradedModeManager` is the policy layer between raw
media reads and consumers that need trustworthy bytes (the scrubber,
recovery tooling, the ``repro scrub`` CLI).  Instead of letting an
:class:`~repro.common.errors.UncorrectableMediaError` propagate as a
hard failure, it:

1. re-reads the line up to the :class:`RetryPolicy`'s budget —
   transient faults (a bad sense, a disturbed read) clear on retry;
   each retry consumes a deterministic, exponentially growing slice
   of *simulation* time, so retry storms are visible in
   ``repro profile`` / time-series output instead of being free;
2. applies ECC correction when the pipeline carries codes — a
   single-bit flip is corrected *and healed back* to the device
   (scrub-on-read);
3. poisons lines whose damage survives both — they are quarantined
   in :attr:`poisoned` (a set the caller may share across recovery
   cycles) and reported through the
   :class:`~repro.consistency.scrub.ScrubReport`, and subsequent
   reads raise immediately instead of handing out garbage.

Everything is counted in the shared ``faults`` metrics scope so a
campaign can assert "N injected, N corrected + M poisoned, 0 silently
absorbed".
"""

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.bmo.ecc import check as ecc_check
from repro.common.errors import ConfigError, UncorrectableMediaError
from repro.obs import log as runlog

_TRACK = ("faults", "degraded")


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry/backoff for resilient media reads.

    The Nth retry (1-based) waits ``base_delay_ns * multiplier**(N-1)``
    simulated nanoseconds, capped at ``max_delay_ns``.  The policy is
    pure arithmetic on integers — identical inputs always cost the
    same simulated time, so backoff never perturbs determinism.
    """

    #: Retries after the first attempt (attempts = max_retries + 1).
    max_retries: int = 2
    #: Delay before the first retry, in simulated ns.
    base_delay_ns: int = 50
    #: Exponential growth factor between consecutive retries.
    multiplier: int = 2
    #: Ceiling for a single retry's delay.
    max_delay_ns: int = 10_000

    def validate(self) -> "RetryPolicy":
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.base_delay_ns < 0 or self.max_delay_ns < 0:
            raise ConfigError("retry delays must be >= 0")
        if self.multiplier < 1:
            raise ConfigError("retry multiplier must be >= 1")
        return self

    def delay_for(self, attempt: int) -> int:
        """Backoff before retry ``attempt`` (1-based), in sim-ns."""
        if attempt < 1:
            return 0
        return min(self.base_delay_ns * self.multiplier ** (attempt - 1),
                   self.max_delay_ns)

    def total_budget_ns(self) -> int:
        """Worst-case sim-time one read can spend backing off."""
        return sum(self.delay_for(a)
                   for a in range(1, self.max_retries + 1))


class DegradedModeManager:
    """Bounded retry + backoff, ECC healing, line poisoning."""

    def __init__(self, system, injector=None,
                 policy: Optional[RetryPolicy] = None,
                 quarantine: Optional[Set[int]] = None):
        self.system = system
        self.injector = injector if injector is not None \
            else getattr(system, "injector", None)
        self.policy = (policy if policy is not None
                       else RetryPolicy()).validate()
        #: Lines quarantined after exhausting retries.  When the
        #: caller passes a shared set, poisoning survives this
        #: manager (soak cycles carry one quarantine across crashes).
        self.poisoned: Set[int] = quarantine if quarantine is not None \
            else set()
        #: Lines ECC-corrected (and healed in NVM) by this manager.
        self.corrected: List[int] = []
        stats = system.metrics.scope("faults")
        self._c_corrected = stats.counter("corrected_lines")
        self._c_retries = stats.counter("read_retries")
        self._c_poisoned = stats.counter("poisoned_lines")
        self._c_healed = stats.counter("healed_writes")
        self._c_backoff = stats.counter("retry_backoff_ns")
        self._c_escalations = stats.counter("escalations")
        self.tracer = system.tracer

    # -- helpers -----------------------------------------------------------
    def _code_for(self, addr: int) -> Optional[bytes]:
        ecc = self.system.pipeline.by_name.get("ecc")
        if ecc is None:
            return None
        return ecc.codes.get(addr)

    def _trace(self, name: str, addr: int, **extra) -> None:
        if self.tracer.enabled:
            self.tracer.instant(name, "faults", _TRACK,
                                ts_ns=self.system.sim.now,
                                args={"addr": addr, **extra})
        runlog.event("faults.degraded", name,
                     sim_ns=self.system.sim.now, level="warn",
                     addr=addr, **extra)

    def _backoff(self, attempt: int) -> None:
        """Consume the retry's deterministic sim-time delay.

        Degraded-mode reads run on a quiescent (post-crash) system, so
        advancing the clock directly is safe — there are no pending
        events to dispatch, and ``Simulator.run(until=...)`` uses the
        same ``now = max(now, until)`` idiom.
        """
        delay = self.policy.delay_for(attempt)
        if delay:
            self.system.sim.now += delay
            self._c_backoff.add(delay)

    def poison(self, addr: int) -> None:
        if addr not in self.poisoned:
            self.poisoned.add(addr)
            self._c_poisoned.add()
            self._trace("poison-line", addr)

    # -- the resilient read path ---------------------------------------------
    def read_line(self, addr: int) -> bytes:
        """Read one line with retry + backoff + ECC; raise only after
        poisoning.

        Returns trustworthy bytes or raises
        :class:`UncorrectableMediaError` — never a silently damaged
        line.  Lines already poisoned raise immediately.
        """
        if addr in self.poisoned:
            raise UncorrectableMediaError(
                f"line {addr:#x} is poisoned", line_addr=addr)
        code = self._code_for(addr)
        last_error = None
        for attempt in range(self.policy.max_retries + 1):
            if attempt:
                self._c_retries.add()
                self._backoff(attempt)
                self._trace("read-retry", addr, attempt=attempt,
                            backoff_ns=self.policy.delay_for(attempt))
            raw = self.system.nvm.read_line(addr)
            if self.injector is not None:
                raw = self.injector.filter_read(addr, raw)
            if code is None:
                # No ECC coverage: nothing to judge against; the MAC
                # layer above (scrub/recovery) is the next net.
                return raw
            try:
                fixed = ecc_check(raw, code, line_addr=addr)
            except UncorrectableMediaError as error:
                last_error = error
                continue
            if fixed != raw:
                # Correctable damage: heal the stored copy so the
                # next read doesn't pay again (scrub-on-read).  The
                # heal is itself an instrumented scrub step — a
                # seeded ``scrub_crash`` can strike right before it.
                if self.injector is not None:
                    self.injector.on_scrub_step("heal", addr=addr)
                self.system.nvm.write_line(addr, fixed)
                self.corrected.append(addr)
                self._c_corrected.add()
                self._c_healed.add()
                self._trace("ecc-correct", addr)
            return fixed
        # Escalation: the retry budget is exhausted — quarantine the
        # line and raise an explicit, accounted error.
        self._c_escalations.add()
        if self.injector is not None:
            self.injector.on_scrub_step("poison", addr=addr)
        self.poison(addr)
        raise UncorrectableMediaError(
            f"line {addr:#x} uncorrectable after "
            f"{self.policy.max_retries + 1} attempts", line_addr=addr) \
            from last_error

    def take_corrections(self) -> List[int]:
        """Corrections accumulated since the last call (for reports)."""
        out, self.corrected = self.corrected, []
        return out
