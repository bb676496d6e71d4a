"""NVM image scrubbing — an fsck for the encrypted, deduplicated,
integrity-protected device.

``scrub(system)`` walks the quiescent system's persistent state and
verifies every protection layer end to end:

1. every mapped line's ciphertext decrypts through its metadata chain
   (dedup remap -> entry -> pad identity, or counter directly) and
   its MAC matches — catching device-level data corruption;
2. every committed metadata leaf still verifies against the Merkle
   root in the secure register — catching metadata tampering;
3. dedup invariants: every remap points at a live entry, refcounts
   equal the number of aliases, relocated ciphertexts exist.

Returns a :class:`ScrubReport`; the tests corrupt each layer in turn
and assert the scrubber localises the damage.
"""

from dataclasses import dataclass, field
from typing import List

from repro.common.errors import UncorrectableMediaError
from repro.crypto.primitives import mac_of


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    lines_checked: int = 0
    leaves_checked: int = 0
    mac_failures: List[int] = field(default_factory=list)
    merkle_failures: List[int] = field(default_factory=list)
    dedup_failures: List[str] = field(default_factory=list)
    #: Lines whose single-bit media damage ECC fixed during the walk.
    corrected_lines: List[int] = field(default_factory=list)
    #: Lines with uncorrectable media damage, taken out of service.
    poisoned_lines: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No *silent* damage: everything either verified, or was
        corrected/poisoned explicitly (tracked separately)."""
        return not (self.mac_failures or self.merkle_failures
                    or self.dedup_failures)

    def render(self) -> str:
        lines = [
            f"scrub: {self.lines_checked} lines, "
            f"{self.leaves_checked} leaves checked",
        ]
        if self.clean:
            lines.append("  image clean")
        for addr in self.mac_failures:
            lines.append(f"  MAC FAILURE at line {addr:#x}")
        for index in self.merkle_failures:
            lines.append(f"  MERKLE FAILURE at leaf {index}")
        for detail in self.dedup_failures:
            lines.append(f"  DEDUP INVARIANT: {detail}")
        for addr in self.corrected_lines:
            lines.append(f"  ecc-corrected line {addr:#x}")
        for addr in self.poisoned_lines:
            lines.append(f"  POISONED line {addr:#x} "
                         f"(uncorrectable media damage)")
        return "\n".join(lines)


def scrub(system, degraded=None, injector=None) -> ScrubReport:
    """Verify the persistent image of a quiescent system.

    With a :class:`repro.faults.DegradedModeManager` supplied, line
    reads go through it: correctable media damage is healed in place
    (and reported), uncorrectable lines are poisoned and reported —
    the scrubber never MAC-checks bytes ECC already rejected.

    The scrub is itself crashable: every line fetch (plus the
    degraded manager's heal and poison actions) is an instrumented
    step where an armed ``scrub_crash`` spec raises
    :class:`~repro.common.errors.RecoveryCrash`.  Re-running the
    scrub after such a crash converges — heals and quarantine records
    are idempotent, and a shared quarantine set survives the crash.
    """
    report = ScrubReport()
    pipeline = system.pipeline
    encryption = pipeline.by_name.get("encryption")
    dedup = pipeline.by_name.get("dedup")
    integrity = pipeline.by_name.get("integrity")
    if injector is None:
        injector = degraded.injector if degraded is not None \
            else getattr(system, "injector", None)

    def fetch(addr):
        """Line read for the MAC walk; None if taken out of service."""
        if injector is not None:
            injector.on_scrub_step("fetch", addr=addr)
        if degraded is None:
            return system.nvm.read_line(addr)
        try:
            return degraded.read_line(addr)
        except UncorrectableMediaError:
            report.poisoned_lines.append(addr)
            return None

    # Pads with any MAC on record: commits mint (counter, MAC)
    # atomically, so a covered pad whose current counter has no MAC
    # means the counter store was tampered with.
    pads_with_macs = {p for (p, _c) in encryption.macs} \
        if encryption is not None else set()

    # 1. data: MAC-verify every *live* ciphertext.
    if encryption is not None and dedup is not None:
        # Walk the dedup entries: each holds the single physical copy
        # of a live value (including relocated ones) and the pad
        # identity its MAC was minted under.
        for entry in dedup.table.entries.values():
            expected = encryption.macs.get(
                (entry.pad_addr, entry.counter))
            if expected is None:
                continue  # seeded functionally without MAC coverage
            cipher = fetch(entry.store_addr)
            report.lines_checked += 1
            if cipher is None:
                continue
            if mac_of(cipher, entry.counter) != expected:
                report.mac_failures.append(entry.store_addr)
    elif encryption is not None:
        for addr, counter in \
                encryption.engine.snapshot_counters().items():
            expected = encryption.macs.get((addr, counter))
            if expected is None:
                if addr in pads_with_macs:
                    report.lines_checked += 1
                    report.mac_failures.append(addr)
                continue
            cipher = fetch(addr)
            report.lines_checked += 1
            if cipher is None:
                continue
            if mac_of(cipher, counter) != expected:
                report.mac_failures.append(addr)

    # 2. metadata: every committed leaf against the secure root.
    if integrity is not None:
        for index, leaf_value in \
                sorted(integrity.committed_leaves.items()):
            report.leaves_checked += 1
            if not integrity.tree.verify_leaf(index, leaf_value):
                report.merkle_failures.append(index)

    # 3. dedup structural invariants.
    if dedup is not None:
        alias_counts = {}
        for addr, fingerprint in dedup.table.remap.items():
            entry = dedup.table.entries.get(fingerprint)
            if entry is None:
                report.dedup_failures.append(
                    f"remap {addr:#x} -> dropped entry")
                continue
            alias_counts[fingerprint] = \
                alias_counts.get(fingerprint, 0) + 1
        for fingerprint, entry in dedup.table.entries.items():
            aliases = alias_counts.get(fingerprint, 0)
            if entry.refcount != aliases:
                report.dedup_failures.append(
                    f"entry {fingerprint.hex()[:8]} refcount "
                    f"{entry.refcount} != {aliases} aliases")

    if degraded is not None:
        report.corrected_lines.extend(degraded.take_corrections())
    return report
