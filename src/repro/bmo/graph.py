"""Dependency-graph analysis over decomposed sub-operations.

Implements the paper's §3.1 formalism:

* two sub-op sets may run in parallel iff no dependency path connects
  them in either direction;
* a sub-op is *externally dependent* on an input iff a path connects
  the input to it — computed here as reachability from the ADDR/DATA
  pseudo-nodes;
* sub-ops whose closure is a subset of the available inputs can be
  pre-executed.

The graph also produces static schedules (serial and list-scheduled
parallel with ``k`` units), used both by the timeline example (Fig. 3)
and as a cross-check on the event-driven executor.
"""

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.bmo.base import ExternalInput, SubOp
from repro.common.errors import SimulationError


class DependencyGraph:
    """Immutable analysis view over a set of :class:`SubOp`."""

    def __init__(self, subops: Sequence[SubOp]):
        self.subops: Dict[str, SubOp] = {}
        for op in subops:
            if op.name in self.subops:
                raise SimulationError(f"duplicate sub-op name {op.name!r}")
            self.subops[op.name] = op
        for op in subops:
            for dep in op.deps:
                if dep not in self.subops:
                    raise SimulationError(
                        f"sub-op {op.name!r} depends on unknown {dep!r}")
        self._order = self._topological_order()
        # The graph is immutable, so successor lists are computed once;
        # each lists its sub-op's dependents in topological order.
        self._successors: Dict[str, Tuple[str, ...]] = {
            name: tuple(succ for succ in self._order
                        if name in self.subops[succ].deps)
            for name in self._order}
        self._closure = self._external_closure()
        #: ``runnable_with`` results, one per distinct input set.
        self._runnable: Dict[FrozenSet[ExternalInput], Tuple[str, ...]] = {}

    # -- structure ---------------------------------------------------------
    def _topological_order(self) -> List[str]:
        indegree = {name: len(op.deps) for name, op in self.subops.items()}
        successors: Dict[str, List[str]] = {n: [] for n in self.subops}
        for name, op in self.subops.items():
            for dep in op.deps:
                successors[dep].append(name)
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for succ in successors[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.subops):
            cyclic = set(self.subops) - set(order)
            raise SimulationError(f"dependency cycle among {sorted(cyclic)}")
        return order

    @property
    def topological_order(self) -> List[str]:
        return list(self._order)

    def successors(self, name: str) -> List[str]:
        """Sub-ops that depend directly on ``name``, in topological
        order."""
        return list(self._successors[name])

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """All sub-ops reachable by following dependency edges forward."""
        successors = self._successors
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            for succ in successors[node]:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    # -- external classification (paper Fig. 2b / Fig. 6) -------------------
    def _external_closure(self) -> Dict[str, FrozenSet[ExternalInput]]:
        closure: Dict[str, Set[ExternalInput]] = {}
        for name in self._order:
            op = self.subops[name]
            needs: Set[ExternalInput] = set(op.external)
            for dep in op.deps:
                needs |= closure[dep]
            closure[name] = needs
        return {name: frozenset(needs) for name, needs in closure.items()}

    def external_requirements(self, name: str) -> FrozenSet[ExternalInput]:
        """The inputs sub-op ``name`` transitively requires."""
        return self._closure[name]

    def classification(self) -> Dict[str, str]:
        """Map each sub-op to addr / data / both / none."""
        labels = {}
        for name, needs in self._closure.items():
            if needs == {ExternalInput.ADDR}:
                labels[name] = "addr"
            elif needs == {ExternalInput.DATA}:
                labels[name] = "data"
            elif needs == {ExternalInput.ADDR, ExternalInput.DATA}:
                labels[name] = "both"
            else:
                labels[name] = "none"
        return labels

    def runnable_with(self,
                      inputs: FrozenSet[ExternalInput]) -> List[str]:
        """Sub-ops whose entire requirement is covered by ``inputs`` —
        the pre-executable region for a request carrying ``inputs``.
        Returned in topological order, as a fresh list.
        """
        runnable = self._runnable.get(inputs)
        if runnable is None:
            runnable = self._runnable[inputs] = tuple(
                name for name in self._order
                if self._closure[name] <= inputs)
        return list(runnable)

    def can_parallelise(self, group_a: Iterable[str],
                        group_b: Iterable[str]) -> bool:
        """Paper §3.1: S1 parallel S2 iff no path in either direction."""
        set_a, set_b = set(group_a), set(group_b)
        if self.reachable_from(set_a) & set_b:
            return False
        if self.reachable_from(set_b) & set_a:
            return False
        return True

    # -- static schedules ----------------------------------------------------
    def serial_schedule(self,
                        bmo_order: Sequence[str]) -> "Schedule":
        """All sub-ops back to back, grouped by BMO in pipeline order.

        This is the baseline system: each monolithic BMO completes
        before the next starts.
        """
        slots = []
        clock = 0.0
        for bmo in bmo_order:
            for name in self._order:
                op = self.subops[name]
                if op.bmo != bmo:
                    continue
                slots.append((name, clock, clock + op.latency_ns))
                clock += op.latency_ns
        leftover = [n for n in self._order
                    if self.subops[n].bmo not in bmo_order]
        for name in leftover:
            op = self.subops[name]
            slots.append((name, clock, clock + op.latency_ns))
            clock += op.latency_ns
        return Schedule(slots)

    def parallel_schedule(self, units: int = 4,
                          done: Iterable[str] = (),
                          start_times: Dict[str, float] = None) -> "Schedule":
        """List schedule on ``units`` identical units respecting deps.

        ``done`` marks sub-ops already completed (pre-executed); they
        occupy no unit and are treated as finished at t=0.
        """
        if units <= 0:
            raise SimulationError("need at least one BMO unit")
        done = set(done)
        finish: Dict[str, float] = {name: 0.0 for name in done}
        unit_free = [0.0] * units
        slots: List[Tuple[str, float, float]] = []
        pending = [n for n in self._order if n not in done]
        completed: Set[str] = set(done)
        while pending:
            # Among ops whose dependencies have finished, schedule the
            # one that can *start* earliest (ready time vs. unit
            # availability), breaking ties toward longer ops.
            candidates = []
            for name in pending:
                op = self.subops[name]
                if not all(dep in completed for dep in op.deps):
                    continue
                ready = max((finish[dep] for dep in op.deps),
                            default=0.0)
                if start_times and name in start_times:
                    ready = max(ready, start_times[name])
                unit = min(range(units), key=lambda u: unit_free[u])
                begin = max(ready, unit_free[unit])
                candidates.append((begin, -op.latency_ns, name, unit))
            if not candidates:
                raise SimulationError("scheduler wedged (cycle?)")
            begin, _neg, name, unit = min(candidates)
            op = self.subops[name]
            end = begin + op.latency_ns
            unit_free[unit] = end
            finish[name] = end
            slots.append((name, begin, end))
            completed.add(name)
            pending.remove(name)
        return Schedule(slots)


class Schedule:
    """A list of (sub-op, start, end) slots with summary helpers."""

    def __init__(self, slots: List[Tuple[str, float, float]]):
        self.slots = slots

    @property
    def makespan(self) -> float:
        return max((end for _n, _s, end in self.slots), default=0.0)

    def start_of(self, name: str) -> float:
        for slot_name, start, _end in self.slots:
            if slot_name == name:
                return start
        raise KeyError(name)

    def end_of(self, name: str) -> float:
        for slot_name, _start, end in self.slots:
            if slot_name == name:
                return end
        raise KeyError(name)

    def as_rows(self) -> List[Tuple[str, float, float]]:
        return sorted(self.slots, key=lambda s: (s[1], s[0]))

    def render(self, width: int = 60) -> str:
        """ASCII timeline (used by the Fig. 3 example)."""
        if not self.slots:
            return "(empty schedule)"
        span = self.makespan or 1.0
        lines = []
        for name, start, end in self.as_rows():
            lead = int(width * start / span)
            body = max(1, int(width * (end - start) / span))
            lines.append(
                f"{name:>10} |{' ' * lead}{'#' * body}"
                f"  [{start:.0f}-{end:.0f} ns]")
        return "\n".join(lines)
