"""Transaction-template IR.

A :class:`Template` is the static shape of one transaction kind — the
object the "compiler" analyses.  Statements reference symbolic
variables by name:

* :class:`AddrGen` — computes an address variable.  ``inputs`` names
  the variables it reads; ``entry_available`` inputs are function
  arguments (known at transaction entry).  ``memory_dependent`` marks
  pointer chasing / table walks whose result only exists at runtime —
  the paper's pass cannot hoist those.
* :class:`Value` — a data variable and where it becomes available.
* :class:`Store` — writes ``value_var`` to ``addr_var``.
* :class:`Writeback` / :class:`Fence` — the persist primitives; a
  writeback whose fence follows is *blocking*.
* :class:`Loop` — a statically-unbounded loop body (iteration count
  unknown at compile time).
* :class:`Cond` — two branches under a runtime predicate.
* :class:`Hook` — a named program point where the runtime will consult
  the instrumentation plan.

The runtime side (workloads) executes real Python against the
simulator; the template exists so the automated pass has something
faithful to analyse, with exactly the information a compiler IR would
carry.
"""

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.common.errors import InstrumentationError


class Stmt:
    """Base class for template statements."""


@dataclass
class AddrGen(Stmt):
    """Compute address variable ``name`` from ``inputs``."""

    name: str
    inputs: Tuple[str, ...] = ()
    #: True when the computation walks memory (pointer chase, probe):
    #: its result cannot be hoisted above the walk.
    memory_dependent: bool = False


@dataclass
class Value(Stmt):
    """Data variable ``name`` becomes available here.

    ``from_args`` marks function arguments (available at entry).
    """

    name: str
    from_args: bool = False


@dataclass
class Store(Stmt):
    """Store ``value_var`` to the address in ``addr_var``."""

    addr_var: str
    value_var: str
    #: Object label this store targets (links stores to writebacks).
    obj: str = ""


@dataclass
class LogBackup(Stmt):
    """Undo-log backup of the object at ``addr_var``."""

    addr_var: str
    obj: str = ""


@dataclass
class Writeback(Stmt):
    """clwb of the object at ``addr_var``."""

    addr_var: str
    obj: str = ""


@dataclass
class Fence(Stmt):
    """sfence — writebacks issued before it are blocking."""


@dataclass
class Hook(Stmt):
    """Named injection point for instrumentation directives."""

    name: str


@dataclass
class Loop(Stmt):
    """A loop whose trip count is unknown statically."""

    body: List[Stmt] = field(default_factory=list)


@dataclass
class Cond(Stmt):
    """Two-way branch on a runtime predicate."""

    then: List[Stmt] = field(default_factory=list)
    otherwise: List[Stmt] = field(default_factory=list)


@dataclass
class Template:
    """One transaction kind: argument list + statement body."""

    name: str
    args: Tuple[str, ...]
    body: List[Stmt]

    def validate(self) -> "Template":
        hooks = [h.name for h in iter_stmts(self.body)
                 if isinstance(h, Hook)]
        if len(hooks) != len(set(hooks)):
            raise InstrumentationError(
                f"template {self.name!r}: duplicate hook names")
        defined = set(self.args)
        for stmt in iter_stmts(self.body):
            if isinstance(stmt, AddrGen):
                for dep in stmt.inputs:
                    if dep not in defined:
                        raise InstrumentationError(
                            f"template {self.name!r}: {stmt.name!r} "
                            f"reads undefined {dep!r}")
                defined.add(stmt.name)
            elif isinstance(stmt, Value):
                defined.add(stmt.name)
            elif isinstance(stmt, (Store, LogBackup, Writeback)):
                if stmt.addr_var not in defined:
                    raise InstrumentationError(
                        f"template {self.name!r}: use of undefined "
                        f"address {stmt.addr_var!r}")
        return self


def iter_stmts(body: Sequence[Stmt]):
    """Depth-first traversal of a statement list."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, Loop):
            yield from iter_stmts(stmt.body)
        elif isinstance(stmt, Cond):
            yield from iter_stmts(stmt.then)
            yield from iter_stmts(stmt.otherwise)
