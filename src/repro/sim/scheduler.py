"""Logical instruction scheduler (paper Sections 3.2 and 5).

The scheduler consumes an :class:`~repro.workloads.instructions.InstructionStream`
and issues operations as early as possible while maintaining per-qubit program
order: an operation becomes *ready* once every earlier operation touching one
of its logical qubits has completed.  The simulator asks the scheduler which
operations are ready, issues them, and reports completions back.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..errors import SchedulingError
from ..workloads.instructions import InstructionStream, TwoQubitOp


class InstructionScheduler:
    """Dependency-tracking issue logic over an instruction stream."""

    def __init__(self, stream: InstructionStream) -> None:
        self.stream = stream
        self._deps: Dict[int, Set[int]] = stream.dependencies()
        self._dependents: Dict[int, Set[int]] = stream.dependents()
        self._remaining_deps: Dict[int, int] = {
            index: len(deps) for index, deps in self._deps.items()
        }
        self._ready: List[int] = [
            op.index for op in stream.operations if self._remaining_deps[op.index] == 0
        ]
        self._issued: Set[int] = set()
        self._completed: Set[int] = set()
        self._ops_by_index: Dict[int, TwoQubitOp] = {
            op.index: op for op in stream.operations
        }

    # -- state ---------------------------------------------------------------------

    @property
    def total_operations(self) -> int:
        return len(self._ops_by_index)

    @property
    def completed_count(self) -> int:
        return len(self._completed)

    @property
    def finished(self) -> bool:
        """True once every operation has completed."""
        return len(self._completed) == self.total_operations

    def operation(self, index: int) -> TwoQubitOp:
        return self._ops_by_index[index]

    # -- issue / complete -------------------------------------------------------------

    def ready_operations(self) -> List[TwoQubitOp]:
        """Operations whose dependencies are satisfied and that are not yet issued.

        Returned in program order, which keeps the simulation deterministic.
        """
        return [self._ops_by_index[i] for i in sorted(self._ready)]

    def mark_issued(self, index: int) -> None:
        if index not in self._ready:
            raise SchedulingError(f"operation {index} is not ready to issue")
        self._ready.remove(index)
        self._issued.add(index)

    def mark_completed(self, index: int) -> List[TwoQubitOp]:
        """Record a completion; returns operations that have just become ready."""
        if index not in self._issued:
            raise SchedulingError(f"operation {index} completed without being issued")
        if index in self._completed:
            raise SchedulingError(f"operation {index} completed twice")
        self._completed.add(index)
        newly_ready: List[TwoQubitOp] = []
        for dependent in sorted(self._dependents[index]):
            self._remaining_deps[dependent] -= 1
            if self._remaining_deps[dependent] == 0:
                self._ready.append(dependent)
                newly_ready.append(self._ops_by_index[dependent])
        return newly_ready

    # -- sanity ---------------------------------------------------------------------------

    def assert_consistent(self) -> None:
        """Raise if the internal bookkeeping is inconsistent (used in tests)."""
        if self._issued & set(self._ready):
            raise SchedulingError("an operation is both issued and ready")
        if not self._completed <= self._issued:
            raise SchedulingError("an operation completed without being issued")
        for index, remaining in self._remaining_deps.items():
            if remaining < 0:
                raise SchedulingError(f"operation {index} has negative pending dependencies")
