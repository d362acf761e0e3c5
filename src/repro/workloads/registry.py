"""Named workload builders, parameterizable from declarative specs.

The scenario engine requests instruction streams by name with a parameter
mapping, so :data:`WORKLOADS` names every generator in this package with the
parameters it takes, and :func:`build_workload` validates them before calling
through.  Unknown workload names and unknown or malformed parameters raise
:class:`~repro.errors.ConfigurationError` with the table's vocabulary in the
message, which is what makes scenario files debuggable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError, ReproError
from .instructions import InstructionStream
from .modexp import modular_exponentiation_stream
from .modmult import modular_multiplication_stream
from .qft import qft_stream
from .shor import shor_stream
from .synthetic import (
    all_to_all_stream,
    nearest_neighbour_stream,
    permutation_stream,
    random_stream,
)

#: A builder maps (num_qubits, **params) to an instruction stream.
WorkloadBuilder = Callable[..., InstructionStream]


class Workload(NamedTuple):
    """A workload's builder and the optional parameters it takes beyond ``num_qubits``."""

    build: WorkloadBuilder
    params: Tuple[str, ...] = ()


def _random(
    num_qubits: int, *, num_operations: Optional[int] = None, seed: int = 0
) -> InstructionStream:
    """Uniform random pairs; defaults to one operation per qubit."""
    return random_stream(num_qubits, num_operations or num_qubits, seed=seed)


#: The workloads, by the name ``workload.kind`` selects.
WORKLOADS: Dict[str, Workload] = {
    "qft": Workload(qft_stream),
    "all_to_all": Workload(all_to_all_stream),
    "nearest_neighbour": Workload(nearest_neighbour_stream, ("rounds",)),
    "permutation": Workload(permutation_stream, ("seed",)),
    "random": Workload(_random, ("num_operations", "seed")),
    "modmult": Workload(modular_multiplication_stream, ("split",)),
    "modexp": Workload(modular_exponentiation_stream, ("steps", "split")),
    "shor": Workload(shor_stream, ("modexp_steps",)),
}


def build_workload(
    kind: str, num_qubits: int, params: Optional[Mapping[str, Any]] = None
) -> InstructionStream:
    """Build an instruction stream by its :data:`WORKLOADS` name.

    ``params`` holds the workload's optional keyword parameters (e.g.
    ``{"rounds": 3}`` for ``nearest_neighbour``); unknown keys are rejected
    before the builder runs.
    """
    key = (kind or "").strip().lower()
    workload = WORKLOADS.get(key)
    if workload is None:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; known: {sorted(WORKLOADS)}"
        )
    params = dict(params or {})
    unknown = sorted(set(params) - set(workload.params))
    if unknown:
        raise ConfigurationError(
            f"workload {key!r} does not take parameters {unknown}; "
            f"accepted: {sorted(workload.params) or 'none'}"
        )
    try:
        return workload.build(num_qubits, **params)
    except ReproError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"workload {key!r} rejected parameters {params}: {exc}"
        ) from exc
