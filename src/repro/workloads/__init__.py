"""Communication workloads: instruction streams for the simulator.

The paper studies Shor's factorisation algorithm through its three
communication-intensive kernels: the Quantum Fourier Transform (all-to-all),
Modular Multiplication (bipartite) and Modular Exponentiation (alternating
squaring and multiplication phases).  Each generator here produces an
:class:`~repro.workloads.instructions.InstructionStream` of two-logical-qubit
operations with the dependency structure the paper's scheduler respects.
"""

from .instructions import InstructionStream, TwoQubitOp
from .qft import qft_stream
from .registry import build_workload
from .modmult import modular_multiplication_stream
from .modexp import modular_exponentiation_stream
from .shor import shor_kernel_streams, shor_stream
from .synthetic import (
    all_to_all_stream,
    nearest_neighbour_stream,
    permutation_stream,
    random_stream,
)

__all__ = [
    "InstructionStream",
    "TwoQubitOp",
    "all_to_all_stream",
    "build_workload",
    "modular_exponentiation_stream",
    "modular_multiplication_stream",
    "nearest_neighbour_stream",
    "permutation_stream",
    "qft_stream",
    "random_stream",
    "shor_kernel_streams",
    "shor_stream",
]
