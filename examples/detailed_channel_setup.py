"""Run a whole workload at individual EPR-pair granularity.

The fluid backend treats channel setup as a fluid; the ``detailed`` transport
backend simulates the same workload at the granularity the hardware works at:
raw pairs are pulled from the virtual wire buffers, swapped through every
intermediate router (queueing for its X or Y teleporter set alongside every
other in-flight channel), and climbed through the endpoint queue purifiers
until enough above-threshold pairs exist to teleport each logical operand.

Both granularities are transport backends named in
``repro.sim.simulator.BACKENDS``, so the same machine and instruction stream
run under either — this example runs both and compares.

Run with:  python examples/detailed_channel_setup.py
"""

from repro import QuantumMachine, ResourceAllocation
from repro.core.logical import STEANE_LEVEL_1
from repro.sim import CommunicationSimulator
from repro.sim.simulator import BACKENDS
from repro.workloads.qft import qft_stream


def main() -> None:
    print("Transport backends:")
    for name in sorted(BACKENDS):
        print(f"  {name:9s} {BACKENDS[name].description}")
    print()

    machine = QuantumMachine(
        6,
        allocation=ResourceAllocation(teleporters_per_node=4, generators_per_node=4, purifiers_per_node=2),
        num_qubits=8,
        encoding=STEANE_LEVEL_1,  # 7 physical qubits per logical qubit keeps the run small
    )
    stream = qft_stream(8)
    print(f"Workload: {stream.name} on {machine.describe()}")
    print()

    results = {}
    for backend in ("fluid", "detailed"):
        results[backend] = CommunicationSimulator(machine, backend=backend).run(stream)
        result = results[backend]
        print(f"[{backend}] makespan {result.makespan_us:,.0f} us, "
              f"{result.channel_count} channels, "
              f"bottleneck: {result.bottleneck_resource()}")
        for name, value in sorted(result.resource_utilisation.items()):
            print(f"  {name:14s} {value:6.1%}")
        print()

    ratio = results["detailed"].makespan_us / results["fluid"].makespan_us
    print(
        f"Detailed/fluid makespan ratio: {ratio:.3f} — the per-pair model "
        "queues real swaps and\npurification rounds, yet lands within the "
        "documented cross-check tolerance of the\nfluid steady state "
        "(`python -m repro verify run --backends`)."
    )
    print()
    print(
        "The pipeline keeps only a handful of pairs in flight at any moment —\n"
        "the paper's observation that per-node storage requirements stay small."
    )


if __name__ == "__main__":
    main()
