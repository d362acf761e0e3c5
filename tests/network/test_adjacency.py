"""The topologies' adjacency map and breadth-first search, against networkx.

Hierarchical fabrics find hop distances and switch-endpoint paths with a
port of networkx's bidirectional BFS.  It must return the very path
``nx.shortest_path`` returns, on every ordered node pair of every fabric
kind, because those paths are simulated.  And the library must not need
networkx at run time.
"""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from nx_oracle import nx_graph

from repro.network.bigfabric import shortest_path
from repro.network.fabrics import build_topology

FABRICS = {
    "fat_tree_4": ("fat_tree", 4, None, {}),
    "fat_tree_6": ("fat_tree", 6, None, {}),
    "leaf_spine_8": ("leaf_spine", 8, None, {}),
    "dragonfly_4x2": ("dragonfly", 4, 2, {}),
    "dragonfly_4x2_hosts_2": ("dragonfly", 4, 2, {"hosts_per_router": 2}),
    "mesh_5x4": ("mesh", 5, 4, {}),
    "torus_5x5": ("torus", 5, 5, {}),
    "ring_7": ("ring", 7, None, {}),
}


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_bfs_matches_networkx_on_every_node_pair(name):
    kind, width, height, options = FABRICS[name]
    topology = build_topology(kind, width, height, **options)
    graph = nx_graph(topology)
    nodes = list(topology.nodes())
    for a in nodes:
        for b in nodes:
            expected = nx.shortest_path(graph, a, b)
            assert shortest_path(topology._adjacency, a, b) == expected, (a, b)
            assert topology.hop_distance(a, b) == len(expected) - 1, (a, b)


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_adjacency_and_numbering_follow_nodes_and_links(name):
    kind, width, height, options = FABRICS[name]
    topology = build_topology(kind, width, height, **options)
    nodes, links = list(topology.nodes()), list(topology.links())
    assert topology.node_ids(nodes) == list(range(len(nodes)))
    for number, link in enumerate(links):
        assert topology.link_between(link.a, link.b) == link
        i, j = topology.node_ids((link.a, link.b))
        assert topology.link_of[i][j] == topology.link_of[j][i] == number
    assert sum(len(row) for row in topology.link_of) == 2 * len(links)


def test_importing_every_module_leaves_networkx_unloaded():
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import importlib, pkgutil, sys, repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "assert 'networkx' not in sys.modules, sorted(m for m in sys.modules if 'networkx' in m)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
