"""networkx as the test oracle for the topologies' own graph code.

The library keeps its own adjacency map and breadth-first search; the tests
check them against a networkx graph built from the topology's nodes and
links, added in the topology's order so each node lists its neighbours in
the same order.
"""

import networkx as nx


def nx_graph(topology):
    """The topology as a :class:`networkx.Graph`, nodes and links in order."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes())
    graph.add_edges_from((link.a, link.b) for link in topology.links())
    return graph
