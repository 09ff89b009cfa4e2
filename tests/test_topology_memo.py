"""The memoized topology structure answers exactly as fresh networkx does.

:class:`~repro.device.topology.Topology` memoizes its graph, link set,
adjacency, BFS orders and shortest paths. networkx breaks path ties by
insertion order, so every memoized path must equal ``nx.shortest_path``
on a freshly built graph, and the layout search built on the memo must
pick the same layouts as the code that rebuilt the graph per call.
"""

import pickle

import networkx as nx
import pytest

from repro.compiler.mapping import noise_adaptive_layout
from repro.device import topology as topology_module
from repro.device.presets import aspen11, aspen_m1
from repro.device.topology import Topology, make_link
from repro.exceptions import DeviceError
from repro.experiments import ExperimentContext
from repro.programs import benchmark_suite


def _fresh_graph(topology: Topology) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(topology.qubits)
    graph.add_edges_from(topology.links)
    return graph


@pytest.fixture(scope="module")
def aspen_topologies():
    return [aspen11().topology, aspen_m1().topology]


def test_every_memoized_path_matches_fresh_networkx(aspen_topologies):
    for topology in aspen_topologies:
        fresh = _fresh_graph(topology)
        for source in topology.qubits:
            for target in topology.qubits:
                expected = nx.shortest_path(fresh, source, target)
                assert topology.shortest_path(source, target) == expected
                # Second read comes from the memo.
                assert topology.shortest_path(source, target) == expected


def test_bfs_regions_and_neighbors_match_fresh_networkx(aspen_topologies):
    for topology in aspen_topologies:
        fresh = _fresh_graph(topology)
        for seed in topology.qubits:
            order = list(nx.bfs_tree(fresh, seed))
            for size in (1, 4, len(order)):
                region = topology.connected_subgraph_qubits(seed, size)
                assert region == order[:size]
            assert topology.neighbors(seed) == sorted(fresh.neighbors(seed))
            assert topology.degree(seed) == fresh.degree(seed)
        for a in topology.qubits:
            for b in topology.qubits:
                if a != b:
                    assert topology.has_link(a, b) == fresh.has_edge(a, b)


def test_graph_copies_can_be_mutated_without_touching_the_memo():
    topology = aspen11().topology
    path = topology.shortest_path(0, 27)
    graph = topology.graph()
    graph.remove_edges_from(list(graph.edges))
    graph.add_node(999)
    assert topology.shortest_path(0, 27) == path
    assert topology.graph().number_of_edges() == topology.num_links
    assert 999 not in topology.graph()
    assert topology.is_connected()
    returned = topology.neighbors(0)
    returned.append(999)
    assert 999 not in topology.neighbors(0)


def test_memo_stays_out_of_equality_hash_and_pickle():
    topology = aspen11().topology
    pristine = aspen11().topology
    topology.shortest_path(0, 27)
    topology.connected_subgraph_qubits(0, 5)
    assert "_derived_memo" in topology.__dict__
    assert topology == pristine
    assert hash(topology) == hash(pristine)
    assert repr(topology) == repr(pristine)
    assert pickle.dumps(topology) == pickle.dumps(pristine)
    restored = pickle.loads(pickle.dumps(topology))
    assert "_derived_memo" not in restored.__dict__
    assert restored == topology
    assert restored.shortest_path(0, 27) == topology.shortest_path(0, 27)


def test_errors_are_unchanged():
    topology = Topology("split", (0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(DeviceError):
        topology.shortest_path(0, 3)
    with pytest.raises(DeviceError):
        topology.shortest_path(0, 7)
    with pytest.raises(DeviceError):
        topology.connected_subgraph_qubits(7, 1)
    with pytest.raises(DeviceError):
        topology.connected_subgraph_qubits(0, 3)
    assert not topology.is_connected()
    assert topology.connected_subgraph_qubits(0, 2) == [0, 1]


def _unmemoized(monkeypatch, topology: Topology) -> None:
    """Route every topology query through a fresh graph, as before."""
    fresh = _fresh_graph(topology)
    links = set(topology.links)

    def shortest_path(self, source, target):
        return nx.shortest_path(fresh, source, target)

    def has_link(self, a, b):
        return make_link(a, b) in links

    def neighbors(self, qubit):
        return sorted(fresh.neighbors(qubit))

    def connected_subgraph_qubits(self, seed, size):
        if seed not in fresh:
            raise DeviceError(f"unknown qubit {seed}")
        order = list(nx.bfs_tree(fresh, seed))
        if len(order) < size:
            raise DeviceError("component too small")
        return order[:size]

    def no_memo(self):
        raise AssertionError("reference layout touched the memo")

    for name, impl in (
        ("shortest_path", shortest_path),
        ("has_link", has_link),
        ("neighbors", neighbors),
        ("connected_subgraph_qubits", connected_subgraph_qubits),
        ("_derived", no_memo),
    ):
        monkeypatch.setattr(topology_module.Topology, name, impl)


def test_layouts_match_the_unmemoized_search(monkeypatch):
    context = ExperimentContext.create(drift_hours=2.0)
    device, calibration = context.device, context.calibration
    programs = [spec.build() for spec in benchmark_suite(include_extras=True)]
    memoized = [
        noise_adaptive_layout(program, device, calibration)
        for program in programs
    ]
    with monkeypatch.context() as patch:
        _unmemoized(patch, device.topology)
        reference = [
            noise_adaptive_layout(program, device, calibration)
            for program in programs
        ]
    assert memoized == reference
    context.close()
