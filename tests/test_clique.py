"""Commutation graph construction and maximum-commuting clique extraction."""

import itertools

import numpy as np
import pytest

from mczeno.clique import (
    BRUTE_FORCE_CAP,
    CliqueResult,
    CommutationGraph,
    brute_force_max_clique,
    build_graph,
    greedy_max_clique,
    mc_hamiltonian,
)
from mczeno.driver import load_qubit_hamiltonian
from mczeno.pauli import commutes, parse_hamiltonian
from conftest import DATA_DIR


def labels_of(h) -> list[str]:
    """The label of each term of h, in vertex order."""
    return [t.label for t in h.terms]


def random_graph(rng, m, edge_p=0.5):
    adjacency = rng.random((m, m)) < edge_p
    adjacency = np.triu(adjacency, 1)
    adjacency = adjacency | adjacency.T
    weights = rng.random(m) + 0.05
    return CommutationGraph(weights, adjacency)


class TestBuildGraph:
    def test_demo_graph_edges(self, toy_hamiltonian):
        """Edges: II-IX, II-IZ, II-ZI, IZ-ZI, IX-ZI; weights 2,3,4,5."""
        g = build_graph(toy_hamiltonian)
        labels = labels_of(toy_hamiltonian)
        by_label = {lab: i for i, lab in enumerate(labels)}
        edges = {
            tuple(sorted((labels[i], labels[j])))
            for i in range(len(g))
            for j in range(i + 1, len(g))
            if g.adjacency[i, j]
        }
        assert edges == {
            ("II", "IX"), ("II", "IZ"), ("II", "ZI"), ("IZ", "ZI"), ("IX", "ZI"),
        }
        weight_of = {lab: g.vertex_weights[i] for lab, i in by_label.items()}
        assert weight_of == {"II": 2.0, "IX": 3.0, "IZ": 4.0, "ZI": 5.0}

    def test_single_term(self):
        g = build_graph(parse_hamiltonian("1.0 XY"))
        assert len(g) == 1
        assert not g.adjacency.any()

    def test_all_z_three_qubits_complete(self):
        h = parse_hamiltonian("1.0 ZII\n2.0 IZI\n3.0 IIZ\n4.0 ZZZ")
        g = build_graph(h)
        off_diag = g.adjacency.sum()
        assert off_diag == 4 * 3
        assert not g.adjacency.diagonal().any()

    def test_adjacency_symmetric(self, toy_hamiltonian):
        g = build_graph(toy_hamiltonian)
        assert np.array_equal(g.adjacency, g.adjacency.T)

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in DATA_DIR.iterdir()) + ["wide_70_qubit"]
    )
    def test_adjacency_matches_pairwise_commutes(self, name):
        if name == "wide_70_qubit":
            rng = np.random.default_rng(1)
            labels = ["".join(rng.choice(list("IIXYZ"), size=70)) for _ in range(12)]
            h = parse_hamiltonian("\n".join(f"1.0 {label}" for label in labels))
        else:
            h, _ = load_qubit_hamiltonian(str(DATA_DIR / name))
        terms = h.terms
        reference = np.array([
            [i != j and commutes(a, b) for j, b in enumerate(terms)]
            for i, a in enumerate(terms)
        ])
        assert np.array_equal(build_graph(h).adjacency, reference)


class TestGreedy:
    def test_demo_clique(self, toy_hamiltonian):
        result = greedy_max_clique(build_graph(toy_hamiltonian))
        members = {toy_hamiltonian.terms[v].label for v in result.vertices}
        assert members == {"II", "IZ", "ZI"}
        assert result.weight == pytest.approx(11.0, abs=0)

    def test_empty_graph(self):
        g = CommutationGraph(np.zeros(0), np.zeros((0, 0), dtype=bool))
        assert greedy_max_clique(g) == CliqueResult((), 0.0)

    def test_complete_graph_takes_all(self):
        m = 5
        adjacency = ~np.eye(m, dtype=bool)
        g = CommutationGraph(np.arange(1.0, m + 1), adjacency)
        result = greedy_max_clique(g)
        assert result.vertices == tuple(range(m))
        assert result.weight == pytest.approx(15.0)

    def test_tie_breaks_to_lowest_index(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        g = CommutationGraph(np.array([2.0, 2.0, 2.0]), adjacency)
        assert greedy_max_clique(g).vertices == (0,)

    def test_always_valid_and_maximal_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            g = random_graph(rng, m, edge_p=float(rng.random()))
            result = greedy_max_clique(g)
            chosen = result.vertices
            for u, v in itertools.combinations(chosen, 2):
                assert g.adjacency[u, v]
            outside = set(range(m)) - set(chosen)
            for u in outside:
                assert not all(g.adjacency[u, v] for v in chosen)

    def test_comparison_count_bounded(self):
        """Compatibility work is at most V**2 adjacency lookups."""
        rng = np.random.default_rng(3)
        m = 18
        g = random_graph(rng, m, 0.6)
        lookups = 0

        class CountingAdjacency:
            def __init__(self, inner):
                self.inner = inner

            def __getitem__(self, key):
                nonlocal lookups
                lookups += 1
                return self.inner[key]

        counted = CommutationGraph(g.vertex_weights, g.adjacency)
        object.__setattr__(counted, "adjacency", CountingAdjacency(g.adjacency))
        greedy_max_clique(counted)
        assert lookups <= m * m


class TestBruteForce:
    def test_demo_graph(self, toy_hamiltonian):
        result = brute_force_max_clique(build_graph(toy_hamiltonian))
        assert {toy_hamiltonian.terms[v].label for v in result.vertices} == {"II", "IZ", "ZI"}
        assert result.weight == pytest.approx(11.0, abs=0)

    def test_rejected_alternative_weighs_10(self, toy_hamiltonian):
        """Dropping IZ leaves the next-best commuting set {II, IX, ZI}."""
        g = build_graph(toy_hamiltonian)
        keep = [i for i, lab in enumerate(labels_of(toy_hamiltonian)) if lab != "IZ"]
        sub = CommutationGraph(g.vertex_weights[keep], g.adjacency[np.ix_(keep, keep)])
        result = brute_force_max_clique(sub)
        assert {toy_hamiltonian.terms[keep[v]].label for v in result.vertices} == {
            "II", "IX", "ZI"}
        assert result.weight == pytest.approx(10.0, abs=0)

    def test_single_vertex(self):
        g = build_graph(parse_hamiltonian("0.5 XYZ"))
        assert brute_force_max_clique(g) == CliqueResult((0,), 0.5)

    def test_cap_enforced(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, BRUTE_FORCE_CAP + 1)
        with pytest.raises(ValueError, match="exact-search cap"):
            brute_force_max_clique(g)

    def test_greedy_never_beats_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = int(rng.integers(1, 14))
            g = random_graph(rng, m, edge_p=float(rng.random()))
            assert greedy_max_clique(g).weight <= brute_force_max_clique(g).weight + 1e-12


class TestMcHamiltonian:
    def test_demo_extraction(self, toy_hamiltonian):
        g = build_graph(toy_hamiltonian)
        clique = greedy_max_clique(g)
        mc = mc_hamiltonian(toy_hamiltonian, clique)
        assert {(t.label, t.coefficient) for t in mc.terms} == {
            ("II", 2.0), ("IZ", -4.0), ("ZI", 5.0),
        }

    def test_empty_clique(self, toy_hamiltonian):
        mc = mc_hamiltonian(toy_hamiltonian, CliqueResult((), 0.0))
        assert len(mc) == 0

    def test_all_z_input_round_trips(self):
        h = parse_hamiltonian("1.0 ZZ\n2.0 IZ\n3.0 ZI")
        clique = greedy_max_clique(build_graph(h))
        assert mc_hamiltonian(h, clique) == h

    def test_non_clique_rejected(self, toy_hamiltonian):
        ix = labels_of(toy_hamiltonian).index("IX")
        iz = labels_of(toy_hamiltonian).index("IZ")
        bad = CliqueResult((ix, iz), 7.0)
        with pytest.raises(ValueError, match="not a clique"):
            mc_hamiltonian(toy_hamiltonian, bad)

    def test_repeated_vertex_rejected(self, toy_hamiltonian):
        """A term commutes with itself, but a vertex may appear only once."""
        iz = labels_of(toy_hamiltonian).index("IZ")
        with pytest.raises(ValueError, match="not a clique"):
            mc_hamiltonian(toy_hamiltonian, CliqueResult((iz, iz), 8.0))
