"""Maximum-commuting extraction via weighted cliques of the commutation graph.

Vertices are Hamiltonian terms weighted by |coefficient|, edges join
commuting pairs, and a maximum-weight clique is a maximum-commuting term
set.  The greedy search repeatedly takes the heaviest remaining vertex
that is compatible with everything selected so far; an exact
branch-and-bound search serves as the reference on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from mczeno.pauli import PauliHamiltonian, commutes, parity

BRUTE_FORCE_CAP = 24
"""Largest vertex count accepted by the exact clique search."""


@dataclass(frozen=True)
class CommutationGraph:
    """Weighted commutation graph of a Pauli Hamiltonian.

    vertex_weights[i] is |coefficient| of term i; adjacency is symmetric
    with a False diagonal (no self-loops).
    """

    vertex_weights: np.ndarray
    adjacency: np.ndarray

    def __len__(self) -> int:
        return len(self.vertex_weights)


@dataclass(frozen=True)
class CliqueResult:
    """A maximal clique: sorted vertex tuple and its total weight."""

    vertices: tuple[int, ...]
    weight: float


def build_graph(h: PauliHamiltonian) -> CommutationGraph:
    """Graph with one vertex per term and edges between commuting pairs."""
    terms = h.terms
    dtype = np.min_scalar_type((1 << h.n_qubits) - 1)
    x = np.array([t.x_mask for t in terms], dtype=dtype)
    z = np.array([t.z_mask for t in terms], dtype=dtype)
    # the symplectic form of commutes(), for all pairs at once
    adjacency = parity((x[:, None] & z) ^ (z[:, None] & x), h.n_qubits) == 0
    np.fill_diagonal(adjacency, False)
    weights = np.array([abs(t.coefficient) for t in terms], dtype=float)
    return CommutationGraph(vertex_weights=weights, adjacency=adjacency)


def greedy_max_clique(g: CommutationGraph) -> CliqueResult:
    """Greedy maximal clique by repeated maximum-weight selection.

    At every round the heaviest vertex still compatible with the current
    selection joins it (ties broken toward the lowest vertex index), and
    incompatible vertices are discarded.  The loop runs until nothing
    compatible remains, so the result is always maximal.  Compatibility
    checks total at most V**2.
    """
    weights = g.vertex_weights
    candidates = list(range(len(g)))
    chosen: list[int] = []
    while candidates:
        best = max(candidates, key=lambda v: weights[v])
        chosen.append(best)
        candidates = [v for v in candidates if v != best and g.adjacency[v, best]]
    chosen.sort()
    return CliqueResult(tuple(chosen), float(weights[list(chosen)].sum()) if chosen else 0.0)


def brute_force_max_clique(g: CommutationGraph) -> CliqueResult:
    """Exact maximum-weight clique by branch and bound.

    Vertices are expanded in descending weight order; a branch is pruned
    when even taking every remaining candidate cannot beat the incumbent.
    Deterministic: on equal weight the lexicographically smallest sorted
    vertex tuple wins.
    """
    m = len(g)
    if m > BRUTE_FORCE_CAP:
        raise ValueError(
            f"{m} vertices exceeds the exact-search cap of {BRUTE_FORCE_CAP}"
        )
    if m == 0:
        return CliqueResult((), 0.0)

    order = sorted(range(m), key=lambda v: (-g.vertex_weights[v], v))
    weights = g.vertex_weights
    adjacency = g.adjacency

    best_vertices: tuple[int, ...] = ()
    best_weight = -1.0

    def expand(current: list[int], current_weight: float, candidates: list[int]) -> None:
        nonlocal best_vertices, best_weight
        if not candidates:
            key = tuple(sorted(current))
            if current_weight > best_weight + 1e-15 or (
                abs(current_weight - best_weight) <= 1e-15 and key < best_vertices
            ):
                best_weight = current_weight
                best_vertices = key
            return
        remaining = current_weight + weights[candidates].sum()
        if remaining < best_weight - 1e-15:
            return
        v = candidates[0]
        rest = candidates[1:]
        expand(current + [v], current_weight + weights[v],
               [u for u in rest if adjacency[u, v]])
        expand(current, current_weight, rest)

    expand([], 0.0, order)
    return CliqueResult(best_vertices, float(best_weight))


def mc_hamiltonian(h: PauliHamiltonian, c: CliqueResult) -> PauliHamiltonian:
    """Sub-Hamiltonian of the clique's terms with original coefficients."""
    if any(v < 0 or v >= len(h.terms) for v in c.vertices):
        raise ValueError("clique vertex outside the Hamiltonian's term range")
    terms = [h.terms[v] for v in c.vertices]
    if len(set(c.vertices)) != len(terms) or not all(
        commutes(a, b) for a, b in combinations(terms, 2)
    ):
        raise ValueError("vertex set is not a clique of this Hamiltonian")
    if abs(sum(abs(t.coefficient) for t in terms) - c.weight) > 1e-9:
        raise ValueError("clique weight does not match the Hamiltonian's terms")
    return PauliHamiltonian(h.n_qubits, terms)
