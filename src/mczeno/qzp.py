"""Quantum Zeno projection: dragging eigenstates by repeated measurement.

Each trial starts in an eigenstate of the initial Hamiltonian and is
projected onto the instantaneous eigenbasis of every discretization step
in turn.  Outcomes follow the Born rule; a degenerate level is treated
as one outcome, with the state collapsed onto the whole eigenspace (so
intra-subspace coherence survives and no arbitrary eigenvector basis
leaks into the results).  The reported index of a degenerate level is
its lowest rank.

Randomness is counter-based: the draw for (run_seed, trial, step) comes
from its own Philox stream, so any subset of trials can be reproduced,
or executed concurrently, without coordinating generator state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from mczeno.path import PathHamiltonian, s_grid
from mczeno.qae import DEGENERACY_TOL, evolve
from mczeno.spectral import EigenSolution, diagonal_basis_order, path_eigensolutions
from mczeno.pauli import is_all_z


@dataclass(frozen=True)
class ZenoTrial:
    """One projection run: per-step eigenindices and the final outcome."""

    final_index: int
    final_energy: float
    trajectory: tuple[int, ...]
    seed: int
    initial_index: int
    trial_number: int = 0


@dataclass(frozen=True)
class ZenoDistribution:
    """Final-index counts over repeated trials from one initial state."""

    counts: dict[int, int]
    trials: int
    initial_index: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.trials:
            raise ValueError("counts do not sum to the trial total")


@dataclass(frozen=True)
class LowestEnergies:
    """Distinct final energies with observation counts, lowest first.

    complete is False when fewer distinct states than requested were
    observed.
    """

    energies: tuple[tuple[float, int], ...]
    complete: bool


def step_rng(run_seed: int, trial: int, step: int) -> np.random.Generator:
    """The dedicated random stream for one projection event."""
    sequence = np.random.SeedSequence(entropy=(int(run_seed), int(trial), int(step)))
    return np.random.Generator(np.random.Philox(sequence))


def _project_block(
    psi: np.ndarray, es: EigenSolution, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """project() of every column of psi, column j with the uniform draws[j].

    A real state against real eigenvectors stays real, so both products
    run as real matrix products.
    """
    vectors = es.eigenvectors
    if psi.shape[0] != vectors.shape[0]:
        raise ValueError(
            f"state dimension {psi.shape[0]} does not match basis {vectors.shape[0]}"
        )
    if np.iscomplexobj(psi) and not psi.imag.any():
        psi = psi.real
    amplitudes = vectors.conj().T @ psi
    weights = np.abs(amplitudes)
    weights **= 2
    breaks = np.flatnonzero(np.diff(es.eigenvalues) > DEGENERACY_TOL) + 1
    starts = np.concatenate(([0], breaks))
    cumulative = np.cumsum(np.add.reduceat(weights, starts, axis=0), axis=0)
    totals = cumulative[-1]
    off = np.abs(totals - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"state is not normalized (total weight {totals[off][0]})")
    chosen = np.count_nonzero(cumulative <= draws * totals, axis=0)
    np.minimum(chosen, len(starts) - 1, out=chosen)
    level = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(weights)))
    amplitudes *= level[:, None] == chosen
    collapsed = vectors @ amplitudes
    collapsed /= np.linalg.norm(collapsed, axis=0)
    return starts[chosen], collapsed


def _trajectories(
    eigensolutions: list[EigenSolution],
    psi: np.ndarray,
    rng_seed: int,
    trial_numbers: range,
    first_step: int,
) -> np.ndarray:
    """Project column t of psi through eigensolutions[first_step:] as trial
    trial_numbers[t]; returns the sampled ranks, one row per step."""
    ranks = []
    for k in range(first_step, len(eigensolutions)):
        draws = np.array([step_rng(rng_seed, t, k).random() for t in trial_numbers])
        step_ranks, psi = _project_block(psi, eigensolutions[k], draws)
        ranks.append(step_ranks)
    return np.array(ranks)


def project(
    psi: np.ndarray, es: EigenSolution, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Born-rule projection onto the eigenbasis, degeneracy-aware.

    Returns the sampled level's lowest rank and the normalized collapse
    of psi onto that level's full eigenspace.
    """
    ranks, collapsed = _project_block(psi[:, None], es, np.array([rng.random()]))
    return int(ranks[0]), collapsed[:, 0]


def initial_eigenstate(p: PathHamiltonian, initial_index: int) -> np.ndarray:
    """Eigenstate of H(0) at the given rank, in real storage when H(0) is real.

    For a diagonal (all-Z) initial Hamiltonian, ranks order basis states
    by (energy, basis index), so degenerate ground states enumerate in
    lexicographic order and the choice is reproducible.
    """
    return _initial_block(p, [initial_index])[:, 0]


def _initial_block(
    p: PathHamiltonian, initial_indices: list[int], h0: EigenSolution | None = None
) -> np.ndarray:
    """initial_eigenstate of each rank as one column; a non-diagonal H(0)'s
    eigenvectors come from h0 if given."""
    dim = 1 << p.n_qubits
    for initial_index in dict.fromkeys(initial_indices):
        if not 0 <= initial_index < dim:
            raise ValueError(f"initial_index {initial_index} outside 0..{dim - 1}")
    if is_all_z(p.h_initial):
        block = np.zeros((dim, len(initial_indices)))
        rows = diagonal_basis_order(p.h_initial)[initial_indices]
        block[rows, np.arange(len(initial_indices))] = 1.0
        return block
    if h0 is None:
        h0 = next(path_eigensolutions(p, [0.0]))
    return h0.eigenvectors[:, initial_indices]


def zeno_run(
    p: PathHamiltonian,
    n_steps: int,
    initial_index: int,
    rng_seed: int,
    trial_number: int = 0,
    initial_state: np.ndarray | None = None,
    eigensolutions: list[EigenSolution] | None = None,
) -> ZenoTrial:
    """One projection trial over the N-step discretization.

    A user-supplied initial_state (instead of an exact eigenstate rank)
    is itself projected onto the H(0) eigenbasis first, consuming the
    step-0 random draw; exact initial eigenstates skip that step because
    the projection would be the identity on them.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if eigensolutions is None:
        eigensolutions = list(path_eigensolutions(p, s_grid(n_steps)))
    if len(eigensolutions) != n_steps + 1:
        raise ValueError("eigensolution list does not match n_steps")

    if initial_state is None:
        psi, first_step = _initial_block(p, [initial_index], eigensolutions[0]), 1
    else:
        psi, first_step = initial_state[:, None], 0
    trials = range(trial_number, trial_number + 1)
    ranks = _trajectories(eigensolutions, psi, rng_seed, trials, first_step)
    trajectory = tuple(ranks[:, 0].tolist())
    final_index = trajectory[-1]
    final_energy = float(eigensolutions[-1].eigenvalues[final_index])
    return ZenoTrial(
        final_index=final_index,
        final_energy=final_energy,
        trajectory=trajectory,
        seed=rng_seed,
        initial_index=initial_index,
        trial_number=trial_number,
    )


def zeno_statistics(
    p: PathHamiltonian,
    n_steps: int,
    initial_indices: list[int],
    trials_per_initial: int,
    rng_seed: int,
) -> list[ZenoDistribution]:
    """Final-index statistics, one distribution per initial eigenstate.

    Trial t of the i-th initial index uses trial number
    i * trials_per_initial + t, so results are seed-deterministic and
    independent of execution order.  The trials of one initial index
    are projected together, one state column each.
    """
    if trials_per_initial < 1:
        raise ValueError("trials_per_initial must be at least 1")
    eigensolutions = list(path_eigensolutions(p, s_grid(n_steps)))
    out = []
    for slot, initial_index in enumerate(initial_indices):
        psi = _initial_block(p, [initial_index] * trials_per_initial, eigensolutions[0])
        first = slot * trials_per_initial
        finals = _trajectories(
            eigensolutions, psi, rng_seed, range(first, first + trials_per_initial), 1
        )[-1]
        counts = dict(Counter(finals.tolist()))
        out.append(ZenoDistribution(counts, trials_per_initial, initial_index))
    return out


def lowest_k_energies(
    p: PathHamiltonian,
    n_steps: int,
    k: int,
    repetitions: int,
    rng_seed: int,
) -> LowestEnergies:
    """Lowest distinct final energies from round-robin projection runs.

    Starts trials from the k lowest eigenstates of H(0) in rotation
    (repetitions total) and gathers the distinct final energies seen.
    """
    dim = 1 << p.n_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    if repetitions < k:
        raise ValueError("repetitions must be at least k")
    eigensolutions = list(path_eigensolutions(p, s_grid(n_steps)))
    psi = _initial_block(p, [r % k for r in range(repetitions)], eigensolutions[0])
    finals = _trajectories(eigensolutions, psi, rng_seed, range(repetitions), 1)[-1]
    observed = Counter(finals.tolist())
    final_values = eigensolutions[-1].eigenvalues
    ranked = sorted(observed)
    energies = tuple(
        (float(final_values[i]), observed[i]) for i in ranked[:k]
    )
    return LowestEnergies(energies=energies, complete=len(energies) == k)


def qae_then_project(
    p: PathHamiltonian,
    delta_t: float,
    initial_index: int,
    trials: int,
    rng_seed: int,
) -> ZenoDistribution:
    """Adiabatic evolution followed by a single final projection.

    The comparison partner for full projection runs: evolve once, then
    sample the final eigenbasis per trial.
    """
    result = evolve(p, delta_t, initial_eigenstate(p, initial_index))
    final = next(path_eigensolutions(p, [1.0]))
    psi = np.repeat(result.final_state[:, None], trials, axis=1)
    finals = _trajectories([final], psi, rng_seed, range(trials), 0)[-1]
    return ZenoDistribution(dict(Counter(finals.tolist())), trials, initial_index)


def distribution_csv(distributions: list[ZenoDistribution]) -> str:
    """CSV rows (initial_index, final_index, count), header included."""
    lines = ["initial_index,final_index,count"]
    for dist in distributions:
        for final_index in sorted(dist.counts):
            lines.append(f"{dist.initial_index},{final_index},{dist.counts[final_index]}")
    return "\n".join(lines) + "\n"
