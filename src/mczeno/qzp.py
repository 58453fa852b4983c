"""Quantum Zeno projection: dragging eigenstates by repeated measurement.

Each trial starts in an eigenstate of the initial Hamiltonian and is
projected onto the instantaneous eigenbasis of every discretization step
in turn.  Outcomes follow the Born rule; a degenerate level is treated
as one outcome, with the state collapsed onto the whole eigenspace (so
intra-subspace coherence survives and no arbitrary eigenvector basis
leaks into the results).  The reported index of a degenerate level is
its lowest rank.

Randomness is counter-based: the draw for (run_seed, trial, step) comes
from its own Philox stream (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011), so any subset of trials can be reproduced,
or executed concurrently, without coordinating generator state.  The
draws of one step are computed together, in one vectorized pass over
the trial numbers (step_draws), and stay bit-identical to each trial's
own stream (step_rng).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from mczeno.path import PathHamiltonian, s_grid
from mczeno.qae import DEGENERACY_TOL, evolve
from mczeno.spectral import EigenSolution, from_frame, path_eigensolutions, to_frame


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


# numpy's SeedSequence hash constants and the Philox4x64 round constants.
_MASK32 = 0xFFFFFFFF
_POOL_HASH, _STATE_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX = (np.uint32(0xCA01F9DD), np.uint32(0x4973F715))
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_U32_16, _U64_11, _U64_32 = np.uint32(16), np.uint64(11), np.uint64(32)
_U64_MASK32 = np.uint64(_MASK32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _U64_MASK32, _PHILOX_M >> _U64_32
_INDEX = np.frompyfunc(operator.index, 1, 1)
_DRAWS_PER_CALL = 1024
"""Draws of one step_draws call in _trajectories, over as many steps as fit:
about as many as it takes for the per-draw cost to match the ~0.3 ms a
call costs at any size, and few enough that its arrays stay near 0.1 MB."""


def step_draws(run_seed, trials, step) -> np.ndarray:
    """step_rng(run_seed, t, step).random() for every trial number t, in one
    vectorized pass; run_seed, trials and step broadcast together.

    Bit-identical to the scalar streams: numpy's SeedSequence hash of the
    entropy words of (run_seed, t, step) gives each Philox4x64-10 key, and
    the draw is the first word of the block at counter 1 as a 53-bit
    double, all in uint32/uint64 wrap-around arithmetic.  Integers of any
    size are accepted; a negative one raises ValueError, as in SeedSequence.
    """
    numbers = np.broadcast_arrays(*map(_integer_array, (run_seed, trials, step)))
    if any(a.size and a.min() < 0 for a in numbers):
        raise ValueError("expected non-negative integer")
    draws = np.empty(numbers[0].shape)
    if not draws.size:
        return draws
    # the entropy word count of each number decides how the words are mixed
    counts = [_word_counts(a) for a in numbers]
    for group_counts in itertools.product(*map(np.unique, counts)):
        group = np.logical_and.reduce([c == n for c, n in zip(counts, group_counts)])
        if not group.any():
            continue
        entropy = [((a[group] >> 32 * w) & _MASK32).astype(np.uint32)
                   for a, n in zip(numbers, group_counts) for w in range(n)]
        words = _philox_first_word(_seed_sequence_key(entropy))
        draws[group] = (words >> _U64_11) * 2.0**-53
    return draws


def _integer_array(values) -> np.ndarray:
    """values as an int64 array, or as Python ints (object dtype) past int64;
    a non-integer raises TypeError."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    values = np.asarray(_INDEX(np.asarray(values, dtype=object)), dtype=object)
    try:
        return values.astype(np.int64)
    except OverflowError:
        return values


def _word_counts(values: np.ndarray) -> np.ndarray:
    """SeedSequence's 32-bit word count of each non-negative integer."""
    counts = np.ones(values.shape, dtype=int)
    for w in range(1, -(-int(values.max()).bit_length() // 32)):
        counts += (values >> 32 * w) != 0
    return counts


@functools.cache
def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the xor and multiplier constants of n successive hashmixes."""
    constants = [init]
    for _ in range(n):
        constants.append(constants[-1] * mult & _MASK32)
    column = np.array(constants, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ values >> _U32_16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX[0] * x - _MIX[1] * y
    return result ^ result >> _U32_16


def _seed_sequence_key(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(words).generate_state(2, np.uint64) for the words of each
    column of the entropy rows, as the two rows of the result."""
    xor, mult = _hash_constants(*_POOL_HASH, 16 + 4 * max(len(entropy) - 4, 0))
    words = entropy[:4] + [np.zeros_like(entropy[0])] * (4 - len(entropy))
    pool = _hashmix(np.array(words), xor[:4], mult[:4])
    used = 4
    for src in range(4):  # pool[src] is unchanged while it mixes into the others
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], xor[used:used + 3], mult[used:used + 3])
        pool[dst] = _mix(pool[dst], hashed)
        used += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, xor[used:used + 4], mult[used:used + 4]))
        used += 4
    state = _hashmix(pool, *_hash_constants(*_STATE_HASH, 4)).astype(np.uint64)
    return state[0::2] | state[1::2] << _U64_32


def _philox_mulhilo(counter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * counter, row by
    row, from 32-bit halves."""
    low, high = counter & _U64_MASK32, counter >> _U64_32
    carry = _PHILOX_M_HI * low + (_PHILOX_M_LO * low >> _U64_32)
    middle = (carry & _U64_MASK32) + _PHILOX_M_LO * high
    top = _PHILOX_M_HI * high + (carry >> _U64_32) + (middle >> _U64_32)
    return top, _PHILOX_M * counter


def _philox_first_word(key: np.ndarray) -> np.ndarray:
    """Word 0 of the Philox4x64-10 block at counter (1, 0, 0, 0) under each
    key column."""
    # Round 1 multiplies counter words 0 and 2 by 1 and 0: it leaves the key
    # in words 0 and 2 and _PHILOX_M[0] in word 3.  even holds words 0 and 2
    # of the counter, odd words 1 and 3.
    even, odd = key, np.array([[0], _PHILOX_M[0]], dtype=np.uint64)
    for _ in range(9):
        key = key + _PHILOX_W
        high, low = _philox_mulhilo(even)
        even, odd = high[::-1] ^ odd ^ key, low[::-1]
    return even[0]


def _project_block(
    psi: np.ndarray, es: EigenSolution, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """project() of every column of psi, column j with the uniform draws[j],
    for psi in the frame of es (spectral.EigenSolution); the collapsed
    states stay in that frame.

    The amplitudes and the collapse take one product per block of es, so a
    sectored point costs one d_c x d_c GEMM per sector.  A real state
    against real eigenvectors stays real, so both run as real products.
    """
    if psi.shape[0] != len(es.eigenvalues):
        raise ValueError(
            f"state dimension {psi.shape[0]} does not match basis {len(es.eigenvalues)}"
        )
    if np.iscomplexobj(psi) and not psi.imag.any():
        psi = psi.real
    amplitudes = es.apply(psi, adjoint=True)
    weights = np.abs(amplitudes)
    weights **= 2
    first, stop = _draw_levels(es.eigenvalues, es.by_rank(weights), draws)
    if psi.shape[1] == 1 and es.columns is None:  # only the chosen level's eigenvectors
        collapsed = es.blocks[0][:, first[0]:stop[0]] @ amplitudes[first[0]:stop[0]]
    else:
        ranks = (np.arange(len(weights)) if es.columns is None else es.columns)[:, None]
        amplitudes *= (ranks >= first) & (ranks < stop)
        collapsed = es.apply(amplitudes)
    collapsed /= np.linalg.norm(collapsed, axis=0)
    return first, collapsed


def _draw_levels(
    values: np.ndarray, weights: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and end rank of the level each draw picks by the Born rule.

    weights holds one column of weights in rank order per draw, or one
    column for every draw.  A level is a run of values whose steps are at
    most DEGENERACY_TOL; draw d picks the first level whose cumulative
    weight exceeds d times the total.
    """
    ends = np.append(np.flatnonzero(np.diff(values) > DEGENERACY_TOL) + 1, len(values))
    cumulative = np.cumsum(weights, axis=0)[ends - 1]
    totals = cumulative[-1]
    off = np.abs(totals - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"state is not normalized (total weight {totals[off][0]})")
    chosen = np.count_nonzero(cumulative <= draws * totals, axis=0)
    np.minimum(chosen, len(ends) - 1, out=chosen)
    return np.append(0, ends)[chosen], ends[chosen]


def _trajectories(
    eigensolutions: list[EigenSolution],
    psi: np.ndarray,
    rng_seed: int,
    trial_numbers: range,
    first_step: int,
) -> np.ndarray:
    """Project column t of psi through eigensolutions[first_step:] as trial
    trial_numbers[t]; returns the sampled ranks, one row per step.

    psi starts in the standard basis and moves into a step's frame only
    when that differs from the last step's, so a run of sectored steps
    keeps the trials in sector coordinates throughout.
    """
    trials = _integer_array(trial_numbers)
    steps = np.arange(first_step, len(eigensolutions))
    per_call = max(1, _DRAWS_PER_CALL // len(trials))
    ranks, frame = [], None
    for begin in range(0, len(steps), per_call):
        chunk = steps[begin:begin + per_call]
        for k, draws in zip(chunk, step_draws(rng_seed, trials, chunk[:, None])):
            es = eigensolutions[k]
            if es.frame is not frame:
                psi, frame = to_frame(es.frame, from_frame(frame, psi)), es.frame
            step_ranks, psi = _project_block(psi, es, draws)
            ranks.append(step_ranks)
    return np.array(ranks)


def project(
    psi: np.ndarray, es: EigenSolution, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Born-rule projection onto the eigenbasis, degeneracy-aware.

    Returns the sampled level's lowest rank and the normalized collapse
    of psi onto that level's full eigenspace.
    """
    x = to_frame(es.frame, psi[:, None])
    ranks, collapsed = _project_block(x, es, np.array([rng.random()]))
    return int(ranks[0]), from_frame(es.frame, collapsed)[:, 0]


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
    if p.is_diagonal(0.0):
        rows = np.argsort(p.sparse_matrix(0.0).diagonal(), kind="stable")[initial_indices]
        block = np.zeros((dim, len(initial_indices)))
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
    eigensolutions: list[EigenSolution] | None = None,
) -> list[ZenoDistribution]:
    """Final-index statistics, one distribution per initial eigenstate.

    Trial t of the i-th initial index uses trial number
    i * trials_per_initial + t, so results are seed-deterministic and
    independent of execution order.  The trials of one initial index
    are projected together, one state column each.  eigensolutions, if
    given, are those of s_grid(n_steps).
    """
    if trials_per_initial < 1:
        raise ValueError("trials_per_initial must be at least 1")
    if eigensolutions is None:
        eigensolutions = list(path_eigensolutions(p, s_grid(n_steps)))
    if len(eigensolutions) != n_steps + 1:
        raise ValueError("eigensolution list does not match n_steps")
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
    sample the final eigenbasis per trial.  Every trial projects the same
    evolved state, so its level weights are computed once, and trial t
    takes its step-0 draw from them.
    """
    final = next(path_eigensolutions(p, [1.0]))
    result = evolve(p, delta_t, initial_eigenstate(p, initial_index), final)
    draws = step_draws(rng_seed, np.arange(trials), 0)
    finals, _ = _draw_levels(final.eigenvalues, final.weights(result.final_state)[:, None],
                             draws)
    return ZenoDistribution(dict(Counter(finals.tolist())), trials, initial_index)


def distribution_csv(distributions: list[ZenoDistribution]) -> str:
    """CSV rows (initial_index, final_index, count), header included."""
    lines = ["initial_index,final_index,count"]
    for dist in distributions:
        for final_index in sorted(dist.counts):
            lines.append(f"{dist.initial_index},{final_index},{dist.counts[final_index]}")
    return "\n".join(lines) + "\n"
