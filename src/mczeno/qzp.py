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
or executed concurrently, without coordinating generator state.  Draws
are computed in blocks of up to 4,096, one vectorized pass over trial
and step numbers each (step_draws): a block covers several steps while
the trials are few, and part of one step when they are many.  Every draw
stays bit-identical to its trial's own stream (step_rng).  Inside a
_shared_draws scope, which a driver scan opens, the runs that share a seed,
trial numbers and steps read one table of draws, computed by the first.

The trials of one call are projected together, whatever their initial
rank, with one state per distinct state rather than per trial, so the
cost of a step follows the number of distinct states; each trial adds
only its draw and a search in its state's cumulative level weights.  A
state is held in the eigenbasis of the point it was last projected on:
from H(0) on, a trial on a one-dimensional level is that level's rank,
and its amplitudes at the next point are one overlap of the two
eigenbases (spectral.EigenSolution.overlap), which also carries the
in-level columns of degenerate levels.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import operator
from collections import Counter, deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from mczeno.path import PathHamiltonian, s_grid
from mczeno.spectral import EigenSolution, path_eigensolutions


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
_DRAWS_PER_CALL = 4096
"""Most draws of one step_draws call (_draw_rows).  On a 2-core x86_64 machine
with numpy 2.4 a call costs 0.2-0.4 ms at any size, plus ~0.3 us a draw:
1,024-draw calls took 0.6-1.0 us a draw, 4,096-draw calls 0.33-0.52 us
and 16,384-draw calls 0.38-0.44 us.  Its temporaries take ~220 B a draw,
0.9 MB at 4,096."""


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
    present = [np.flatnonzero(np.bincount(c.ravel())) for c in counts]
    for group_counts in itertools.product(*present):
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
    amplitudes: np.ndarray, es: EigenSolution, draws: np.ndarray, owner: np.ndarray,
    collapse: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Born-rule projection of every trial onto es (spectral.EigenSolution),
    trial i from the state whose rank-order amplitudes are
    amplitudes[:, owner[i]], with the uniform draw draws[i].

    Returns each trial's level (its lowest rank) and, when collapse is set,
    the distinct states after the step, as es's ranks and columns of
    rank-order amplitudes, with the state of each trial (owner): the ranks
    first, then the columns.  A trial landing on a one-dimensional level
    collapses onto its eigenvector up to a phase, which no later Born weight
    sees, so it is held as that level's rank, shared by every trial on it.
    A trial on a degenerate level keeps one column per state it collapsed
    (_collapse); columns is None when no trial did.
    """
    levels = _draw_levels(es, amplitudes, draws, owner)
    ends = es.level_ends
    ranks = np.append(0, ends)[levels]
    if not collapse:
        return ranks, None, None, None
    single = ends[levels] - ranks == 1
    hit = np.bincount(ranks[single], minlength=len(amplitudes)) > 0
    distinct, carried = np.flatnonzero(hit), (np.cumsum(hit) - 1)[ranks]
    degenerate = np.flatnonzero(~single)
    columns = None
    if degenerate.size:
        keys = owner[degenerate] * len(ends) + levels[degenerate]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        carried[degenerate] = len(distinct) + inverse
        first = degenerate[first]
        columns = _collapse(amplitudes[:, owner[first]], es, levels[first])
    return ranks, distinct, columns, carried


def _collapse(amplitudes: np.ndarray, es: EigenSolution, levels: np.ndarray) -> np.ndarray:
    """P psi / |P psi| of each column of rank-order amplitudes, P the
    projector onto its level (an index into es.level_ends): the amplitudes
    outside the level zeroed, then normalized.  A new array, real when the
    amplitudes are."""
    ends = es.level_ends
    rank = np.arange(len(amplitudes))[:, None]
    collapsed = amplitudes * ((rank >= np.append(0, ends)[levels]) & (rank < ends[levels]))
    collapsed /= np.linalg.norm(collapsed, axis=0)
    return collapsed


def _draw_levels(
    es: EigenSolution, amplitudes: np.ndarray, draws: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Level (index into es.level_ends) each draw picks by the Born rule.

    amplitudes holds one column of rank-order amplitudes per state, and draw
    i falls on state owner[i]: it picks the first level whose cumulative
    weight exceeds draws[i] times the state's total.
    """
    ends = es.level_ends
    weights = np.abs(amplitudes)
    weights **= 2
    cumulative = np.cumsum(weights, axis=0, out=weights)[ends - 1]
    totals = cumulative[-1]
    off = np.abs(totals - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"state is not normalized (total weight {totals[off][0]})")
    x = draws * totals[owner]
    if len(totals) == 1:  # as for one trial: the complex keys cost ~10% of its run
        chosen = np.searchsorted(cumulative[:, 0], x, "right")
    else:
        # One search over every state at once: complex numbers order by
        # real part first, so with state j as the real part each state's
        # cumulative weights form one ascending run of the row.
        row = np.empty(cumulative.shape[::-1], dtype=complex)
        row.real, row.imag = np.arange(len(totals))[:, None], cumulative.T
        chosen = np.searchsorted(row.ravel(), owner + 1j * x, "right") - owner * len(ends)
    return np.minimum(chosen, len(ends) - 1, out=chosen)


_DRAW_TABLES: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "mczeno_draw_tables", default=None)
"""The draw tables of the open _shared_draws scope, each the list of its
read-only rows, keyed by (run_seed, trial numbers, steps); None outside
one."""


@contextmanager
def _shared_draws():
    """A scope in which _draws computes each distinct table once and keeps
    it until the scope closes, for every later run that asks for it."""
    token = _DRAW_TABLES.set({})
    try:
        yield
    finally:
        _DRAW_TABLES.reset(token)


def _draws(run_seed: int, trials: np.ndarray, steps: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of _draw_rows(run_seed, trials, steps): drawn as they are
    read outside a _shared_draws scope.  Inside one, the first run with a
    (run_seed, trials, steps) value draws every row before it reads any,
    and the scope keeps them for the later runs."""
    tables = _DRAW_TABLES.get()
    if tables is None:
        return _draw_rows(run_seed, trials, steps)
    key = (run_seed, tuple(trials.tolist()), tuple(steps.tolist()))
    if key not in tables:
        tables[key] = list(_draw_rows(run_seed, trials, steps))
    return iter(tables[key])


def _draw_rows(run_seed: int, trials: np.ndarray, steps: np.ndarray) -> Iterator[np.ndarray]:
    """step_draws(run_seed, trials, k) for each step k of steps in turn, read
    only, from calls of at most _DRAWS_PER_CALL draws: several steps share a
    call while the trials are few, and one step takes several calls when
    they are many."""
    width = max(1, min(len(trials), _DRAWS_PER_CALL))
    per_call = _DRAWS_PER_CALL // width
    for begin in range(0, len(steps), per_call):
        chunk = steps[begin:begin + per_call, None]
        block = np.empty((len(chunk), len(trials)))
        for t in range(0, len(trials), width):
            block[:, t:t + width] = step_draws(run_seed, trials[t:t + width], chunk)
        block.flags.writeable = False  # a scope's later runs read these rows
        yield from block


def _trajectories(
    eigensolutions: list[EigenSolution],
    ranks,
    owner: np.ndarray,
    rng_seed: int,
    trial_numbers: range,
) -> Iterator[np.ndarray]:
    """Project trial t, from the eigenvector of rank ranks[owner[t]] of
    eigensolutions[0], through eigensolutions[1:] as trial trial_numbers[t];
    yields the sampled ranks of each step in turn.

    Each distinct state is held in the eigenbasis of the point it was last
    projected on (_project_block), as a rank or as an in-level column of a
    degenerate level, so a step's amplitudes are the overlap of the two
    eigenbases (EigenSolution.overlap) at the ranks, and at the ranks the
    columns are nonzero on, times the columns.  The last step only draws
    its ranks.
    """
    trials = _integer_array(trial_numbers)
    steps = np.arange(1, len(eigensolutions))
    columns = None
    for k, draws in zip(steps, _draws(rng_seed, trials, steps)):
        es, previous = eigensolutions[k], eigensolutions[k - 1]
        amplitudes = es.overlap(previous, ranks)
        if columns is not None:
            support = np.flatnonzero(columns.any(axis=1))
            amplitudes = np.hstack([amplitudes, es.overlap(previous, support) @ columns[support]])
        step_ranks, ranks, columns, owner = _project_block(
            amplitudes, es, draws, owner, collapse=k < steps[-1])
        yield step_ranks


def _final_ranks(*args) -> np.ndarray:
    """The last step's ranks of _trajectories(*args), holding no other
    step's."""
    return deque(_trajectories(*args), maxlen=1).pop()


def project(
    psi: np.ndarray, es: EigenSolution, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Born-rule projection onto the eigenbasis, degeneracy-aware.

    Returns the sampled level's lowest rank and the normalized collapse
    of psi onto that level's full eigenspace.
    """
    amplitudes = es.apply(psi[:, None], adjoint=True)
    levels = _draw_levels(es, amplitudes, np.array([rng.random()]), np.zeros(1, np.intp))
    rank = np.append(0, es.level_ends)[levels[0]]
    return int(rank), es.apply(_collapse(amplitudes, es, levels))[:, 0]


def initial_eigenstate(p: PathHamiltonian, initial_index: int) -> np.ndarray:
    """Eigenstate of H(0) at the given rank, in real storage when H(0) is real.

    For a diagonal (all-Z) initial Hamiltonian, ranks order basis states
    by (energy, basis index), so degenerate ground states enumerate in
    lexicographic order and the choice is reproducible.
    """
    return _initial_block([initial_index], next(path_eigensolutions(p, [0.0])))[:, 0]


def _initial_block(initial_indices: list[int], h0: EigenSolution) -> np.ndarray:
    """initial_eigenstate of each rank as one column, read from h0, the
    eigensolution of H(0)."""
    _check_initial_indices(initial_indices, h0.dimension)
    return h0.vectors(initial_indices)


def _check_initial_indices(initial_indices, dimension: int) -> None:
    """Refuse an empty list of H(0) ranks, or a rank outside 0..dimension-1;
    a rank that is not an integer raises TypeError (_check_integers)."""
    if not initial_indices:
        raise ValueError("initial_indices must hold at least one index")
    for initial_index in initial_indices:
        _check_integers(initial_index=initial_index)
        if not 0 <= operator.index(initial_index) < dimension:
            raise ValueError(f"initial_index {initial_index} outside 0..{dimension - 1}")


def _check_integers(**values) -> None:
    """Refuse, with a TypeError naming its argument, a value that is not an
    integer, a bool included, which would otherwise be read as 0 or 1."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} {value} is a bool, not an integer")
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(f"{name} {value!r} is not an integer") from None


@dataclass(frozen=True, eq=False)
class ZenoGrid:
    """The solved points of s_grid(n_steps) for Zeno runs from the H(0) ranks
    initial_indices, each run starting from the eigenvector of its rank at
    the first point: the one input of zeno_statistics, its one runner, which
    checks nothing of it.  Only zeno_grid may make a grid with
    restricted points, its interior points in the sectors those
    eigenvectors reach.  A grid built directly must hold n_steps + 1
    complete bases and ranks of its first point."""

    solutions: tuple[EigenSolution, ...]
    initial_indices: tuple[int, ...]


def zeno_grid(
    p: PathHamiltonian, n_steps: int, initial_indices: list[int],
    ends: tuple[EigenSolution, EigenSolution] | None = None,
) -> ZenoGrid:
    """The ZenoGrid of s_grid(n_steps) for runs from the given H(0) ranks.

    s = 0 and s = 1 are solved whole: ends is the pair of their solutions,
    solved here when not given, s = 1 first so that H(0)'s full eigh never
    runs beside H(1)'s pooled sector solves.  The interior points solve only
    the symmetry sectors the ranks' H(0) eigenvectors reach
    (path_eigensolutions' start), so their ranks count only those sectors'
    levels.
    """
    grid = s_grid(n_steps)
    h0, h1 = ends or reversed([*path_eigensolutions(p, [1.0, 0.0])])
    interior = path_eigensolutions(p, grid[1:-1], start=_initial_block(initial_indices, h0))
    return ZenoGrid((h0, *interior, h1), tuple(initial_indices))


def _check_complete(n_steps: int, eigensolutions: list[EigenSolution]) -> None:
    """Refuse a list that is not a complete basis at each point of s_grid(n_steps)."""
    if len(eigensolutions) != len(s_grid(n_steps)):
        raise ValueError("eigensolution list does not match n_steps")
    for k, es in enumerate(eigensolutions):
        if len(es.eigenvalues) != es.dimension:
            raise ValueError(f"the eigensolution of step {k} holds {len(es.eigenvalues)} of "
                             f"{es.dimension} levels, not a complete basis")


def zeno_run(
    p: PathHamiltonian,
    n_steps: int,
    initial_index: int,
    rng_seed: int,
    trial_number: int = 0,
    eigensolutions: list[EigenSolution] | None = None,
) -> ZenoTrial:
    """One projection trial over the N-step discretization, from the H(0)
    eigenstate of rank initial_index.

    The trajectory reports the rank of every step after s = 0, so given
    eigensolutions must be complete bases.
    """
    _check_integers(rng_seed=rng_seed, trial_number=trial_number)
    if eigensolutions is None:
        eigensolutions = list(path_eigensolutions(p, s_grid(n_steps)))
    _check_complete(n_steps, eigensolutions)
    _check_initial_indices([initial_index], eigensolutions[0].dimension)
    trials = range(trial_number, trial_number + 1)
    trajectory = tuple(int(ranks[0]) for ranks in _trajectories(
        eigensolutions, [initial_index], np.zeros(1, np.intp), rng_seed, trials))
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
    grid: ZenoGrid, trials_per_initial: int, rng_seed: int
) -> list[ZenoDistribution]:
    """Final-index statistics, one distribution per rank of grid.initial_indices.

    Trial t of the i-th initial index uses trial number
    i * trials_per_initial + t, so results are seed-deterministic and
    independent of execution order.  The trials of every initial index
    are projected together as one block, one state per distinct state,
    from the ranks of grid.initial_indices at its first point.
    """
    _check_integers(trials_per_initial=trials_per_initial, rng_seed=rng_seed)
    if trials_per_initial < 1:
        raise ValueError("trials_per_initial must be at least 1")
    owner = np.repeat(np.arange(len(grid.initial_indices)), trials_per_initial)
    finals = _final_ranks(grid.solutions, grid.initial_indices, owner, rng_seed, range(len(owner)))
    rows = finals.reshape(-1, trials_per_initial)
    return [ZenoDistribution(dict(Counter(row.tolist())), trials_per_initial, i)
            for i, row in zip(grid.initial_indices, rows)]
