"""Exact eigensolutions of small Hamiltonians and spectra along a path."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator

import numpy as np

from mczeno.pauli import PauliHamiltonian, _check_cap, densify, sparse_parts
from mczeno.path import Sector, s_grid

SECTOR_DIMENSION = 256
"""Smallest dimension whose path points are solved in symmetry sectors.  On
random paths fixed by the spin swap and the chain mirror, at alpha 0.5, one
full eigh of H(0.5) against the eighs of its four sectors took 0.03-0.05
against 0.03-0.06 ms at 16 rows, 0.27-0.50 against 0.14 ms at 64, 4.9-6.4
against 1.3-1.7 ms at 256 and 0.14-0.24 against 0.019-0.027 s at 1024, and
building the path's sectors took 0.7-0.9, 1.2-1.4, 5-8 and 34-50 ms (two
runs each with 1 and 2 OpenBLAS 0.3.31 threads on a shared 2-core x86_64
machine; the thread counts differed by no more than the runs did, except
one 2-thread run whose 64-row full eigh took 48 ms).  At 64 rows a point
saves 0.1-0.4 ms, so the build takes 4-10 sectored points to repay; at 256
rows one point repays most of it."""

POOL_DIMENSION = 768
"""Sectored points whose solved sectors all have fewer rows are solved on
the sector pool (_sector_pool); the others in the calling thread.  Ten
points (s = 0.1 to 1) of generated 10-qubit H-chain clique paths at alpha
0.5 took a median of 148-162 against 232-277 ms with sectors of 240-288
rows, and 324-392 against 487-655 ms with sectors of 496 and 528 rows,
pooled and in the calling thread on 2 OpenBLAS threads; the peak RSS over
the built path rose by 15 against 6 MB and by 39-40 against 16-17 MB.  On
the 12-qubit H6 chain (sectors of 1008 and 1072 rows) they took 4.2-5.0
against 4.5-5.9 s, but the peak rose by 183-220 against 91-93 MB: each
eigh in flight holds its block, a copy, its workspace and its
eigenvectors, one per worker, and the look-ahead keeps a finished
solution beside the caller's.  (A shared 2-core x86_64 machine, OpenBLAS
0.3.31, 3-15 runs in each of 2-4 alternated processes; no size between
528 and 1008 rows and no machine with more CPUs was measured.)"""

DEGENERACY_TOL = 1e-9
"""Largest step between successive eigenvalues of one degenerate level."""


class EigenSolution:
    """Ascending eigenvalues with orthonormal eigenvectors, held in blocks.

    blocks holds triples (rows, ranks, W): column j of W is the eigenvector
    of rank ranks[j], on the standard-basis rows rows, W None being the
    identity, or in the coordinates of rows when rows is a path.Sector,
    whose isometry U maps them to standard-basis states.  Dense
    eigenvectors are one square block, a sorted diagonal H the basis state
    of each rank with W None, and a sectored point one d_c x d_c W per
    solved sector.  Every solution is a complete basis of the reached
    sectors: of the whole space, or of the sectors a sectored point solved
    (_send_sectors), whose eigenvalues, and so levels and ranks, count only
    their levels.  dimension is the length of a state, by default the
    level count.  apply, weights and vectors take and return
    standard-basis states and amplitudes in rank order, and overlap the
    amplitudes of another solution's eigenvectors, so no caller sees the
    sectors or the blocks; the dense eigenvectors are formed only when
    read.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None = None,
                 *, blocks: tuple = (), dimension: int | None = None):
        if eigenvectors is not None:
            if eigenvectors.shape != (len(eigenvalues),) * 2:
                raise ValueError(f"eigenvectors of shape {eigenvectors.shape} are not "
                                 f"square with the {len(eigenvalues)} eigenvalues")
            blocks = ((slice(None), slice(None), eigenvectors),)
            self.eigenvectors = eigenvectors
        if not blocks:
            raise ValueError("EigenSolution needs eigenvectors or blocks")
        self.eigenvalues, self.blocks = eigenvalues, blocks
        self._dtype = np.result_type(float, *(w for _, _, w in self.blocks if w is not None))
        self.dimension = len(eigenvalues) if dimension is None else dimension

    @cached_property
    def level_ends(self) -> np.ndarray:
        """End rank of each degenerate level, ascending.  A level is a run of
        eigenvalues whose successive steps are at most DEGENERACY_TOL, so
        rank 0 through level_ends[0] - 1 is the ground level."""
        steps = np.diff(self.eigenvalues)
        return np.append(np.flatnonzero(steps > DEGENERACY_TOL) + 1, len(self.eigenvalues))

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors as dense columns of dimension rows, formed on
        first read."""
        return self.vectors(np.arange(len(self.eigenvalues)))

    def vectors(self, ranks) -> np.ndarray:
        """The standard-basis eigenvectors of the given ranks as columns of a
        new Fortran-order array."""
        units = np.zeros((len(self.eigenvalues), len(ranks)))
        units[ranks, np.arange(len(ranks))] = 1.0
        return np.asfortranarray(self.apply(units))

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """V x, the standard-basis state of rank-order amplitudes x, or when
        adjoint V^H x, the rank-order amplitudes of the standard-basis state
        x; column r of V is the eigenvector of rank r.  A sector block
        projects x through its sector's U on the adjoint and embeds its
        result on the forward map, so the states of unsolved sectors stay
        zero.  A new array.  An x of other than dimension rows on the
        adjoint, or one per level on the forward map, raises ValueError."""
        length, n = ((self.dimension, len(self.eigenvalues)) if adjoint
                     else (len(self.eigenvalues), self.dimension))
        if len(x) != length:
            raise ValueError(f"state dimension {len(x)} does not match basis {length}")
        out = np.zeros((n, *x.shape[1:]), dtype=np.result_type(x, self._dtype))
        for rows, ranks, w in self.blocks:
            if isinstance(rows, Sector):
                if adjoint:
                    out[ranks] = w.conj().T @ rows.project(x)
                else:
                    rows.embed(w @ x[ranks], out)
                continue
            source, target = (rows, ranks) if adjoint else (ranks, rows)
            y = x[source]
            if w is not None:
                y = (w.conj().T if adjoint else w) @ y
            out[target] = y
        return out

    def weights(self, psi: np.ndarray) -> np.ndarray:
        """|<v_r|psi>|^2 of a standard-basis state psi for each rank r."""
        return np.abs(self.apply(psi, adjoint=True)) ** 2

    def overlap(self, previous: EigenSolution, ranks) -> np.ndarray:
        """V^H V'[:, ranks], the rank-order amplitudes here of previous's
        eigenvectors of the given ranks, as the columns of a new array.

        Two sectored points pair their blocks by the identical Sector (is),
        one W_c^H W'_c[:, cols] product each, and a rank of a sector not
        solved here gets a zero column; two whole-space dense points are one
        W^H W'[:, ranks].  Any other pair, a sorted diagonal or a dense
        point beside a sectored one, goes through apply."""
        ranks = np.asarray(ranks, dtype=np.intp)
        kinds = {type(rows) for rows, _, _ in (*self.blocks, *previous.blocks)}
        if kinds == {slice}:  # only a dense block has rows slice(None)
            return self.blocks[0][2].conj().T @ previous.blocks[0][2][:, ranks]
        if kinds != {Sector}:
            return self.apply(previous.vectors(ranks), adjoint=True)
        block, column = (a[ranks] for a in previous._rank_columns)
        ours = {id(rows): (here, w) for rows, here, w in self.blocks}
        out = np.zeros((len(self.eigenvalues), len(ranks)),
                       dtype=np.result_type(self._dtype, previous._dtype))
        for b, (rows, _, w) in enumerate(previous.blocks):
            take = np.flatnonzero(block == b)
            if take.size and id(rows) in ours:
                here, w_here = ours[id(rows)]
                out[np.ix_(here, take)] = w_here.conj().T @ w[:, column[take]]
        return out

    @cached_property
    def _rank_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The block of each rank, as an index into blocks, and its column in
        that block's W."""
        block = np.empty(len(self.eigenvalues), np.intp)
        column = np.empty_like(block)
        for b, (_, ranks, w) in enumerate(self.blocks):
            block[ranks], column[ranks] = b, np.arange(w.shape[1])
        return block, column


@dataclass(frozen=True)
class PathSpectrum:
    """Lowest-k levels along the path, levels[i] at s_values[i], ascending."""

    s_values: np.ndarray
    levels: np.ndarray


def dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix from its sparse_parts: complex only with odd-Y terms."""
    indptr, indices, data = sparse_parts([h])
    return densify(indptr, indices, data[0])


def eig(h: PauliHamiltonian) -> EigenSolution:
    """Full dense eigendecomposition; sparse_parts builds h exactly Hermitian."""
    return EigenSolution(*np.linalg.eigh(dense_matrix(h)))


def path_eigensolutions(p, s_values: Iterable[float], *,
                        start: np.ndarray | None = None) -> Iterator[EigenSolution]:
    """Eigensolutions of p.matrix(s) for each s in s_values, solved lazily.

    H(s) is a real-weighted sum of the H_i, H_p and H_X values on one
    pattern, each exactly Hermitian as pauli.sparse_parts builds it, so no
    point is checked again.  A diagonal H(s) is sorted, not diagonalized.
    When H(s) has at least SECTOR_DIMENSION rows and p has symmetry
    sectors (p.sectors), the point is solved sector by sector
    (_send_sectors), except at s = 0: there the eigenvectors seed initial
    states by rank, so H(0) keeps the basis of one full eigh.  Elsewhere
    only the eigenvalues and the eigenspaces of levels are used, and
    neither depends on the basis.

    A sectored point whose solved sectors all have fewer than
    POOL_DIMENSION rows has its sector solves sent to a thread pool
    (_sector_pool) when the point before it is returned, so they run while
    the caller uses that point: while a lazy caller such as path_spectrum
    holds one solution, at most two more points are in flight.  Without
    that pool (no OpenBLAS thread setter), and for every other point, the
    solve runs in the calling thread when the point is returned.

    start, the standard-basis states of a run as columns, restricts each
    sectored point with 0 < s < 1 to the sectors those states reach: every
    H(s) is block diagonal in the sectors, so a state's weight in each is
    fixed along the path, and a sector where every state has exactly zero
    amplitude is never reached.  Such a point is a complete basis of the
    reached sectors only; its ranks must not be reported.  A start of other
    than 2**n rows, or one that reaches no sector, raises ValueError.
    """
    _check_cap(p.n_qubits)
    reached = None
    if start is not None:
        amplitudes = _sector_amplitudes(p, start)
        if amplitudes:
            reached = [bool(np.any(z != 0)) for z in amplitudes]
            if not any(reached):
                raise ValueError("start states have no amplitude in any symmetry sector")
    return _one_ahead(_send_point(p, float(s), reached if 0.0 < s < 1.0 else None)
                      for s in s_values)


def _one_ahead(points: Iterator) -> Iterator[EigenSolution]:
    """The solution of each point that _send_point sent, in order; the next
    point is sent before the current one's solution is waited for."""
    ahead = next(points, None)
    for point in points:
        yield ahead()
        ahead = point
    if ahead is not None:
        yield ahead()


def symmetry_sectors(p) -> tuple:
    """The sectors that solve p's points: p.sectors from SECTOR_DIMENSION
    rows, else (), so that smaller paths never build them."""
    return p.sectors if 1 << p.n_qubits >= SECTOR_DIMENSION else ()


def sector_weights(p, states: np.ndarray) -> np.ndarray:
    """w_c = |U_c^T psi|^2 of standard-basis states psi (a vector or
    columns), one row per sector of symmetry_sectors(p); no rows when
    there are none.  Every H(s) keeps these weights fixed along the path.
    States of other than 2**n rows raise ValueError."""
    weights = [np.sum(np.abs(z) ** 2, axis=0) for z in _sector_amplitudes(p, states)]
    return np.array(weights).reshape(-1, *states.shape[1:])


def _sector_amplitudes(p, states: np.ndarray) -> list[np.ndarray]:
    """U_c^T psi for each sector of symmetry_sectors(p), after checking that
    the states have 2**n rows: a sector's gather would truncate a longer
    one."""
    if len(states) != 1 << p.n_qubits:
        raise ValueError(f"states of {len(states)} rows do not match the "
                         f"{1 << p.n_qubits} of a {p.n_qubits}-qubit path")
    return [sector.project(states) for sector in symmetry_sectors(p)]


def _send_point(p, s: float, reached: list[bool] | None):
    """A function returning path_eigensolutions' solution at s.  A sectored
    point's sector solves are sent now (_send_sectors); any other point is
    solved in the calling thread when the function is called."""
    if p.is_diagonal(s):
        return lambda: _sorted_diagonal(p.diagonal(s))
    if s == 0.0 or not symmetry_sectors(p):
        return lambda: EigenSolution(*np.linalg.eigh(p.matrix(s)))
    return _send_sectors(p, s, reached)


def _sorted_diagonal(diagonal: np.ndarray) -> EigenSolution:
    order = np.argsort(diagonal, kind="stable")
    return EigenSolution(diagonal[order], blocks=((order, slice(None), None),))


def _send_sectors(p, s: float, reached: list[bool] | None):
    """A function returning the EigenSolution of H(s) in p's sectors
    (p.sectors), from one eigh per sector, or per sector c with reached[c]
    when reached is given: symmetry tapering (Bravyi, Gambetta, Mezzacapo &
    Temme, arXiv:1701.08213) by a group of qubit permutations.  p.sectors is
    built here, in the calling thread, and each sector's solve is sent to
    the pool now, or made in the calling thread when the function is
    called."""
    sectors = [sector for c, sector in enumerate(p.sectors) if reached is None or reached[c]]
    pool = _sector_pool() if max(sector.dimension for sector in sectors) < POOL_DIMENSION else None
    if pool is None:
        return lambda: _merge(p, sectors, [_solve_sector(p, sector, s) for sector in sectors])
    jobs = [pool.submit(_solve_sector, p, sector, s) for sector in sectors]
    return lambda: _merge(p, sectors, [job.result() for job in jobs])


def _solve_sector(p, sector: Sector, s: float) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(p.matrix(s, sector))


def _merge(p, sectors: list[Sector], solved: list[tuple]) -> EigenSolution:
    """The EigenSolution of the sectors' (eigenvalues, W) pairs, in order:
    the W columns land in the stable ascending merge of every solved
    sector's eigenvalues, ties in sector order."""
    values = np.concatenate([v for v, _ in solved])
    ranks = np.argsort(np.argsort(values, kind="stable"))
    ends = np.cumsum([0] + [len(v) for v, _ in solved])
    return EigenSolution(np.sort(values), dimension=1 << p.n_qubits, blocks=tuple(
        (sector, ranks[a:b], w) for a, b, sector, (_, w) in zip(ends, ends[1:], sectors, solved)))


@cache
def _sector_pool():
    """The sector solves' pool, made on first call, or None when no loaded
    OpenBLAS exports openblas_set_num_threads_local, and sectors are solved
    in the calling thread.  concurrent.futures is imported here, so a run
    that pools no sectored point never loads it.

    Each worker calls that function with 1.  numpy's OpenBLAS is a pthreads
    build, which keeps one thread count for all threads, so this sets the
    whole process's count to one: every later BLAS call, in any thread,
    runs on one OpenBLAS thread, and a result no longer depends on
    OPENBLAS_NUM_THREADS.  Two eigh calls at once on two OpenBLAS threads
    each run slower than one at a time."""
    setters = _openblas_thread_setters()
    if not setters:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(len(os.sched_getaffinity(0)), "mczeno-sector",
                              initializer=_one_blas_thread, initargs=(setters,))


def _openblas_thread_setters() -> list:
    """openblas_set_num_threads_local of each OpenBLAS library mapped into
    this process (numpy's bundled OpenBLAS exports it unprefixed), or []
    when there is none or no /proc/self/maps."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in line.rpartition("/")[2].lower()}
    except OSError:
        return []
    setters = []
    for path in sorted(paths):
        try:
            setters.append(ctypes.CDLL(path).openblas_set_num_threads_local)
        except (OSError, AttributeError):
            pass
    return setters


def _one_blas_thread(setters: list) -> None:
    """Worker initializer: OpenBLAS calls run on one thread (in every thread
    of the process for a pthreads build; see _sector_pool)."""
    for setter in setters:
        setter(1)


if hasattr(os, "register_at_fork"):
    # A forked child holds a copy of the pool whose workers did not come
    # with it, yet count as idle, so a job sent to it would never run.
    os.register_at_fork(after_in_child=_sector_pool.cache_clear)


def path_spectrum(p, n_points: int, k: int) -> PathSpectrum:
    """Lowest k levels at n_points equally spaced s values in [0, 1]."""
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    dim = 1 << p.n_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    s_values = np.array(s_grid(n_points - 1))
    solutions = path_eigensolutions(p, s_values)
    levels = np.array([es.eigenvalues[:k] for es in solutions])
    return PathSpectrum(s_values, levels)
