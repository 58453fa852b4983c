"""Discretized adiabatic evolution along a path Hamiltonian.

The evolved state is the product of per-step propagators

    |psi(T)> = e^{-i H(T) dT} e^{-i H(T - dT) dT} ... e^{-i H(dT) dT} |psi(0)>

The factor list starts at t = dT; the step at t = k dT uses H evaluated
there.  Each factor is applied to the state, never formed: a Chebyshev
series in H(s) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) on
its Gershgorin interval, truncated where its Bessel coefficients fall
below double precision, so the only approximation is the step
discretization itself, in the symmetry sectors the start reaches.  Only
H(1) = H_p is diagonalized, for the final energy and ground fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from mczeno.pauli import PauliHamiltonian, ham_matrix
from mczeno.path import PathHamiltonian, Sector, s_grid
from mczeno.spectral import EigenSolution, eig, path_eigensolutions, symmetry_sectors

DENSE_STEP_DIMENSION = 384
"""Largest block (a sector, or a whole space without sectors) stepped dense;
only sparse steps import scipy.  A ~45-term step on random real blocks with
44 / 95 nonzeros per row took 2.0-2.4 / 2.0-2.4 ms dense against 2.1-3.0 /
4.5-4.6 ms sparse at 384 rows and 4.3-5.1 / 3.8-5.1 against 3.7-4.1 /
5.1-6.1 ms at 512 (2 runs of 21, shared 2-core x86_64, 2 OpenBLAS threads)."""


@dataclass(frozen=True)
class QaeResult:
    """Final state with its energy against H_p and ground-space fidelity."""

    final_state: np.ndarray
    final_energy: float
    ground_fidelity: float
    step_count: int


def _check_state(psi: np.ndarray, n_qubits: int, tol: float = 1e-9) -> None:
    if psi.shape != (1 << n_qubits,):
        raise ValueError(
            f"state has dimension {psi.shape}, expected {(1 << n_qubits,)}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized (norm {norm})")


def energy_expectation(psi: np.ndarray, h: PauliHamiltonian) -> float:
    """Real part of <psi|H|psi>; ham_matrix builds H exactly Hermitian."""
    _check_state(psi, h.n_qubits, tol=1e-6)
    return complex(np.vdot(psi, ham_matrix(h) @ psi)).real


def ground_space_fidelity(psi: np.ndarray, h: PauliHamiltonian) -> float:
    """Born weight of psi on the (possibly degenerate) ground level of h."""
    _check_state(psi, h.n_qubits, tol=1e-6)
    solution = eig(h)
    return float(solution.weights(psi)[:solution.level_ends[0]].sum())


def _bessel_j(n: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_{n-1}(x) for x > 0 by Miller's backward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} runs down from J_{n+1} = 0, J_n = 1,
    rescaled against overflow, then normalized by J_0 + 2 (J_2 + J_4 +
    ...) = 1.  The start's error is of the order of the true J_n(x), so n
    must lie where that is negligible.
    """
    above, current = 0.0, 1.0
    values = [current]
    for k in range(n, 0, -1):
        above, current = current, (2.0 * k / x) * current - above
        values.append(current)
        if abs(current) > 1e100:
            values = [v * 1e-100 for v in values]
            above, current = above * 1e-100, current * 1e-100
    j = np.array(values[::-1])
    return j[:n] / (j[0] + 2.0 * j[2::2].sum())


def chebyshev_coefficients(x: float) -> np.ndarray:
    """Coefficients a_k of e^{-i x y} = sum_k a_k T_k(y) on -1 <= y <= 1:
    a_0 = J_0(x) and a_k = 2 (-i)^k J_k(x), cut where the tail of |a_k|
    falls below double precision.  Below x = eps the series is 1."""
    eps = np.finfo(float).eps
    if x < eps:
        return np.ones(1, dtype=complex)
    # Past k = x, J_k(x) falls off on a scale of x^(1/3); at this order it
    # is below 1e-20 for any x.
    k = np.arange(int(x + 15.0 * np.cbrt(x)) + 30)
    coefficients = 2.0 * np.array([1, -1j, -1, 1j])[k % 4] * _bessel_j(len(k), x)
    coefficients[0] /= 2.0
    tail = np.cumsum(np.abs(coefficients[::-1]))[::-1]
    return coefficients[: np.count_nonzero(tail > eps)]


def _chebyshev_sum(h, centre: float, radius: float, coefficients, v: np.ndarray):
    """sum_k a_k T_k(y) v with y = (h - centre) / radius, by the three-term
    recurrence T_{k+1} = 2 y T_k - T_{k-1}."""
    total = coefficients[0] * v
    if len(coefficients) == 1:
        return total
    previous, current = v, (h @ v - centre * v) / radius
    total += coefficients[1] * current
    for a in coefficients[2:]:
        previous, current = current, (
            (2.0 / radius) * (h @ current - centre * current) - previous
        )
        total += a * current
    return total


def chebyshev_step(h, bounds: tuple[float, float], dt: float, psi: np.ndarray) -> np.ndarray:
    """e^{-i h dt} psi for a Hermitian h whose spectrum lies inside bounds.

    With c and r the centre and half-width of bounds, e^{-i h dt} is
    e^{-i c dt} times the Chebyshev series of e^{-i r dt y} in
    y = (h - c) / r; r = 0 (h = c I) leaves its first term alone.  h may
    be dense or sparse.  A real h, which a complex psi would cast to complex,
    acts on psi's real and imaginary parts: dense, as two columns of one
    product; sparse, in two products (half the time of a two-column one).
    """
    lo, hi = bounds
    centre, radius = (lo + hi) / 2.0, (hi - lo) / 2.0
    series = partial(_chebyshev_sum, h, centre, radius,
                     chebyshev_coefficients(radius * dt))
    if np.iscomplexobj(h):
        total = series(psi)
    elif isinstance(h, np.ndarray):
        total = series(np.column_stack([psi.real, psi.imag])) @ np.array([1.0, 1j])
    else:
        total = series(psi.real) + 1j * series(psi.imag)
    return np.exp(-1j * centre * dt) * total


def _block_matrix(p: PathHamiltonian, sector: Sector | None, s: float):
    """H(s) on one stepped block, a sector or (None) the whole space: dense up
    to DENSE_STEP_DIMENSION rows, sparse above."""
    dense = (1 << p.n_qubits if sector is None else sector.dimension) <= DENSE_STEP_DIMENSION
    return (p.matrix if dense else p.sparse_matrix)(s, sector)


def step_count(total_time: float, delta_t: float) -> int:
    """The number of steps total_time / delta_t, which must be a positive
    whole number to 1e-9 (relative); ValueError otherwise."""
    if delta_t <= 0:
        raise ValueError(f"delta_t must be positive, got {delta_t}")
    ratio = total_time / delta_t
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ValueError(
            f"total_time/delta_t = {ratio} is not a positive integer"
        )
    return n_steps


def evolve(
    p: PathHamiltonian,
    delta_t: float,
    psi0: np.ndarray,
    final: EigenSolution | None = None,
) -> QaeResult:
    """Run the discretized evolution over total time p.total_time.

    Requires total_time / delta_t to be a whole number of steps and psi0
    normalized; preserves the norm to 1e-9 by construction.  Only sectors of
    symmetry_sectors(p) where psi0 has a nonzero amplitude are stepped.  The
    final energy and ground fidelity are read from final, the eigensolution
    of H(1), solved here when not given.
    """
    n_steps = step_count(p.total_time, delta_t)
    _check_state(psi0, p.n_qubits)

    psi = psi0.astype(complex)
    sectors = symmetry_sectors(p)
    blocks = ([(sector, z) for sector in sectors if (z := sector.project(psi)).any()]
              if sectors else [(None, psi)])
    for s in s_grid(n_steps)[1:]:
        bounds = p.spectral_bounds(s)
        blocks = [(sector, chebyshev_step(_block_matrix(p, sector, s), bounds, delta_t, z))
                  for sector, z in blocks]
    psi = np.zeros_like(psi) if sectors else blocks[0][1]
    for sector, z in blocks if sectors else ():
        sector.embed(z, psi)

    if final is None:
        final = next(path_eigensolutions(p, [1.0]))
    weights = final.weights(psi)
    return QaeResult(
        final_state=psi,
        final_energy=float(final.eigenvalues @ weights),
        ground_fidelity=float(weights[:final.level_ends[0]].sum()),
        step_count=n_steps,
    )
