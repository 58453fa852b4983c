"""Discretized adiabatic evolution along a path Hamiltonian.

The evolved state is the product of per-step propagators

    |psi(T)> = e^{-i H(T) dT} e^{-i H(T - dT) dT} ... e^{-i H(dT) dT} |psi(0)>

The factor list starts at t = dT; the step at t = k dT uses H evaluated
there.  Each factor is applied to the state, never formed: a Chebyshev
series in H(s) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) on
its Gershgorin interval, truncated where its Bessel coefficients fall
below double precision, so the only approximation is the step
discretization itself.  H(s) is sparse except in small dimensions.  Only
H(1) = H_p is diagonalized, for the final energy and ground fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse

from mczeno.pauli import PauliHamiltonian, ham_matrix
from mczeno.path import PathHamiltonian, s_grid
from mczeno.spectral import EigenSolution, eig, path_eigensolutions

DENSE_STEP_DIMENSION = 128
"""Largest dimension whose steps use a dense H(s): up to it, the call
overhead of a sparse product outweighs the work it saves."""


@dataclass(frozen=True)
class QaeResult:
    """Final state with its energy against H_p and ground-space fidelity."""

    final_state: np.ndarray
    final_energy: float
    ground_fidelity: float
    step_count: int


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> as a complex amplitude vector."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def _check_state(psi: np.ndarray, n_qubits: int, tol: float = 1e-9) -> None:
    if psi.shape != (1 << n_qubits,):
        raise ValueError(
            f"state has dimension {psi.shape}, expected {(1 << n_qubits,)}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized (norm {norm})")


def energy_expectation(psi: np.ndarray, h: PauliHamiltonian) -> float:
    """Real part of <psi|H|psi>; complains about imaginary residue."""
    _check_state(psi, h.n_qubits, tol=1e-6)
    value = complex(np.vdot(psi, ham_matrix(h) @ psi))
    if abs(value.imag) > 1e-10:
        raise ValueError(
            f"expectation has imaginary residue {value.imag:g}, H not Hermitian"
        )
    return value.real


def ground_space_fidelity(psi: np.ndarray, h: PauliHamiltonian) -> float:
    """Born weight of psi on the (possibly degenerate) ground level of h."""
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
    be dense or sparse; a real sparse h acts on the real and imaginary
    parts of psi separately, since a sparse product with a complex
    vector would cast h to complex storage each time.
    """
    lo, hi = bounds
    centre, radius = (lo + hi) / 2.0, (hi - lo) / 2.0
    series = partial(_chebyshev_sum, h, centre, radius,
                     chebyshev_coefficients(radius * dt))
    if scipy.sparse.issparse(h) and not np.iscomplexobj(h):
        total = series(psi.real) + 1j * series(psi.imag)
    else:
        total = series(psi)
    return np.exp(-1j * centre * dt) * total


def evolve(
    p: PathHamiltonian,
    delta_t: float,
    psi0: np.ndarray,
    final: EigenSolution | None = None,
) -> QaeResult:
    """Run the discretized evolution over total time p.total_time.

    Requires total_time / delta_t to be a whole number of steps and psi0
    normalized; preserves the norm to 1e-9 by construction.  The final
    energy and ground fidelity are read from final, the eigensolution of
    H(1), which is solved here when not given.
    """
    if delta_t <= 0:
        raise ValueError(f"delta_t must be positive, got {delta_t}")
    ratio = p.total_time / delta_t
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ValueError(
            f"total_time/delta_t = {ratio} is not a positive integer"
        )
    _check_state(psi0, p.n_qubits)

    psi = psi0.astype(complex)
    for s in s_grid(n_steps)[1:]:
        h = p.sparse_matrix(s)
        if h.shape[0] <= DENSE_STEP_DIMENSION:
            h = h.toarray()
        psi = chebyshev_step(h, p.spectral_bounds(s), delta_t, psi)

    if final is None:
        final = next(path_eigensolutions(p, [1.0]))
    weights = final.weights(psi)
    return QaeResult(
        final_state=psi,
        final_energy=float(final.eigenvalues @ weights),
        ground_fidelity=float(weights[:final.level_ends[0]].sum()),
        step_count=n_steps,
    )
