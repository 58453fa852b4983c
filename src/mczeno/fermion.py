"""Second-quantized molecular integrals and fermion-to-qubit mappings.

Conventions, fixed here and relied on throughout:

* Spin orbitals are blocked by spin: spatial orbital p with spin up is
  mode p, with spin down mode M + p, for M spatial orbitals.  Cross
  checks are spectral, so any consistent ordering gives the same physics.
* ``two_body[p, q, r, s]`` stores the physicist-notation integral
  <pq|rs>, and the interaction reads H2 = 1/2 sum <pq|rs> a+_p a+_q a_s a_r.
  FCIDUMP records are chemist-paired spatial integrals (ij|kl); the load
  step converts via <pq|rs> = (pr|qs).
* Mode q occupancy maps to qubit q; occupation-number basis state j has
  mode q filled when bit q of j is set, and an annihilator picks up the
  sign (-1)**(number of filled modes below q).

Products of Pauli masks are tracked internally with exact i**k phases;
Hermitian assembly must end real, and residual imaginary weight above
1e-12 raises instead of being dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from mczeno.pauli import DIMENSION_CAP, PauliHamiltonian, PauliTerm

_COEFF_DROP = 1e-12
_IMAG_LIMIT = 1e-12


@dataclass(frozen=True)
class FermionIntegrals:
    """Spin-orbital integrals in Hartree plus the scalar core shift."""

    n_orbitals: int
    one_body: np.ndarray
    two_body: np.ndarray
    core_energy: float

    def __post_init__(self) -> None:
        n = self.n_orbitals
        if self.one_body.shape != (n, n):
            raise ValueError(f"one_body must be {n}x{n}")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError(f"two_body must be {n}^4")
        if np.abs(self.one_body - self.one_body.T).max() > 1e-10:
            raise ValueError("one_body is not symmetric")
        v = self.two_body
        if np.abs(v - v.transpose(1, 0, 3, 2)).max() > 1e-10:
            raise ValueError("two_body breaks <pq|rs> = <qp|sr> symmetry")
        if np.abs(v - v.transpose(2, 3, 0, 1)).max() > 1e-10:
            raise ValueError("two_body breaks <pq|rs> = <rs|pq> hermiticity")

    @classmethod
    def from_spatial(
        cls,
        h_spatial: np.ndarray,
        g_chemist: np.ndarray,
        core_energy: float,
    ) -> "FermionIntegrals":
        """Expand spatial integrals (chemist (pq|rs)) to spin orbitals."""
        m = h_spatial.shape[0]
        n = 2 * m
        one_body = np.kron(np.eye(2), h_spatial)
        two_body = np.zeros((n, n, n, n))
        physicist = g_chemist.transpose(0, 2, 1, 3)  # <pq|rs> = (pr|qs)
        for s1 in (0, 1):
            for s2 in (0, 1):
                a = slice(s1 * m, (s1 + 1) * m)
                b = slice(s2 * m, (s2 + 1) * m)
                two_body[a, b, a, b] = physicist
        return cls(n, one_body, two_body, float(core_energy))


_HEADER_END = re.compile(r"(&END|\$END|^\s*/\s*$)", re.IGNORECASE | re.MULTILINE)
_NORB = re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE)
_FORTRAN_EXPONENT = str.maketrans("Dd", "Ee")


def load_fcidump(path) -> FermionIntegrals:
    """Read a conventional FCIDUMP file.

    Layout: a namelist header (&FCI ... &END or a bare / terminator),
    then one record per line, ``value i j k l`` with 1-based orbital
    indices; the value may use a Fortran D exponent (1.0D-02).  All-zero
    indices carry the core energy, k = l = 0 a one-body element, all
    positive a chemist two-body element (ij|kl).
    Records with only the first index set (orbital energies) are ignored.
    Each stored element is expanded to its full permutational symmetry
    class.
    """
    with open(path) as handle:
        text = handle.read()
    end = _HEADER_END.search(text)
    if not text.lstrip().upper().startswith("&FCI") or end is None:
        raise ValueError(f"{path}: malformed FCIDUMP header")
    header = text[: end.start()]
    norb_match = _NORB.search(header)
    if norb_match is None:
        raise ValueError(f"{path}: header lacks NORB")
    m = int(norb_match.group(1))
    if m < 1:
        raise ValueError(f"{path}: NORB must be positive")

    h_spatial = np.zeros((m, m))
    g_chemist = np.zeros((m, m, m, m))
    core = 0.0
    for raw in text[end.end():].splitlines():
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"{path}: bad record {line!r}")
        try:
            value = float(fields[0].translate(_FORTRAN_EXPONENT))
            i, j, k, l = (int(f) for f in fields[1:])
        except ValueError:
            raise ValueError(f"{path}: non-numeric record {line!r}") from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > m:
                raise ValueError(f"{path}: orbital index {idx} out of range 1..{m}")
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0 and i > 0 and j > 0:
            h_spatial[i - 1, j - 1] = value
            h_spatial[j - 1, i - 1] = value
        elif i > 0 and j == 0 and k == 0 and l == 0:
            continue
        elif min(i, j, k, l) > 0:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                g_chemist[p, q, r, s] = value
        else:
            raise ValueError(f"{path}: unrecognized index pattern {line!r}")
    return FermionIntegrals.from_spatial(h_spatial, g_chemist, core)


# A Pauli mask pair (x, z) names the Hermitian product with Y where both
# bits overlap; products accumulate exact powers of i.
_Operator = dict[tuple[int, int], complex]


def _pauli_product(
    x1: int, z1: int, c1: complex, x2: int, z2: int, c2: complex
) -> tuple[int, int, complex]:
    x3, z3 = x1 ^ x2, z1 ^ z2
    phase_power = (
        (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
    ) % 4
    coeff = c1 * c2 * (1j ** phase_power)
    if (z1 & x2).bit_count() & 1:
        coeff = -coeff
    return x3, z3, coeff


def _multiply(left: _Operator, right: _Operator) -> _Operator:
    out: _Operator = {}
    for (x1, z1), c1 in left.items():
        for (x2, z2), c2 in right.items():
            x3, z3, c3 = _pauli_product(x1, z1, c1, x2, z2, c2)
            key = (x3, z3)
            out[key] = out.get(key, 0.0) + c3
    return out


def _ladders(keys) -> tuple[list[_Operator], list[_Operator]]:
    """Annihilators (X + iY)/2 and creators (X - iY)/2 of each mode, from
    the (x, z) masks of its X-like and Y-like Pauli parts."""
    annihilate = [{x_key: 0.5, y_key: 0.5j} for x_key, y_key in keys]
    create = [{x_key: 0.5, y_key: -0.5j} for x_key, y_key in keys]
    return annihilate, create


def _jw_ladders(n: int) -> tuple[list[_Operator], list[_Operator]]:
    """Annihilators and creators with Z strings on the lower modes."""
    keys = []
    for p in range(n):
        bit, lower = 1 << p, (1 << p) - 1
        keys.append(((bit, lower), (bit, lower | bit)))
    return _ladders(keys)


def _parity_ladders(n: int) -> tuple[list[_Operator], list[_Operator]]:
    """Ladders in the parity basis: X on all higher modes, Z on one lower."""
    full = (1 << n) - 1
    keys = []
    for p in range(n):
        bit = 1 << p
        x_mask = full & ~(bit - 1)  # this mode and all higher ones
        keys.append(((x_mask, bit >> 1), (x_mask, bit)))
    return _ladders(keys)


def _assemble(f: FermionIntegrals, ladders, cap: int) -> PauliHamiltonian:
    n = f.n_orbitals
    if n > cap:
        raise ValueError(f"{n} spin orbitals exceeds the dimension cap of {cap}")
    annihilate, create = ladders(n)
    acc: _Operator = {(0, 0): complex(f.core_energy)}

    def add(op: _Operator, scale: float) -> None:
        for key, coeff in op.items():
            acc[key] = acc.get(key, 0.0) + scale * coeff

    for p, q in np.argwhere(np.abs(f.one_body) > 0.0):
        add(_multiply(create[p], annihilate[q]), float(f.one_body[p, q]))

    pair_cache: dict[tuple[int, int], _Operator] = {}
    for p, q, r, s in np.argwhere(np.abs(f.two_body) > 0.0):
        head = pair_cache.get((p, q))
        if head is None:
            head = _multiply(create[p], create[q])
            pair_cache[(p, q)] = head
        tail = _multiply(annihilate[s], annihilate[r])
        add(_multiply(head, tail), 0.5 * float(f.two_body[p, q, r, s]))

    worst_imag = max((abs(c.imag) for c in acc.values()), default=0.0)
    if worst_imag > _IMAG_LIMIT:
        raise ValueError(
            f"mapping left imaginary weight {worst_imag:g}, input not Hermitian"
        )
    terms = [
        PauliTerm(n, x, z, float(c.real))
        for (x, z), c in acc.items()
        if abs(c.real) > _COEFF_DROP
    ]
    return PauliHamiltonian(n, terms)


def jordan_wigner(f: FermionIntegrals, cap: int = DIMENSION_CAP) -> PauliHamiltonian:
    """Qubit Hamiltonian whose spectrum equals the Fock-space spectrum."""
    return _assemble(f, _jw_ladders, cap)


def parity_map(f: FermionIntegrals, cap: int = DIMENSION_CAP) -> PauliHamiltonian:
    """Parity-basis mapping; spectrum-equivalent to Jordan-Wigner."""
    return _assemble(f, _parity_ladders, cap)
