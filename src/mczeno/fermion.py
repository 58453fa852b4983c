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

The mappings work in real strings S(x, z) = X^x Z^z.  Since Y = iXZ, a
ladder operator (X +- iY)/2 on its mode is (S(x, z_a) -+ S(x, z_b))/2,
and a product of strings only picks up the sign (-1)**parity(z1 & x2), so
every integral's strings are formed in real arithmetic, all at once.
The Y phase is applied once, to the summed strings: S(x, z) is (-i)**n_Y
times the product with Y where x and z overlap.  A Hermitian input leaves
no weight on odd n_Y; residual imaginary weight above 1e-12 raises
instead of being dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from mczeno.pauli import PauliHamiltonian, PauliTerm, _check_cap, parity

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
        for name in ("one_body", "two_body", "core_energy"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
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
_IUHF = re.compile(r"IUHF\s*=\s*(\d+)", re.IGNORECASE)
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
    class.  A record that repeats an integral, or the core energy, must
    agree with the first within 1e-10, else ValueError names both.
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
    iuhf = _IUHF.search(header)
    if iuhf is not None and int(iuhf.group(1)) != 0:
        raise ValueError(f"{path}: IUHF={iuhf.group(1)} (unrestricted) is not supported")

    h_spatial = np.zeros((m, m))
    g_chemist = np.zeros((m, m, m, m))
    core = np.zeros(())
    first = {}  # the first record of each integral, by its symmetry class
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
        if not np.isfinite(value):
            raise ValueError(f"{path}: non-finite value in record {line!r}")
        for idx in (i, j, k, l):
            if idx < 0 or idx > m:
                raise ValueError(f"{path}: orbital index {idx} out of range 1..{m}")
        if i == j == k == l == 0:
            target, slots = core, [()]
        elif k == 0 and l == 0 and i > 0 and j > 0:
            target, slots = h_spatial, [(i - 1, j - 1), (j - 1, i - 1)]
        elif i > 0 and j == 0 and k == 0 and l == 0:
            continue
        elif min(i, j, k, l) > 0:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            target, slots = g_chemist, [
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ]
        else:
            raise ValueError(f"{path}: unrecognized index pattern {line!r}")
        earlier, earlier_line = first.setdefault(min(slots), (value, line))
        if abs(value - earlier) > 1e-10:
            raise ValueError(f"{path}: record {line!r} conflicts with {earlier_line!r}")
        for slot in slots:
            target[slot] = value
    return FermionIntegrals.from_spatial(h_spatial, g_chemist, float(core))


def _jw_masks(n: int):
    """x, z_a and z_b of each mode's ladder strings: Z on the lower modes."""
    bits = 1 << np.arange(n, dtype=np.int64)
    return bits, bits - 1, 2 * bits - 1


def _parity_masks(n: int):
    """Parity-basis ladder masks: X on this and all higher modes."""
    bits = 1 << np.arange(n, dtype=np.int64)
    return ((1 << n) - 1) & ~(bits - 1), bits >> 1, bits


def _strings(masks, operators, weights: np.ndarray, n: int):
    """(x, z, coeff) of the X^x Z^z strings of sum_k weights[k] L_1 L_2 ...

    Each operator is a (modes, sign) pair: row k applies the ladder
    (S(x, z_a) + sign S(x, z_b)) / 2 of mode modes[k], with sign -1 for
    an annihilator and +1 for a creator.  Strings multiply as
    S(x1, z1) S(x2, z2) = (-1)**parity(z1 & x2) S(x1 ^ x2, z1 ^ z2).
    """
    x_mask, z_a, z_b = masks
    x = np.zeros(len(weights), dtype=np.int64)
    z, c = x[None, :], weights[None, :]
    for modes, sign in operators:
        c = 0.5 * c * (1 - 2 * parity(z & x_mask[modes], n))
        c = np.concatenate([c, sign * c])
        z = np.concatenate([z ^ z_a[modes], z ^ z_b[modes]])
        x = x ^ x_mask[modes]
    return np.broadcast_to(x, z.shape).ravel(), z.ravel(), c.ravel()


def _assemble(f: FermionIntegrals, ladder_masks) -> PauliHamiltonian:
    n = f.n_orbitals
    _check_cap(n)
    masks = ladder_masks(n)
    p, q = np.nonzero(f.one_body)
    one = _strings(masks, [(p, 1), (q, -1)], f.one_body[p, q], n)
    p, q, r, s = np.nonzero(f.two_body)
    live = (p != q) & (r != s)  # a+_p a+_p and a_r a_r are zero
    p, q, r, s = p[live], q[live], r[live], s[live]
    two = _strings(masks, [(p, 1), (q, 1), (s, -1), (r, -1)],
                   0.5 * f.two_body[p, q, r, s], n)
    x, z, c = (np.concatenate([[first], a, b])
               for first, a, b in zip((0, 0, f.core_energy), one, two))
    # each string's contributions are summed in ascending |c|, so that
    # cancelling pairs meet before larger terms can round them apart
    keys = x << n | z
    order = np.lexsort((np.abs(c), keys))
    keys, index = np.unique(keys[order], return_inverse=True)
    c = np.bincount(index, weights=c[order])
    x, z = keys >> n, keys & ((1 << n) - 1)

    # S(x, z) = (-i)**n_Y times the product with Y where x and z overlap
    n_y = (((x & z)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    odd = n_y % 2 == 1
    worst_imag = np.abs(c[odd]).max(initial=0.0)
    if worst_imag > _IMAG_LIMIT:
        raise ValueError(
            f"mapping left imaginary weight {worst_imag:g}, from non-Hermitian integrals"
        )
    c = np.where(n_y % 4 == 2, -c, c)
    keep = ~odd & (np.abs(c) > _COEFF_DROP)
    return PauliHamiltonian(n, [
        PauliTerm(n, xk, zk, ck) for xk, zk, ck in
        zip(x[keep].tolist(), z[keep].tolist(), c[keep].tolist())
    ])


def jordan_wigner(f: FermionIntegrals) -> PauliHamiltonian:
    """Qubit Hamiltonian whose spectrum equals the Fock-space spectrum."""
    return _assemble(f, _jw_masks)


def parity_map(f: FermionIntegrals) -> PauliHamiltonian:
    """Parity-basis mapping; spectrum-equivalent to Jordan-Wigner."""
    return _assemble(f, _parity_masks)
