"""Weighted Pauli products in symplectic mask form, with matrix realizations.

A Pauli product on n qubits is encoded by two n-bit integers: bit q of
``x_mask`` is set when qubit q carries X or Y, bit q of ``z_mask`` when it
carries Z or Y.  Qubit 0 is the rightmost character of a label string, so
the label "ZI" places Z on qubit 1.  Coefficients are real; the i**n_Y
phase of Y = iXZ lives in the matrix builder, which keeps every Hermitian
sum of products a sum with real weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIMENSION_CAP = 14
"""Largest qubit count for which dense 2**n work is permitted by default."""

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {bits: char for char, bits in _CHAR_TO_BITS.items()}


@dataclass(frozen=True)
class PauliTerm:
    """One weighted n-qubit Pauli product.

    Parameters
    ----------
    n_qubits : int
        Number of qubits; masks use only the low ``n_qubits`` bits.
    x_mask, z_mask : int
        Symplectic bit masks.  The identity term has both masks zero.
    coefficient : float
        Real weight, in Hartree when the term is chemical.
    """

    n_qubits: int
    x_mask: int
    z_mask: int
    coefficient: float

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.x_mask < 0 or self.z_mask < 0:
            raise ValueError("masks must be non-negative")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError(
                f"mask uses bits beyond the low {self.n_qubits}"
            )
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient}")

    @property
    def label(self) -> str:
        """Label string, qubit n-1 leftmost down to qubit 0 rightmost."""
        chars = []
        for q in range(self.n_qubits - 1, -1, -1):
            bits = ((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)
            chars.append(_BITS_TO_CHAR[bits])
        return "".join(chars)

    @property
    def key(self) -> tuple[int, int]:
        """The (z_mask, x_mask) canonical sort key."""
        return (self.z_mask, self.x_mask)

    def scaled(self, factor: float) -> "PauliTerm":
        return PauliTerm(self.n_qubits, self.x_mask, self.z_mask,
                         self.coefficient * factor)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Weighted sum of Pauli products on a fixed qubit register.

    The terms, any iterable of PauliTerm on the register, are canonicalized
    on construction: duplicates (same mask pair) are merged by coefficient
    addition, exact-zero coefficients dropped, and the survivors sorted by
    (z_mask, x_mask) into a tuple.
    """

    n_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        merged: dict[tuple[int, int], float] = {}
        for term in self.terms:
            if term.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term on {term.n_qubits} qubits in a {self.n_qubits}-qubit sum"
                )
            key = (term.x_mask, term.z_mask)
            merged[key] = merged.get(key, 0.0) + term.coefficient
        canonical = [
            PauliTerm(self.n_qubits, x, z, c)
            for (x, z), c in merged.items()
            if c != 0.0
        ]
        canonical.sort(key=lambda t: t.key)
        object.__setattr__(self, "terms", tuple(canonical))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self) -> str:
        body = " + ".join(f"{t.coefficient:g}*{t.label}" for t in self.terms)
        return f"PauliHamiltonian({self.n_qubits}, {body or '0'})"

    def coefficient_of(self, label: str) -> float:
        """Coefficient of the term with the given label, 0.0 if absent."""
        x, z = _label_to_masks(label)
        for t in self.terms:
            if t.x_mask == x and t.z_mask == z:
                return t.coefficient
        return 0.0


def commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True when the two Pauli products commute as operators.

    Two products commute exactly when the symplectic form vanishes,
    i.e. parity(a.x & b.z) == parity(a.z & b.x).
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    left = (a.x_mask & b.z_mask).bit_count() & 1
    right = (a.z_mask & b.x_mask).bit_count() & 1
    return left == right


def parity(values: np.ndarray, n_bits: int) -> np.ndarray:
    """popcount(v) & 1 of each v < 2**n_bits (np.bitwise_count needs numpy 2)."""
    shift = 1 << max(n_bits - 1, 0).bit_length()
    while shift > 1:
        shift >>= 1
        values = values ^ (values >> shift)
    return values & 1


def _check_cap(n_qubits: int) -> None:
    if n_qubits > DIMENSION_CAP:
        raise ValueError(
            f"{n_qubits} qubits exceeds the dimension cap of {DIMENSION_CAP}"
        )


def sparse_parts(
    hs: Sequence[PauliHamiltonian],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One CSR layout for the matrices of several Pauli sums on one register.

    Returns (indptr, indices, data): the canonical CSR pattern (rows in
    order, ascending columns) of the union of the sums' nonzero entries,
    and one row of data per sum, zero where that sum has no entry.  Each
    term adds coeff * i**n_Y * (-1)**popcount(z & c), signs from one table,
    at the entries (c ^ x, c) of its x-mask x in place, in term order, which
    is exactly what the sum of their term matrices holds.
    """
    n = hs[0].n_qubits
    if any(h.n_qubits != n for h in hs):
        raise ValueError("Pauli sums differ in qubit count")
    _check_cap(n)
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    signs = 1.0 - 2.0 * parity(cols, n)
    terms = [(k, t, (t.x_mask & t.z_mask).bit_count()) for k, h in enumerate(hs) for t in h.terms]
    masks = {x: i for i, x in enumerate(dict.fromkeys(t.x_mask for _, t, _ in terms))}
    block = np.zeros((len(hs), len(masks), dim),
                     dtype=complex if any(n_y % 2 for *_, n_y in terms) else float)
    filled = set()
    for part, t, n_y in terms:
        phase = t.coefficient * 1j ** n_y
        data = (phase if n_y % 2 else phase.real) * signs[cols & t.z_mask]
        slot = (part, masks[t.x_mask])  # a first term is not added to 0, so -0.0 stays
        block[slot] = block[slot] + data if slot in filled else data
        filled.add(slot)
    flat = np.flatnonzero((block != 0).any(axis=0))  # mask index << n | column
    col_at = flat & (dim - 1)
    rows = col_at ^ np.array(list(masks), dtype=np.int64)[flat >> n]
    order = np.argsort(rows << n | col_at)
    # the index type scipy would pick, so that building a matrix copies none
    index = np.int32 if max(dim, len(flat)) < 2**31 else np.int64
    indptr = np.r_[0, np.bincount(rows, minlength=dim).cumsum()].astype(index)
    return (indptr, col_at[order].astype(index),
            block.reshape(len(hs), -1)[:, flat[order]])


def ham_matrix(h: PauliHamiltonian) -> scipy.sparse.csr_matrix:
    """Sparse Hermitian matrix of a Pauli sum: the one-sum sparse_parts.

    Equal, entry for entry, to the sum of the term matrices in term order;
    entries that cancel to exactly zero are left out, as that sum drops them.
    """
    import scipy.sparse

    indptr, indices, data = sparse_parts([h])
    dim = 1 << h.n_qubits
    return scipy.sparse.csr_matrix((data[0], indices, indptr), shape=(dim, dim))


def densify(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense matrix of values on a sparse_parts CSR pattern, in their dtype.
    They are added onto zeros, as scipy densifies, so -0.0 reads 0.0."""
    dim = len(indptr) - 1
    dense = np.zeros((dim, dim), dtype=values.dtype)
    dense[np.repeat(np.arange(dim), np.diff(indptr)), indices] += values
    return dense


def is_all_z(h: PauliHamiltonian) -> bool:
    """True when every term is a product of Z and identity factors only."""
    return all(t.x_mask == 0 for t in h.terms)


def _label_to_masks(label: str) -> tuple[int, int]:
    x = z = 0
    for q, char in enumerate(reversed(label)):
        try:
            xb, zb = _CHAR_TO_BITS[char]
        except KeyError:
            raise ValueError(f"illegal Pauli character {char!r} in {label!r}") from None
        x |= xb << q
        z |= zb << q
    return x, z


def parse_pauli(text: str) -> PauliTerm:
    """Parse one ``<coefficient> <label>`` line into a PauliTerm.

    The minus sign may be ASCII or U+2212.  Raises ValueError on an
    unparseable coefficient or a label character outside {I, X, Y, Z}.
    """
    fields = text.replace("−", "-").split()
    if len(fields) != 2:
        raise ValueError(f"expected '<coefficient> <label>', got {text!r}")
    raw_coeff, label = fields
    try:
        coeff = float(raw_coeff)
    except ValueError:
        raise ValueError(f"coefficient not parseable: {raw_coeff!r}") from None
    if not math.isfinite(coeff):
        raise ValueError(f"coefficient must be finite, got {raw_coeff!r}")
    x, z = _label_to_masks(label)
    return PauliTerm(len(label), x, z, coeff)


def serialize_pauli(t: PauliTerm) -> str:
    """Inverse of parse_pauli on canonical form."""
    return f"{t.coefficient!r} {t.label}"


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse the text format: one term per line, ``#`` comments allowed."""
    terms = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        terms.append(parse_pauli(body))
    if not terms:
        raise ValueError("no Pauli terms found")
    widths = {t.n_qubits for t in terms}
    if len(widths) != 1:
        raise ValueError(f"inconsistent label widths: {sorted(widths)}")
    return PauliHamiltonian(widths.pop(), terms)


def format_hamiltonian(h: PauliHamiltonian, header: str | None = None) -> str:
    """Render the text format; float repr keeps the round trip exact."""
    lines = []
    if header:
        lines.extend(f"# {row}" for row in header.splitlines())
    lines.extend(serialize_pauli(t) for t in h.terms)
    return "\n".join(lines) + "\n"


def hamiltonian_to_dict(h: PauliHamiltonian) -> dict:
    return {
        "n_qubits": h.n_qubits,
        "terms": [{"coeff": t.coefficient, "label": t.label} for t in h.terms],
    }


def hamiltonian_from_dict(doc: dict) -> PauliHamiltonian:
    """Read the JSON form: an object with an integer n_qubits and an array of
    terms, each an object with a string label and a number coeff, finite as
    a float.  An error names the field, and the term by its position."""
    doc = _json(doc, dict, "Hamiltonian document")
    try:
        n = _json(doc["n_qubits"], int, "n_qubits")
        raw = _json(doc["terms"], list, "terms")
    except KeyError as missing:
        raise ValueError(f"missing field {missing} in Hamiltonian document") from None
    terms = []
    for position, entry in enumerate(raw):
        entry = _json(entry, dict, f"term {position}")
        try:
            label = _json(entry["label"], str, f"term {position} label")
            coeff = _json(entry["coeff"], (int, float), f"term {position} coeff")
        except KeyError as missing:
            raise ValueError(f"term {position} has no field {missing}") from None
        if len(label) != n:
            raise ValueError(f"term {position} label {label!r} is not {n} characters wide")
        try:
            coeff = float(coeff)
        except OverflowError:
            raise ValueError(f"term {position} coeff is too large for a float") from None
        if not math.isfinite(coeff):
            raise ValueError(f"term {position} coeff must be finite, got {coeff!r}")
        terms.append(PauliTerm(n, *_label_to_masks(label), coeff))
    return PauliHamiltonian(n, terms)


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               (int, float): "number"}


def _json(value, kind, what: str):
    """value, or a ValueError naming what unless it is a JSON value of kind, a
    key of _JSON_TYPES; true and false are neither integers nor numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def load_hamiltonian(path) -> PauliHamiltonian:
    """Load a Hamiltonian from a ``.json`` document or the text format."""
    with open(path) as handle:
        raw = handle.read()
    if str(path).lower().endswith(".json"):
        return hamiltonian_from_dict(json.loads(raw))
    return parse_hamiltonian(raw)


def save_hamiltonian(h: PauliHamiltonian, path, header: str | None = None) -> None:
    with open(path, "w") as handle:
        if str(path).lower().endswith(".json"):
            json.dump(hamiltonian_to_dict(h), handle, indent=1)
            handle.write("\n")
        else:
            handle.write(format_hamiltonian(h, header))
