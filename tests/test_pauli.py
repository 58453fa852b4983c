"""Pauli term algebra, matrix realizations, and the text/JSON formats."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
import scipy.sparse

from mczeno.pauli import (
    PauliHamiltonian,
    PauliTerm,
    commutes,
    ham_matrix,
    hamiltonian_from_dict,
    hamiltonian_to_dict,
    is_all_z,
    load_hamiltonian,
    parse_hamiltonian,
    parse_pauli,
    save_hamiltonian,
    serialize_pauli,
    sparse_parts,
)
from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import load_qubit_hamiltonian
from mczeno.path import x_driver
from conftest import same_bits
from oracles import (
    diagonal_entries,
    dict_sparse_parts,
    kron_hamiltonian,
    kron_term,
    sequential_ham_matrix,
)


def term(label, coeff=1.0):
    return parse_pauli(f"{coeff} {label}")


class TestTermValidation:
    @pytest.mark.parametrize("x_mask, z_mask", [(-1, 0), (0, -4), (-2, -2)])
    def test_negative_mask_rejected(self, x_mask, z_mask):
        with pytest.raises(ValueError, match="^masks must be non-negative$"):
            PauliTerm(2, x_mask, z_mask, 1.0)

    @pytest.mark.parametrize("x_mask, z_mask", [(4, 0), (0, 0b110), (8, 8)])
    def test_mask_beyond_register_rejected(self, x_mask, z_mask):
        with pytest.raises(ValueError, match="^mask uses bits beyond the low 2$"):
            PauliTerm(2, x_mask, z_mask, 1.0)


class TestCommutes:
    def test_identity_commutes_with_everything(self):
        for label in ["IX", "XY", "ZZ", "YI"]:
            assert commutes(term("II"), term(label))

    def test_ix_iz_anticommute(self):
        assert not commutes(term("IX"), term("IZ"))

    def test_xy_yx_commute(self):
        """Verified by explicit 4x4 commutator."""
        assert commutes(term("XY"), term("YX"))

    def test_symmetry_and_matrix_agreement_exhaustive(self):
        """Mask predicate matches the matrix commutator on all 2-qubit pairs."""
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
        for la, lb in itertools.combinations_with_replacement(labels, 2):
            a, b = term(la), term(lb)
            assert commutes(a, b) == commutes(b, a)
            ma, mb = kron_term(la), kron_term(lb)
            matrix_commutes = np.linalg.norm(ma @ mb - mb @ ma) < 1e-10
            assert commutes(a, b) == matrix_commutes, (la, lb)

    def test_three_qubit_spot_checks(self):
        for la, lb in [("XYZ", "ZZX"), ("XII", "IYZ"), ("YYY", "XZX")]:
            ma, mb = kron_term(la), kron_term(lb)
            matrix_commutes = np.linalg.norm(ma @ mb - mb @ ma) < 1e-10
            assert commutes(term(la), term(lb)) == matrix_commutes

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutes(term("X"), term("XX"))


class TestTermMatrix:
    """ham_matrix of one-term sums."""

    @staticmethod
    def matrix(label, coeff=1.0):
        t = term(label, coeff)
        return ham_matrix(PauliHamiltonian(t.n_qubits, [t]))

    def test_single_z(self):
        m = self.matrix("Z").toarray()
        assert np.array_equal(m, np.diag([1.0, -1.0]))

    def test_single_x(self):
        m = self.matrix("X").toarray()
        assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_weighted_zz(self):
        m = self.matrix("ZZ", 2.0).toarray()
        assert np.array_equal(m, np.diag([2.0, -2.0, -2.0, 2.0]))

    @pytest.mark.parametrize("label", ["Y", "XY", "YZ", "XYZ", "YY"])
    def test_matches_kronecker_oracle(self, label):
        ours = self.matrix(label, 1.5).toarray()
        ref = kron_term(label, 1.5)
        assert np.allclose(ours, ref, atol=1e-14)

    def test_one_nonzero_per_row(self):
        m = self.matrix("XYZ", 0.7).tocsr()
        counts = np.diff(m.indptr)
        assert np.all(counts == 1)

    def test_hermitian(self):
        for label in ["Y", "XY", "YYY"]:
            m = self.matrix(label, -0.3).toarray()
            assert np.allclose(m, m.conj().T, atol=1e-14)

    def test_cap_enforced(self):
        wide = PauliTerm(15, 0, 1, 1.0)
        with pytest.raises(ValueError, match="dimension cap"):
            ham_matrix(PauliHamiltonian(wide.n_qubits, [wide]))


class TestHamMatrix:
    def test_demo_hamiltonian_spectrum(self, toy_hamiltonian):
        """Dense diagonalization of 2 II + 3 IX - 4 IZ + 5 ZI.

        Reference spectrum from the Kronecker oracle: {-8, 2, 2, 12}
        (trace 8, squared trace 216 = 4 * (4 + 9 + 16 + 25)).
        """
        m = ham_matrix(toy_hamiltonian).toarray()
        eigs = np.linalg.eigvalsh(m)
        assert np.allclose(eigs, [-8.0, 2.0, 2.0, 12.0], atol=1e-12)

    def test_empty_sum_is_zero_matrix(self):
        h = PauliHamiltonian(2, [])
        assert ham_matrix(h).nnz == 0

    def test_identity_term(self):
        h = PauliHamiltonian(1, [term("I")])
        assert np.array_equal(ham_matrix(h).toarray(), np.eye(2))

    def test_linearity(self):
        h1 = parse_hamiltonian("1.5 XY\n-2.0 ZZ")
        h2 = parse_hamiltonian("0.5 XY\n3.0 IX")
        total = PauliHamiltonian(2, h1.terms + h2.terms)
        m = ham_matrix(total).toarray()
        assert np.allclose(m, ham_matrix(h1).toarray() + ham_matrix(h2).toarray(),
                           atol=1e-12)

    def test_matches_oracle_random_sums(self):
        rng = np.random.default_rng(7)
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
        for _ in range(10):
            chosen = rng.choice(len(labels), size=6, replace=False)
            pairs = [(float(rng.normal()), labels[i]) for i in chosen]
            h = PauliHamiltonian(3, [term(l, c) for c, l in pairs])
            assert np.allclose(ham_matrix(h).toarray(), kron_hamiltonian(pairs),
                               atol=1e-12)

    def test_all_z_gives_diagonal(self):
        h = parse_hamiltonian("1.0 ZZ\n0.5 IZ\n-0.25 ZI")
        m = ham_matrix(h).toarray()
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
        assert np.allclose(np.diag(m), diagonal_entries(h))


def _bundled_hamiltonians():
    """(name, Hamiltonian) for every bundled fixture, its clique sum and
    its X driver."""
    from conftest import DATA_DIR

    out = []
    for path in sorted(DATA_DIR.iterdir()):
        h, _ = load_qubit_hamiltonian(str(path))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        out += [(path.name, h), (f"{path.name}:clique", mc),
                (f"{path.name}:x_driver", x_driver(h.n_qubits))]
    return out


ODD_Y_AND_CANCELLING = [
    "0.5 ZI\n-0.7 IY\n0.3 XZ\n0.2 YX\n0.1 XY\n-0.4 YY",
    "0.3 XZ\n0.2 YX",
    "1.0 XI\n1.0 XZ\n-2.0 IZ",  # XI + XZ cancels on half the columns
]


class TestHamMatrixByMask:
    """ham_matrix, assembled per x-mask, against the term-by-term sum."""

    @staticmethod
    def assert_identical(h):
        ours, reference = ham_matrix(h), sequential_ham_matrix(h)
        assert ours.dtype == reference.dtype
        assert ours.nnz == reference.nnz
        assert np.array_equal(ours.toarray(), reference.toarray())

    @pytest.mark.parametrize("name, h", _bundled_hamiltonians(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_bundled_fixtures_bit_identical(self, name, h):
        self.assert_identical(h)

    @pytest.mark.parametrize("text", ODD_Y_AND_CANCELLING)
    def test_odd_y_and_cancelling_sums_bit_identical(self, text):
        self.assert_identical(parse_hamiltonian(text))

    def test_cancelled_entries_left_out(self):
        m = ham_matrix(parse_hamiltonian("1.0 XI\n1.0 XZ"))
        assert m.nnz == 2
        assert not np.any(m.data == 0.0)

    def test_empty_hamiltonian_bit_identical(self):
        self.assert_identical(PauliHamiltonian(3, []))


def _bundled_paths():
    """(name, (clique, Hamiltonian, X driver)) for every bundled fixture,
    plus a path between two sums with odd-Y terms."""
    from conftest import DATA_DIR

    out = []
    for path in sorted(DATA_DIR.iterdir()):
        h, _ = load_qubit_hamiltonian(str(path))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        out.append((path.name, (mc, h, x_driver(h.n_qubits))))
    odd_y = parse_hamiltonian("0.5 ZI\n-0.7 IY\n0.3 XZ\n0.2 YX\n0.1 XY\n-0.4 YY")
    out.append(("odd_y", (odd_y, parse_hamiltonian("1.0 XI\n1.0 XZ\n-2.0 IZ"),
                          x_driver(2))))
    return out


class TestSparseParts:
    @pytest.mark.parametrize("name, hs", _bundled_paths(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_each_row_is_its_exactly_hermitian_matrix(self, name, hs):
        """A row, zeros dropped, is ham_matrix of its sum, and equals its
        own conjugate transpose exactly, so H(s) needs no Hermiticity check."""
        indptr, indices, data = sparse_parts(hs)
        dim = 1 << hs[0].n_qubits
        assert data.shape == (len(hs), len(indices))
        for h, row in zip(hs, data):
            m = scipy.sparse.csr_matrix((row, indices, indptr), shape=(dim, dim))
            assert np.array_equal(m.toarray(), ham_matrix(h).toarray())
            assert np.array_equal(m.toarray(), m.conj().T.toarray())

    @staticmethod
    def assert_pinned(hs):
        """sparse_parts equals the per-term dict reference array for array, in
        dtype, value and the sign of every zero."""
        for ours, reference in zip(sparse_parts(hs), dict_sparse_parts(hs)):
            assert same_bits(ours, reference)

    @pytest.mark.parametrize("name, hs", _bundled_paths(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_bundled_paths_pinned_to_dict_reference(self, name, hs):
        self.assert_pinned(hs)

    @pytest.mark.parametrize("text", ODD_Y_AND_CANCELLING)
    def test_odd_y_and_cancelling_sums_pinned_to_dict_reference(self, text):
        self.assert_pinned([parse_hamiltonian(text)])

    @pytest.mark.parametrize("n", range(4, 13))
    def test_random_sums_pinned_to_dict_reference(self, n):
        """Three sums whose terms share a few x-masks, so that real and odd-Y
        terms add into one entry, some to zero: the first real, the others
        with odd-Y terms, whose real parts are zeros of either sign."""
        rng = np.random.default_rng([n, 21])
        x_masks = rng.integers(0, 1 << n, size=6)
        hs = []
        for odd_y in (False, True, True):
            terms = []
            for x, z in zip(rng.choice(x_masks, 12 * n), rng.integers(0, 1 << n, 12 * n)):
                if odd_y or (int(x) & int(z)).bit_count() % 2 == 0:
                    c = float(rng.choice([-1.0, 0.5, 1.0]))
                    terms.append(PauliTerm(n, int(x), int(z), c))
            hs.append(PauliHamiltonian(n, terms))
        data = sparse_parts(hs)[2]
        assert np.iscomplexobj(data) and np.any(data == 0.0)
        self.assert_pinned(hs)

    def test_pattern_is_the_union(self):
        hs = (parse_hamiltonian("1.0 ZI"), parse_hamiltonian("1.0 IX"))
        indptr, indices, data = sparse_parts(hs)
        assert indptr.tolist() == [0, 2, 4, 6, 8]
        assert indices.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
        assert data.tolist() == [[1, 0, 0, 1, -1, 0, 0, -1],
                                 [0, 1, 1, 0, 0, 1, 1, 0]]

    def test_mismatched_registers_rejected(self):
        with pytest.raises(ValueError, match="qubit count"):
            sparse_parts((parse_hamiltonian("1.0 Z"), parse_hamiltonian("1.0 ZZ")))


class TestIsAllZ:
    def test_clique_members(self):
        h = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
        assert is_all_z(h)

    def test_x_term_detected(self):
        assert not is_all_z(parse_hamiltonian("3.0 IX"))

    def test_empty_is_vacuously_true(self):
        assert is_all_z(PauliHamiltonian(2, []))


class TestParseSerialize:
    def test_fig_term(self):
        t = parse_pauli("5.0 ZI")
        assert (t.n_qubits, t.x_mask, t.z_mask, t.coefficient) == (2, 0, 2, 5.0)

    def test_identity(self):
        t = parse_pauli("1.0 II")
        assert t.x_mask == 0 and t.z_mask == 0

    def test_xy_masks(self):
        t = parse_pauli("2.5 XY")
        assert t.x_mask == 0b11 and t.z_mask == 0b01

    def test_unicode_minus(self):
        assert parse_pauli("−4.0 IZ").coefficient == -4.0

    def test_round_trip(self):
        for line in ["5.0 ZI", "-0.123456789012345 XYZI", "2.5 XY"]:
            t = parse_pauli(line)
            again = parse_pauli(serialize_pauli(t))
            assert again == t

    def test_illegal_character(self):
        with pytest.raises(ValueError, match="illegal Pauli character"):
            parse_pauli("1.0 AZ")

    def test_bad_coefficient(self):
        with pytest.raises(ValueError, match="not parseable"):
            parse_pauli("abc IZ")

    def test_label_convention_qubit0_rightmost(self):
        t = parse_pauli("1.0 ZI")
        assert t.z_mask == 0b10
        assert t.label == "ZI"


class TestCanonicalization:
    def test_duplicates_merge(self):
        h = PauliHamiltonian(2, [term("IZ", 1.0), term("IZ", 2.5)])
        assert len(h) == 1
        assert h.terms[0].coefficient == 3.5

    def test_zero_terms_dropped(self):
        h = PauliHamiltonian(2, [term("IZ", 1.0), term("IZ", -1.0), term("XI", 0.5)])
        assert [t.label for t in h.terms] == ["XI"]

    def test_generator_canonicalized(self):
        """Any iterable of terms, read once: duplicates merge, zeros drop."""
        labels = ["XI", "IZ", "ZZ", "IZ", "XI"]
        h = PauliHamiltonian(2, (term(l, c) for l, c in zip(labels, [1.0, 2.0, 0.0, 0.5, -1.0])))
        assert h.terms == (term("IZ", 2.5),)

    def test_fields_cannot_be_assigned(self):
        """Frozen sums and terms refuse any assignment, a name that is not a
        field included, with FrozenInstanceError (an AttributeError)."""
        h = PauliHamiltonian(2, [term("IZ")])
        for name, value in [("n_qubits", 3), ("terms", ()), ("extra", 1)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, name, value)
        assert h == PauliHamiltonian(2, [term("IZ")])
        t = PauliTerm(1, 0, 1, 1.0)
        for name in ("coefficient", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, 2.0)
        assert t == PauliTerm(1, 0, 1, 1.0)

    def test_equal_sums_compare_and_hash_equal(self):
        a = PauliHamiltonian(2, [term("XY", 1.0), term("ZI", 2.0), term("IX", 0.5)])
        b = PauliHamiltonian(2, [term("IX", 0.25), term("ZI", 2.0), term("XY", 1.0),
                                 term("IX", 0.25), term("YY", 0.0)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != PauliHamiltonian(2, [term("XY", 1.0), term("ZI", 2.0)])
        assert PauliHamiltonian(1, []) != PauliHamiltonian(2, [])
        assert a != a.terms

    def test_sort_order_deterministic(self):
        a = parse_hamiltonian("1.0 XY\n2.0 ZI\n3.0 IX")
        b = parse_hamiltonian("3.0 IX\n1.0 XY\n2.0 ZI")
        assert a == b
        assert [t.key for t in a.terms] == sorted(t.key for t in a.terms)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="inconsistent label widths"):
            parse_hamiltonian("1.0 XX\n2.0 X")


class TestFileFormats:
    def test_text_round_trip(self, toy_hamiltonian, tmp_path):
        path = tmp_path / "ham.txt"
        save_hamiltonian(toy_hamiltonian, path, header="demo")
        again = load_hamiltonian(path)
        assert again == toy_hamiltonian

    def test_json_round_trip(self, toy_hamiltonian, tmp_path):
        """The .json suffix is matched in any case."""
        for name in ("ham.json", "ham.JSON"):
            path = tmp_path / name
            save_hamiltonian(toy_hamiltonian, path)
            again = load_hamiltonian(path)
            assert again == toy_hamiltonian
            doc = json.loads(path.read_text())
            assert doc["n_qubits"] == 2
            assert {e["label"] for e in doc["terms"]} == {"II", "IX", "IZ", "ZI"}

    def test_upper_case_json_suffix_reads_a_json_document(self, toy_hamiltonian, tmp_path):
        path = tmp_path / "ham.JSON"
        path.write_text(json.dumps(hamiltonian_to_dict(toy_hamiltonian)))
        assert load_hamiltonian(path) == toy_hamiltonian

    def test_comments_and_blank_lines_ignored(self):
        h = parse_hamiltonian("# header\n\n2.0 II # trailing note\n\n5.0 ZI\n")
        assert [t.label for t in h.terms] == ["II", "ZI"]

    def test_dict_round_trip(self, toy_hamiltonian):
        doc = hamiltonian_to_dict(toy_hamiltonian)
        assert hamiltonian_from_dict(doc) == toy_hamiltonian

    @pytest.mark.parametrize("label, position", [("Z", 0), ("XXXX", 1)])
    def test_dict_label_width_must_match(self, label, position):
        """Every label has n_qubits characters, as in the text format: a
        narrower one is not padded with identities."""
        terms = [{"coeff": 1.0, "label": "ZZZ"}, {"coeff": 0.5, "label": "IXX"}]
        terms[position]["label"] = label
        with pytest.raises(ValueError, match=rf"^term {position} label '{label}' "
                                             "is not 3 characters wide$"):
            hamiltonian_from_dict({"n_qubits": 3, "terms": terms})

    @pytest.mark.parametrize("field", ["label", "coeff"])
    def test_dict_term_missing_field(self, field):
        terms = [{"coeff": 1.0, "label": "ZI"}, {"coeff": 0.5, "label": "XX"}]
        del terms[1][field]
        with pytest.raises(ValueError, match=f"^term 1 has no field '{field}'$"):
            hamiltonian_from_dict({"n_qubits": 2, "terms": terms})

    @pytest.mark.parametrize("field, value, message", [
        ("coeff", True, "term 1 coeff must be a JSON number, got True"),
        ("coeff", "1.5", "term 1 coeff must be a JSON number, got '1.5'"),
        ("coeff", "x", "term 1 coeff must be a JSON number, got 'x'"),
        ("coeff", None, "term 1 coeff must be a JSON number, got None"),
        ("label", 12, "term 1 label must be a JSON string, got 12"),
    ])
    def test_dict_term_field_of_wrong_type(self, field, value, message):
        terms = [{"coeff": 1.0, "label": "ZI"}, {"coeff": 0.5, "label": "XX"}]
        terms[1][field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hamiltonian_from_dict({"n_qubits": 2, "terms": terms})

    @pytest.mark.parametrize("coeff, message", [
        ("NaN", "term 1 coeff must be finite, got nan"),
        ("-Infinity", "term 1 coeff must be finite, got -inf"),
        ("1" + "0" * 400, "term 1 coeff is too large for a float"),
    ], ids=["nan", "minus_infinity", "integer_of_401_digits"])
    def test_dict_coefficient_not_a_finite_float(self, coeff, message):
        """json reads the NaN and Infinity literals, and integers of any size."""
        text = ('{"n_qubits": 1, "terms": [{"coeff": 1.0, "label": "Z"}, '
                f'{{"coeff": {coeff}, "label": "X"}}]}}')
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hamiltonian_from_dict(json.loads(text))

    def test_dict_integer_coefficient_is_a_number(self):
        h = hamiltonian_from_dict({"n_qubits": 1, "terms": [{"coeff": 2, "label": "Z"}]})
        assert h.coefficient_of("Z") == 2.0

    @pytest.mark.parametrize("doc, message", [
        ({"n_qubits": 2.7, "terms": []}, "n_qubits must be a JSON integer, got 2.7"),
        ({"n_qubits": 2.0, "terms": []}, "n_qubits must be a JSON integer, got 2.0"),
        ({"n_qubits": "2", "terms": []}, "n_qubits must be a JSON integer, got '2'"),
        ({"n_qubits": True, "terms": []}, "n_qubits must be a JSON integer, got True"),
        ({"n_qubits": 1, "terms": {"label": "Z", "coeff": 1.0}},
         "terms must be a JSON array, got {'label': 'Z', 'coeff': 1.0}"),
        ({"n_qubits": 1, "terms": [{"label": "Z", "coeff": 1.0}, 3]},
         "term 1 must be a JSON object, got 3"),
        ([{"n_qubits": 1}], "Hamiltonian document must be a JSON object, got [{'n_qubits': 1}]"),
        ({"terms": []}, "missing field 'n_qubits' in Hamiltonian document"),
    ])
    def test_dict_document_of_wrong_shape(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hamiltonian_from_dict(doc)
