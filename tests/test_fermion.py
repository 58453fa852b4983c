"""FCIDUMP ingestion and the Jordan-Wigner / parity mappings.

The reference for every spectrum is the Fock-space brute-force oracle in
oracles.py, which builds ladder matrices directly from occupation bit
patterns and never touches Pauli algebra.  The term sets are held to the
earlier dict-of-masks mapping kept in oracles.py.
"""

import re

import numpy as np
import pytest

from mczeno.fermion import FermionIntegrals, jordan_wigner, load_fcidump, parity_map
from mczeno.spectral import dense_matrix
from oracles import (
    dict_jordan_wigner,
    dict_parity_map,
    fock_hamiltonian,
    random_spatial_integrals,
)

MINIMAL_ONE_BODY = """\
&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 -1.25 1 1 0 0
"""

CORE_ONLY = """\
&FCI NORB=1,NELEC=0,MS2=0,
&END
 0.7 0 0 0 0
"""


def number_operator_integrals():
    return FermionIntegrals(
        1, np.array([[1.0]]), np.zeros((1, 1, 1, 1)), 0.0
    )


class TestLoadFcidump:
    def test_minimal_one_body(self, tmp_path):
        path = tmp_path / "minimal.fcidump"
        path.write_text(MINIMAL_ONE_BODY)
        f = load_fcidump(path)
        assert f.n_orbitals == 4
        # blocked spins: spatial (1,1) lands on modes 0 and 2
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = -1.25
        assert np.array_equal(f.one_body, expected)
        assert not f.two_body.any()
        assert f.core_energy == 0.0

    def test_core_only(self, tmp_path):
        path = tmp_path / "core.fcidump"
        path.write_text(CORE_ONLY)
        f = load_fcidump(path)
        assert f.core_energy == 0.7
        assert not f.one_body.any()
        assert not f.two_body.any()

    def test_two_body_symmetry_expansion(self, tmp_path):
        path = tmp_path / "g.fcidump"
        path.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.25 2 1 2 1\n 0.0 0 0 0 0\n"
        )
        f = load_fcidump(path)
        # <pq|rs> = (pr|qs): chemist (21|21) feeds all eight permutations
        v = f.two_body
        assert v[1, 1, 0, 0] == pytest.approx(0.25)  # <uu|gg> up-up block
        assert v[0, 0, 1, 1] == pytest.approx(0.25)
        assert v[1, 3, 0, 2] == pytest.approx(0.25)  # up-down block
        assert v[0, 2, 1, 3] == pytest.approx(0.25)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.fcidump"
        path.write_text("NORB=2\n 0.5 1 1 0 0\n")
        with pytest.raises(ValueError, match="malformed FCIDUMP header"):
            load_fcidump(path)

    def test_unrestricted_header_rejected(self, tmp_path):
        """A UHF file holds two spin blocks; read as RHF, the second
        silently overwrites the first."""
        path = tmp_path / "uhf.fcidump"
        path.write_text(
            "&FCI NORB=1,NELEC=1,MS2=1,IUHF=1,\n&END\n"
            " -1.0 1 1 0 0\n -0.9 1 1 0 0\n"
        )
        with pytest.raises(ValueError, match=r"uhf\.fcidump: IUHF=1"):
            load_fcidump(path)

    @pytest.mark.parametrize("first, second", [
        ("0.6636 2 2 1 1", "0.9999 1 1 2 2"),  # (22|11) = (11|22)
        ("0.1 2 1 0 0", "0.2 1 2 0 0"),  # h_21 = h_12
        ("0.7 0 0 0 0", "0.7000000002 0 0 0 0"),  # a second core energy
    ])
    def test_conflicting_records_raise(self, tmp_path, first, second):
        """A later record of the same integral would otherwise replace the
        earlier one in every slot of its symmetry class."""
        path = tmp_path / "conflict.fcidump"
        path.write_text(f"&FCI NORB=2,\n&END\n {first}\n 0.5 1 1 1 1\n {second}\n")
        message = rf"^{re.escape(str(path))}: record '{second}' conflicts with '{first}'$"
        with pytest.raises(ValueError, match=message):
            load_fcidump(path)

    def test_equal_repeats_accepted(self, tmp_path):
        """Repeats within 1e-10 of the first record, including zeros, load."""
        path = tmp_path / "repeat.fcidump"
        path.write_text("&FCI NORB=2,\n&END\n 0.0 2 1 1 1\n 0.6636 2 2 1 1\n"
                        " 0.0 1 1 1 2\n 0.66360000001 1 1 2 2\n 0.1 2 1 0 0\n"
                        " 0.1 1 2 0 0\n 0.7 0 0 0 0\n 0.7 0 0 0 0\n")
        f = load_fcidump(path)
        assert f.two_body[0, 1, 0, 1] == f.two_body[1, 0, 1, 0] == 0.66360000001
        assert f.one_body[0, 1] == f.one_body[1, 0] == 0.1
        assert not f.two_body[1, 0, 0, 0] and f.core_energy == 0.7

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "range.fcidump"
        path.write_text("&FCI NORB=2,\n&END\n 0.5 3 1 0 0\n")
        with pytest.raises(ValueError, match="out of range"):
            load_fcidump(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "nan.fcidump"
        path.write_text("&FCI NORB=2,\n&END\n x.5 1 1 0 0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_fcidump(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1.0D+999"])
    def test_non_finite_value_names_its_record(self, data_dir, tmp_path, value):
        """A non-finite first record of the bundled H2 file is rejected, not
        dropped by comparisons that NaN fails."""
        text = (data_dir / "h2_sto3g_0.7414.fcidump").read_text()
        header, body = text.split("&END\n")
        records = body.splitlines()
        first = records[0].split()
        assert first[1:] == ["1", "1", "1", "1"]
        records[0] = " ".join([value] + first[1:])
        path = tmp_path / "bad.fcidump"
        path.write_text(header + "&END\n" + "\n".join(records) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: non-finite value in record "
                                             rf"'{re.escape(records[0])}'$"):
            load_fcidump(path)

    def test_fortran_d_exponents(self, data_dir, tmp_path):
        """A D-exponent copy of the bundled H2 file gives the same spectrum."""
        text = (data_dir / "h2_sto3g_0.7414.fcidump").read_text()
        header, body = text.split("&END\n")
        records = [line.split() for line in body.splitlines() if line.strip()]
        assert all("e" in fields[0] for fields in records)
        d_form = tmp_path / "d_form.fcidump"
        d_form.write_text(header + "&END\n" + "".join(
            " ".join([fields[0].replace("e", "D")] + fields[1:]) + "\n"
            for fields in records
        ))
        e_form = np.linalg.eigvalsh(dense_matrix(jordan_wigner(
            load_fcidump(data_dir / "h2_sto3g_0.7414.fcidump"))))
        ours = np.linalg.eigvalsh(dense_matrix(jordan_wigner(load_fcidump(d_form))))
        assert np.array_equal(ours, e_form)

    def test_malformed_d_exponent_still_rejected(self, tmp_path):
        path = tmp_path / "dd.fcidump"
        path.write_text("&FCI NORB=2,\n&END\n 1.0DD-02 1 1 0 0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_fcidump(path)

    def test_bundled_h2_full_ci(self, data_dir):
        """Bundled equilibrium H2 file reaches the expected total energy.

        The ground energy of the loaded qubit problem must match the
        Fock-space oracle run on the same spatial data, and sit near the
        known -1.137 Ha total for this geometry and basis.
        """
        f = load_fcidump(data_dir / "h2_sto3g_0.7414.fcidump")
        ours = np.linalg.eigvalsh(dense_matrix(jordan_wigner(f)))
        assert ours[0] == pytest.approx(-1.137270, abs=5e-5)


class TestJordanWigner:
    def test_number_operator(self):
        h = jordan_wigner(number_operator_integrals())
        assert {(t.label, round(t.coefficient, 12)) for t in h.terms} == {
            ("I", 0.5), ("Z", -0.5),
        }

    def test_core_only_gives_identity(self):
        f = FermionIntegrals(2, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.7)
        h = jordan_wigner(f)
        assert [(t.label, t.coefficient) for t in h.terms] == [("II", 0.7)]

    def test_h2_fixture_matches_fock_oracle(self, data_dir):
        f = load_fcidump(data_dir / "h2_sto3g_0.7414.fcidump")
        jw = np.linalg.eigvalsh(dense_matrix(jordan_wigner(f)))
        # rebuild the spatial data the blocked expansion started from
        h_spatial = f.one_body[:2, :2]
        g_chemist = f.two_body[:2, :2, :2, :2].transpose(0, 2, 1, 3)
        ref = np.linalg.eigvalsh(
            fock_hamiltonian(h_spatial, g_chemist, f.core_energy)
        )
        assert np.abs(jw - ref).max() < 1e-8

    def test_real_coefficients(self, data_dir):
        h = jordan_wigner(load_fcidump(data_dir / "h2_sto3g_0.7414.fcidump"))
        assert all(isinstance(t.coefficient, float) for t in h.terms)

    def test_cap_enforced(self):
        f = FermionIntegrals(16, np.zeros((16, 16)), np.zeros((16,) * 4), 0.0)
        with pytest.raises(ValueError, match="dimension cap"):
            jordan_wigner(f)


class TestParityMap:
    def test_core_only(self):
        f = FermionIntegrals(2, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.7)
        h = parity_map(f)
        assert [(t.label, t.coefficient) for t in h.terms] == [("II", 0.7)]

    def test_number_operator_spectrum(self):
        h = parity_map(number_operator_integrals())
        eigs = np.linalg.eigvalsh(dense_matrix(h))
        assert np.allclose(eigs, [0.0, 1.0])

    def test_h2_fixture_spectrum_matches_jw(self, data_dir):
        f = load_fcidump(data_dir / "h2_sto3g_0.7414.fcidump")
        jw = np.linalg.eigvalsh(dense_matrix(jordan_wigner(f)))
        par = np.linalg.eigvalsh(dense_matrix(parity_map(f)))
        assert np.abs(jw - par).max() < 1e-8


class TestSpectrumInvariance:
    def test_random_integral_sets_agree_with_oracle(self):
        """JW, parity, and the Fock oracle share spectra on random inputs."""
        rng = np.random.default_rng(2024)
        for _ in range(20):
            h_spatial, g_chemist, core = random_spatial_integrals(2, rng)
            f = FermionIntegrals.from_spatial(h_spatial, g_chemist, core)
            ref = np.linalg.eigvalsh(fock_hamiltonian(h_spatial, g_chemist, core))
            jw = np.linalg.eigvalsh(dense_matrix(jordan_wigner(f)))
            par = np.linalg.eigvalsh(dense_matrix(parity_map(f)))
            assert np.abs(jw - ref).max() < 1e-8
            assert np.abs(par - ref).max() < 1e-8


class TestValidation:
    def test_asymmetric_one_body_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            FermionIntegrals(2, bad, np.zeros((2, 2, 2, 2)), 0.0)

    @pytest.mark.parametrize("mapping", [jordan_wigner, parity_map])
    def test_imaginary_weight_raises(self, mapping):
        """An asymmetry inside the 1e-10 symmetry check leaves weight on
        strings with an odd number of Y factors."""
        one_body = np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]])
        f = FermionIntegrals(2, one_body, np.zeros((2, 2, 2, 2)), 0.0)
        with pytest.raises(ValueError, match="imaginary weight 1.25e-11"):
            mapping(f)

    @pytest.mark.parametrize("field", ["one_body", "two_body", "core_energy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrals_rejected(self, field, bad):
        fields = {"one_body": np.zeros((2, 2)), "two_body": np.zeros((2, 2, 2, 2)),
                  "core_energy": 0.0}
        if field == "core_energy":
            fields[field] = bad
        else:
            fields[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            FermionIntegrals(2, **fields)

    def test_broken_two_body_symmetry_rejected(self):
        v = np.zeros((2, 2, 2, 2))
        v[0, 1, 0, 1] = 0.3
        with pytest.raises(ValueError, match="symmetry|hermiticity"):
            FermionIntegrals(2, np.zeros((2, 2)), v, 0.0)


def _reference_cases():
    """(name, integrals) for every bundled FCIDUMP, random spatial integrals
    for 1 to 3 spatial orbitals, core-only input and two-body-only input."""
    from conftest import DATA_DIR

    cases = [(path.name, load_fcidump(path))
             for path in sorted(DATA_DIR.glob("*.fcidump"))]
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        for k in range(3):
            h, g, core = random_spatial_integrals(m, rng)
            cases.append((f"random_m{m}_{k}", FermionIntegrals.from_spatial(h, g, core)))
    cases.append(("core_only", FermionIntegrals(
        2, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.7)))
    h, g, core = random_spatial_integrals(2, rng)
    cases.append(("empty_one_body", FermionIntegrals.from_spatial(
        np.zeros_like(h), g, core)))
    return cases


class TestArrayMappingMatchesDictReference:
    """The real-string array mapping against the complex dict-of-masks one.

    The terms and their order must agree exactly; coefficients may move in
    the last bits because the contributions are summed in another order.
    """

    @pytest.mark.parametrize("name, f", _reference_cases(),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("mapping, reference", [
        (jordan_wigner, dict_jordan_wigner), (parity_map, dict_parity_map),
    ], ids=["jw", "parity"])
    def test_same_terms_same_order(self, name, f, mapping, reference):
        ours, ref = mapping(f), reference(f)
        assert [(t.x_mask, t.z_mask) for t in ours] == [
            (t.x_mask, t.z_mask) for t in ref
        ]
        deviation = max((abs(a.coefficient - b.coefficient)
                         for a, b in zip(ours, ref)), default=0.0)
        assert deviation <= 1e-13

    def test_h5_stores_no_more_noise_than_dict_order(self, data_dir):
        """Summing each string's contributions in ascending |c| lets equal
        and opposite ones cancel exactly: H5's matrix stores 50,846 entries
        against the dict mapping's 50,528 (51,818 in integral order)."""
        from mczeno.pauli import ham_matrix

        f = load_fcidump(data_dir / "h5_chain_sto3g_1.00.fcidump")
        ours = ham_matrix(jordan_wigner(f)).nnz
        assert ours <= 1.01 * ham_matrix(dict_jordan_wigner(f)).nnz

    def test_random_integrals_nnz_near_dict_order(self):
        """On random m = 3 integrals neither order wins every set; over these
        16 sets the array mapping stores 3.5% more entries than the dict
        mapping (4.8% in integral order)."""
        from mczeno.pauli import ham_matrix

        ours = theirs = 0
        for seed in range(16):
            h, g, core = random_spatial_integrals(3, np.random.default_rng(seed))
            f = FermionIntegrals.from_spatial(h, g, core)
            ours += ham_matrix(jordan_wigner(f)).nnz
            theirs += ham_matrix(dict_jordan_wigner(f)).nnz
        assert ours <= 1.05 * theirs
