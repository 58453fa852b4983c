"""Path Hamiltonian construction, endpoints, and discretization."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import load_qubit_hamiltonian
from mczeno.pauli import (
    PauliHamiltonian,
    PauliTerm,
    ham_matrix,
    load_hamiltonian,
    parse_hamiltonian,
)
from mczeno.path import PathHamiltonian, Sector, discretize, h_at, x_driver
from mczeno.qae import evolve
from mczeno.spectral import dense_matrix, path_eigensolutions
from oracles import (
    _orbits,
    dict_invariant,
    sandwich_sectors,
    sector_basis,
    sector_part,
    unique_sectors,
)
from conftest import same_bits
from test_spectral import symmetric_sum


@pytest.fixture()
def demo_path(toy_hamiltonian):
    h_i = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
    return PathHamiltonian(h_i, toy_hamiltonian, alpha=0.5, total_time=10.0)


class TestXDriver:
    def test_three_qubits(self):
        h = x_driver(3)
        assert {t.label for t in h.terms} == {"IIX", "IXI", "XII"}
        assert all(t.coefficient == 1.0 for t in h.terms)


class TestHAt:
    def test_endpoint_identity_initial(self, demo_path):
        assert h_at(demo_path, 0.0) == demo_path.h_initial

    def test_endpoint_identity_final(self, demo_path):
        assert h_at(demo_path, 1.0) == demo_path.h_final

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
    def test_endpoints_exact_for_every_alpha(self, toy_hamiltonian, alpha):
        h_i = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
        p = PathHamiltonian(h_i, toy_hamiltonian, alpha=alpha)
        assert h_at(p, 0.0) == h_i
        assert h_at(p, 1.0) == toy_hamiltonian

    def test_mc_terms_keep_full_coefficient(self, toy_hamiltonian):
        """With H_i inside H_p, shared terms carry h_i, the rest s * h_i."""
        h_i = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
        p = PathHamiltonian(h_i, toy_hamiltonian, alpha=0.0)
        s = 0.25
        h = h_at(p, s)
        assert h.coefficient_of("II") == pytest.approx(2.0)
        assert h.coefficient_of("IZ") == pytest.approx(-4.0)
        assert h.coefficient_of("ZI") == pytest.approx(5.0)
        assert h.coefficient_of("IX") == pytest.approx(3.0 * s)

    def test_affine_in_components(self, demo_path):
        s = 0.3
        m = dense_matrix(h_at(demo_path, s))
        m_i = dense_matrix(demo_path.h_initial)
        m_p = dense_matrix(demo_path.h_final)
        m_x = dense_matrix(x_driver(2))
        expected = (1 - s) * m_i + s * m_p + demo_path.alpha * s * (1 - s) * m_x
        assert np.allclose(m, expected, atol=1e-12)

    def test_envelope_peaks_at_half(self, demo_path):
        # X-driver weight alpha*s*(1-s) rides on top of the 3*s IX term of H_p
        coeff = [
            h_at(demo_path, s).coefficient_of("IX") - 3.0 * s
            for s in (0.25, 0.5, 0.75)
        ]
        assert coeff[1] == pytest.approx(demo_path.alpha * 0.25)
        assert coeff[0] == pytest.approx(demo_path.alpha * 0.1875)
        assert coeff[2] == pytest.approx(demo_path.alpha * 0.1875)

    def test_s_out_of_range(self, demo_path):
        with pytest.raises(ValueError, match="s must lie"):
            h_at(demo_path, 1.5)
        with pytest.raises(ValueError, match="s must lie"):
            h_at(demo_path, -0.1)

    @pytest.mark.parametrize("name", ["alpha", "total_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_fields_rejected(self, toy_hamiltonian, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PathHamiltonian(toy_hamiltonian, toy_hamiltonian, **{name: value})

    def test_mismatched_registers_rejected(self, toy_hamiltonian):
        with pytest.raises(ValueError, match="qubit count"):
            PathHamiltonian(parse_hamiltonian("1.0 Z"), toy_hamiltonian)


class TestDiscretize:
    def test_n1_is_endpoints(self, demo_path):
        hams = discretize(demo_path, 1)
        assert hams == [demo_path.h_initial, demo_path.h_final]

    def test_n20_has_21_entries(self, demo_path):
        assert len(discretize(demo_path, 20)) == 21

    def test_midpoint_consistency(self, demo_path):
        hams = discretize(demo_path, 2)
        assert hams[1] == h_at(demo_path, 0.5)

    def test_invalid_n(self, demo_path):
        with pytest.raises(ValueError, match="n_steps"):
            discretize(demo_path, 0)


def stretched_h2_path(data_dir, alpha):
    h = load_hamiltonian(data_dir / "h2_2.8_jw.txt")
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return PathHamiltonian(mc, h, alpha=alpha)


def odd_y_path():
    h_p = parse_hamiltonian("0.5 ZI\n-0.7 IY\n0.3 XZ\n0.2 YX")
    return PathHamiltonian(parse_hamiltonian("0.5 ZI\n-0.7 IY"), h_p, alpha=0.5)


class TestMatrix:
    """p.matrix(s) against the Pauli-level reference dense_matrix(h_at(p, s))."""

    @pytest.fixture(params=["h2_2.8_alpha0", "h2_2.8_alpha0.5", "odd_y"])
    def path(self, request, data_dir):
        if request.param == "odd_y":
            return odd_y_path()
        return stretched_h2_path(data_dir, float(request.param.split("alpha")[1]))

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_endpoints_bit_identical(self, path, s):
        m = path.matrix(s)
        reference = dense_matrix(h_at(path, s))
        assert m.dtype == reference.dtype
        assert np.array_equal(m, reference)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.85])
    def test_interior_points_agree(self, path, s):
        assert np.abs(path.matrix(s) - dense_matrix(h_at(path, s))).max() <= 1e-12

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.85])
    def test_interior_points_bit_identical_to_sum_of_part_matrices(self, path, s):
        """The shared-pattern sum equals the weighted sum of the parts'
        own sparse matrices, which is how H(s) was formed before, densified
        by toarray and dropped to real storage when exactly real."""
        parts = (path.h_initial, path.h_final, x_driver(path.n_qubits))
        weighted = [w * ham_matrix(h) for w, h in zip(path.weights(s), parts) if w]
        reference = sum(weighted[1:], weighted[0]).toarray()
        if not reference.imag.any():
            reference = np.ascontiguousarray(reference.real)
        m = path.matrix(s)
        assert m.dtype == reference.dtype
        assert np.array_equal(m, reference)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
    def test_sparse_matrix_is_the_dense_matrix(self, path, s):
        sparse = path.sparse_matrix(s)
        assert sparse.dtype == path.matrix(s).dtype
        assert np.array_equal(sparse.toarray(), path.matrix(s))

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
    def test_spectral_bounds_hold_the_spectrum(self, path, s):
        lo, hi = path.spectral_bounds(s)
        values = np.linalg.eigvalsh(path.matrix(s))
        assert lo <= values[0] and values[-1] <= hi

    def test_bounds_of_a_multiple_of_identity_are_a_point(self):
        p = PathHamiltonian(parse_hamiltonian("1.5 II"), parse_hamiltonian("-0.5 II"))
        assert p.spectral_bounds(0.25) == (1.0, 1.0)

    def test_odd_y_term_gives_complex_matrix(self):
        assert np.iscomplexobj(odd_y_path().matrix(0.5))

    def test_s_out_of_range(self, demo_path):
        with pytest.raises(ValueError, match="s must lie"):
            demo_path.matrix(1.5)


@functools.cache
def bundled_clique_paths() -> dict:
    """The clique path at alpha 0.5 of each bundled fixture, FCIDUMP files
    under both mappings, by file and mapping, and the odd-Y path."""
    from conftest import DATA_DIR

    paths = {"odd_y": odd_y_path()}
    for path in sorted(DATA_DIR.iterdir()):
        for mapping in ("jw", "parity") if path.suffix == ".fcidump" else ("none",):
            h, _ = load_qubit_hamiltonian(str(path), mapping)
            mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
            paths[f"{path.name}:{mapping}"] = PathHamiltonian(mc, h, alpha=0.5)
    return paths


class TestDenseAndDiagonalForms:
    """Dense and diagonal H(s) are read off the shared pattern, never
    converted from a sparse matrix."""

    @pytest.fixture()
    def no_csr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a CSR matrix was built")

        monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)

    def test_path_matrix_builds_no_csr(self, data_dir, no_csr):
        p = stretched_h2_path(data_dir, 0.5)
        for s in (0.0, 0.5, 1.0):
            assert p.matrix(s).shape == (16, 16)

    def test_dense_matrix_builds_no_csr(self, data_dir, no_csr):
        h = load_hamiltonian(data_dir / "h2_2.8_jw.txt")
        assert dense_matrix(h).shape == (16, 16)

    def test_h5_diagonal_and_initial_point_build_no_csr(self, no_csr):
        h5_path = bundled_clique_paths()["h5_chain_sto3g_1.00.fcidump:jw"]
        assert h5_path.diagonal(0.0).shape == (1024,)
        solution = next(path_eigensolutions(h5_path, [0.0]))
        assert solution.eigenvalues.shape == (1024,)

    def test_qae_evolve_builds_no_csr(self, data_dir, no_csr):
        p = stretched_h2_path(data_dir, 0.5)
        result = evolve(p, 0.5, np.eye(1 << 4, dtype=complex)[3])
        assert result.step_count == 20

    @pytest.mark.parametrize("name", list(bundled_clique_paths()))
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
    def test_diagonal_is_the_sparse_diagonal(self, name, s):
        """Bit for bit, and in its dtype wherever H(s) is diagonal; a complex
        H(s) has a complex CSR diagonal with no imaginary part."""
        p = bundled_clique_paths()[name]
        diagonal, reference = p.diagonal(s), p.sparse_matrix(s).diagonal()
        assert diagonal.dtype == np.float64
        if p.is_diagonal(s) or not np.iscomplexobj(reference):
            assert reference.dtype == diagonal.dtype
        else:
            assert not reference.imag.any()
        assert diagonal.tobytes() == np.ascontiguousarray(reference.real).tobytes()


SWAP_4 = [2, 3, 0, 1]  # the spin swap on 4 qubits
MIRROR_4 = [1, 0, 3, 2]  # the chain mirror on 4 qubits


def symmetries(p) -> list[list[int]]:
    return [perm.tolist() for perm in p.symmetries]


class TestSymmetries:
    """Detection of invariance under the spin swap q <-> q + n/2 and the chain
    mirror q <-> (M-1-q mod M) + M floor(q/M), M = n/2."""

    @pytest.mark.parametrize("name", [
        "h2_0.7414_jw.txt", "h2_1.2_jw.txt", "h2_2.8_jw.txt",
        "h2_sto3g_0.7414.fcidump", "h2_sto3g_2.8.fcidump",
    ])
    def test_h2_jordan_wigner_fixtures_and_cliques(self, data_dir, name):
        """H2's bonding and antibonding orbitals differ, so only the spin
        swap fixes it."""
        from mczeno.driver import load_qubit_hamiltonian

        h, _ = load_qubit_hamiltonian(str(data_dir / name))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        assert symmetries(PathHamiltonian(mc, h, alpha=0.5)) == [SWAP_4]

    def test_h5_chain_has_both(self, data_dir):
        from mczeno.driver import load_qubit_hamiltonian

        h, _ = load_qubit_hamiltonian(str(data_dir / "h5_chain_sto3g_1.00.fcidump"))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        assert symmetries(PathHamiltonian(mc, h, alpha=0.5)) == [
            [5, 6, 7, 8, 9, 0, 1, 2, 3, 4], [4, 3, 2, 1, 0, 9, 8, 7, 6, 5]]

    @pytest.mark.parametrize("name", [
        "h2_0.7414_parity.txt", "gapped_four_qubit.txt", "toy_two_qubit.txt",
    ])
    def test_negative_fixtures(self, data_dir, name):
        h = load_hamiltonian(data_dir / name)
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        assert PathHamiltonian(mc, h).symmetries == ()
        assert PathHamiltonian(h, h).sectors == ()

    def test_identity_candidate_skipped(self):
        """On 2 qubits the chain mirror is the identity: x_driver(2) is fixed
        by the spin swap alone, in two sectors."""
        h = x_driver(2)
        p = PathHamiltonian(h, h)
        assert symmetries(p) == [[1, 0]]
        assert [sector.dimension for sector in p.sectors] == [3, 1]

    def test_odd_qubit_count(self):
        """x_driver(3) is invariant under every qubit permutation, but three
        qubits have no halves to swap."""
        h = x_driver(3)
        assert PathHamiltonian(h, h).symmetries == ()

    def test_only_the_x_driver(self):
        h = x_driver(4)
        assert symmetries(PathHamiltonian(h, h, alpha=1.0)) == [SWAP_4, MIRROR_4]

    @pytest.mark.parametrize("delta, symmetric", [
        (0.0, True), (1e-13, True), (1e-9, False),
    ])
    def test_one_perturbed_term(self, delta, symmetric):
        # the swap exchanges qubits 3 <-> 1 and 2 <-> 0: XIZI is ZIXI's image
        h = parse_hamiltonian(f"0.5 ZIXI\n{0.5 + delta!r} XIZI\n-0.3 ZZZZ\n0.2 YYII\n0.2 IIYY")
        sym = parse_hamiltonian("1.0 ZIZI\n0.7 IZII\n0.7 IIIZ")
        expected = [SWAP_4] if symmetric else []
        assert symmetries(PathHamiltonian(sym, h)) == expected
        assert symmetries(PathHamiltonian(h, sym)) == expected

    def test_mirror_alone(self):
        # the mirror exchanges qubits 3 <-> 2 and 1 <-> 0
        h = parse_hamiltonian("0.5 ZIII\n0.5 IZII\n0.3 IIXX\n-0.2 YYII")
        assert symmetries(PathHamiltonian(h, h)) == [MIRROR_4]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sums_agree_with_per_term_check(self, seed):
        """On random sums closed under the group of none, one or both
        candidates, half of them with one coefficient then moved by 1e-13 or
        1e-9, the array check finds what a per-term dict check finds."""
        rng = np.random.default_rng(seed)
        n = 2 * int(rng.integers(1, 5))
        q, m = np.arange(n), n // 2
        candidates = [perm for perm in ((q + m) % n, m - 1 - q % m + m * (q // m))
                      if not np.array_equal(perm, q)]
        group = [()]
        for perm in candidates[:seed % 3]:
            group += [g + (perm,) for g in group]
        terms = []
        for _ in range(10):
            masks, c = [int(v) for v in rng.integers(0, 1 << n, 2)], float(rng.normal())
            for g in group:
                x, z = masks
                for perm in g:
                    x, z = (sum(1 << int(perm[b]) for b in range(n) if mask >> b & 1)
                            for mask in (x, z))
                terms.append(PauliTerm(n, x, z, c))
        if seed >= 6:
            last = terms.pop()
            terms.append(PauliTerm(n, last.x_mask, last.z_mask,
                                   last.coefficient + (1e-13, 1e-9)[seed % 2]))
        h = PauliHamiltonian(n, terms)
        expected = [perm.tolist() for perm in candidates if dict_invariant(h, perm)]
        assert symmetries(PathHamiltonian(h, h)) == expected

    @pytest.mark.parametrize("text", ["0.5 ZIXI\n0.5 XIZI\n1e-6 IIIY", "0.5 IIIZ"])
    def test_missing_image_term(self, text):
        """A term whose image is absent breaks the symmetry, even when the
        search for that image ends at a term of the same coefficient."""
        h = parse_hamiltonian(text)
        assert PathHamiltonian(h, h).symmetries == ()


SECTORED = [name for name, p in bundled_clique_paths().items() if p.symmetries]
"""The bundled clique paths with symmetry sectors: H2 from text and FCIDUMP
files under Jordan-Wigner, and H5."""


class TestSectorParts:
    """Sectors are index arrays whose parts are summed by one bincount; they
    equal the sparse S^T P S construction they replaced, and each applies
    its own basis U."""

    @pytest.mark.parametrize("name", SECTORED)
    def test_parts_equal_sandwich_reference(self, name):
        p = bundled_clique_paths()[name]
        reference = sandwich_sectors(p)
        assert len(reference) == len(p.sectors) >= 2
        deviation = 0.0
        for sector, (basis, parts) in zip(p.sectors, reference):
            assert np.array_equal(sector_basis(sector, 1 << p.n_qubits), basis.toarray())
            for k, part in enumerate(parts):
                deviation = max(deviation, np.abs(sector_part(sector, k) - part.toarray()).max())
        print(f"{name}: largest part deviation from S^T P S {deviation:.1e}")
        assert deviation <= 1e-14

    @staticmethod
    def assert_pinned(p):
        """Every array of every sector equals the sorting reference's in
        dtype, value and the sign of every zero."""
        reference = unique_sectors(p)
        assert len(p.sectors) == len(reference)
        for sector, expected in zip(p.sectors, reference):
            for field in dataclasses.fields(Sector):
                name = field.name
                assert same_bits(getattr(sector, name), getattr(expected, name)), name

    @pytest.mark.parametrize("name", list(bundled_clique_paths()))
    def test_bundled_sectors_pinned_to_sorting_reference(self, name):
        self.assert_pinned(bundled_clique_paths()[name])

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("odd_y", [False, True], ids=["real", "odd_y"])
    def test_random_symmetric_sectors_pinned_to_sorting_reference(self, n, odd_y):
        p = PathHamiltonian(symmetric_sum(n, 1, odd_y), symmetric_sum(n, 2, odd_y), alpha=0.5)
        assert len(p.sectors) == 4
        self.assert_pinned(p)

    @pytest.mark.parametrize("name, sizes", [
        ("h2_2.8_jw.txt:none", {1, 2}), ("h5_chain_sto3g_1.00.fcidump:jw", {1, 2, 4}),
    ], ids=["h2_one_symmetry", "h5"])
    def test_repeated_members_count_once(self, name, sizes):
        """A state whose orbit is smaller than the group repeats in its
        column's members, once per element that maps the orbit's least
        state to it; project reads it once and embed adds it once."""
        p = bundled_clique_paths()[name]
        _, images, _, size, _, _ = _orbits(p)
        seen, repeated = set(), 0
        for sector in p.sectors:
            u = sector_basis(sector, len(size))
            counts = np.bincount(sector.members.ravel(), minlength=len(size))
            inside = np.flatnonzero(counts)
            assert np.array_equal(counts[inside], len(images) // size[inside])
            seen |= set(size[inside].tolist())
            for column, slot in zip(*np.nonzero(np.diff(sector.members) == 0)):
                state = sector.members[column, slot]
                repeated += 1
                x = np.zeros(len(size))
                x[state] = -3.0
                assert np.array_equal(sector.project(x), u.T @ x)
                z = np.zeros(sector.dimension)
                z[column] = 2.0
                out = np.ones(len(size))
                sector.embed(z, out)
                assert np.array_equal(out, 1.0 + u @ z)
                assert out[state] == 1.0 + 2.0 * u[state, column] != 1.0
        assert seen == sizes and repeated > 0

    @pytest.mark.parametrize("name", SECTORED)
    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_sector_applies_its_basis(self, name, dtype):
        """project is U^T x and embed adds U z, for U the sector's basis, on
        vectors and on columns."""
        p = bundled_clique_paths()[name]
        rng = np.random.default_rng(2)

        def state(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        for sector in p.sectors:
            u = sector_basis(sector, 1 << p.n_qubits)
            for columns in [(), (3,)]:
                x, z = state(len(u), *columns), state(sector.dimension, *columns)
                assert sector.project(x).dtype == x.dtype
                assert np.abs(sector.project(x) - u.T @ x).max() <= 1e-15
                out = x.copy()
                sector.embed(z, out)
                assert np.abs(out - (x + u @ z)).max() <= 1e-15
