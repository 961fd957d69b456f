import gc
import random
import time
from itertools import combinations

import pytest

from sphererank import phigroup
from sphererank.errors import GuardExceeded
from sphererank.forms import FormFamily, quadratic_refinement, random_family
from sphererank.gf2 import BitVector, Subspace, _rref_bits
from sphererank.phigroup import (
    IsotropicResult,
    _pencil_points,
    _qzero_vectors,
    _witt_ceilings,
    ISOTROPIC_BNB_GUARD,
    SEARCH_TRIAL_BUDGET,
    PhiGroup,
    center,
    center_order4_dim,
    extension_profile,
    group_rank,
    max_isotropic_qzero,
    search_forms,
)
from sphererank.rng import derive_seed

from oracles import (
    brute_center,
    brute_max_elem_abelian_rank,
    dihedral_table,
    enumerate_subspaces,
    family,
    form_value_bits,
    is_canonical,
    naive_form_value,
    naive_qzero_vectors,
    naive_quadratic_value,
    naive_rank,
    span_bits,
    tables_isomorphic,
    gf2k_mul_table,
    witt_index_gf2k,
    witt_index_single,
    zero_family,
)


def random_element(rng, G):
    return rng.getrandbits(G.n) | rng.getrandbits(G.t) << G.n


def a_part(G: PhiGroup, g: int) -> BitVector:
    return BitVector(G.n, g & ((1 << G.n) - 1))


def b_part(G: PhiGroup, g: int) -> BitVector:
    return BitVector(G.t, g >> G.n)


def inverse(G: PhiGroup, g: int) -> int:
    """(a, b)^-1 = (a, b + q(a))."""
    return g ^ quadratic_refinement(G.fam, a_part(G, g)).bits << G.n


def commutator(G: PhiGroup, g: int, h: int) -> int:
    return G.mul(G.mul(g, h), inverse(G, G.mul(h, g)))


def element_order(G: PhiGroup, g: int) -> int:
    """1, 2 or 4, read off q: (a, b)^2 = (0, q(a))."""
    if g == 0:
        return 1
    return 2 if quadratic_refinement(G.fam, a_part(G, g)).bits == 0 else 4


def phi_mul_table(G: PhiGroup):
    return [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)]


def frobenius(mul: list[list[int]], x: int, times: int) -> int:
    """x squared `times` times in the field of the multiplication table `mul`."""
    for _ in range(times):
        x = mul[x][x]
    return x


def gram_lists(fam: FormFamily) -> list[list[list[int]]]:
    return [[[(row >> j) & 1 for j in range(fam.n)] for row in gram] for gram in fam.grams]


def subspace_is_qzero_isotropic(fam: FormFamily, basis: tuple[int, ...]) -> bool:
    for i, u in enumerate(basis):
        if quadratic_refinement(fam, BitVector(fam.n, u)).bits:
            return False
        for v in basis[i + 1 :]:
            if any(form_value_bits(gram, u, v) for gram in fam.grams):
                return False
    return True


def scan_max_qzero_dim(fam: FormFamily) -> int:
    """Oracle: top-down scan over every subspace via oracles.enumerate_subspaces."""
    for d in range(fam.n, -1, -1):
        for basis in enumerate_subspaces(fam.n, d):
            if subspace_is_qzero_isotropic(fam, basis):
                return d
    raise AssertionError("unreachable: the zero subspace always qualifies")


class TestGroupArithmetic:
    def test_d8_commutator_realizes_form(self):
        G = PhiGroup(family(["01", "10"]))
        a1, a2 = 1 << 0, 1 << 1
        assert G.mul(a1, a2) == 0b11
        assert G.mul(a2, a1) == 0b11 | 1 << 2
        assert commutator(G, a2, a1) == G.b_ids()[0]

    def test_identity_is_neutral(self):
        rng = random.Random(0)
        G = PhiGroup(random_family(5, 3, 7))
        e = 0
        for _ in range(20):
            g = random_element(rng, G)
            assert G.mul(e, g) == g and G.mul(g, e) == g

    def test_group_laws_random_families(self):
        rng = random.Random(1)
        for _ in range(20):
            n, t = rng.randint(1, 32), rng.randint(1, 16)
            G = PhiGroup(random_family(n, t, rng.getrandbits(64)))
            for _ in range(20):
                g, h, k = (random_element(rng, G) for _ in range(3))
                assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
                assert G.mul(g, inverse(G, g)) == 0
                # square law and commutator law
                sq = G.mul(g, g)
                assert a_part(G, sq).bits == 0
                assert b_part(G, sq) == quadratic_refinement(G.fam, a_part(G, g))
                comm = commutator(G, g, h)
                ga, ha = a_part(G, g).bits, a_part(G, h).bits
                expected = BitVector(G.t, sum(form_value_bits(gram, ga, ha) << s
                                              for s, gram in enumerate(G.fam.grams)))
                assert a_part(G, comm).bits == 0 and b_part(G, comm) == expected

    def test_element_order_examples(self):
        G = PhiGroup(family(["01", "10"]))
        assert element_order(G, 0) == 1
        assert element_order(G, 1 << 0) == 2
        assert element_order(G, G.b_ids()[0]) == 2
        assert element_order(G, 0b11) == 4

    def test_element_order_matches_repeated_multiplication(self):
        rng = random.Random(2)
        for _ in range(10):
            G = PhiGroup(random_family(rng.randint(1, 4), rng.randint(1, 3), rng.getrandbits(64)))
            for _ in range(10):
                g = random_element(rng, G)
                acc, k = g, 1
                while acc != 0:
                    acc = G.mul(acc, g)
                    k += 1
                assert element_order(G, g) == k

    def test_id_layout(self):
        G = PhiGroup(random_family(3, 2, 5))
        assert G.b_ids() == [1 << 3, 1 << 4]
        for i in range(G.order):
            assert G.mul(0, i) == i == G.mul(i, 0)  # the identity is id 0
            for j in range(G.order):
                # a-parts in the low n bits multiply by xor; the cocycle only touches b
                assert G.mul(i, j) & 0b111 == (i ^ j) & 0b111
        for b in G.b_ids():  # b_s is central of order 2 and adds to the b-part
            assert G.mul(b, b) == 0
            assert all(G.mul(b, g) == G.mul(g, b) == g ^ b for g in range(G.order))


class TestD8Oracle:
    def test_isomorphic_to_hand_built_dihedral(self):
        assert tables_isomorphic(phi_mul_table(PhiGroup(family(["01", "10"]))), dihedral_table(4))

    def test_not_isomorphic_to_abelian(self):
        abelian = phi_mul_table(PhiGroup(zero_family(2, 1)))
        assert not tables_isomorphic(phi_mul_table(PhiGroup(family(["01", "10"]))), abelian)


class TestCenter:
    def test_zero_family_abelian(self):
        G = PhiGroup(zero_family(3, 2))
        radical, rank = center(G)
        full = Subspace(3, tuple(BitVector(3, 1 << i) for i in range(3)))
        assert radical == full and rank == 5
        assert center_order4_dim(G) == 0

    def test_d8_center_is_b(self):
        radical, rank = center(PhiGroup(family(["01", "10"])))
        assert radical.dim == 0 and rank == 1

    def test_against_brute_force_centralizer(self):
        rng = random.Random(3)
        for _ in range(15):
            n, t = rng.randint(1, 4), rng.randint(1, 4)
            G = PhiGroup(random_family(n, t, rng.getrandbits(64)))
            table = phi_mul_table(G)
            central = brute_center(lambda i, j: table[i][j], G.order)
            radical, rank = center(G)
            expected_central = {
                a | b << G.n
                for a in span_bits([v.bits for v in radical.basis])
                for b in range(1 << G.t)
            }
            assert central == expected_central
            involutions_central = sum(
                1 for c in central if table[c][c] == 0
            )
            assert involutions_central == 1 << rank
            assert radical.dim - (rank - G.t) == center_order4_dim(G)


class TestIsotropicSearch:
    def test_zero_family_full_space(self):
        fam = zero_family(4, 2)
        full = Subspace(4, tuple(BitVector(4, 1 << i) for i in range(4)))
        for mode in ("exhaustive", "branch_and_bound"):
            res = max_isotropic_qzero(fam, mode=mode)
            assert res.dim == 4 and res.witness == full

    def test_d8_instance(self):
        for mode in ("exhaustive", "branch_and_bound"):
            res = max_isotropic_qzero(family(["01", "10"]), mode=mode)
            assert res.dim == 1
            assert res.witness.basis[0] in (BitVector(2, 0b01), BitVector(2, 0b10))

    def test_witness_always_qualifies(self):
        rng = random.Random(4)
        for _ in range(20):
            fam = random_family(rng.randint(1, 6), rng.randint(1, 3), rng.getrandbits(64))
            res = max_isotropic_qzero(fam)
            assert res.witness.dim == res.dim
            assert subspace_is_qzero_isotropic(fam, tuple(v.bits for v in res.witness.basis))

    def test_small_instances_against_subspace_scan(self):
        rng = random.Random(5)
        for _ in range(15):
            fam = random_family(rng.randint(1, 5), rng.randint(1, 4), rng.getrandbits(64))
            expected = scan_max_qzero_dim(fam)
            assert max_isotropic_qzero(fam, mode="exhaustive").dim == expected
            assert max_isotropic_qzero(fam, mode="branch_and_bound").dim == expected

    def test_modes_agree_medium_instances(self):
        rng = random.Random(6)
        for n in (7, 8, 9, 10):
            fam = random_family(n, rng.randint(2, 4), rng.getrandbits(64))
            ex = max_isotropic_qzero(fam, mode="exhaustive")
            bb = max_isotropic_qzero(fam, mode="branch_and_bound")
            assert ex.dim == bb.dim

    def test_witness_basis_is_canonical_in_both_modes(self):
        # Subspace checks nothing: each search promises the reduced form
        rng = random.Random(29)
        fams = [zero_family(4, 2), family(["01", "10"])]
        fams += [random_family(rng.randint(1, 8), rng.randint(1, 4), rng.getrandbits(64))
                 for _ in range(30)]
        for fam in fams:
            for mode in ("exhaustive", "branch_and_bound"):
                res = max_isotropic_qzero(fam, mode=mode)
                assert is_canonical(res.witness) and res.witness.ambient_dim == fam.n, (fam, mode)

    def test_single_form_matches_witt_index(self):
        rng = random.Random(10)
        fams = [random_family(n, 1, rng.getrandbits(64)) for n in range(1, 9) for _ in range(4)]
        fams += [random_family(9, 1, rng.getrandbits(64)) for _ in range(2)]
        for fam in fams:
            expected = witt_index_single(gram_lists(fam)[0])
            assert max_isotropic_qzero(fam, mode="branch_and_bound").dim == expected, fam.n

    # (n, t, seed) -> dim, basis, ceiling and node count of _bnb(fam, 0, n),
    # written while every node still filtered its candidates as lists: the
    # shapes of the benchmark's maxima, with root lists of 84 to 543 vectors
    PINNED_SEARCHES = {
        (9, 2, 0): (4, (41, 52, 74, 408), 4, 241),
        (9, 2, 1): (4, (20, 66, 144, 329), 4, 148),
        (10, 2, 2): (4, (8, 80, 321, 870), 4, 117),
        (10, 2, 3): (4, (1, 128, 288, 854), 4, 9),
        (12, 3, 2): (4, (16, 1250, 1804, 3496), 5, 5497),
        (14, 5, 3): (3, (1, 11286, 14924), 6, 849),
        (14, 6, 0): (3, (16, 2216, 7364), 7, 261),
        (14, 7, 0): (2, (1, 12522), 7, 137),
        (14, 8, 1): (2, (8192, 3928), 6, 84),
        (15, 7, 3): (2, (1, 25758), 7, 250),
        (15, 8, 3): (2, (1, 25758), 7, 125),
        (16, 8, 1): (2, (2, 50756), 7, 271),
    }

    def test_the_column_filter_keeps_every_node_and_witness(self, monkeypatch):
        nodes, transposed = [0], []
        node, transpose = phigroup._bnb_node, phigroup._transpose_bits

        def counted(*args):
            nodes[0] += 1
            node(*args)

        def watched(rows, cols):
            transposed.append(len(rows))
            return transpose(rows, cols)

        monkeypatch.setattr(phigroup, "_bnb_node", counted)
        monkeypatch.setattr(phigroup, "_transpose_bits", watched)
        for (n, t, seed), (dim, basis, ceiling, calls) in self.PINNED_SEARCHES.items():
            nodes[0] = 0
            assert phigroup._bnb(random_family(n, t, seed), 0, n) == [dim, basis, ceiling]
            assert nodes[0] == calls, (n, t, seed)
        # the column filter ran, and only on lists long enough for it
        assert transposed and min(transposed) >= phigroup._COLUMN_FILTER_MIN

    def test_guards(self):
        fam = zero_family(17, 1)
        with pytest.raises(GuardExceeded):
            max_isotropic_qzero(fam, mode="exhaustive")
        with pytest.raises(GuardExceeded):
            max_isotropic_qzero(zero_family(21, 1), mode="branch_and_bound")
        with pytest.raises(ValueError):
            max_isotropic_qzero(fam, mode="banana")

    def test_exhaustive_budget_refuses_the_zero_family_at_n_8(self):
        # every one of its 417,199 subspaces qualifies, a 55 s walk without
        # the budget; the budget refuses it in seconds
        t0 = time.perf_counter()
        with pytest.raises(GuardExceeded) as exc:
            max_isotropic_qzero(zero_family(8, 1), mode="exhaustive")
        assert exc.value.guard == "max_isotropic_exhaustive"
        assert time.perf_counter() - t0 < 30
        assert max_isotropic_qzero(zero_family(6, 1), mode="exhaustive").dim == 6


class TestQZeroScan:
    def test_matches_naive_evaluation(self):
        rng = random.Random(8)
        for n in range(1, 11):
            for t in range(1, 4):
                fam = random_family(n, t, rng.getrandbits(64))
                expected = naive_qzero_vectors(gram_lists(fam), n)
                assert _qzero_vectors(fam) == expected, (n, t)

    def test_all_zero_forms(self):
        for n, t in [(1, 1), (3, 2), (6, 3)]:
            fam = zero_family(n, t)
            assert _qzero_vectors(fam) == list(range(1, 1 << n))

    def test_sampled_vectors_at_n16(self):
        fam = random_family(16, 2, 77)
        grams = gram_lists(fam)
        found = _qzero_vectors(fam)
        assert found == sorted(set(found)) and found[0] > 0 and found[-1] < 1 << 16
        zero = set(found)
        rng = random.Random(9)
        for _ in range(2000):
            v = rng.randrange(1, 1 << 16)
            x = [(v >> i) & 1 for i in range(16)]
            assert (v in zero) == all(naive_quadratic_value(g, x) == 0 for g in grams), v


class TestWittCeiling:
    def test_min_witt_index_over_forms(self):
        # one value per form, each its Witt index, then seven pencil points at t = 2
        rng = random.Random(15)
        for n in range(1, 10):
            for t in range(1, 5):
                for _ in range(3 if n < 9 else 1):
                    fam = random_family(n, t, rng.getrandbits(64))
                    values = list(_witt_ceilings(fam))
                    assert len(values) == t + 7 * (t == 2), (n, t)
                    expected = [witt_index_single(g) for g in gram_lists(fam)]
                    assert values[:t] == expected, (n, t)

    def test_no_node_starts_once_the_ceiling_is_reached(self, monkeypatch):
        starts = []
        node = phigroup._bnb_node

        def watched(gram_rows, best, basis, cand):
            starts.append(best[0] < best[2])
            node(gram_rows, best, basis, cand)

        monkeypatch.setattr(phigroup, "_bnb_node", watched)
        for seed in range(10):
            max_isotropic_qzero(random_family(8, 1, seed))
            search_forms(7, 2, 2, trials=3, seed=seed)
            # most (7, 2, 2) trials end on the unit path before any node, and
            # (8, 3, 3) trials mostly reach the nodes
            search_forms(8, 3, 3, trials=3, seed=seed)
        assert len(starts) > 100 and all(starts)

    def test_one_entry_reads_candidates_only_below_its_ceiling(self, monkeypatch):
        reads = []
        scan = phigroup._qzero_vectors
        monkeypatch.setattr(phigroup, "_qzero_vectors", lambda *a: reads.append(a) or scan(*a))
        for seed in range(6):
            fam = random_family(7, 2, seed)
            values = list(_witt_ceilings(fam))
            witt = min(values[:2])  # the single forms
            dim, _, ceiling = phigroup._bnb(fam, 0, fam.n)
            assert (dim, ceiling) == (max_isotropic_qzero(fam, "exhaustive").dim, min(values))
            reads.clear()
            # a decision at k = witt + 1 is settled by the single forms alone
            assert phigroup._bnb(fam, witt, witt + 1) == [witt, (), witt]
            assert reads == []
            phigroup._bnb(fam, dim - 1, dim)
            assert len(reads) == 1

    def test_zero_and_symplectic_forms(self):
        for n, t in [(1, 1), (4, 2), (5, 3)]:
            fam = zero_family(n, t)
            assert set(_witt_ceilings(fam)) == {n}
        fam = family(["01", "10"])  # q = x0 x1: Arf invariant 0
        assert list(_witt_ceilings(fam)) == [1]

    def test_every_family_reaches_the_lemma_bound(self):
        # every quadratic form on F2^n has Witt index >= (n - 1) // 2, and the
        # bound is attained at every n >= 3, so it cannot be raised; below, q
        # and every pencil point vanish on e_0, so every value is at least 1
        rng = random.Random(21)
        attained = set()
        for n in range(1, 15):
            for t in range(1, 5):
                for _ in range(3):
                    fam = random_family(n, t, rng.getrandbits(64))
                    witt = min(_witt_ceilings(fam))
                    assert witt >= max(1, (n - 1) // 2), (n, t)
                    if witt == (n - 1) // 2:
                        attained.add(n)
        assert attained == set(range(3, 15))
        zeros = [zero_family(n, t) for n, t in [(1, 1), (4, 2), (5, 3)]]
        for fam in zeros + [family(["01", "10"])]:
            assert min(_witt_ceilings(fam)) >= max(1, (fam.n - 1) // 2)

    def test_a_ceiling_at_or_below_the_lemma_skips_the_witt_ceiling(self, monkeypatch):
        ceilings = phigroup._witt_ceilings

        def reference(fam, floor, ceiling):  # always takes every value
            best = [floor, (), min(ceiling, *ceilings(fam))]
            if floor < best[2]:
                cand = phigroup._weight_order(_qzero_vectors(fam))
                phigroup._bnb_node(fam.grams, best, (), cand)
            return best

        def refused(fam):
            raise AssertionError("a Witt ceiling was computed")

        rng = random.Random(22)
        for n in range(1, 13):
            # above n = 10 only the skipped ceilings: a ceiling above the lemma
            # takes the path that did not change, and proving a maximum there
            # takes up to seconds when t is 3
            top = n if n <= 10 else (n - 1) // 2
            for t in range(1, 5):
                fam = random_family(n, t, rng.getrandbits(64))
                for ceiling in range(top + 1):
                    for floor in range(ceiling + 1):
                        target = max(floor, (n - 1) // 2, 1)
                        skip = ceiling <= target
                        monkeypatch.setattr(phigroup, "_witt_ceilings", refused if skip else ceilings)
                        expected = reference(fam, floor, ceiling)
                        got = phigroup._bnb(fam, floor, ceiling)
                        assert got[:2] == expected[:2], (n, t, floor)
                        # the scan stops at the target, so the returned ceiling
                        # is the full minimum or a bound between it and the target
                        assert got[2] == expected[2] or expected[2] <= got[2] <= target, (
                            n, t, floor, ceiling)


class TestUnitPath:
    @staticmethod
    def unit_path(fam: FormFamily) -> list[int]:
        """Each basis vector in order that pairs to 0 with every one kept before it."""
        grams = gram_lists(fam)
        kept: list[int] = []
        for i in range(fam.n):
            if not any(g[i][j] for g in grams for j in kept):
                kept.append(i)
        return [1 << i for i in kept]

    def test_bnb_equals_the_nodes_from_the_root(self, monkeypatch):
        reads = []
        scan = phigroup._qzero_vectors
        monkeypatch.setattr(phigroup, "_qzero_vectors", lambda *a: reads.append(a) or scan(*a))
        rng = random.Random(36)
        settled = searched = 0
        for n in range(1, 11):
            for t in range(1, 5):
                for _ in range(3):
                    fam = random_family(n, t, rng.getrandbits(64))
                    units = self.unit_path(fam)
                    for ceiling in range(1, n + 1):
                        for floor in range(ceiling):
                            reads.clear()
                            got = phigroup._bnb(fam, floor, ceiling)
                            # the nodes alone, from the root, under the ceiling _bnb settled on
                            best = [floor, (), got[2]]
                            if floor < best[2]:
                                cand = phigroup._weight_order(scan(fam))
                                phigroup._bnb_node(fam.grams, best, (), cand)
                            assert got == best, (n, t, floor, ceiling)
                            if floor < got[2] <= len(units):  # the unit path settles it
                                assert got[1] == tuple(units[:got[2]]) and reads == []
                                settled += 1
                            elif floor < got[2]:
                                assert reads == [(fam,)]
                                searched += 1
        assert settled > 300 and searched > 1000  # both ways are exercised


class TestPencilCeiling:
    def test_the_points_are_one_per_frobenius_orbit_of_each_new_field_element(self):
        points = _pencil_points(5)
        assert [k for k, _, _ in points] == [1, 2, 3, 3, 4, 4, 4]
        assert points[0][1] == 1  # (1 : 1) over GF(2)
        for k in (2, 3, 4):
            mul = gf2k_mul_table(k)
            subfield = {x for x in range(1 << k) if any(
                frobenius(mul, x, d) == x for d in range(1, k) if k % d == 0)}
            reps = [c for kk, c, _ in points if kk == k]
            orbits = [{frobenius(mul, c, e) for e in range(k)} for c in reps]
            assert sorted(x for orbit in orbits for x in orbit) == sorted(
                set(range(1 << k)) - subfield)

    def test_each_trace_form_gives_the_witt_index_over_its_field(self):
        # against a count of the zeros of Q_c over all of K^n, kn <= 16
        rng = random.Random(23)
        fams = [random_family(n, 2, rng.getrandbits(64)) for n in range(1, 9) for _ in range(2)]
        fams += [zero_family(4, 2), family(["01", "10"], ["01", "10"]),
                 family(["01", "10"], ["00", "00"])]
        checked = 0
        for fam in fams:
            grams = gram_lists(fam)
            values = list(_witt_ceilings(fam))
            for (k, c, _), witt in zip(_pencil_points(fam.n), values[2:], strict=True):
                if k * fam.n <= 16:
                    assert witt == witt_index_gf2k(grams, (1, c), k), (fam.n, k, c)
                    checked += 1
        assert checked == 97  # every point with kn <= 16

    def test_the_pencil_bounds_the_maximum_and_bnb_equals_exhaustive(self):
        tight = 0
        for n in range(2, 11):
            for seed in range(12):
                fam = random_family(n, 2, derive_seed(25, 100 * n + seed))
                exhaustive = max_isotropic_qzero(fam, "exhaustive").dim
                pencil = min(_witt_ceilings(fam))
                assert pencil >= exhaustive, (n, seed)
                assert phigroup._bnb(fam, 0, n)[0] == exhaustive, (n, seed)
                tight += pencil == exhaustive
        assert tight == 103  # the ceiling is exact on all but 5 of the 108 families

    def test_the_scan_stops_at_its_target(self, monkeypatch):
        fam = random_family(12, 2, 0)  # single forms 7; pencil 5 = the maximum = (n - 1) // 2
        values = list(_witt_ceilings(fam))
        assert min(values[:2]) == 7
        first = values[2:].index(5)
        assert min(values) == 5 and first < len(values) - 3  # the scan can stop early
        calls = []
        witt_index = phigroup._witt_index

        def counted(rows):
            calls.append(len(rows))
            return witt_index(rows)

        monkeypatch.setattr(phigroup, "_witt_index", counted)
        # floor 5: the scan stops at the floor, after the two single forms and
        # the points up to the first that reaches it
        assert phigroup._bnb(fam, 5, 7) == [5, (), 5]
        assert len(calls) == 2 + first + 1
        calls.clear()
        # floor 0: the scan stops at (n - 1) // 2 = 5 the same way
        assert phigroup._bnb(fam, 0, 12)[::2] == [5, 5]
        assert len(calls) == 2 + first + 1


class TestGuardHolds:
    """Searches at the top of the branch-and-bound range finish inside the test."""

    def test_search_at_the_guard_gives_an_isotropic_q_zero_witness(self):
        n = ISOTROPIC_BNB_GUARD
        fam = random_family(n, 1, 20)
        res = max_isotropic_qzero(fam)
        gram = gram_lists(fam)[0]
        basis = [[(v.bits >> j) & 1 for j in range(n)] for v in res.witness.basis]
        assert res.dim == len(basis) == naive_rank(basis) == 9
        assert all(naive_quadratic_value(gram, x) == 0 for x in basis)
        assert all(naive_form_value(gram, x, y) == 0 for x, y in combinations(basis, 2))

    @pytest.mark.parametrize("n", [13, 14])
    def test_single_form_dim_is_the_witt_index(self, n):
        for seed in range(2):
            fam = random_family(n, 1, derive_seed(n, seed))
            assert max_isotropic_qzero(fam).dim == witt_index_single(gram_lists(fam)[0])


class TestGroupRank:
    def test_abelian(self):
        assert group_rank(PhiGroup(zero_family(3, 2))) == 5

    def test_d8(self):
        G = PhiGroup(family(["01", "10"]))
        assert group_rank(G) == 2
        table = phi_mul_table(G)
        assert brute_max_elem_abelian_rank(lambda i, j: table[i][j], G.order) == 2

    def test_against_subgroup_enumeration(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 4)
            t = rng.randint(1, min(4, 8 - n))
            G = PhiGroup(random_family(n, t, rng.getrandbits(64)))
            table = phi_mul_table(G)
            brute = brute_max_elem_abelian_rank(lambda i, j: table[i][j], G.order)
            assert group_rank(G) == brute


class TestSearchForms:
    def test_tiny_instance_finds_symplectic(self):
        res = search_forms(2, 1, 2, trials=16, seed=0)
        assert res.family is not None
        assert res.family.grams == ((2, 1),)  # the symplectic form
        assert max_isotropic_qzero(res.family).dim <= 1

    def test_desk_instance_with_exhaustive_verification(self):
        res = search_forms(5, 4, 4, trials=100, seed=0)
        assert res.condition_holds  # 10 < 12
        assert res.family is not None
        for d in (4, 5):
            for basis in enumerate_subspaces(5, d):
                assert not subspace_is_qzero_isotropic(res.family, basis)

    def test_deterministic(self):
        a = search_forms(4, 2, 3, trials=50, seed=123)
        b = search_forms(4, 2, 3, trials=50, seed=123)
        assert a == b

    def test_headline_parameters_accepted_with_zero_budget(self):
        res = search_forms(1249, 50, 51, trials=0, seed=0)
        assert res.condition_holds and res.family is None and res.trials_run == 0
        assert res.skipped_guard is None

    def test_headline_parameters_skip_out_of_scale_trials(self):
        res = search_forms(1249, 50, 51, trials=5, seed=0)
        assert res.condition_holds and res.family is None
        assert res.trials_run == 0 and res.skipped_guard == "max_isotropic_bnb"

    def test_condition_boundary(self):
        assert not search_forms(1250, 50, 51, trials=0, seed=0).condition_holds

    def test_matches_full_maximum_reference_loop(self):
        def reference(n, t, k, trials, seed):
            for trial in range(trials):
                fam = random_family(n, t, derive_seed(seed, trial))
                if max_isotropic_qzero(fam).dim <= k - 1:
                    return trial, trial + 1, fam
            return None, trials, None

        rng = random.Random(16)
        found = 0
        for n in range(1, 10):
            for t in range(1, 5):
                for k in range(0, 6):
                    seed = rng.getrandbits(64)
                    if k == 0:  # refused; the reference finds nothing at k = 0
                        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
                            search_forms(n, t, k, trials=4, seed=seed)
                        continue
                    res = search_forms(n, t, k, trials=4, seed=seed)
                    index, run, fam = reference(n, t, k, 4, seed)
                    assert (res.trial_index, res.trials_run) == (index, run), (n, t, k)
                    assert res.family == fam
                    found += fam is not None
        assert 40 < found < 9 * 4 * 6 - 40  # both outcomes are exercised

    def test_trials_come_from_the_module_globals(self, monkeypatch):
        # the benchmark's tracer wraps these two names to time and count trials
        calls = {"random_family": [], "_qzero_vectors": []}
        for name in calls:
            original = getattr(phigroup, name)

            def counted(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(phigroup, name, counted)
        res = search_forms(7, 2, 2, trials=5, seed=3)
        assert res.family is None and len(calls["random_family"]) == 5
        # a trial scans only when its unit path stops at e_0: every e_j, j >= 1,
        # pairs to 1 with e_0 under some form
        fams = [random_family(*args) for args in calls["random_family"]]
        scanned = [fam for fam, (g0, g1) in zip(fams, map(gram_lists, fams))
                   if all(g0[0][j] or g1[0][j] for j in range(1, 7))]
        assert [args[0] for args in calls["_qzero_vectors"]] == scanned
        assert len(scanned) == 1

    def test_a_decision_at_k_1_computes_no_witt_index(self, monkeypatch):
        # every Witt index is at least 1, so a ceiling of 1 needs none of them,
        # even where (n - 1) // 2 is 0 and t = 2 has a pencil to scan
        calls = []
        witt_index = phigroup._witt_index
        monkeypatch.setattr(phigroup, "_witt_index", lambda rows: calls.append(rows) or witt_index(rows))
        res = search_forms(2, 2, 1, 2000, 7)
        assert (res.trial_index, res.trials_run) == (None, 2000)
        assert calls == []

    def test_default_trials_at_the_guard_are_skipped_by_the_trial_budget(self):
        res = search_forms(20, 1, 2, trials=1000, seed=0)
        assert res == (None, None, False, 0, "search_trials")

    def test_trial_budget_charges_two_to_the_n_plus_128_t_per_trial(self):
        # one trial at n = 1, t = 1 is 2 + 128 units; k = 2 is met at trial 0
        admitted = SEARCH_TRIAL_BUDGET // 130
        res = search_forms(1, 1, 2, trials=admitted, seed=0)
        assert (res.trial_index, res.skipped_guard) == (0, None)
        res = search_forms(1, 1, 2, trials=admitted + 1, seed=0)
        assert res == (None, None, False, 0, "search_trials")

    def test_trial_budget_charges_16_n_squared_more_where_the_pencil_may_run(self):
        # t = 2 and k > (n - 1) // 2: one trial at n = 1 is 2 + 256 + 16 units
        admitted = SEARCH_TRIAL_BUDGET // 274
        res = search_forms(1, 2, 2, trials=admitted, seed=0)
        assert (res.trial_index, res.skipped_guard) == (0, None)
        res = search_forms(1, 2, 2, trials=admitted + 1, seed=0)
        assert res == (None, None, False, 0, "search_trials")
        # k <= (n - 1) // 2 never scans the pencil: 32 + 256 units at n = 5
        admitted = SEARCH_TRIAL_BUDGET // 288
        res = search_forms(5, 2, 2, trials=admitted, seed=4)
        assert (res.trial_index, res.skipped_guard) == (0, None)
        res = search_forms(5, 2, 2, trials=admitted + 1, seed=4)
        assert res == (None, None, False, 0, "search_trials")

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            search_forms(4, 2, 3, trials=-1, seed=0)

    @pytest.mark.parametrize("n, t, k, message", [
        (0, 1, 2, "n must be >= 1, got 0"),
        (3, 0, 2, "t must be >= 1, got 0"),
        (3, 1, -4, "k must be >= 1, got -4"),
        (1249, 50, 0, "k must be >= 1, got 0"),  # beyond the guard too
    ])
    @pytest.mark.parametrize("trials", [0, 2])
    def test_parameters_below_one_rejected_at_any_trial_count(self, n, t, k, message, trials):
        with pytest.raises(ValueError, match=f"^{message}$"):
            search_forms(n, t, k, trials=trials, seed=0)

    def test_tiny_zero_family_fails_rank_target(self):
        # the only alternative candidate at n=2, t=1: the zero form is too abelian
        assert max_isotropic_qzero(zero_family(2, 1)).dim == 2


class TestExtensionProfile:
    def test_d8(self):
        profile = extension_profile(PhiGroup(family(["01", "10"])))
        assert (profile.T, profile.N) == (2, 1)

    def test_zero_family(self):
        profile = extension_profile(PhiGroup(zero_family(3, 2)))
        assert (profile.T, profile.N) == (5, 0)

    def test_sum_identity_random(self):
        rng = random.Random(8)
        for _ in range(10):
            G = PhiGroup(random_family(rng.randint(1, 6), rng.randint(1, 3), rng.getrandbits(64)))
            profile = extension_profile(G)
            assert profile.T + profile.N == G.n + G.t
            assert profile.T == G.t + profile.v_witness.dim
            assert is_canonical(profile.v_witness) and profile.v_witness.ambient_dim == G.n

    @staticmethod
    def _with_witness(monkeypatch, *vectors: BitVector) -> None:
        witness = Subspace(2, tuple(BitVector(2, b) for b in _rref_bits(v.bits for v in vectors)))

        def fake(fam, mode="branch_and_bound"):
            return IsotropicResult(witness.dim, witness)

        monkeypatch.setattr(phigroup, "max_isotropic_qzero", fake)

    def test_lift_with_an_order_4_element_is_refused(self, monkeypatch):
        G = PhiGroup(family(["01", "10"]))
        v = BitVector(2, 0b11)
        assert quadratic_refinement(G.fam, v).bits != 0
        self._with_witness(monkeypatch, v)
        with pytest.raises(AssertionError, match="^lifted subgroup contains an element of order 4$"):
            extension_profile(G)

    def test_non_abelian_lift_is_refused(self, monkeypatch):
        G = PhiGroup(family(["01", "10"]))
        u, v = BitVector(2, 0b01), BitVector(2, 0b10)
        assert quadratic_refinement(G.fam, u).bits == quadratic_refinement(G.fam, v).bits == 0
        assert form_value_bits(G.fam.grams[0], u.bits, v.bits) == 1
        self._with_witness(monkeypatch, u, v)
        with pytest.raises(AssertionError, match="^lifted subgroup is not abelian$"):
            extension_profile(G)


def test_searches_leave_no_cyclic_garbage():
    # each search frees its 2^n-bit masks on return; a recursive closure would
    # keep them in a reference cycle until the next cyclic collection
    fam = random_family(12, 4, 3)
    runs = [
        (max_isotropic_qzero, fam, "branch_and_bound"),
        (max_isotropic_qzero, random_family(10, 3, 3), "exhaustive"),
        (extension_profile, PhiGroup(fam), "branch_and_bound"),
    ]
    gc.collect()
    gc.disable()
    try:
        for fn, arg, mode in runs:
            gc.collect()
            fn(arg, mode=mode)
            assert gc.collect() == 0, (fn.__name__, mode)
    finally:
        gc.enable()
