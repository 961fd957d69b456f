import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphererank.errors import GuardExceeded, SchemaError
from sphererank.forms import (
    COMMON_ZERO_GUARD,
    FormFamily,
    QuadraticSystem,
    common_radical,
    common_zero_quadratics,
    quadratic_refinement,
    random_family,
)
from sphererank.gf2 import BitMatrix, BitVector, Subspace, _coordinate_masks, bit_string
from sphererank.phigroup import search_forms
from sphererank.rng import SplitMix64

from oracles import (
    bitstream_family,
    brute_smallest_common_zero,
    family,
    form_value_bits,
    is_canonical,
    naive_form_value,
    naive_poly_values,
    span_bits,
    zero_family,
)


def random_vec(rng, n):
    return BitVector(n, rng.getrandbits(n))


def coords(bits: int, n: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(n)]


class TestFormValueBits:
    """Self-check of the int-packed form oracle the phi-group tests use."""

    def test_against_triple_loop_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 7)
            fam = random_family(n, 1, rng.getrandbits(64))
            gram = [coords(row, n) for row in fam.grams[0]]
            x, y = rng.getrandbits(n), rng.getrandbits(n)
            assert form_value_bits(fam.grams[0], x, y) == naive_form_value(
                gram, coords(x, n), coords(y, n)
            )


class TestFromGrams:
    """A family built from its Gram rows, through the checked door or a draw."""

    def test_accepts_symplectic(self):
        assert family(["01", "10"]).lower == ((0, 1),)

    def test_family_lower_triangles_are_the_masked_gram_rows(self):
        rng = random.Random(20)
        for _ in range(30):
            n, t = rng.randint(1, 9), rng.randint(1, 4)
            fam = random_family(n, t, rng.getrandbits(64))
            assert len(fam.lower) == t
            for rows, gram in zip(fam.lower, fam.grams):
                assert type(rows) is tuple and len(rows) == n
                for i in range(n):
                    for j in range(n):
                        assert rows[i] >> j & 1 == (j < i and gram[i] >> j & 1)


class TestConstructor:
    def test_t_is_the_number_of_grams(self):
        for t in range(1, 5):
            fam = FormFamily(2, ((2, 1),) * t)
            assert fam.t == t and fam.lower == ((0, 1),) * t
            assert fam.beta(BitVector(2, 1), BitVector(2, 2)).n == t
        with pytest.raises(TypeError):
            FormFamily(2, ((2, 1),), 1)  # t is derived, not passed


class TestQuadraticRefinement:
    def test_vanishes_on_basis_vectors(self):
        rng = random.Random(4)
        for _ in range(20):
            n, t = rng.randint(1, 6), rng.randint(1, 4)
            fam = random_family(n, t, rng.getrandbits(64))
            for i in range(n):
                assert quadratic_refinement(fam, BitVector(n, 1 << i)).bits == 0

    def test_d8_diagonal_vector(self):
        q = quadratic_refinement(family(["01", "10"]), BitVector(2, 0b11))
        assert q == BitVector(1, 1)

    def test_polarization_identity(self):
        rng = random.Random(5)
        for _ in range(1000):
            n, t = rng.randint(1, 7), rng.randint(1, 4)
            fam = random_family(n, t, rng.getrandbits(64))
            u, v = random_vec(rng, n), random_vec(rng, n)
            grams = [[coords(row, n) for row in gram] for gram in fam.grams]
            cross = sum(naive_form_value(g, coords(u.bits, n), coords(v.bits, n)) << s
                        for s, g in enumerate(grams))
            lhs = quadratic_refinement(fam, BitVector(n, u.bits ^ v.bits)).bits
            rhs = quadratic_refinement(fam, u).bits ^ quadratic_refinement(fam, v).bits ^ cross
            assert lhs == rhs


class TestCommonRadical:
    def test_zero_family_full_radical(self):
        full = Subspace(3, tuple(BitVector(3, 1 << i) for i in range(3)))
        assert common_radical(zero_family(3, 1)) == full

    def test_d8_trivial_radical(self):
        assert common_radical(family(["01", "10"])).dim == 0

    def test_block_family(self):
        rad = common_radical(family(["010", "100", "000"]))
        assert rad.dim == 1 and bit_string(rad.basis[0].bits, 3) == "001"

    def test_contained_in_every_kernel(self):
        rng = random.Random(6)
        for _ in range(20):
            fam = random_family(rng.randint(1, 6), rng.randint(1, 3), rng.getrandbits(64))
            rad = common_radical(fam)
            assert is_canonical(rad) and rad.ambient_dim == fam.n
            for gram in fam.grams:
                for v in rad.basis:
                    assert not any((r & v.bits).bit_count() & 1 for r in gram)

    def test_low_rank_forms_give_a_canonical_radical(self):
        # each form is a sum of one or two u v^T + v u^T, so the radical is
        # large and lies in general position; Subspace checks nothing
        rng = random.Random(29)
        for _ in range(40):
            n, t = rng.randint(2, 8), rng.randint(1, 2)
            forms = []
            for _ in range(t):
                rows = [0] * n
                for _ in range(rng.randint(1, 2)):
                    u, v = rng.getrandbits(n), rng.getrandbits(n)
                    rows = [r ^ (v if u >> i & 1 else 0) ^ (u if v >> i & 1 else 0)
                            for i, r in enumerate(rows)]
                forms.append(["".join(str(b) for b in coords(r, n)) for r in rows])
            fam = family(*forms)
            rad = common_radical(fam)
            assert is_canonical(rad) and rad.ambient_dim == n
            radical = {a for a in range(1 << n)
                       if not any(form_value_bits(g, a, b) for g in fam.grams for b in range(1 << n))}
            assert span_bits([v.bits for v in rad.basis]) == radical


class TestRandomFamily:
    def test_deterministic_in_seed(self):
        assert random_family(5, 3, 42) == random_family(5, 3, 42)
        assert random_family(5, 3, 42) != random_family(5, 3, 43)

    def test_two_outcomes_for_one_free_bit(self):
        outcomes = {random_family(2, 1, seed).grams[0][0] for seed in range(64)}
        assert outcomes == {0, 2}  # zero form and the symplectic form

    def test_bit_frequency_fair(self):
        # one specific lower-triangle bit across 10^4 seeds: binomial 5-sigma band
        ones = sum(random_family(3, 1, seed).grams[0][2] >> 1 & 1
                   for seed in range(10_000))
        assert abs(ones - 5000) < 5 * 50  # sigma = sqrt(10^4)/2 = 50

    def test_size_guard_on_gram_bits(self):
        # t * n(n-1)/2 = 2^20 + 1024 for (n, t) = (1025, 2); refused before any draw
        for n, t in ((1025, 2), (1449, 1), (10**6, 10**6)):
            with pytest.raises(GuardExceeded) as exc:
                random_family(n, t, 0)
            assert exc.value.guard == "random_family_bits"

    def test_bits_match_word_stream_loop(self):
        # n = 1 draws no bits; n = 2 one per form
        rng = random.Random(14)
        for n in range(1, 21):
            for t in range(1, 7):
                seed = rng.getrandbits(64)
                fam = random_family(n, t, seed)
                ref = bitstream_family(n, t, SplitMix64(seed).next_u64)
                assert [list(rows) for rows in fam.grams] == ref

    def test_alternating_by_construction(self):
        # the checked door accepts every family drawn, and reads back the same rows
        for n, t, seed in ((1, 1, 0), (2, 3, 5), (6, 2, 9), (13, 4, 17)):
            fam = random_family(n, t, seed)
            assert FormFamily.from_json_dict(fam.to_json_dict()) == fam

    def test_the_form_views_read_the_gram_rows(self):
        # the reading of `fam.forms` that the benchmark's family writer relies on
        rng = random.Random(22)
        for _ in range(30):
            fam = random_family(rng.randint(1, 12), rng.randint(1, 4), rng.getrandbits(64))
            assert [f.gram.row_bits() for f in fam.forms] == [list(r) for r in fam.grams]
            assert all(f.n == fam.n for f in fam.forms)


class TestIntRowHotPath:
    def test_a_family_draw_and_a_form_search_build_no_bitmatrix(self, monkeypatch):
        def refuse(cls, *fields):
            raise AssertionError("a BitMatrix was built")

        monkeypatch.setattr(BitMatrix, "__new__", refuse)
        with pytest.raises(AssertionError):
            BitMatrix(1, 1, (0,))
        for seed in range(4):
            fam = random_family(7, 2, seed)
            assert len(fam.grams) == 2 and len(fam.lower) == 2
            res = search_forms(7, 2, 2, 20, seed)
            assert res.trials_run >= 1


class TestFamilyJson:
    def test_round_trip(self):
        fam = random_family(4, 2, 11)
        assert FormFamily.from_json_dict(fam.to_json_dict()) == fam

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 12), t=st.integers(1, 4), seed=st.integers(0, (1 << 64) - 1))
    def test_round_trip_property(self, n, t, seed):
        fam = random_family(n, t, seed)
        doc = fam.to_json_dict()
        assert FormFamily.from_json_dict(doc) == fam
        ref = bitstream_family(n, t, SplitMix64(seed).next_u64)
        assert doc["forms"] == [["".join(str(r >> j & 1) for j in range(n)) for r in rows]
                                for rows in ref]
        for rows in fam.grams:
            assert len(rows) == n
            for i in range(n):
                assert not rows[i] >> i & 1
                for j in range(i):
                    assert rows[i] >> j & 1 == rows[j] >> i & 1

    # the error lists are those the checks gave before the family held int rows
    @pytest.mark.parametrize("forms, n, fields", [
        ([["01", "00"]], 2, ["forms[0]: gram not symmetric"]),
        ([["11", "10"]], 2, ["forms[0]: gram diagonal not zero"]),
        ([["110", "000", "000"]], 3,
         ["forms[0]: gram not symmetric", "forms[0]: gram diagonal not zero"]),
        ([["01", "00"], ["01", "10"], ["10", "00"]], 2,
         ["forms[0]: gram not symmetric", "forms[2]: gram diagonal not zero"]),
        ([["01", "10"]], 3, ["forms[0]: expected 3x3 matrix"]),
        ([["01", "1"]], 2, ["forms[0]: ragged rows"]),
        ([["0x", "10"]], 2, ["forms[0]: invalid bit string '0x'"]),
        ([["01", "10"], "0110"], 2, ["forms[1]: must be a list of '0'/'1' strings"]),
        ([[]], 1, ["forms[0]: cannot infer column count from zero rows"]),
        ([["011", "100", "000"], ["11", "11"], ["0a", "a0"]], 2,
         ["forms[0]: expected 2x2 matrix", "forms[1]: gram diagonal not zero",
          "forms[2]: invalid bit string '0a'"]),
    ], ids=["asymmetric", "nonzero-diagonal", "both-faults-in-one-form", "two-bad-forms",
            "wrong-shape", "ragged-rows", "bad-character", "not-a-string-list", "empty-form",
            "mixed-faults"])
    def test_schema_error_lists(self, forms, n, fields):
        with pytest.raises(SchemaError) as exc:
            FormFamily.from_json_dict({"n": n, "t": len(forms), "forms": forms})
        assert exc.value.fields == fields

    @pytest.mark.parametrize("doc, fields", [
        ({"n": 0, "t": True, "forms": {}}, ["n: must be a positive integer",
                                             "t: must be a positive integer",
                                             "forms: must be a list of t matrices"]),
        ({"n": 2, "t": 2, "forms": [["01", "10"]]}, ["forms: must be a list of t matrices"]),
    ], ids=["bad-header", "count-mismatch"])
    def test_schema_error_lists_of_the_header(self, doc, fields):
        with pytest.raises(SchemaError) as exc:
            FormFamily.from_json_dict(doc)
        assert exc.value.fields == fields

    def test_accepts_exactly_the_alternating_matrices(self):
        # entrywise facts on lists of 0/1 entries, against the door's verdict
        rng = random.Random(13)
        checked = 0
        for n in range(1, 8):
            for _ in range(20):
                m = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
                # m + m^T is symmetric with zero diagonal; then a random diagonal
                sym = [[m[i][j] ^ m[j][i] for j in range(n)] for i in range(n)]
                diag = [[e ^ (i == j and rng.getrandbits(1)) for j, e in enumerate(row)]
                        for i, row in enumerate(sym)]
                for e in (m, sym, diag):
                    symmetric = all(e[i][j] == e[j][i] for i in range(n) for j in range(i))
                    zero_diag = all(e[i][i] == 0 for i in range(n))
                    doc = {"n": n, "t": 1, "forms": [["".join(map(str, row)) for row in e]]}
                    if symmetric and zero_diag:
                        fam = FormFamily.from_json_dict(doc)
                        assert fam.grams == (tuple(sum(b << j for j, b in enumerate(row))
                                                   for row in e),)
                        checked += 1
                        continue
                    with pytest.raises(SchemaError) as exc:
                        FormFamily.from_json_dict(doc)
                    assert exc.value.fields == (
                        ["forms[0]: gram not symmetric"] * (not symmetric)
                        + ["forms[0]: gram diagonal not zero"] * (not zero_diag))
        assert checked >= 140

    def test_asymmetric_gram_rejected_with_field(self):
        bad = {"n": 2, "t": 1, "forms": [["01", "00"]]}
        with pytest.raises(SchemaError) as exc:
            FormFamily.from_json_dict(bad)
        assert any("forms[0]" in f for f in exc.value.fields)


def quadratic_monomials(v):
    return [(i, i) for i in range(v)] + [(i, j) for i in range(v) for j in range(i + 1, v)]


def random_quadratic_system(v, q, rng) -> QuadraticSystem:
    monos = quadratic_monomials(v)
    polys = [[m for m in monos if rng.random() < 0.5] for _ in range(q)]
    return QuadraticSystem.from_lists(v, polys)


class TestCommonZero:
    def test_single_product_has_zero(self):
        polys = [[(0, 1)]]
        z = common_zero_quadratics(QuadraticSystem.from_lists(3, polys))
        assert z is not None and z.bits != 0
        assert naive_poly_values(polys, z.bits) == (0,)

    def test_anisotropic_form_has_none(self):
        polys = [[(0, 0), (0, 1), (1, 1)]]
        assert common_zero_quadratics(QuadraticSystem.from_lists(2, polys)) is None
        assert all(naive_poly_values(polys, p) == (1,) for p in (1, 2, 3))

    def test_enough_variables_force_zero(self):
        rng = random.Random(7)
        for q in (1, 2, 3):
            for _ in range(50):
                sys_ = random_quadratic_system(2 * q + 1, q, rng)
                z = common_zero_quadratics(sys_)
                assert z is not None and z.bits != 0
                assert naive_poly_values(sys_.polys, z.bits) == (0,) * q

    def test_matches_brute_force_oracle(self):
        rng = random.Random(14)
        for _ in range(400):
            v = rng.randint(0, 10)
            monos = [(), *((i,) for i in range(v)), *quadratic_monomials(v)]
            density = rng.choice((0.1, 0.3, 0.5))
            polys = [[m for m in monos if rng.random() < density] for _ in range(rng.randint(0, 4))]
            z = common_zero_quadratics(QuadraticSystem.from_lists(v, polys))
            assert (z.bits if z else None) == brute_smallest_common_zero(v, polys), (v, polys)

    def test_a_scan_leaves_the_cached_coordinate_masks_intact(self):
        # v = 17 scans two blocks of 2^16 points and overwrites x[16] in its own copy;
        # x16 + 1 vanishes only where x16 = 1, so the first zero is in the second block
        z = common_zero_quadratics(QuadraticSystem.from_lists(17, [[(16,), ()]]))
        assert z == BitVector(17, 1 << 16)
        masks = _coordinate_masks(16)
        assert type(masks) is tuple and masks == _coordinate_masks.__wrapped__(16)

    @staticmethod
    def _planted(v, zero, q, rng):
        """q sparse random polynomials, each with its constant set to vanish at `zero`."""
        monos = [*((i,) for i in range(v)), *quadratic_monomials(v)]
        polys = []
        for _ in range(q):
            p = [m for m in monos if rng.random() < 0.05]
            polys.append(p + [()] if naive_poly_values([p], zero)[0] else p)
        return polys

    def _check(self, v, polys):
        z = common_zero_quadratics(QuadraticSystem.from_lists(v, polys))
        expected = brute_smallest_common_zero(v, polys)
        assert (z.bits if z else None) == expected, (v, polys)
        return expected

    def test_zero_below_2_8_past_16_variables(self):
        # v > 16: the first pass over the points below 2^8 finds these
        rng = random.Random(16)
        for v in (17, 18, 20, COMMON_ZERO_GUARD):
            assert self._check(v, [[(i,)] for i in range(1, 8)]) == 1
            assert self._check(v, [[(i,), ()] for i in range(8)]) == 255
            for _ in range(10):
                zero = rng.randrange(1, 1 << 8)
                assert self._check(v, self._planted(v, zero, rng.randint(1, 8), rng)) <= zero

    def test_zero_at_or_above_2_8_past_16_variables(self):
        # x_0 = .. = x_7 = 0 empties the first pass; the blocks of 2^16 find the zero
        rng = random.Random(17)
        low_zero = [[(i,)] for i in range(8)]
        for v in (17, 18, 20, COMMON_ZERO_GUARD):
            assert self._check(v, low_zero) == 1 << 8
            for _ in range(4):
                zero = rng.randrange(1, 4) << 8
                found = self._check(v, low_zero + self._planted(v, zero, rng.randint(1, 4), rng))
                assert 1 << 8 <= found <= zero
        # x_0 = .. = x_15 = 0: the zeros are the multiples of 2^16, past the first block
        z = common_zero_quadratics(QuadraticSystem.from_lists(17, [[(i,)] for i in range(16)]))
        assert z.bits == 1 << 16

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            common_zero_quadratics(QuadraticSystem.from_lists(25, [[(0, 1)]]))

    def test_guard_holds(self):
        # at the guard, two systems whose only common zero is 0: the coordinates,
        # and p_i = x_i + random quadratics in x_0..x_{i-1}
        v = COMMON_ZERO_GUARD
        rng = random.Random(24)
        coordinates = [[(i,)] for i in range(v)]
        triangular = [[(i,)] + [m for m in quadratic_monomials(i) if rng.random() < 0.5]
                      for i in range(v)]
        for polys in (coordinates, triangular):
            t0 = time.perf_counter()
            assert common_zero_quadratics(QuadraticSystem.from_lists(v, polys)) is None
            assert time.perf_counter() - t0 < 10.0

    def test_from_lists_checks_every_monomial(self):
        for polys, message in [([[(0, 1, 2)]], "monomial degree exceeds 2"),
                               ([[(0,), (0,), (3,)]], "variable index out of range"),
                               ([[(0, 1)], [(-1,)]], "variable index out of range")]:
            with pytest.raises(ValueError) as exc:
                QuadraticSystem.from_lists(3, polys)
            assert str(exc.value) == message

    def test_repeated_monomials_cancel(self):
        # mod-2 coefficients: (1, 0) is the sorted (0, 1), and () twice is no constant
        polys = [[(0, 1), (1, 0), (2,), (2, 2), (2, 2), (2, 2)], [(), (), (0,), ()]]
        sys_ = QuadraticSystem.from_lists(3, polys)
        assert sys_.polys == (frozenset({(2,), (2, 2)}), frozenset({(0,), ()}))
        for point in range(8):
            assert naive_poly_values(sys_.polys, point) == naive_poly_values(polys, point)

    def test_json_document_loads(self):
        sys_ = QuadraticSystem.from_lists(3, [[(0, 1), (2, 2)], [()]])
        assert QuadraticSystem.from_json_dict({"v": 3, "polys": [[[0, 1], [2, 2]], [[]]]}) == sys_
