import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphererank import gf2
from sphererank.gf2 import (
    BitMatrix,
    BitVector,
    Subspace,
    _coordinate_masks,
    _echelon_bits,
    _rref_bits,
    _transpose_bits,
    _witt_index,
    bit_rows,
    bit_string,
    fold_rows,
    kernel,
)

import oracles
from oracles import (
    gaussian_binomial_recurrence,
    is_canonical,
    is_rref,
    naive_kernel_vectors,
    naive_matvec,
    naive_rank,
    naive_rref,
    span_bits,
    witt_index_single,
)


def random_matrix(rng, rows, cols):
    return BitMatrix.from_bits(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def bits_to_list(bits: int, n: int) -> list[int]:
    return [(bits >> j) & 1 for j in range(n)]


def as_lists(m: BitMatrix):
    return [bits_to_list(r, m.cols) for r in m.row_data]


def identity(n: int) -> BitMatrix:
    return BitMatrix.from_bits(n, n, [1 << i for i in range(n)])


def subspace_bits(s: Subspace) -> set[int]:
    return span_bits([v.bits for v in s.basis])


def rank(m: BitMatrix) -> int:
    """The row rank as the library reads it: the size of the forward pass's table."""
    return len(_echelon_bits(m.row_data))


class TestBitCodec:
    def test_string_round_trip(self):
        cols, (bits,) = bit_rows(["10110"])
        assert (cols, bits) == (5, 0b01101)
        assert bit_string(bits, cols) == "10110"
        assert bits_to_list(bits, 3) == [1, 0, 1]
        assert bits.bit_count() == 3
        assert bit_string(0, 0) == "" and bit_string(0, 3) == "000"

    def test_rejects_overflow_bits(self):
        # the constructors trust their bits; outside bits enter through bit_rows
        refused(lambda: bit_rows(["1021"]), "invalid bit string '1021'")
        refused(lambda: bit_rows(["1-1"]), "invalid bit string '1-1'")
        refused(lambda: bit_rows(["1_0"]), "invalid bit string '1_0'")
        refused(lambda: bit_rows([" 10"]), "invalid bit string ' 10'")

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n=st.integers(0, 130))
    def test_rows_round_trip_through_strings(self, data, n):
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
        strings = [bit_string(r, n) for r in rows]
        assert bit_rows(strings) == (n, tuple(rows))
        for r, s in zip(rows, strings):
            assert s == "".join("1" if r >> i & 1 else "0" for i in range(n))
            if n:
                assert s == format(r, "b").zfill(n)[::-1]


# (rows, cols): no rows and one row; rows x cols just below, at and above the
# area where the packed path takes over, at widths 1, 20 and 32; row counts
# around one and two blocks of the packed path; and widths at and past the
# 64 bits of its widest array item, where the loop stays
AREA, BLOCK = gf2._TRANSPOSE_LOOP_AREA, gf2._TRANSPOSE_BLOCK
TRANSPOSE_SHAPES = (
    [(0, 5), (1, 1), (1, 20), (1, 32), (3, 5), (6, 2), (6, 3), (7, 7)]
    + [(AREA // cols + d, cols) for cols in (1, 20, 32) for d in (-1, 0, 1)]
    + [(BLOCK + d, cols) for cols in (1, 20) for d in (-1, 0, 1)]
    + [(2 * BLOCK + 1, 32), (5, 64), (8, 64), (8, 65), (40, 100)]
)


class TestBitMatrix:
    def test_transpose_involution(self):
        rng = random.Random(11)
        for rows, cols in TRANSPOSE_SHAPES:
            m = random_matrix(rng, rows, cols)
            assert _transpose_bits(_transpose_bits(m.row_data, cols), rows) == list(m.row_data)

    def test_transpose_matches_entries(self):
        rng = random.Random(12)
        for rows, cols in TRANSPOSE_SHAPES:
            m = random_matrix(rng, rows, cols)
            mt = BitMatrix.from_bits(cols, rows, _transpose_bits(m.row_data, cols))
            entries = as_lists(m)
            assert as_lists(mt) == [[row[j] for row in entries] for j in range(cols)], (rows, cols)


def refused(build, message: str) -> None:
    """build() raises exactly ValueError(message), not a subclass or another text."""
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value) == message


class TestBitMatrixShapeChecks:
    # the constructor and from_bits trust their rows; bit_rows is the door
    def test_bit_rows_refusals(self):
        refused(lambda: bit_rows([]), "cannot infer column count from zero rows")
        refused(lambda: bit_rows(["01", "1"]), "ragged rows")
        refused(lambda: bit_rows("0110"), "must be a list of '0'/'1' strings")
        refused(lambda: bit_rows(["01", 10]), "must be a list of '0'/'1' strings")
        refused(lambda: bit_rows(["01", "0x"]), "invalid bit string '0x'")

    def test_bit_rows_checks_in_order(self):
        # the type of every item, then each string in turn, then the row count and shape
        refused(lambda: bit_rows(["0x", 10]), "must be a list of '0'/'1' strings")
        refused(lambda: bit_rows(["01", "0x", "1y"]), "invalid bit string '0x'")
        refused(lambda: bit_rows(["0", "0x1"]), "invalid bit string '0x1'")

    def test_bit_rows_reads_character_j_as_bit_j(self):
        assert bit_rows(["011", "100"]) == (3, (0b110, 0b001))
        assert bit_rows(("",)) == (0, (0,))

    def test_valid_shapes_still_build(self):
        assert BitMatrix.from_bits(0, 3, []).rows == 0
        m = BitMatrix.from_bits(2, 3, [0b101, 0b010])
        assert (m.rows, m.cols, m.row_data) == (2, 3, (0b101, 0b010))
        assert m.row_bits() == [0b101, 0b010]


class TestCoordinateMasks:
    def test_bit_v_of_mask_i_is_bit_i_of_v(self):
        for n in range(7):
            x = _coordinate_masks(n)
            assert len(x) == n
            assert all(x[i] >> v & 1 == v >> i & 1 for i in range(n) for v in range(1 << n))
            assert not any(m >> (1 << n) for m in x)


def random_gram(rng, n: int) -> list[int]:
    """A random symmetric zero-diagonal Gram matrix as int rows."""
    lower = [rng.getrandbits(i) for i in range(n)]
    return [low | col for low, col in zip(lower, _transpose_bits(lower, n))]


class TestWittIndex:
    def test_matches_the_single_form_oracle(self):
        # against a count of the zeros of q over all of F2^n
        rng = random.Random(25)
        for n in range(1, 11):
            for _ in range(12 if n < 9 else 4):
                gram = random_gram(rng, n)
                expected = witt_index_single([bits_to_list(r, n) for r in gram])
                assert _witt_index(gram) == expected, (n, gram)

    def test_zero_and_symplectic_forms(self):
        for n in range(1, 11):
            assert _witt_index([0] * n) == n  # q = 0: the whole space
        assert _witt_index([0b10, 0b01]) == 1  # q = x0 x1, Arf invariant 0
        for m in range(1, 6):  # q = sum_i x_i x_(m+i): m hyperbolic planes
            gram = [1 << (i + m) for i in range(m)] + [1 << i for i in range(m)]
            assert _witt_index(gram) == m == witt_index_single([bits_to_list(r, 2 * m) for r in gram])

    def test_a_nonzero_radical_value_and_an_arf_invariant_lower_the_index(self):
        # x0 x1 + x0 x2 + x1 x2: rank 2, radical <111>, where q is 1
        assert _witt_index([0b110, 0b101, 0b011]) == 1
        # every x_i x_j on F2^4: q(v) = C(weight, 2) mod 2 vanishes on 6 of the
        # 16 vectors, so q is nondegenerate with Arf invariant 1
        gram = [0b1110, 0b1101, 0b1011, 0b0111]
        assert _witt_index(gram) == 1 == witt_index_single([bits_to_list(r, 4) for r in gram])

    def test_the_input_rows_are_left_as_they_were(self):
        gram = (0b110, 0b101, 0b011)
        rows = list(gram)
        _witt_index(rows)
        assert tuple(rows) == gram


class TestFoldRows:
    def test_matches_naive_transposed_product(self):
        # fold_rows(rows, x) = x . M, i.e. M^T x in coordinates
        rng = random.Random(11)
        for _ in range(200):
            r, c = rng.randint(1, 12), rng.randint(1, 70)
            m = random_matrix(rng, r, c)
            x = rng.getrandbits(r)
            got = fold_rows(m.row_bits(), x)
            columns = [list(col) for col in zip(*as_lists(m))]
            expected = naive_matvec(columns, [(x >> i) & 1 for i in range(r)])
            assert bits_to_list(got, c) == expected


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_equal_rows(self):
        assert rank(BitMatrix.from_bits(2, 2, [0b11, 0b11])) == 1

    def test_random_against_naive_oracle(self):
        rng = random.Random(2024)
        for _ in range(50):
            m = random_matrix(rng, 6, 6)
            assert rank(m) == naive_rank(as_lists(m))

    def test_rref_matches_naive_oracle_on_wide_rows(self):
        rng = random.Random(31)
        for cols in (1, 2, 63, 64, 65, 129, 500, 2000):
            for _ in range(6):
                density = rng.choice((0.002, 0.02, 0.2, 0.5))
                rows = [
                    sum(1 << j for j in range(cols) if rng.random() < density)
                    for _ in range(rng.randint(1, 40))
                ]
                rows += [0, rows[0], rows[-1] ^ rows[0]]  # zero, duplicate, dependent
                rng.shuffle(rows)
                expected = naive_rref([bits_to_list(r, cols) for r in rows])
                got = _rref_bits(rows)
                assert [bits_to_list(r, cols) for r in got] == expected
                assert _rref_bits(r for r in rows) == got

    def test_rref_of_empty_and_zero_input(self):
        assert _rref_bits([]) == []
        assert _rref_bits(iter(())) == []
        assert _rref_bits([0, 0, 0]) == []
        assert _rref_bits([5, 5, 5]) == [5]

    def test_rref_invariants(self):
        # rows spanned by k rows with planted, distinct lowest bits: the rank is
        # k and the pivots are exactly the planted columns
        rng = random.Random(8)
        for _ in range(60):
            cols = rng.choice((3, 64, 300, 2000))
            planted = sorted(rng.sample(range(cols), rng.randint(1, min(cols, 200))))
            basis = [(1 << p) | (rng.getrandbits(cols) >> (p + 1) << (p + 1)) for p in planted]
            rows = [fold_rows(basis, rng.getrandbits(len(basis))) for _ in range(len(basis))]
            rows += basis
            rng.shuffle(rows)
            got = _rref_bits(rows)
            pivots = [(r & -r).bit_length() - 1 for r in got]
            assert pivots == planted
            pivot_mask = sum(1 << p for p in pivots)
            assert all(r & pivot_mask == 1 << p for r, p in zip(got, pivots))
            assert all(r >> cols == 0 for r in got)

    def test_forward_pass_against_rref(self):
        # the forward pass keeps the RREF's pivots, each row under its lowest
        # bit, and spans what the RREF spans; rank reads its size alone
        rng = random.Random(28)
        cases = [[]]
        for _ in range(80):
            cols = rng.randint(1, 300)
            rows = [rng.getrandbits(cols) >> rng.randrange(cols) for _ in range(rng.randint(1, 30))]
            rows += [0, rows[0], rows[-1] ^ rows[0]]  # zero, duplicate, dependent
            rng.shuffle(rows)
            cases.append(rows)
        for rows in cases:
            echelon = _echelon_bits(rows)
            reduced = _rref_bits(rows)
            assert sorted(echelon) == [(r & -r).bit_length() for r in reduced]
            assert all((row & -row).bit_length() == key for key, row in echelon.items())
            for r in reduced:
                while r and (r & -r).bit_length() in echelon:
                    r ^= echelon[(r & -r).bit_length()]
                assert r == 0
            width = max((r.bit_length() for r in rows), default=1)
            assert rank(BitMatrix.from_bits(len(rows), width, rows)) == len(reduced)

    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(50):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols)
            assert rank(m) + kernel(m).dim == cols


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel(identity(4)).dim == 0

    def test_zero_matrix_kernel_full(self):
        k = kernel(BitMatrix.from_bits(3, 3, [0, 0, 0]))
        assert k == Subspace(3, tuple(BitVector(3, 1 << i) for i in range(3)))

    def test_small_example(self):
        cols, rows = bit_rows(["11", "00"])
        k = kernel(BitMatrix(len(rows), cols, rows))
        assert k.dim == 1
        assert bit_string(k.basis[0].bits, 2) == "11"

    def test_matches_exhaustive_vector_scan(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(1, 6)
            m = random_matrix(rng, rng.randint(1, 6), n)
            expected = naive_kernel_vectors(as_lists(m), n)
            got = {tuple(bits_to_list(v, n)) for v in subspace_bits(kernel(m))}
            assert got == expected

    def test_basis_is_canonical(self):
        # Subspace checks nothing, so kernel's reduced form is asserted here
        rng = random.Random(29)
        cases = [BitMatrix.from_bits(r, c, [0] * r) for r, c in ((1, 1), (3, 3), (2, 70))]
        cases += [identity(n) for n in (1, 4, 65)]
        cases += [random_matrix(rng, rng.randint(1, 8), rng.randint(1, 10)) for _ in range(60)]
        cases += [random_matrix(rng, rng.randint(1, 6), cols) for cols in (64, 65, 130, 300)]
        for m in cases:
            k = kernel(m)
            assert is_canonical(k), m
            assert (k.ambient_dim, k.dim) == (m.cols, m.cols - rank(m))
            assert not any((r & v.bits).bit_count() & 1 for r in m.row_data for v in k.basis)


class TestSpan:
    """The reduced form of a span, which `kernel` and the searches read."""

    def test_full_plane(self):
        assert _rref_bits([0b01, 0b11]) == _rref_bits([0b01, 0b10]) == [0b01, 0b10]

    def test_empty(self):
        assert _rref_bits([]) == []
        assert Subspace(4, ()).dim == 0

    def test_dependent_triple(self):
        assert len(_rref_bits([0b011, 0b110, 0b101])) == 2

    def test_idempotent_and_order_independent(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 8)
            vecs = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
            s = _rref_bits(vecs)
            assert is_rref(n, s)
            assert _rref_bits(s) == s
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert _rref_bits(shuffled) == s


class TestIsRref:
    """Self-checks of the reduced-row-echelon predicate in oracles.py."""

    def test_accepts_reduced_bases(self):
        assert is_rref(0, []) and is_rref(3, [])
        assert is_rref(3, [0b001, 0b010, 0b100])
        assert is_rref(4, [0b0101, 0b1010])  # pivots 0 and 1, other bits off the pivots

    @pytest.mark.parametrize("n, rows", [
        (2, [0b01, 0]),  # a zero row
        (2, [0b101]),  # a bit at n
        (2, [-1]),
        (2, [0b10, 0b01]),  # pivots decreasing
        (2, [0b01, 0b11]),  # a pivot repeated
        (2, [0b11, 0b10]),  # the second row's pivot set in the first
        (3, [0b001, 0b110, 0b100]),  # the third row's pivot set in the second
    ])
    def test_refuses_each_defect(self, n, rows):
        assert not is_rref(n, rows)


class TestEnumerateSubspaces:
    """Self-checks of the brute-force subspace stream in oracles.py."""

    @pytest.mark.parametrize("n,d,count", [(2, 1, 3), (5, 4, 31), (4, 2, 35)])
    def test_counts(self, n, d, count):
        assert sum(1 for _ in oracles.enumerate_subspaces(n, d)) == count

    def test_counts_match_recurrence_all_small(self):
        for n in range(7):
            for d in range(n + 1):
                subs = list(oracles.enumerate_subspaces(n, d))
                assert len(subs) == gaussian_binomial_recurrence(n, d)
                assert len(set(subs)) == len(subs)
                assert all(len(s) == d and is_rref(n, s) for s in subs)
