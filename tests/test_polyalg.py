import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphererank.errors import GuardExceeded, NonSquareSystemError
from sphererank.gf2 import BitMatrix, BitVector, _echelon_bits
from sphererank.polyalg import (
    COLUMN_GUARD,
    NVARS_GUARD,
    PIECE_GUARD,
    TERM_GUARD,
    GradedPoly,
    IdealGens,
    LinearAction,
    euler_class_restriction,
    hilbert_function,
    is_regular_sequence,
    power_span_test,
    quotient_total_dim,
)
from sphererank.repaction import (
    GroupOracle,
    build_induced,
    cyclic_table,
    elementary_abelian_table,
    quaternion_table,
)

from oracles import (
    all_elem_abelian_subgroups,
    apply_linear,
    dihedral_table,
    direct_product_table,
    monomials_of_degree,
    naive_hilbert,
    span_bits,
)


def poly(nvars, *monos):
    return GradedPoly.from_monomials(nvars, monos)


def variable(nvars, i):
    return GradedPoly.linear(nvars, BitVector(nvars, 1 << i))


def var_power(nvars, i, p):
    return variable(nvars, i).power(p)


def random_invertible(rng, n):
    while True:
        m = BitMatrix.from_bits(n, n, [rng.getrandbits(n) for _ in range(n)])
        if len(_echelon_bits(m.row_data)) == n:
            return m


class TestGradedPoly:
    def test_addition_is_symmetric_difference(self):
        a = poly(2, (2, 0), (1, 1))
        b = poly(2, (1, 1), (0, 2))
        assert (a + b).monomials == frozenset({(2, 0), (0, 2)})

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(0)
        cases = [(poly(2, (1, 0), (0, 1)), 2)]  # (x + y)^2 = x^2 + y^2
        for _ in range(20):
            nvars = rng.randint(1, 4)
            cases.append((GradedPoly.linear(nvars, BitVector(nvars, rng.getrandbits(nvars))),
                          rng.randint(0, 12)))
        for f, p in cases:
            slow = GradedPoly.one(f.nvars)
            for _ in range(p):
                slow = slow * f
            assert f.power(p) == slow
        assert poly(2, (1, 0), (0, 1)).power(2) == poly(2, (2, 0), (0, 2))

    def test_linear_coeffs_inverts_linear(self):
        # variable i is coefficient bit i, both ways
        for nvars in range(1, 6):
            for bits in range(1 << nvars):
                f = GradedPoly.linear(nvars, BitVector(nvars, bits))
                assert f.degree == 1 and len(f.monomials) == bits.bit_count()
                assert f.linear_coeffs() == bits
        assert GradedPoly.linear(3, BitVector(3, 0b101)) == poly(3, (1, 0, 0), (0, 0, 1))

    @pytest.mark.parametrize("f", [poly(2, (1, 1)), poly(2, (2, 0), (1, 1)), GradedPoly.one(2)],
                             ids=["xy", "x2+xy", "one"])
    def test_power_of_a_non_linear_polynomial_is_refused(self, f):
        assert f.power(0) == GradedPoly.one(2) and f.power(1) == f
        with pytest.raises(ValueError, match="^a power p >= 2 is only taken of a linear form$"):
            f.power(2)

    @pytest.mark.parametrize("build, p, terms", [
        (lambda: GradedPoly.linear(16, BitVector(16, (1 << 9) - 1)).power(63), 63, 9**6),
        (lambda: GradedPoly.linear(16, BitVector(16, (1 << 13) - 1)).power(127), 127, None),
        # x_0^63 under a map sending x_0 to the sum of all 16 variables
        (lambda: apply_linear(variable(16, 0).power(63), BitMatrix.from_bits(
            16, 16, [(1 << 16) - 1] + [1 << i for i in range(1, 16)])), 63, 16**6),
    ], ids=["weight9", "weight13", "apply_linear"])
    def test_power_is_guarded_before_any_term_is_built(self, build, p, terms):
        with pytest.raises(GuardExceeded) as exc:
            build()
        if terms is None:
            assert exc.value.guard == "poly_degree"
        else:
            assert exc.value.guard == "poly_terms" and terms > TERM_GUARD
            assert str(exc.value) == f"l^{p} has up to {terms} terms, above guard {TERM_GUARD}"

    def test_a_product_past_the_degree_guard_is_refused(self):
        x, y = variable(2, 0), variable(2, 1)
        assert x.power(32) * y.power(32) == poly(2, (32, 32))
        with pytest.raises(GuardExceeded) as exc:
            x.power(40) * y.power(40)
        assert exc.value.guard == "poly_degree"

    def test_sums_products_and_powers_pass_the_input_check(self):
        # the constructor trusts the monomials it is given; rebuilt through
        # from_monomials, which checks each one, these are equal and hash alike
        rng = random.Random(19)
        for _ in range(40):
            nvars = rng.randint(1, 5)
            a = GradedPoly.linear(nvars, BitVector(nvars, rng.getrandbits(nvars)))
            b = GradedPoly.linear(nvars, BitVector(nvars, rng.getrandbits(nvars)))
            for f in (a + b, a * b, a.power(rng.randint(2, 9)) * b, a.power(rng.randint(2, 9))):
                checked = (GradedPoly.zero(nvars, f.degree) if f.is_zero()
                           else GradedPoly.from_monomials(nvars, f.monomials))
                assert f == checked and hash(f) == hash(checked)

    @pytest.mark.parametrize("monos, message", [
        ([(1, 0), (1, 1)], "monomial (1, 1) is not of degree 1"),
        ([(1, 0), (1,)], "bad exponent tuple (1,)"),
        ([(2, 0), (3, -1)], "bad exponent tuple (3, -1)"),
        # each listed monomial is checked before any cancels
        ([(1, 0), (1, 0), (1,)], "bad exponent tuple (1,)"),
        ([(1, 0), (0, 2), (1, 0)], "monomial (0, 2) is not of degree 1"),
    ], ids=["mixed_degrees", "short_tuple", "negative_exponent", "short_after_a_pair",
            "mixed_inside_a_pair"])
    def test_from_monomials_checks_every_monomial(self, monos, message):
        with pytest.raises(ValueError) as exc:
            GradedPoly.from_monomials(2, monos)
        assert str(exc.value) == message

    def test_repeated_monomials_cancel(self):
        # mod-2 coefficients; when every monomial cancels, the zero of their degree
        assert poly(2, (2, 0), (1, 1), (2, 0), (0, 2), (2, 0)) == poly(2, (2, 0), (1, 1), (0, 2))
        assert poly(1, (2,), (2,)) == GradedPoly.zero(1, 2)
        assert poly(3, (1, 1, 0), (0, 0, 2), (1, 1, 0), (0, 0, 2)) == GradedPoly.zero(3, 2)
        with pytest.raises(ValueError, match="^use GradedPoly.zero for the zero polynomial$"):
            poly(2)

    def test_zero_marker_is_distinguished(self):
        z = GradedPoly.zero(2, 4)
        assert z.is_zero() and z.degree == 4
        assert z != GradedPoly.one(2)

    def test_json_round_trip(self):
        f = poly(3, (1, 1, 0), (0, 0, 2))
        assert GradedPoly.from_json_dict(f.to_json_dict()) == f

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            poly(2, (1, 0), (1, 1))


@pytest.mark.parametrize("nvars", [0, NVARS_GUARD + 1, 10**6])
def test_ideal_and_action_check_the_nvars_guard(nvars):
    for build in (lambda: IdealGens(nvars, ()), lambda: LinearAction(nvars, ())):
        with pytest.raises(GuardExceeded) as exc:
            build()
        assert exc.value.guard == "poly_nvars"


def test_action_refuses_a_singular_or_misshapen_generator():
    with pytest.raises(ValueError, match="^generators must be invertible$"):
        LinearAction(2, (BitMatrix.from_bits(2, 2, [0b11, 0b11]),))
    with pytest.raises(ValueError, match="^generators must be nvars x nvars$"):
        LinearAction(2, (BitMatrix.from_bits(2, 3, [0b001, 0b010]),))
    assert LinearAction(2, (BitMatrix.from_bits(2, 2, [0b11, 0b01]),)).nvars == 2


class TestHilbertFunction:
    def test_squares_ideal_in_two_vars(self):
        ideal = IdealGens(2, (var_power(2, 0, 2), var_power(2, 1, 2)))
        assert [hilbert_function(ideal, d) for d in range(4)] == [1, 2, 1, 0]

    def test_empty_ideal_counts_monomials(self):
        ideal = IdealGens(3, ())
        for d in range(5):
            assert hilbert_function(ideal, d) == math.comb(3 + d - 1, d)

    def test_mixed_generators_against_naive_oracle(self):
        ideal = IdealGens(2, (poly(2, (2, 0), (1, 1)), var_power(2, 1, 3)))
        expected = naive_hilbert(2, [{(2, 0), (1, 1)}, {(0, 3)}], [2, 3], 3)
        assert hilbert_function(ideal, 3) == expected

    def test_random_ideals_against_naive_oracle(self):
        rng = random.Random(1)
        for _ in range(15):
            nvars = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                monos = [m for m in monomials_of_degree(nvars, deg) if rng.random() < 0.6]
                if monos:
                    gens.append(GradedPoly.from_monomials(nvars, monos))
            ideal = IdealGens(nvars, tuple(gens))
            for d in range(5):
                expected = naive_hilbert(
                    nvars, [set(g.monomials) for g in gens], [g.degree for g in gens], d
                )
                assert hilbert_function(ideal, d) == expected

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_hypothesis_random_ideals_against_naive_oracle(self, data):
        nvars = data.draw(st.integers(1, 4), label="nvars")
        gens = []
        for deg in data.draw(st.lists(st.integers(0, 3), max_size=4), label="degrees"):
            monos = monomials_of_degree(nvars, deg)
            keep = data.draw(st.lists(st.booleans(), min_size=len(monos), max_size=len(monos)))
            gens.append(GradedPoly(nvars, deg, frozenset(m for m, k in zip(monos, keep) if k)))
        d = data.draw(st.integers(0, 8), label="d")
        expected = naive_hilbert(
            nvars, [set(g.monomials) for g in gens], [g.degree for g in gens], d
        )
        assert hilbert_function(IdealGens(nvars, tuple(gens)), d) == expected

    def test_piece_guard_refuses_before_building(self):
        # the linear ideal (x) in 3 variables has C(d + 1, 2) rows and
        # C(d + 2, 2) columns in degree d
        ideal = IdealGens(3, (variable(3, 0),))
        last = max(d for d in range(400)
                   if math.comb(d + 1, 2) * math.comb(d + 2, 2) <= PIECE_GUARD)
        assert last >= 300  # a sparse piece: degree 300 takes well under a second
        assert hilbert_function(ideal, 100) == 101  # the monomials in y and z
        for d in (last + 1, 1000, 10**6):
            with pytest.raises(GuardExceeded) as exc:
                hilbert_function(ideal, d)
            assert exc.value.guard == "poly_piece"

    @pytest.mark.parametrize("nvars, d", [(16, 8), (16, 64), (3, 10**6)])
    def test_piece_guard_holds_without_rows(self, nvars, d):
        # no generator, so no rows: the column count alone is refused
        assert math.comb(nvars - 1 + d, d) > COLUMN_GUARD
        with pytest.raises(GuardExceeded) as exc:
            hilbert_function(IdealGens(nvars, ()), d)
        assert exc.value.guard == "poly_piece"

    def test_one_variable_at_high_degree(self):
        # one column whatever the degree: a monomial costs nothing per unit of degree
        assert hilbert_function(IdealGens(1, ()), 10**7) == 1
        assert hilbert_function(IdealGens(1, (var_power(1, 0, 2),)), 10**7) == 0

    def test_vanishing_is_upward_closed(self):
        ideal = IdealGens(2, (var_power(2, 0, 2), var_power(2, 1, 2)))
        first_zero = next(d for d in range(10) if hilbert_function(ideal, d) == 0)
        for d in range(first_zero, first_zero + 4):
            assert hilbert_function(ideal, d) == 0


class TestRegularSequence:
    def test_variable_powers_regular(self):
        ideal = IdealGens(2, (var_power(2, 0, 4), var_power(2, 1, 4)))
        assert is_regular_sequence(ideal)

    def test_repeated_generator_not_regular(self):
        xy = poly(2, (1, 0), (0, 1))
        assert not is_regular_sequence(IdealGens(2, (xy, xy)))

    def test_shared_factor_not_regular(self):
        ideal = IdealGens(2, (var_power(2, 0, 2), poly(2, (1, 1))))
        assert hilbert_function(ideal, 3) == 1  # y^3 survives
        assert not is_regular_sequence(ideal)

    def test_non_square_rejected_distinctly(self):
        with pytest.raises(NonSquareSystemError):
            is_regular_sequence(IdealGens(2, (var_power(2, 0, 2),)))

    def test_degree_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            is_regular_sequence(IdealGens(1, (GradedPoly.one(1),)))

    def test_verdict_invariant_under_permutation_and_gl(self):
        rng = random.Random(2)
        cases = [
            (IdealGens(2, (poly(2, (2, 0), (1, 1)), var_power(2, 1, 2))), True),
            (IdealGens(2, (var_power(2, 0, 2), poly(2, (1, 1)))), False),
            (IdealGens(3, tuple(var_power(3, i, 3) for i in range(3))), True),
        ]
        for ideal, expected in cases:
            assert is_regular_sequence(ideal) == expected
            perm = list(ideal.gens)
            rng.shuffle(perm)
            assert is_regular_sequence(IdealGens(ideal.nvars, tuple(perm))) == expected
            for _ in range(5):
                m = random_invertible(rng, ideal.nvars)
                transformed = tuple(apply_linear(g, m) for g in ideal.gens)
                assert is_regular_sequence(IdealGens(ideal.nvars, transformed)) == expected


class TestQuotientTotalDim:
    def test_fourth_powers_three_vars(self):
        ideal = IdealGens(3, tuple(var_power(3, i, 4) for i in range(3)))
        assert quotient_total_dim(ideal) == 64

    def test_irrelevant_ideal(self):
        ideal = IdealGens(2, (variable(2, 0), variable(2, 1)))
        assert quotient_total_dim(ideal) == 1

    def test_degree_by_degree(self):
        ideal = IdealGens(2, (poly(2, (2, 0), (1, 1)), var_power(2, 1, 2)))
        assert quotient_total_dim(ideal) == 4

    def test_none_when_not_regular(self):
        xy = poly(2, (1, 0), (0, 1))
        assert quotient_total_dim(IdealGens(2, (xy, xy))) is None

    def test_hilbert_series_is_product_expansion(self):
        rng = random.Random(3)
        for _ in range(5):
            nvars = rng.randint(1, 3)
            degrees = [rng.randint(1, 4) for _ in range(nvars)]
            ideal = IdealGens(nvars, tuple(var_power(nvars, i, d) for i, d in enumerate(degrees)))
            # coefficients of prod (1 + t + ... + t^(d_i - 1))
            coeffs = [1]
            for d in degrees:
                new = [0] * (len(coeffs) + d - 1)
                for i, c in enumerate(coeffs):
                    for j in range(d):
                        new[i + j] += c
                coeffs = new
            for deg, c in enumerate(coeffs):
                assert hilbert_function(ideal, deg) == c
            assert quotient_total_dim(ideal) == math.prod(degrees)

    @staticmethod
    def substituted_complete_intersections(seed, count):
        """Images of x_i^(d_i), mixed degrees, under random invertible substitutions."""
        rng = random.Random(seed)
        for _ in range(count):
            nvars = rng.randint(2, 4)
            degrees = [rng.randint(1, 4) for _ in range(nvars)]
            m = random_invertible(rng, nvars)
            yield IdealGens(nvars, tuple(
                apply_linear(var_power(nvars, i, d), m) for i, d in enumerate(degrees)
            ))

    def test_product_of_degrees_is_the_summed_hilbert_function(self):
        for ideal in self.substituted_complete_intersections(28, 12):
            boundary = sum(g.degree - 1 for g in ideal.gens)
            summed = sum(hilbert_function(ideal, d) for d in range(boundary + 1))
            assert quotient_total_dim(ideal) == summed

    def test_none_on_dependent_or_zero_generators(self):
        for ideal in self.substituted_complete_intersections(29, 6):
            gens, n = list(ideal.gens), ideal.nvars
            dependent = gens[:-1] + [gens[0]]
            zero = gens[:-1] + [GradedPoly.zero(n, gens[-1].degree)]
            assert quotient_total_dim(IdealGens(n, tuple(dependent))) is None
            assert quotient_total_dim(IdealGens(n, tuple(zero))) is None

    def test_one_hilbert_value_and_no_back_pass(self, monkeypatch):
        from sphererank import bounds, gf2, phigroup, polyalg

        # the benchmark's tracer patches _rref_bits under these names
        assert all(mod._rref_bits is gf2._rref_bits for mod in (phigroup, polyalg, bounds))

        def no_back_pass(rows):
            raise AssertionError("a Hilbert value needs only the forward pass")

        monkeypatch.setattr(gf2, "_rref_bits", no_back_pass)
        monkeypatch.setattr(polyalg, "_rref_bits", no_back_pass)
        calls = []
        hilbert = polyalg.hilbert_function

        def counted(I, d):
            calls.append(d)
            return hilbert(I, d)

        monkeypatch.setattr(polyalg, "hilbert_function", counted)
        regular = IdealGens(3, (var_power(3, 0, 2), var_power(3, 1, 3), var_power(3, 2, 4)))
        xy = poly(2, (1, 0), (0, 1))
        assert quotient_total_dim(regular) == 24
        assert calls == [7]
        assert quotient_total_dim(IdealGens(2, (xy, xy))) is None
        assert calls == [7, 1]  # each at its Artinian cutoff


class TestEulerClassRestriction:
    def test_two_copies_of_sign_character(self):
        c4 = GroupOracle.from_table(cyclic_table(4))
        rep = build_induced(c4, [2], [-1])
        euler = euler_class_restriction(rep, [2], 1)
        assert euler == var_power(1, 0, 2)  # x^2 in one variable

    def test_trivial_summand_kills_the_class(self):
        e4 = GroupOracle.from_table(elementary_abelian_table(2))
        rep = build_induced(e4, [1], [-1])  # Ind from <x1>
        euler = euler_class_restriction(rep, [2], 1)  # restrict to <x2>
        assert euler.is_zero() and euler.degree == rep.dim

    def test_quaternion_center_gives_regular_length_one(self):
        q8 = GroupOracle.from_table(quaternion_table())
        rep = build_induced(q8, [1], [-1])
        assert rep.trace(0) == 4 and rep.trace(1) == -4
        euler = euler_class_restriction(rep, [1], 1)
        assert euler == var_power(1, 0, 4)
        assert is_regular_sequence(IdealGens(1, (euler,)))

    def test_rank_mismatch_rejected(self):
        e4 = GroupOracle.from_table(elementary_abelian_table(2))
        rep = build_induced(e4, [1], [-1])
        with pytest.raises(ValueError, match="^generators span rank 2, expected 1$"):
            euler_class_restriction(rep, [1, 2], 1)
        with pytest.raises(ValueError, match="^generators span rank 1, expected 2$"):
            euler_class_restriction(rep, [1, 1], 2)

    def test_non_elementary_abelian_rejected(self):
        c4 = GroupOracle.from_table(cyclic_table(4))
        rep = build_induced(c4, [2], [-1])
        with pytest.raises(ValueError, match="elementary abelian"):
            euler_class_restriction(rep, [1], 2)
        # two involutions that do not commute: s and sr in D8, id a*4 + i is s^a r^i
        d8 = GroupOracle.from_table(dihedral_table(4))
        rep = build_induced(d8, [2], [-1])
        assert d8.mul(4, 4) == d8.mul(5, 5) == 0 and d8.mul(4, 5) != d8.mul(5, 4)
        with pytest.raises(ValueError, match="^subgroup is not elementary abelian$"):
            euler_class_restriction(rep, [4, 5], 2)

    def test_out_of_range_id_rejected_first(self):
        c4 = GroupOracle.from_table(cyclic_table(4))
        rep = build_induced(c4, [2], [-1])
        with pytest.raises(ValueError, match="^element id 4 out of range$"):
            euler_class_restriction(rep, [1, 4], 2)

    def test_negative_rank_rejected(self):
        rep = build_induced(GroupOracle.from_table(cyclic_table(4)), [2], [-1])
        with pytest.raises(ValueError, match="^e_rank must be >= 1, got -1$"):
            euler_class_restriction(rep, [2], -1)

    def test_rank_zero_rejected(self):
        # a rank-0 E has no variables to carry a class
        rep = build_induced(GroupOracle.from_table(cyclic_table(4)), [2], [-1])
        with pytest.raises(ValueError, match="^e_rank must be >= 1, got 0$"):
            euler_class_restriction(rep, [], 0)


@pytest.mark.parametrize(
    "table, c_gens, chars, e_gens",
    [
        (elementary_abelian_table(4), [1, 2], [-1, 1], [1, 2, 4, 8]),
        (elementary_abelian_table(4), [3, 12], [-1, -1], [1, 2, 4, 8]),
        (elementary_abelian_table(4), [15], [-1], [3, 6, 12]),
        (direct_product_table(quaternion_table(), elementary_abelian_table(2)), [4], [-1], [4, 1, 2]),
        (direct_product_table(quaternion_table(), elementary_abelian_table(2)), [1], [-1], [4, 1]),
    ],
)
def test_transform_matches_the_character_sums(table, c_gens, chars, e_gens):
    """The class from the 4^k direct character sums, the reference for the transform."""
    G = GroupOracle.from_table(table)
    rep = build_induced(G, c_gens, chars)
    k = len(e_gens)
    coords = {0: 0}  # element -> F2 coordinates in E, as the library walks it
    for g in e_gens:
        coords.update({G.mul(e, g): c | len(coords) for e, c in list(coords.items())})
    mult = [sum(rep.trace(e) * (-1) ** (c & x).bit_count() for e, x in coords.items()) >> k
            for c in range(1 << k)]
    expected = GradedPoly.zero(k, rep.dim)
    if not mult[0]:
        expected = GradedPoly.one(k)
        for c in range(1, 1 << k):
            for _ in range(mult[c]):
                expected = expected * GradedPoly.linear(k, BitVector(k, c))
    assert euler_class_restriction(rep, e_gens, k) == expected


@pytest.mark.parametrize(
    "table, central",
    [
        (dihedral_table(4), 2),  # r^2
        (direct_product_table(quaternion_table(), elementary_abelian_table(2)), 4),  # -1 of Q8
    ],
    ids=["d8", "q8xc2^2"],
)
def test_restriction_accepts_exactly_the_elementary_abelian_closures(table, central):
    """Every generator tuple of size <= 3 and every rank 1..3, against the
    brute-force list of elementary abelian subgroups."""
    G = GroupOracle.from_table(table)
    rep = build_induced(G, [central], [-1])
    subgroups = all_elem_abelian_subgroups(G.mul, G.order)
    for size in range(4):
        for gens in product(range(G.order), repeat=size):
            closure = frozenset(G.closure(gens))
            true_rank = len(closure).bit_length() - 1
            for rank in range(1, 4):
                if closure not in subgroups:
                    expected = "subgroup is not elementary abelian"
                elif true_rank != rank:
                    expected = f"generators span rank {true_rank}, expected {rank}"
                else:
                    expected = None
                try:
                    euler = euler_class_restriction(rep, gens, rank)
                except ValueError as exc:
                    assert str(exc) == expected, (gens, rank)
                    continue
                assert expected is None, (gens, rank)
                assert euler.nvars == rank and euler.degree == rep.dim
                # the central -1 lies in E exactly when the class is nonzero
                assert euler.is_zero() == (central not in closure), (gens, rank)


def dual_basis_reps(n, r):
    """(Z/2)^(n+r) induced reps restricting to 2^r copies of each dual char of E."""
    G = GroupOracle.from_table(elementary_abelian_table(n + r))
    e_gens = [1 << i for i in range(n)]
    reps = [
        build_induced(G, e_gens, [-1 if j == i else 1 for j in range(n)])
        for i in range(n)
    ]
    return G, reps, e_gens


def restricted_classes_regular(reps, e_gens):
    """The transgression test: the Euler classes of the factors, restricted to
    E = <e_gens> of rank len(reps), form a regular sequence."""
    n = len(reps)
    return is_regular_sequence(
        IdealGens(n, tuple(euler_class_restriction(rep, e_gens, n) for rep in reps))
    )


class TestTransgressionCheck:
    @pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_standard_free_construction(self, n, r):
        _, reps, e_gens = dual_basis_reps(n, r)
        for i, rep in enumerate(reps):
            euler = euler_class_restriction(rep, e_gens, n)
            assert euler == var_power(n, i, 1 << r)
        assert restricted_classes_regular(reps, e_gens)

    def test_fixed_vector_fails(self):
        e4 = GroupOracle.from_table(elementary_abelian_table(2))
        with_fixed = build_induced(e4, [1], [1])  # trivial character: has fixed vectors
        v2 = build_induced(e4, [2], [-1])
        assert euler_class_restriction(with_fixed, [1, 2], 2).is_zero()
        assert not euler_class_restriction(v2, [1, 2], 2).is_zero()
        assert not restricted_classes_regular([with_fixed, v2], [1, 2])

    def test_quaternion(self):
        q8 = GroupOracle.from_table(quaternion_table())
        rep = build_induced(q8, [1], [-1])
        assert euler_class_restriction(rep, [1], 1) == var_power(1, 0, 4)
        assert restricted_classes_regular([rep], [1])


def swap_action():
    return LinearAction(2, (BitMatrix.from_bits(2, 2, [0b10, 0b01]),))


class TestPowerSpanTest:
    def test_coordinate_lines_squared(self):
        ys = [variable(2, 0), variable(2, 1)]
        res = power_span_test(swap_action(), ys, 2)
        assert res.stable and res.permuted

    def test_skew_basis_power_of_two_is_semilinear(self):
        ys = [variable(2, 0), poly(2, (1, 0), (0, 1))]  # {x, x+y}
        res = power_span_test(swap_action(), ys, 2)
        assert res.stable and not res.permuted

    def test_skew_basis_odd_power_unstable(self):
        ys = [variable(2, 0), poly(2, (1, 0), (0, 1))]
        res = power_span_test(swap_action(), ys, 3)
        assert not res.stable and not res.permuted

    def test_p_one_reduces_to_span_stability(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 4)
            act = LinearAction(n, (random_invertible(rng, n),))
            k = rng.randint(1, n)
            while True:
                coeffs = [BitVector(n, rng.getrandbits(n)) for _ in range(k)]
                if len(span_bits([c.bits for c in coeffs])) == 1 << k:
                    break
            ys = [GradedPoly.linear(n, c) for c in coeffs]
            res = power_span_test(act, ys, 1)
            span = span_bits([c.bits for c in coeffs])
            images_inside = all(
                apply_linear(y, act.generators[0]).linear_coeffs() in span for y in ys
            )
            assert res.stable == images_inside
            if res.permuted:
                assert res.stable

    def test_permuted_implies_stable_any_power(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 3)
            act = LinearAction(n, (random_invertible(rng, n),))
            ys = [variable(n, i) for i in range(n)]
            res = power_span_test(act, ys, rng.randint(1, 4))
            if res.permuted:
                assert res.stable

    def test_dependent_ys_rejected(self):
        ys = [variable(2, 0), variable(2, 0)]
        with pytest.raises(ValueError, match="independent"):
            power_span_test(swap_action(), ys, 2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="^p must be >= 0, got -1$"):
            power_span_test(swap_action(), [variable(2, 0)], -1)

    def test_substitution_commutes_with_powers(self):
        # power_span_test substitutes into y and then raises to p
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 4)
            g = random_invertible(rng, n)
            y = GradedPoly.linear(n, BitVector(n, rng.randrange(1, 1 << n)))
            p = rng.randint(0, 5)
            assert apply_linear(y.power(p), g) == apply_linear(y, g).power(p)
