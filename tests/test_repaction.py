import copy
import random
import re
import time
from collections import Counter
from itertools import permutations

import pytest

from sphererank.bounds import _bit_sliced_commuting
from sphererank.errors import SchemaError
from sphererank.forms import random_family
from sphererank.gf2 import BitVector, fold_rows
from sphererank import repaction
from sphererank.phigroup import PhiGroup, group_rank, max_isotropic_qzero
from sphererank.repaction import (
    GroupOracle,
    build_induced,
    cyclic_table,
    elementary_abelian_search,
    elementary_abelian_table,
    fixed_subspace_dim,
    is_free_on_product,
    is_two_central,
    max_isotropy_rank,
    quaternion_table,
    _generating_set,
    _pairwise_commuting,
)

from oracles import (
    all_elem_abelian_subgroups,
    brute_max_elem_abelian_rank,
    dihedral_table,
    direct_product_table,
    family,
    gl2_matrices,
    is_group_table,
    naive_mat_mul,
    rational_fixed_dim,
    rational_has_plus_one_eigenvalue,
    signed_action,
    reduced_latin_squares,
    reference_elementary_abelian_search,
)

# order-5 loop: a Latin square with identity 0 and every element self-inverse,
# but not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
# its opposite loop (the transpose): right multiplications of one are left
# multiplications of the other; these two are the only order-5 loops with
# two-sided inverses that are not groups
LOOP5_OPPOSITE = [list(col) for col in zip(*LOOP5)]


def accepts(table: list[list[int]]) -> bool:
    try:
        GroupOracle.from_table(table)
    except ValueError:
        return False
    return True


def d8_oracle() -> GroupOracle:
    return GroupOracle.from_phi_group(PhiGroup(family(["01", "10"])))


def cyclic4() -> GroupOracle:
    return GroupOracle.from_table(cyclic_table(4))


def quaternion() -> GroupOracle:
    return GroupOracle.from_table(quaternion_table())


def klein() -> GroupOracle:
    return GroupOracle.from_table(elementary_abelian_table(2))


def element_order(G: GroupOracle, g: int) -> int:
    k, acc = 1, g
    while acc != 0:
        acc = G.mul(acc, g)
        k += 1
    return k


def inverse(G: GroupOracle, g: int) -> int:
    """g^(ord(g) - 1), by walking the powers of g."""
    acc = g
    while (nxt := G.mul(acc, g)) != 0:
        acc = nxt
    return acc


class TestGroupOracle:
    def test_quaternion_table_is_a_group(self):
        q8 = quaternion()
        assert q8.order == 8
        assert sorted(element_order(q8, g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_dihedral_table_validates(self):
        d8 = GroupOracle.from_table(dihedral_table(4))
        assert sorted(element_order(d8, g) for g in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_rejects_broken_identity(self):
        bad = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="^id 0 is not a two-sided identity$"):
            GroupOracle.from_table(bad)

    def test_rejects_non_associative_latin_square(self):
        with pytest.raises(ValueError, match="^multiplication is not associative$"):
            GroupOracle.from_table(LOOP5)

    def test_rejects_the_opposite_loop(self):
        with pytest.raises(ValueError, match="^multiplication is not associative$"):
            GroupOracle.from_table(LOOP5_OPPOSITE)

    @pytest.mark.parametrize(
        "rows",
        [cyclic_table(m) for m in (1, 2, 6, 16)]
        + [elementary_abelian_table(r) for r in (1, 3, 5)]
        + [quaternion_table(), dihedral_table(4), dihedral_table(5)],
    )
    def test_generating_set_is_greedy_and_generates(self, rows):
        def generated(gens):  # all products of what is reached, until nothing is new
            elems = {0, *gens}
            while new := {rows[a][b] for a in elems for b in elems} - elems:
                elems |= new
            return elems

        gens = _generating_set(rows)
        assert generated(gens) == set(range(len(rows)))
        for k, g in enumerate(gens):  # each generator lies outside the subgroup before it
            assert g not in generated(gens[:k])

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 1], [1, 1]], "row/column of element 1 is not a permutation"),
            # rows are permutations, column 1 is not
            ([[0, 1, 2], [1, 0, 2], [2, 1, 0]], "row/column of element 1 is not a permutation"),
            # 2 * 3 = 0 but 3 * 2 = 1
            (
                [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
                 [4, 2, 0, 1, 3]],
                "element 2 has no two-sided inverse",
            ),
        ],
    )
    def test_each_check_names_its_failure(self, table, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupOracle.from_table(table)

    @pytest.mark.parametrize("n, count", [(4, 4), (5, 56), (6, 9408)])
    def test_accepts_exactly_the_reduced_latin_squares_that_are_groups(self, n, count):
        squares = reduced_latin_squares(n)
        assert len(squares) == count
        for table in squares:
            assert accepts(table) == is_group_table(table), table

    def test_agrees_with_brute_force_on_random_tables(self):
        rng = random.Random(17)
        for _ in range(400):
            n = rng.randint(1, 4)
            table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.7:  # reach the later checks more often
                table[0] = list(range(n))
                for g in range(n):
                    table[g][0] = g
            assert accepts(table) == is_group_table(table), table

    def test_rejects_an_empty_table_on_mul(self):
        with pytest.raises(ValueError) as exc:
            GroupOracle.from_table([])
        assert exc.value.fields == ["mul: table must not be empty"]

    def test_stock_table_is_validated_on_its_own_rows(self, monkeypatch):
        calls = []
        init = GroupOracle.__init__

        def counting_init(obj, order, mul, *args, **kwargs):
            def counted(i, j):
                calls.append(1)
                return mul(i, j)

            init(obj, order, counted, *args, **kwargs)

        monkeypatch.setattr(GroupOracle, "__init__", counting_init)
        table = dihedral_table(4)
        oracle = GroupOracle.from_table(table)
        assert calls == []
        assert all(table[g][inverse(oracle, g)] == 0 == table[inverse(oracle, g)][g]
                   for g in range(8))

    @pytest.mark.parametrize("entry", [1.0, True, "1", None, [1]])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(SchemaError) as exc:
            GroupOracle.from_table([[0, entry], [entry, 0]])
        assert exc.value.fields == ["mul: entries must be integer ids in 0..order-1"]

    def test_rejects_rows_that_are_not_lists(self):
        with pytest.raises(SchemaError) as exc:
            GroupOracle.from_table([[0, 1], 1])
        assert exc.value.fields == ["mul: table must be square"]

    def test_inverses_and_closure(self):
        q8 = quaternion()
        for g in range(8):
            assert q8.mul(g, inverse(q8, g)) == 0
        assert q8.closure([2]) == [0, 1, 2, 3]  # <i> has order 4

    def test_phi_group_oracle_matches_direct_arithmetic(self):
        # (a1, b1)(a2, b2) = (a1 + a2, b1 + b2 + beta(a1, a2)), with beta from the family
        rng = random.Random(0)
        for n, t in [(2, 1), (4, 3), (6, 2)]:
            G = PhiGroup(random_family(n, t, rng.getrandbits(64)))
            oracle = GroupOracle.from_phi_group(G)
            for _ in range(30):
                i, j = rng.randrange(oracle.order), rng.randrange(oracle.order)
                a1, b1 = BitVector(n, i % (1 << n)), i >> n
                a2, b2 = BitVector(n, j % (1 << n)), j >> n
                expected = (a1.bits ^ a2.bits) | (b1 ^ b2 ^ G.fam.beta(a1, a2).bits) << n
                assert oracle.mul(i, j) == expected


class TestTwoCentral:
    def test_quaternion_is_two_central(self):
        assert is_two_central(quaternion())

    def test_d8_is_not(self):
        assert not is_two_central(d8_oracle())

    def test_abelian_is(self):
        assert is_two_central(GroupOracle.from_table(elementary_abelian_table(3)))


class TestBuildInduced:
    def test_cyclic4_index_two(self):
        rep = build_induced(cyclic4(), [2], [-1])
        assert rep.dim == 2
        assert rep.cosets == (0, 1)

    def test_d8_induced_from_center(self):
        oracle = d8_oracle()
        b_id = oracle.phi.b_ids()[0]
        rep = build_induced(oracle, [b_id], [-1])
        assert rep.dim == 4

    def test_trivial_character_on_whole_group(self):
        q8 = quaternion()
        rep = build_induced(q8, list(range(8)), [1] * 8)
        assert rep.dim == 1
        for g in range(8):
            sp = signed_action(rep, g)
            assert sp.image == (0,) and sp.signs == (1,)

    def test_inconsistent_character_rejected(self):
        c3 = GroupOracle.from_table(cyclic_table(3))
        with pytest.raises(ValueError, match="inconsistent"):
            build_induced(c3, [1], [-1])
        with pytest.raises(ValueError, match="inconsistent"):
            build_induced(cyclic4(), [1, 3], [-1, 1])

    @pytest.mark.parametrize(
        "c_gens, chars, message",
        [
            ([7], [-1, 1], "one character value per generator required"),
            ([7], [2], "character values must be +1 or -1"),
            ([7], [-1], "element id 7 out of range"),
            ([-1], [-1], "element id -1 out of range"),
            # a duplicate generator with conflicting values is refused before the range check
            ([7, 7], [1, -1], "inconsistent character on the subgroup"),
            ([2, 2], [1, -1], "inconsistent character on the subgroup"),
            # found during the walk: chi(3) = chi(1)^3 = -1, not 1; chi(0) = 1
            ([1, 3], [-1, 1], "inconsistent character on the subgroup"),
            ([0], [-1], "inconsistent character on the subgroup"),
            # the range check comes ahead of the walk
            ([1, 3, 9], [-1, 1, 1], "element id 9 out of range"),
        ],
    )
    def test_rejection_messages_and_their_precedence(self, c_gens, chars, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_induced(cyclic4(), c_gens, chars)

    def test_subgroup_and_character_come_from_one_walk(self):
        q8 = quaternion()
        rep = build_induced(q8, [2, 4], [-1, -1])  # <i, j> = Q8, chi(k) = chi(i) chi(j) = 1
        assert rep.subgroup == tuple(range(8)) and rep.dim == 1
        assert rep.character == {0: 1, 1: 1, 2: -1, 3: -1, 4: -1, 5: -1, 6: 1, 7: 1}

    def test_coset_representatives_are_smallest_unused(self):
        e8 = GroupOracle.from_table(elementary_abelian_table(3))
        rep = build_induced(e8, [1], [-1])
        assert rep.cosets == (0, 2, 4, 6)

    def test_action_is_homomorphism(self):
        oracle = quaternion()
        rep = build_induced(oracle, [1], [-1])
        rng = random.Random(1)
        for _ in range(30):
            g, h = rng.randrange(8), rng.randrange(8)
            sp_g, sp_h = signed_action(rep, g), signed_action(rep, h)
            sp_gh = signed_action(rep, oracle.mul(g, h))
            image = tuple(sp_g.image[sp_h.image[i]] for i in range(rep.dim))
            signs = tuple(sp_h.signs[i] * sp_g.signs[sp_h.image[i]] for i in range(rep.dim))
            assert (image, signs) == (sp_gh.image, sp_gh.signs)


class TestPlusOneEigenvalue:
    def test_identity_always(self):
        rep = build_induced(cyclic4(), [2], [-1])
        assert fixed_subspace_dim(rep, [0]) > 0

    def test_cyclic4_generator_has_none(self):
        rep = build_induced(cyclic4(), [2], [-1])
        assert fixed_subspace_dim(rep, [1]) == 0

    def test_klein_diagonal_element_has_one(self):
        rep = build_induced(klein(), [1], [-1])  # induced from <x1>
        assert fixed_subspace_dim(rep, [3]) > 0  # x1 x2

    def test_agrees_with_rational_nullspace_corpus(self):
        oracles_list = [cyclic4(), quaternion(), d8_oracle(), klein()]
        reps = [
            build_induced(oracles_list[0], [2], [-1]),
            build_induced(oracles_list[1], [1], [-1]),
            build_induced(oracles_list[2], [oracles_list[2].phi.b_ids()[0]], [-1]),
            build_induced(oracles_list[3], [1], [-1]),
        ]
        for oracle, rep in zip(oracles_list, reps):
            for g in range(oracle.order):
                assert (fixed_subspace_dim(rep, [g]) > 0) == rational_has_plus_one_eigenvalue(
                    signed_action(rep, g)
                )


class TestFixedSubspaceDim:
    def test_trivial_subgroup(self):
        rep = build_induced(quaternion(), [1], [-1])
        assert fixed_subspace_dim(rep, []) == rep.dim

    def test_central_sign_generator_fixes_nothing(self):
        oracle = d8_oracle()
        b_id = oracle.phi.b_ids()[0]
        rep = build_induced(oracle, [b_id], [-1])
        assert fixed_subspace_dim(rep, [b_id]) == 0

    def test_klein_partial_fix(self):
        rep = build_induced(klein(), [1], [-1])
        assert fixed_subspace_dim(rep, [2]) == 1  # <x2> on Ind from <x1>

    def test_matches_rational_projector_trace(self):
        oracle = quaternion()
        rep = build_induced(oracle, [1], [-1])
        for gens in ([1], [2], [4], [6], [1, 2]):
            elems = oracle.closure(gens)
            expected = rational_fixed_dim([signed_action(rep, h) for h in elems])
            assert fixed_subspace_dim(rep, gens) == expected

    def test_trace_bounds(self):
        oracle = d8_oracle()
        b_id = oracle.phi.b_ids()[0]
        rep = build_induced(oracle, [b_id], [-1])
        assert rep.trace(0) == rep.dim
        assert all(abs(rep.trace(g)) <= rep.dim for g in range(oracle.order))

    def test_fourier_completeness_on_abelian_groups(self):
        # sum over all +-1 characters of the multiplicity equals the dimension
        e4 = GroupOracle.from_table(elementary_abelian_table(2))
        rep = build_induced(e4, [1], [-1])
        total = 0
        for c in range(4):
            mult = sum(
                rep.trace(g) * (-1 if bin(g & c).count("1") % 2 else 1) for g in range(4)
            )
            assert mult % 4 == 0 and mult >= 0
            total += mult // 4
        assert total == rep.dim


class TestFreeness:
    def test_cyclic4_acts_freely_on_circle(self):
        oracle = cyclic4()
        res = is_free_on_product(oracle, [build_induced(oracle, [2], [-1])])
        assert res.free and res.witness is None

    def test_quaternion_acts_freely(self):
        oracle = quaternion()
        res = is_free_on_product(oracle, [build_induced(oracle, [1], [-1])])
        assert res.free

    def test_klein_two_factor_construction_is_not_free(self):
        oracle = klein()
        reps = [build_induced(oracle, [1], [-1]), build_induced(oracle, [2], [-1])]
        res = is_free_on_product(oracle, reps)
        assert not res.free and res.witness == 3  # x1 x2 fixes a product point

    def test_free_iff_zero_isotropy(self):
        cases = []
        c4 = cyclic4()
        cases.append((c4, [build_induced(c4, [2], [-1])]))
        q8 = quaternion()
        cases.append((q8, [build_induced(q8, [1], [-1])]))
        e4 = klein()
        cases.append((e4, [build_induced(e4, [1], [-1]), build_induced(e4, [2], [-1])]))
        for oracle, reps in cases:
            free = is_free_on_product(oracle, reps).free
            assert free == (max_isotropy_rank(oracle, reps).rank == 0)



class TestElementaryAbelianSearch:
    @pytest.mark.parametrize(
        "table",
        [
            direct_product_table(quaternion_table(), elementary_abelian_table(2)),
            dihedral_table(4),
            elementary_abelian_table(3),
        ],
        ids=["q8xc2^2", "d8", "c2^3"],
    )
    def test_visits_every_subgroup_once(self, table):
        oracle = GroupOracle.from_table(table)
        seen = [frozenset({0})]

        def extend(elements, gens, coset):  # the state is the union of the cosets
            elements = elements.union(coset)
            assert len(elements) == 2 ** len(gens) == 2 * len(coset)
            assert elements == frozenset(oracle.closure(list(gens)))
            seen.append(elements)
            return elements

        pairwise_walk(oracle.mul, 0, oracle.involutions(), seen[0], extend)
        assert len(seen) == len(set(seen))
        assert set(seen) == all_elem_abelian_subgroups(oracle.mul, oracle.order)

    def test_pruned_children_are_not_expanded(self):
        oracle = GroupOracle.from_table(elementary_abelian_table(3))
        seen = []

        def extend(elements, gens, coset):
            elements = elements.union(coset)
            seen.append(elements)
            return None if len(gens) == 2 else elements

        pairwise_walk(oracle.mul, 0, oracle.involutions(), frozenset({0}), extend)
        # C2^3 has 7 subgroups of order 2 and 7 of order 4; the whole group lies below a prune
        assert sorted(len(e) for e in seen) == [2] * 7 + [4] * 7


class TestMaxIsotropyRank:
    def test_free_action_rank_zero(self):
        oracle = cyclic4()
        assert max_isotropy_rank(oracle, [build_induced(oracle, [2], [-1])]).rank == 0

    def test_trivial_reps_give_group_rank(self):
        oracle = d8_oracle()
        trivial = build_induced(oracle, list(range(8)), [1] * 8)
        res = max_isotropy_rank(oracle, [trivial])
        assert res.rank == brute_max_elem_abelian_rank(oracle.mul, 8)

    def test_desk_phi_group_against_exhaustive_enumeration(self):
        rng = random.Random(5)
        for _ in range(3):
            G = PhiGroup(random_family(3, 2, rng.getrandbits(64)))
            oracle = GroupOracle.from_phi_group(G)
            reps = [build_induced(oracle, [b], [-1]) for b in G.b_ids()]
            got = max_isotropy_rank(oracle, reps)
            best = 0
            for sub in all_elem_abelian_subgroups(oracle.mul, oracle.order):
                elems = sorted(sub)
                if all(rational_fixed_dim([signed_action(r, h) for h in elems]) > 0 for r in reps):
                    best = max(best, len(sub).bit_length() - 1)
            assert got.rank == best
            witness_elems = oracle.closure(list(got.witness_gens))
            assert all(
                fixed_subspace_dim(rep, list(got.witness_gens)) > 0 for rep in reps
            )
            assert len(witness_elems) == 1 << got.rank


# stock form-group reps: one factor per b_s, induced from <b_s> with chi(b_s) = -1
def stock(n: int, t: int, seed: int) -> tuple[GroupOracle, list]:
    G = GroupOracle.from_phi_group(PhiGroup(random_family(n, t, seed)))
    return G, [build_induced(G, [b], [-1]) for b in G.phi.b_ids()]


def generic_copy(rep):
    """The same representation with its central-C shortcut switched off."""
    clone = copy.copy(rep)
    clone.central = False
    clone._traces = {}
    return clone


def action_trace(rep, g: int) -> int:
    sp = signed_action(rep, g)
    return sum(s for i, (im, s) in enumerate(zip(sp.image, sp.signs)) if im == i)


# every (n, t) up to order 256, seeds 0 and 1
SMALL_FAMILIES = [(n, t, seed) for t in range(1, 5) for n in range(1, 9 - t) for seed in (0, 1)]
# Orders 512 and 1024.  A walk without the ceiling over t >= 2 takes at most a few
# seconds there, but over (8, 1, 0) 5 s and over (9, 1, 0) nearly 5 minutes, so the
# early stop of t = 1 is checked against rank_2(G) - 1 instead of the full walk.
LARGE_ONE_CENTRAL = [(n, 1, seed) for n in (8, 9) for seed in (0, 1)]
LARGE_MULTI_CENTRAL = [(n, t, seed) for t in (2, 3, 4) for n in (9 - t, 10 - t) for seed in (0, 1)]
TRACE_FAMILIES = [f for f in SMALL_FAMILIES + LARGE_ONE_CENTRAL + LARGE_MULTI_CENTRAL if f[2] == 0]
CEILING_FAMILIES = SMALL_FAMILIES + LARGE_MULTI_CENTRAL

Q8_C2_2 = direct_product_table(quaternion_table(), elementary_abelian_table(2))
# (table, rep specs): ids of Q8 x C2^2 are 4 * q8_id + c2_id, -1 being q8 id 1; in the
# dihedral tables s^a r^i is a * n + i
TABLE_REPS = {
    "q8xc2^2": (Q8_C2_2, [([4], [-1]), ([1], [-1]), ([5], [-1]), ([4, 1], [-1, -1]),
                          ([4, 3], [1, -1]), ([8], [-1]), ([8, 1], [-1, 1])]),
    "d8": (dihedral_table(4), [([4], [-1]), ([5], [-1]), ([4, 2], [-1, 1]), ([1], [-1]),
                               ([2], [-1])]),
    "d16": (dihedral_table(8), [([8], [-1]), ([9], [1]), ([1], [-1]), ([2], [-1]),
                                ([8, 4], [1, -1]), ([4], [-1])]),
}


def table_reps(name: str) -> tuple[GroupOracle, list]:
    table, specs = TABLE_REPS[name]
    G = GroupOracle.from_table(table)
    return G, [build_induced(G, c, x) for c, x in specs]


def symmetric_walk(n: int) -> tuple:
    """(mul, identity, involutions) of S_n, involutions in lexicographic order."""
    identity = tuple(range(n))
    invs = [p for p in permutations(identity) if p != identity and all(p[p[i]] == i for i in identity)]
    return (lambda a, b: tuple(a[i] for i in b)), identity, invs


def general_linear_walk(n: int) -> tuple:
    """(mul, identity, involutions) of GL(n, 2) on int-row matrices."""
    identity = tuple(1 << i for i in range(n))
    invs = [m for m in gl2_matrices(n) if m != identity and naive_mat_mul(m, m) == identity]
    return naive_mat_mul, identity, invs


WALKS = {**{f"s{n}": symmetric_walk(n) for n in range(1, 7)},
         **{f"gl{n}": general_linear_walk(n) for n in range(1, 4)}}


def pairwise_walk(mul, identity, invs, root, extend, ceiling=None) -> repaction.WalkResult:
    """The walk with the isotropy search's commuting relation: a pair is
    compared with two products the first time a kept child asks."""
    return elementary_abelian_search(mul, identity, invs, root, extend,
                                     _pairwise_commuting(mul, invs), ceiling)


def audit_relation(name: str):
    """The audits' bit-sliced commuting relation on the involutions of
    WALKS[name]: S_n compared on every point, GL(n, 2) on the unit vectors,
    each matrix m as its permutation x -> x m of the row vectors."""
    _, identity, invs = WALKS[name]
    n = len(identity)
    if name.startswith("s"):
        return _bit_sliced_commuting(invs, n, identity)
    perms = [tuple(fold_rows(m, x) for x in range(1 << n)) for m in invs]
    return _bit_sliced_commuting(perms, 1 << n, identity)


def without_relation(search):
    """A walk that decides commuting itself, called like the package's walk."""
    return lambda mul, identity, invs, root, extend, commuting, ceiling=None: search(
        mul, identity, invs, root, extend, ceiling
    )


def logged_walk(search, mul, identity, invs, prune_every: int = 0) -> tuple[list, list]:
    """The extend calls of one walk as (gens, elements, coset set, kept), and
    every product it took.  With prune_every = p, a subgroup holding any of
    invs[p - 1 :: p] is pruned, a condition every larger subgroup shares.
    The state is the subgroup's elements, the union of its cosets."""
    calls, products = [], []
    pruning = set(invs[prune_every - 1 :: prune_every]) if prune_every else set()

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def extend(elements, gens, coset):
        elements = elements.union(coset)
        kept = pruning.isdisjoint(elements)
        calls.append((gens, elements, frozenset(coset), kept))
        return elements if kept else None

    search(counting_mul, identity, invs, frozenset((identity,)), extend)
    return calls, products


def logged_isotropy(search, G, reps, monkeypatch) -> tuple:
    """max_isotropy_rank(G, reps) run on the given walk, with its extend calls
    and products logged as in logged_walk, those of its commuting relation
    included.  The logging state carries the elements next to the search's
    trace sums."""
    calls, products = [], []

    def counting(mul):
        def counting_mul(a, b):
            products.append((a, b))
            return mul(a, b)

        return counting_mul

    def logged_search(mul, identity, invs, root, extend, commuting, ceiling):
        def logged_extend(pair, gens, coset):
            state, elements = pair
            elements = elements.union(coset)
            child = extend(state, gens, coset)
            calls.append((gens, elements, frozenset(coset), child is not None))
            return None if child is None else (child, elements)

        pair = (root, frozenset((identity,)))
        result = search(counting(mul), identity, invs, pair, logged_extend, commuting, ceiling)
        return result._replace(state=result.state[0])

    monkeypatch.setattr(repaction, "elementary_abelian_search", logged_search)
    monkeypatch.setattr(repaction, "_pairwise_commuting",
                        lambda mul, invs: _pairwise_commuting(counting(mul), invs))
    result = max_isotropy_rank(G, reps)
    return result, calls, products


def compared_pairs(products: list) -> Counter:
    """How often each unordered pair was compared: a commuting test is a
    product ab followed at once by ba.  The products of a coset vH all have
    v on the right and never v on the left, so no two of them form such a
    turn; where a coset's last product ev is followed by the test of v
    against e, the turn read is ev, ve, the same pair."""
    pairs: Counter = Counter()
    i = 0
    while i + 1 < len(products):
        a, b = products[i]
        if a != b and products[i + 1] == (b, a):
            pairs[frozenset((a, b))] += 1
            i += 2
        else:
            i += 1
    return pairs


def assert_follows_reference(got: tuple, expected: tuple) -> None:
    """`got` and `expected` are (calls, products) of the walk and of the
    reference over the same involutions, where pruning holds for every
    larger subgroup too.  Both keep the same subgroups in the same order;
    the walk's calls are a subsequence of the reference's, and a call only
    the reference makes is one it prunes; each pair is compared once, and
    the pairs compared are the reference's."""
    calls, ref_calls = got[0], expected[0]
    assert [c for c in calls if c[3]] == [c for c in ref_calls if c[3]]
    offered = {c[1] for c in calls}
    assert [c for c in ref_calls if c[1] in offered] == calls
    assert not any(c[3] for c in ref_calls if c[1] not in offered)
    pairs = compared_pairs(got[1])
    assert max(pairs.values(), default=1) == 1
    assert set(pairs) == set(compared_pairs(expected[1]))


class TestWalkMatchesReference:
    """Without pruning, the walk makes the reference's extend calls and, with
    the pairwise relation, compares the pairs the reference compares, each
    once; with the audits' bit-sliced rows it makes the same calls and
    compares none.  Under pruning the reference still offers subgroups above
    a pruned one and prunes them there; the walk, which reaches each
    subgroup only along its canonical path, skips them."""

    @pytest.mark.parametrize("prune_every", [0, 3])
    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_audit_groups(self, name, prune_every):
        mul, identity, invs = WALKS[name]
        got = logged_walk(pairwise_walk, mul, identity, invs, prune_every)
        expected = logged_walk(reference_elementary_abelian_search, mul, identity, invs, prune_every)
        if not prune_every:
            assert got[0] == expected[0]
        assert_follows_reference(got, expected)
        assert all(pair <= set(invs) for pair in compared_pairs(got[1]))

    @pytest.mark.parametrize("prune_every", [0, 3])
    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_no_subgroup_is_offered_twice(self, name, prune_every):
        calls, _ = logged_walk(pairwise_walk, *WALKS[name], prune_every)
        assert len({c[1] for c in calls}) == len(calls)

    def test_the_reference_compares_some_pairs_again(self):
        mul, identity, invs = WALKS["s6"]
        calls, ref_products = logged_walk(reference_elementary_abelian_search, mul, identity, invs)
        _, products = logged_walk(pairwise_walk, mul, identity, invs)
        assert max(compared_pairs(ref_products).values()) > 1
        assert len(products) < len(ref_products)
        # and the pruning walks above do prune: fewer subgroups are offered
        assert len(logged_walk(pairwise_walk, mul, identity, invs, 3)[0]) < len(calls)

    @pytest.mark.parametrize("name", ["s6", "gl3"])
    def test_the_walk_takes_fewer_coset_products(self, name):
        """A child reached first along another path stops at the first coset
        element listed before its generator, where the reference builds the
        whole coset and looks the union up: fewer products in all, and fewer
        outside the commuting tests."""
        _, products = logged_walk(pairwise_walk, *WALKS[name])
        _, ref_products = logged_walk(reference_elementary_abelian_search, *WALKS[name])
        assert len(products) < len(ref_products)
        tests = 2 * sum(compared_pairs(products).values())
        ref_tests = 2 * sum(compared_pairs(ref_products).values())
        assert len(products) - tests < len(ref_products) - ref_tests

    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_the_audits_relation_takes_no_product(self, name):
        """The audits' bit-sliced rows give the walk the same extend calls as
        the pairwise relation, and the walk takes only its coset products."""
        mul, identity, invs = WALKS[name]
        relation = audit_relation(name)
        calls, products = logged_walk(
            lambda *args: elementary_abelian_search(*args, relation), mul, identity, invs
        )
        pairwise_calls, pairwise_products = logged_walk(pairwise_walk, mul, identity, invs)
        assert calls == pairwise_calls
        tests = 2 * sum(compared_pairs(pairwise_products).values())
        assert len(products) == len(pairwise_products) - tests

    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_the_result_is_read_off_the_reference_calls(self, name):
        """Without pruning the walk reaches one subgroup per reference call
        and the trivial one, and keeps the first of largest rank."""
        mul, identity, invs = WALKS[name]
        calls, _ = logged_walk(reference_elementary_abelian_search, mul, identity, invs)
        args = (mul, identity, invs, frozenset((identity,)),
                lambda elements, gens, coset: elements.union(coset))
        result = pairwise_walk(*args)
        assert result.subgroups == len(calls) + 1
        top = max((len(c[0]) for c in calls), default=0)
        first = next((c for c in calls if len(c[0]) == top), ((), frozenset((identity,))))
        assert result[:3] == (top, first[0], first[1])
        assert reference_elementary_abelian_search(*args) == result

    @pytest.mark.parametrize("prune_every", [0, 3])
    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_a_ceiling_stops_at_the_first_kept_subgroup_of_its_rank(self, name, prune_every):
        """With a ceiling r the walk makes the full walk's calls up to the
        first kept subgroup of rank r and returns it, the subgroup at which
        the incumbent of the full walk first reaches r; the trivial subgroup
        reaches 0, so a ceiling of 0 makes no call.  A ceiling above the
        largest rank runs the full walk."""
        mul, identity, invs = WALKS[name]
        pruning = set(invs[prune_every - 1 :: prune_every]) if prune_every else set()

        def run(ceiling):
            calls = []

            def extend(elements, gens, coset):
                elements = elements.union(coset)
                kept = pruning.isdisjoint(elements)
                calls.append((gens, elements, kept))
                return elements if kept else None

            result = pairwise_walk(mul, identity, invs, frozenset((identity,)), extend, ceiling)
            return calls, result

        full, whole = run(None)
        for ceiling in range(whole.rank + 1):
            calls, result = run(ceiling)
            stop = next((i for i, (gens, _, kept) in enumerate(full)
                         if kept and len(gens) == ceiling), -1)
            assert calls == full[: stop + 1]
            assert result.rank == ceiling and result.subgroups == len(calls) + 1
            witness = full[stop][:2] if ceiling else ((), frozenset((identity,)))
            assert (result.gens, result.state) == witness
        assert run(whole.rank + 1) == (full, whole)

    @pytest.mark.parametrize("case", SMALL_FAMILIES + sorted(TABLE_REPS), ids=str)
    def test_the_isotropy_search_lists_each_involution_once(self, case, monkeypatch):
        """The walk's canonical rule reads each involution's one position."""
        G, reps = table_reps(case) if case in TABLE_REPS else stock(*case)
        walk, lists = repaction.elementary_abelian_search, []

        def recording_walk(mul, identity, invs, *args):
            lists.append(invs)
            return walk(mul, identity, invs, *args)

        monkeypatch.setattr(repaction, "elementary_abelian_search", recording_walk)
        max_isotropy_rank(G, reps)
        assert len(lists) == 1 and len(set(lists[0])) == len(lists[0])

    @pytest.mark.parametrize("ceiling", [True, False], ids=["ceiling", "full"])
    @pytest.mark.parametrize("case", SMALL_FAMILIES + sorted(TABLE_REPS), ids=str)
    def test_isotropy_walks(self, case, ceiling, monkeypatch):
        G, reps = table_reps(case) if case in TABLE_REPS else stock(*case)
        factor_sets = [reps] + ([[rep] for rep in reps] if case in TABLE_REPS else [])
        walk = repaction.elementary_abelian_search
        if not ceiling:
            monkeypatch.setattr(repaction, "_isotropy_ceiling", lambda *args: None)
        for factors in factor_sets:
            result, *got = logged_isotropy(walk, G, factors, monkeypatch)
            ref_result, *expected = logged_isotropy(
                without_relation(reference_elementary_abelian_search), G, factors, monkeypatch
            )
            assert result == ref_result
            assert_follows_reference(got, expected)

    @pytest.mark.parametrize(
        "case, rank, witness",
        [
            ((8, 3, 0), 4, (2, 41, 43, 1280)),
            ((7, 4, 0), 5, (4, 32, 384, 640, 1152)),
            ((9, 2, 0), 5, (29, 41, 74, 99, 389)),
        ],
        ids=str,
    )
    def test_order_2048_witnesses(self, case, rank, witness):
        """Past the reach of the reference, the stock reps keep the rank and
        the witness the visited-set walk found."""
        assert max_isotropy_rank(*stock(*case)) == (rank, witness)


class TestFrobeniusTraces:
    @pytest.mark.parametrize("n, t, seed", TRACE_FAMILIES, ids=str)
    def test_stock_reps_take_the_central_path_and_match_the_action(self, n, t, seed):
        G, reps = stock(n, t, seed)
        for rep in reps:
            assert rep.central
            generic = generic_copy(rep)
            for g in range(G.order):
                expected = action_trace(rep, g)
                assert rep.trace(g) == generic.trace(g) == expected

    @pytest.mark.parametrize("name", sorted(TABLE_REPS))
    def test_table_reps_match_the_action(self, name):
        G, reps = table_reps(name)
        for rep in reps:
            generic = generic_copy(rep)
            for g in range(G.order):
                assert rep.trace(g) == generic.trace(g) == action_trace(rep, g)

    def test_both_paths_are_covered(self):
        central = {name: [rep.central for rep in table_reps(name)[1]] for name in TABLE_REPS}
        assert central == {
            "q8xc2^2": [True] * 5 + [False] * 2,
            "d8": [False, False, False, False, True],
            "d16": [False, False, False, False, False, True],
        }

    @pytest.mark.parametrize("name", sorted(TABLE_REPS) + ["stock"])
    def test_plus_one_eigenvalue_matches_rational_nullspace(self, name):
        if name == "stock":  # dimension at most 16, where the rational oracle is quick
            pairs = [stock(n, t, seed) for n, t, seed in SMALL_FAMILIES if n + t <= 5]
        else:
            pairs = [table_reps(name)]
        for G, reps in pairs:
            for rep in reps:
                for g in range(G.order):
                    expected = rational_has_plus_one_eigenvalue(signed_action(rep, g))
                    assert (fixed_subspace_dim(rep, [g]) > 0) == expected
                    assert (fixed_subspace_dim(generic_copy(rep), [g]) > 0) == expected

    def test_central_test_reads_the_generators(self):
        q8, d8 = quaternion(), GroupOracle.from_table(dihedral_table(4))
        assert [q8.is_central(g) for g in range(8)] == [True, True] + [False] * 6
        assert [d8.is_central(g) for g in range(8)] == [g in (0, 2) for g in range(8)]
        assert d8_oracle().generators == [1, 2, 4]
        # from either source the generators generate, and phi marks a form group;
        # orders 64 and 512 are validated, 1024 and 4096 taken on trust
        for table in (elementary_abelian_table(3), quaternion_table(), dihedral_table(8)):
            oracle = GroupOracle.from_table(table)
            assert oracle.phi is None
            assert oracle.closure(list(oracle.generators)) == list(range(oracle.order))
        for n, t, seed in [(4, 2, 3), (6, 3, 0), (8, 2, 0), (10, 2, 0)]:
            G = PhiGroup(random_family(n, t, seed))
            oracle = GroupOracle.from_phi_group(G)
            assert oracle.phi is G
            assert oracle.closure(list(oracle.generators)) == list(range(oracle.order))


class TestIsotropyCeiling:
    @pytest.mark.parametrize("n, t, seed", CEILING_FAMILIES, ids=str)
    def test_early_stop_returns_the_full_walk(self, n, t, seed, monkeypatch):
        G, reps = stock(n, t, seed)
        ceiling = repaction._isotropy_ceiling(G, reps, G.involutions())
        assert ceiling == group_rank(G.phi) - 1
        fast = max_isotropy_rank(G, reps)
        monkeypatch.setattr(repaction, "_isotropy_ceiling", lambda *args: None)
        assert max_isotropy_rank(G, reps) == fast
        assert fast.rank == ceiling

    @pytest.mark.parametrize("n, t, seed", LARGE_ONE_CENTRAL, ids=str)
    def test_early_stop_of_one_central_sign_reaches_the_bound(self, n, t, seed):
        G, reps = stock(n, t, seed)
        res = max_isotropy_rank(G, reps)
        assert res.rank == t + max_isotropic_qzero(G.phi.fam, "exhaustive").dim - 1
        gens = res.witness_gens
        # commuting involutions that generate 2^rank elements: an elementary abelian witness
        assert all(G.mul(g, g) == 0 for g in gens)
        assert all(G.mul(g, h) == G.mul(h, g) for g in gens for h in gens)
        assert len(G.closure(list(gens))) == 1 << res.rank
        assert all(fixed_subspace_dim(rep, list(gens)) > 0 for rep in reps)

    def test_no_minus_one_without_a_central_sign(self):
        G = d8_oracle()
        trivial = build_induced(G, list(range(8)), [1] * 8)
        assert repaction._isotropy_ceiling(G, [trivial], G.involutions()) == group_rank(G.phi) == 2
        q8 = quaternion()  # one involution, -1: rank_2(Q8) = 1
        assert repaction._isotropy_ceiling(q8, [], q8.involutions()) == 1
        assert repaction._isotropy_ceiling(q8, [build_induced(q8, [1], [-1])], [1]) == 0

    @pytest.mark.parametrize(
        "name", sorted(TABLE_REPS) + [f"c2^{r}" for r in range(1, 7)]
    )
    def test_table_ceiling_returns_the_full_walk(self, name, monkeypatch):
        if name.startswith("c2^"):
            G = GroupOracle.from_table(elementary_abelian_table(int(name[3:])))
            factor_sets = [[build_induced(G, [1], [-1])]]
        else:
            G, reps = table_reps(name)
            factor_sets = [[rep] for rep in reps] + [reps]
        fast = [max_isotropy_rank(G, reps) for reps in factor_sets]
        ceilings = [repaction._isotropy_ceiling(G, reps, G.involutions()) for reps in factor_sets]
        monkeypatch.setattr(repaction, "_isotropy_ceiling", lambda *args: None)
        assert [max_isotropy_rank(G, reps) for reps in factor_sets] == fast
        assert all(res.rank <= ceiling for res, ceiling in zip(fast, ceilings))
        if name.startswith("c2^"):  # <1> acts as -1, so the ceiling r - 1 is the answer
            assert fast[0].rank == ceilings[0] == int(name[3:]) - 1

    @pytest.mark.parametrize(
        "seed, witness", [(0, (29, 41, 74, 99, 389)), (1, (20, 66, 132, 267, 329))]
    )
    def test_order_2048_answers_are_pinned(self, seed, witness):
        G, reps = stock(9, 2, seed)
        assert max_isotropy_rank(G, reps) == (5, witness)

    def test_order_4096_finishes_in_desk_time(self):
        G, reps = stock(10, 2, 0)
        start = time.perf_counter()
        res = max_isotropy_rank(G, reps)
        assert time.perf_counter() - start < 20  # under 0.1 s with the ceiling, 161 s without
        assert res == (5, (1, 40, 84, 414, 438))


class TestFormGroupBuild:
    @pytest.mark.parametrize("n, t, seed", SMALL_FAMILIES + [(8, 1, 0), (6, 3, 0)], ids=str)
    def test_rows_are_the_cayley_table_of_mul(self, n, t, seed):
        G = PhiGroup(random_family(n, t, seed))
        order = G.order
        assert G.rows() == [tuple(G.mul(g, h) for h in range(order)) for g in range(order)]

    def test_oracle_is_validated_on_the_rows(self, monkeypatch):
        G = PhiGroup(random_family(4, 2, 3))
        seen = []
        validate = repaction._validate
        monkeypatch.setattr(repaction, "_validate", lambda rows: seen.append(rows) or validate(rows))
        GroupOracle.from_phi_group(G)
        assert seen == [[tuple(G.mul(g, h) for h in range(G.order)) for g in range(G.order)]]

    @pytest.mark.parametrize("flip", ["a", "b"])
    def test_a_wrong_product_is_refused(self, flip, monkeypatch):
        G = PhiGroup(random_family(4, 2, 3))
        mul = G.mul
        wrong = 1 if flip == "a" else 1 << G.n  # one a-bit, or b_0

        def corrupted(i, j):
            return mul(i, j) ^ wrong if (i, j) == (3, 5) else mul(i, j)

        monkeypatch.setattr(G, "mul", corrupted)
        with pytest.raises(ValueError):
            GroupOracle.from_phi_group(G)

    def test_validated_oracle_keeps_no_table(self):
        G = GroupOracle.from_phi_group(PhiGroup(random_family(6, 3, 0)))
        assert G.order == 512
        assert set(vars(G)) == {"order", "mul", "phi", "generators"}

    def test_coset_table_is_built_on_first_use(self):
        G, reps = stock(10, 2, 0)
        assert max_isotropy_rank(G, reps).rank == 5
        assert all("_coset_table" not in vars(rep) for rep in reps)
        generic = generic_copy(reps[0])
        assert generic.trace(3) == 0 and "_coset_table" in vars(generic)
        assert "_coset_table" not in vars(reps[0])
        assert len(reps[0].cosets) == reps[0].dim == 2048
        assert "_coset_table" in vars(reps[0])
