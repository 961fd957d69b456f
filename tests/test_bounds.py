from itertools import permutations

import pytest

from sphererank import bounds, repaction
from sphererank.bounds import (
    HEADLINE_GUARD,
    CarlssonBound,
    _compose,
    _perm_involutions,
    browder_min_m,
    carlsson_min_m,
    free_rank_rp,
    gl_rank_audit,
    headline_report,
    olshanskii_condition,
    perm_rank_audit,
)
from sphererank.errors import GuardExceeded

from oracles import all_elem_abelian_subgroups, gl2_table, perm_orbits


def symmetric_table(n: int) -> list[list[int]]:
    """Cayley table of S_n on the permutations in lexicographic order, the
    identity first: (a * b)(i) = a(b(i))."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]


def walk_arguments(audit, n: int, monkeypatch) -> tuple[list, object]:
    """The involutions and the commuting relation that audit(n) hands the walk."""
    search = repaction.elementary_abelian_search
    seen = []

    def recording_search(mul, identity, invs, root, extend, commuting):
        seen.append((invs, commuting))
        return search(mul, identity, invs, root, extend, commuting)

    monkeypatch.setattr(repaction, "elementary_abelian_search", recording_search)
    audit(n)
    return seen[0]


def logged_walk(audit, n: int, monkeypatch) -> tuple[object, list, object]:
    """audit(n), (gens, elements, state) of every subgroup its walk offers,
    the trivial one first with the root state, each other with the state its
    extend returns, and the walk's result.  The logging state carries the
    elements, the union of the cosets, next to the audit's own."""
    search = repaction.elementary_abelian_search
    log, results = [], []

    def logging_search(mul, identity, invs, root, extend, commuting):
        def logged(pair, gens, coset):
            state, elements = pair
            elements = elements.union(coset)
            child = extend(state, gens, coset)
            log.append((gens, elements, child))
            return None if child is None else (child, elements)

        identity_set = frozenset((identity,))
        log.append(((), identity_set, root))
        result = search(mul, identity, invs, (root, identity_set), logged, commuting)
        results.append(result._replace(state=result.state[0]))
        return results[-1]

    monkeypatch.setattr(repaction, "elementary_abelian_search", logging_search)
    return audit(n), log, results[-1]


class TestFreeRankRp:
    @pytest.mark.parametrize("m,n,expected", [(3, 5, 10), (2, 9, 0), (5, 3, 3)])
    def test_examples(self, m, n, expected):
        assert free_rank_rp(m, n) == expected

    def test_three_case_formula_grid(self):
        for m in range(1, 13):
            for n in range(1, 6):
                expected = {0: 0, 1: n, 2: 0, 3: 2 * n}[m % 4]
                assert free_rank_rp(m, n) == expected

    def test_depends_only_on_residue_and_linear_in_n(self):
        for m in range(1, 9):
            assert free_rank_rp(m, 4) == free_rank_rp(m + 4, 4)
            assert free_rank_rp(m, 6) == 2 * free_rank_rp(m, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            free_rank_rp(0, 1)


class TestBrowder:
    @pytest.mark.parametrize("dim_gv,t,expected", [(1199, 100, 11), (5, 5, 0), (7, 3, 2)])
    def test_examples(self, dim_gv, t, expected):
        assert browder_min_m(dim_gv, t) == expected

    def test_least_consistent_value(self):
        for dim_gv in range(1, 40):
            for t in range(1, 10):
                m = browder_min_m(dim_gv, t)
                assert dim_gv <= (m + 1) * t
                if m > 0:
                    assert dim_gv > m * t


class TestCarlsson:
    def test_headline_values(self):
        bound = carlsson_min_m(1199, 100)
        assert bound.paper_weak == 2047 == 2**11 - 1
        assert bound.exact == 4067
        assert 4068**100 >= 2**1199 > 4067**100

    def test_diagonal(self):
        assert carlsson_min_m(7, 7).exact == 1

    def test_two_sided_certificate_grid(self):
        for dim_gv in range(1, 60, 3):
            for t in range(1, 8):
                exact, weak = carlsson_min_m(dim_gv, t)
                assert (exact + 1) ** t >= 2**dim_gv
                if exact >= 1:
                    assert exact**t < 2**dim_gv
                assert exact >= weak

    def test_browder_below_carlsson(self):
        for t in range(1, 8):
            for dim_gv in range(2 * t, 12 * t, t):
                assert browder_min_m(dim_gv, t) <= carlsson_min_m(dim_gv, t).exact


class TestOlshanskiiCondition:
    def test_headline_holds(self):
        assert olshanskii_condition(1249, 50, 51)

    def test_boundary_fails(self):
        assert not olshanskii_condition(1250, 50, 51)

    def test_desk_instance(self):
        assert olshanskii_condition(5, 4, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            olshanskii_condition(0, 1, 1)


class TestHeadlineReport:
    def test_headline_instance(self):
        rep = headline_report(1249, 50, 51)
        assert rep.condition_holds
        assert rep.T_bound == 100 and rep.N_bound == 1199
        assert rep.sphere_dim == 2**1298 - 1
        assert rep.browder_min_m == 11
        assert rep.carlsson_min_m == CarlssonBound(4067, 2047)

    def test_d8_instance(self):
        rep = headline_report(2, 1, 2)
        assert rep.T_bound == 2 and rep.N_bound == 1 and rep.sphere_dim == 3

    def test_degenerate_instance(self):
        rep = headline_report(1, 1, 1)
        assert rep.T_bound == 1 and rep.N_bound == 1 and rep.sphere_dim == 1

    def test_k_beyond_n_plus_one_rejected(self):
        assert headline_report(5, 4, 6).N_bound == 0
        with pytest.raises(ValueError, match="k must be at most n \\+ 1"):
            headline_report(5, 4, 100)

    def test_guard(self):
        assert headline_report(HEADLINE_GUARD - 1, 1, 1).N_bound == HEADLINE_GUARD - 1
        with pytest.raises(GuardExceeded):
            headline_report(HEADLINE_GUARD, 1, 1)

    def test_arithmetic_identities(self):
        for n, t, k in [(10, 3, 4), (33, 7, 9), (1249, 50, 51)]:
            rep = headline_report(n, t, k)
            assert rep.T_bound + rep.N_bound == n + t
            assert rep.sphere_dim + 1 == 1 << (n + t - 1)


class TestPermRankAudit:
    def test_two_points(self):
        res = perm_rank_audit(2)
        assert res.ok and res.worst_rank == 1 and res.worst_orbits == 1

    def test_four_points(self):
        res = perm_rank_audit(4)
        assert res.ok and res.worst_rank == 2 and res.worst_orbits == 2

    def test_every_n_within_guard(self):
        for n in range(8):
            assert perm_rank_audit(n).ok

    @pytest.mark.parametrize("n", range(6))
    def test_every_subgroup_is_checked_once(self, n):
        table = symmetric_table(n)
        subgroups = all_elem_abelian_subgroups(lambda i, j: table[i][j], len(table))
        assert perm_rank_audit(n).subgroups_checked == len(subgroups)

    @pytest.mark.parametrize("n", range(8))
    def test_every_state_counts_its_subgroups_orbits(self, n, monkeypatch):
        """Burnside: the state of H, the points moved summed over its
        elements, is |H| (n - orbits), with the orbits of a union-find over
        the elements; the worst case reports the first subgroup of top rank."""
        res, log, walk = logged_walk(perm_rank_audit, n, monkeypatch)
        assert len(log) == res.subgroups_checked == walk.subgroups
        for gens, elements, total in log:
            assert len(elements) == 1 << len(gens)
            assert total == (n - perm_orbits(elements, n)) * len(elements), gens
        first_worst = next(entry for entry in log if len(entry[0]) == res.worst_rank)
        assert (walk.gens, walk.state) == (first_worst[0], first_worst[2])
        assert res.worst_orbits == perm_orbits(first_worst[1], n)

    @pytest.mark.parametrize("n", range(9))
    def test_involutions_are_the_filtered_permutations(self, n):
        """The transposition products, against the n! permutations filtered
        for p p = 1, in the order `permutations` lists them."""
        identity = tuple(range(n))
        expected = [p for p in permutations(identity)
                    if p != identity and all(p[p[i]] == i for i in identity)]
        assert _perm_involutions(n) == expected

    def test_seven_points_worst_case(self):
        res = perm_rank_audit(7)
        assert res.worst_rank == 3 and res.worst_orbits == 4  # three disjoint swaps

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            perm_rank_audit(8)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            perm_rank_audit(-1)


class TestGlRankAudit:
    @pytest.mark.parametrize("n,expected_rank", [(1, 0), (2, 1), (3, 2)])
    def test_small(self, n, expected_rank):
        res = gl_rank_audit(n)
        assert res.max_rank_found == expected_rank
        assert res.max_rank_found <= res.bound

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_subgroup_is_checked_once(self, n):
        table = gl2_table(n)
        subgroups = all_elem_abelian_subgroups(lambda i, j: table[i][j], len(table))
        assert gl_rank_audit(n).subgroups_checked == len(subgroups)

    def test_four_by_four(self):
        assert gl_rank_audit(4) == (4, 4, 2656)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            gl_rank_audit(5)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            gl_rank_audit(-1)


class TestBitSlicedCommuting:
    """The relation both audits hand the walk, read off bit-sliced rows built
    with no product, against two products on every ordered pair."""

    @pytest.mark.parametrize(
        "audit, n",
        [pytest.param(perm_rank_audit, n, id=f"s{n}") for n in range(8)]
        + [pytest.param(gl_rank_audit, n, id=f"gl{n}") for n in range(5)],
    )
    def test_every_ordered_pair(self, audit, n, monkeypatch):
        invs, commuting = walk_arguments(audit, n, monkeypatch)
        assert (len(invs) == 0) == (n <= 1)
        assert len(set(invs)) == len(invs)  # the walk reads one position per involution
        everyone = list(range(len(invs)))
        for k, v in enumerate(invs):
            expected = [j for j, w in enumerate(invs) if _compose(v, w) == _compose(w, v)]
            assert commuting(k, everyone) == expected

    @pytest.mark.parametrize(
        "audit, n, result, products",
        [(gl_rank_audit, 4, (4, 4, 2656), 26958),
         (perm_rank_audit, 7, (True, 3, 4, 1317), 8445)],
        ids=["gl4", "s7"],
    )
    def test_every_product_is_a_coset_product(self, audit, n, result, products, monkeypatch):
        count = 0

        def counting(a, b):
            nonlocal count
            count += 1
            return _compose(a, b)

        monkeypatch.setattr(bounds, "_compose", counting)
        assert audit(n) == result
        assert count == products
