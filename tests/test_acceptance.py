"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived were computed with the independent
oracles in oracles.py and frozen here.
"""

import json
import os
import random
import subprocess
import sys
import time

from sphererank.bounds import browder_min_m, carlsson_min_m, free_rank_rp, gl_rank_audit, perm_rank_audit
from sphererank.cli import dispatch
from sphererank.forms import (
    QuadraticSystem,
    common_zero_quadratics,
    quadratic_refinement,
    random_family,
)
from sphererank.gf2 import BitMatrix, BitVector, _echelon_bits
from sphererank.phigroup import (
    PhiGroup,
    extension_profile,
    group_rank,
    max_isotropic_qzero,
    search_forms,
)
from sphererank.polyalg import GradedPoly, IdealGens, is_regular_sequence, quotient_total_dim
from sphererank.repaction import (
    GroupOracle,
    build_induced,
    cyclic_table,
    elementary_abelian_table,
    fixed_subspace_dim,
    is_free_on_product,
    quaternion_table,
)

from oracles import (
    apply_linear,
    brute_max_elem_abelian_rank,
    dihedral_table,
    enumerate_subspaces,
    family,
    form_value_bits,
    naive_poly_values,
    rational_has_plus_one_eigenvalue,
    signed_action,
    tables_isomorphic,
    zero_family,
)


def _pass(num: int, message: str) -> None:
    print(f"[criterion {num:02d}] PASS — {message}", flush=True)


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(list(argv))
    return code, json.loads(buf.getvalue())


def phi_table(G: PhiGroup):
    return [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)]


def test_criterion_01_headline_arithmetic():
    t0 = time.monotonic()
    code, report = run_cli("bounds", "headline", "--n", "1249", "--t", "50", "--k", "51")
    elapsed = time.monotonic() - t0
    assert code == 0
    res = report["result"]
    assert res["condition_holds"] is True
    assert res["T_bound"] == 100
    assert res["N_bound"] == 1199
    assert int(res["sphere_dim"]) == 2**1298 - 1
    assert elapsed < 1.0
    _pass(1, f"headline T=100 N=1199 sphere_dim=2^1298-1 in {elapsed:.3f}s")


def test_criterion_02_browder_carlsson_numbers():
    t0 = time.monotonic()
    assert browder_min_m(1199, 100) == 11
    bound = carlsson_min_m(1199, 100)
    assert bound.paper_weak == 2**11 - 1 == 2047
    assert bound.exact == 4067
    assert 4068**100 >= 2**1199 > 4067**100  # two-sided big-integer certificate
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(2, f"browder=11, carlsson weak=2047 exact=4067 certified in {elapsed:.3f}s")


def test_criterion_03_d8_oracle_equivalence():
    t0 = time.monotonic()
    G = PhiGroup(family(["01", "10"]))
    table = phi_table(G)
    assert tables_isomorphic(table, dihedral_table(4))
    brute_rank = brute_max_elem_abelian_rank(lambda i, j: table[i][j], 8)
    assert group_rank(G) == 2 == brute_rank
    profile = extension_profile(G)
    assert (profile.T, profile.N) == (2, 1)
    assert profile.T == brute_rank  # maximal elementary abelian is the chosen V
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(3, f"D8 isomorphism, rank 2, profile (T=2,N=1) in {elapsed:.3f}s")


def test_criterion_04_group_law_property_suite():
    rng = random.Random(20240)
    failures = 0
    triples = 0
    for _ in range(100):
        total = rng.randint(2, 64)
        n = rng.randint(1, total - 1)
        t = total - n
        G = PhiGroup(random_family(n, t, rng.getrandbits(64)))
        amask = (1 << n) - 1
        for _ in range(100):
            g, h, k = (rng.getrandbits(n) | rng.getrandbits(t) << n for _ in range(3))
            ga, ha = BitVector(n, g & amask), BitVector(n, h & amask)
            q_g = quadratic_refinement(G.fam, ga)
            triples += 1
            if G.mul(G.mul(g, h), k) != G.mul(g, G.mul(h, k)):
                failures += 1
            sq = G.mul(g, g)
            if sq & amask or BitVector(t, sq >> n) != q_g:
                failures += 1
            gh, hg = G.mul(g, h), G.mul(h, g)
            cross = BitVector(t, sum(form_value_bits(gram, ga.bits, ha.bits) << s
                                     for s, gram in enumerate(G.fam.grams)))
            if (gh ^ hg) & amask or BitVector(t, (gh ^ hg) >> n) != cross:
                failures += 1
            if G.mul(g, g ^ q_g.bits << n) != 0:  # (a, b)^-1 = (a, b + q(a))
                failures += 1
    assert triples == 10_000 and failures == 0
    _pass(4, "10^4 associativity/square/commutator/inverse checks, zero failures")


def test_criterion_05_rank_formula_oracle_equivalence():
    rng = random.Random(555)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 7)
        t = rng.randint(1, 8 - n)
        fam = random_family(n, t, rng.getrandbits(64))
        if all(all(b == 0 for b in gram) for gram in fam.grams):
            continue  # the all-zero (abelian) case is pinned deterministically below
        G = PhiGroup(fam)
        table = phi_table(G)
        assert group_rank(G) == brute_max_elem_abelian_rank(lambda i, j: table[i][j], G.order)
        checked += 1
    # abelian edge case: every form zero means the group is (Z/2)^(n+t)
    Gz = PhiGroup(zero_family(4, 2))
    tz = phi_table(Gz)
    assert group_rank(Gz) == 6 == brute_max_elem_abelian_rank(lambda i, j: tz[i][j], 64)
    # branch and bound agrees with the exhaustive mode on n <= 10 instances
    agreements = 0
    for n in range(1, 11):
        fam = random_family(n, rng.randint(2, 4), rng.getrandbits(64))
        ex = max_isotropic_qzero(fam, mode="exhaustive").dim
        bb = max_isotropic_qzero(fam, mode="branch_and_bound").dim
        assert ex == bb
        agreements += 1
    _pass(5, f"50 brute-force rank agreements; bnb = exhaustive on {agreements} instances n<=10")


def test_criterion_06_olshanskii_desk_instance():
    res = search_forms(5, 4, 4, trials=10_000, seed=0)
    assert res.condition_holds  # 2*5 < 4*(4-1)
    assert res.family is not None
    fam = res.family
    # independent exhaustive verification straight from the definitions
    for d in (4, 5):
        for basis in enumerate_subspaces(5, d):
            ok = all(quadratic_refinement(fam, BitVector(5, u)).bits == 0 for u in basis) and all(
                form_value_bits(gram, basis[i], basis[j]) == 0
                for i in range(len(basis))
                for j in range(i + 1, len(basis))
                for gram in fam.grams
            )
            assert not ok, f"dimension {d} q-zero isotropic subspace exists"
    assert group_rank(PhiGroup(fam)) <= 4 + 4 - 1
    _pass(6, f"search found family at trial {res.trial_index}; no q-zero isotropic dim >= 4")


def test_criterion_07_chevalley_warning_suite():
    t0 = time.monotonic()
    rng = random.Random(777)
    for q in (1, 2, 3):
        v = 2 * q + 1
        monos = [(i, i) for i in range(v)] + [
            (i, j) for i in range(v) for j in range(i + 1, v)
        ]
        for _ in range(1000):
            polys = [[m for m in monos if rng.random() < 0.5] for _ in range(q)]
            zero = common_zero_quadratics(QuadraticSystem.from_lists(v, polys))
            assert zero is not None and zero.bits != 0
            assert naive_poly_values(polys, zero.bits) == (0,) * q
    # sharpness: the anisotropic binary form has no nonzero zero
    aniso = QuadraticSystem.from_lists(2, [[(0, 0), (0, 1), (1, 1)]])
    assert common_zero_quadratics(aniso) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _pass(7, f"3x10^3 quadratic systems in 2q+1 vars all vanish somewhere, in {elapsed:.1f}s")


def test_criterion_08_regular_sequences_and_dimension():
    rng = random.Random(88)
    for n in (1, 2, 3):
        for m in range(1, 5):
            gens = tuple(GradedPoly.linear(n, BitVector(n, 1 << i)).power(m + 1) for i in range(n))
            ideal = IdealGens(n, gens)
            assert is_regular_sequence(ideal)
            assert quotient_total_dim(ideal) == (m + 1) ** n
            for _ in range(20):
                while True:
                    mat = BitMatrix.from_bits(n, n, [rng.getrandbits(n) for _ in range(n)])
                    if len(_echelon_bits(mat.row_data)) == n:
                        break
                moved = IdealGens(n, tuple(apply_linear(g, mat) for g in gens))
                assert is_regular_sequence(moved)
    _pass(8, "power ideals regular with total dim (m+1)^n, stable under 20 GL changes each")


def _eigen_corpus():
    c4 = GroupOracle.from_table(cyclic_table(4))
    q8 = GroupOracle.from_table(quaternion_table())
    d8 = GroupOracle.from_phi_group(PhiGroup(family(["01", "10"])))
    e4 = GroupOracle.from_table(elementary_abelian_table(2))
    desk = GroupOracle.from_phi_group(PhiGroup(random_family(3, 2, 31337)))
    corpus = [
        (c4, [build_induced(c4, [2], [-1])]),
        (q8, [build_induced(q8, [1], [-1])]),
        (d8, [build_induced(d8, [d8.phi.b_ids()[0]], [-1])]),
        (e4, [build_induced(e4, [1], [-1]), build_induced(e4, [2], [-1])]),
        (desk, [build_induced(desk, [b], [-1]) for b in desk.phi.b_ids()]),
    ]
    return corpus


def test_criterion_09_freeness_checker_vs_eigen_oracle():
    corpus = _eigen_corpus()
    checked = 0
    for oracle, reps in corpus:
        for rep in reps:
            for g in range(oracle.order):
                assert (fixed_subspace_dim(rep, [g]) > 0) == rational_has_plus_one_eigenvalue(
                    signed_action(rep, g)
                )
                checked += 1
    c4, q8, e4 = corpus[0], corpus[1], corpus[3]
    assert is_free_on_product(*c4).free is True
    assert is_free_on_product(*q8).free is True
    # the rank-two elementary abelian construction: record the checker verdict,
    # asserting only agreement with the independent rational oracle
    e_oracle, e_reps = e4
    verdict = is_free_on_product(e_oracle, e_reps)
    oracle_witnesses = [
        g
        for g in range(1, e_oracle.order)
        if all(rational_has_plus_one_eigenvalue(signed_action(rep, g)) for rep in e_reps)
    ]
    assert verdict.free == (not oracle_witnesses)
    if oracle_witnesses:
        assert verdict.witness == min(oracle_witnesses)
    recorded = (
        f"free={verdict.free}, witness={verdict.witness}"
        if not verdict.free
        else "free=True"
    )
    _pass(9, f"{checked} eigen-oracle agreements; rank-2 construction recorded: {recorded}")


def test_criterion_10_projective_free_rank_grid():
    for m in range(1, 13):
        for n in range(1, 6):
            expected = {0: 0, 1: n, 2: 0, 3: 2 * n}[m % 4]
            assert free_rank_rp(m, n) == expected
    _pass(10, "free 2-rank of symmetry grid m in 1..12, n in 1..5 matches the 3-case formula")


def test_criterion_11_rank_audits():
    t0 = time.monotonic()
    for n in range(1, 7):
        assert perm_rank_audit(n).ok
    found = {}
    for n in (2, 3, 4):
        res = gl_rank_audit(n)
        assert res.max_rank_found <= res.bound
        found[n] = res.max_rank_found
    assert found == {2: 1, 3: 2, 4: 4}
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _pass(11, f"S_n audits n<=6 and GL audits max ranks {found} within bounds in {elapsed:.1f}s")


def test_criterion_12_cli_determinism(tmp_path):
    fam_path = tmp_path / "fam.json"
    fam = random_family(3, 2, 5)
    fam_path.write_text(json.dumps(fam.to_json_dict()))
    table_path = tmp_path / "q8.json"
    table_path.write_text(json.dumps({"order": 8, "mul": quaternion_table()}))
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(
        json.dumps({"nvars": 2, "gens": [{"monomials": [[2, 0]]}, {"monomials": [[0, 2]]}]})
    )
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps({"v": 3, "polys": [[[0, 1], [2, 2]]]}))
    action_path = tmp_path / "swap.json"
    action_path.write_text(json.dumps({"nvars": 2, "generators": [["01", "10"]]}))

    commands = [
        ["forms", "gen", "--n", "4", "--t", "2", "--seed", "17"],
        ["forms", "czero", "--system", str(system_path)],
        ["group", "info", "--family", str(fam_path)],
        ["group", "rank", "--family", str(fam_path)],
        ["group", "profile", "--family", str(fam_path)],
        ["search", "olshanskii", "--n", "4", "--t", "2", "--k", "3", "--trials", "10", "--seed", "3"],
        ["rep", "free", "--family", str(fam_path)],
        ["rep", "isotropy", "--family", str(fam_path)],
        ["rep", "twocentral", "--table", str(table_path)],
        ["poly", "hilbert", "--ideal", str(ideal_path), "--degree", "2"],
        ["poly", "regseq", "--ideal", str(ideal_path)],
        ["poly", "euler", "--table", str(table_path), "--c-gens", "1", "--chars", "-1",
         "--e-gens", "1", "--e-rank", "1"],
        ["poly", "powertest", "--action", str(action_path), "--ys", "[[1,0],[0,1]]", "--p", "2"],
        ["bounds", "rp-rank", "--m", "11", "--n", "3"],
        ["bounds", "headline", "--n", "20", "--t", "4", "--k", "6"],
        ["audit", "sn", "--n", "4"],
        ["audit", "gl", "--n", "3"],
    ]
    # execution is single-threaded by design; hash randomization is the live
    # nondeterminism source in Python, so vary it alongside repeated runs
    envs = [
        dict(os.environ, PYTHONHASHSEED="0"),
        dict(os.environ, PYTHONHASHSEED="31415926"),
        dict(os.environ, PYTHONHASHSEED="0"),
    ]
    for cmd in commands:
        outs = []
        for env in envs:
            proc = subprocess.run(
                [sys.executable, "-m", "sphererank.cli", *cmd],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, (cmd, proc.stdout, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2], f"nondeterministic output for {cmd}"
    _pass(12, f"all {len(commands)} subcommands byte-identical across runs and hash seeds")
