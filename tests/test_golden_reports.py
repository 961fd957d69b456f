"""Byte-exact reports for the commands that run on the shared GF(2), polynomial,
group and subgroup-search code, pinned in `golden_reports.json`.

Every case runs through the in-process `dispatch` with the working directory
set to a fresh temporary directory, so the input file names recorded in the
reports are the same on every machine.  The family files are written by the
pinned `forms gen` cases themselves; the table file is a direct product of
stock tables, and the ideal, system and action files are built from the constants
below.  After an intended change of a report, rewrite the pinned file
with `python tests/test_golden_reports.py` from the repository root.
"""

import json
import os
import random
import sys
from pathlib import Path

from sphererank.cli import dispatch
from sphererank.repaction import elementary_abelian_table, quaternion_table

from oracles import (
    brute_center,
    direct_product_table,
    naive_form_value,
    naive_kernel_vectors,
    naive_quadratic_value,
)

GOLDEN = Path(__file__).with_name("golden_reports.json")

FAMILIES = {  # file name -> (n, t, seed); order 2^(n+t)
    "fam_5_2_3.json": (5, 2, 3),
    "fam_6_1_11.json": (6, 1, 11),
    "fam_7_3_5.json": (7, 3, 5),
    "fam_9_2_1.json": (9, 2, 1),
}

# Families pinned in branch-and-bound mode only (rank and profile witnesses):
# t=1 and t=2, where the candidate sets are largest and the search deepest.
BNB_FAMILIES = {
    "fam_6_1_2.json": (6, 1, 2),
    "fam_7_1_3.json": (7, 1, 3),
    "fam_8_1_4.json": (8, 1, 4),
    "fam_9_1_5.json": (9, 1, 5),
    "fam_8_2_6.json": (8, 2, 6),
    "fam_9_2_7.json": (9, 2, 7),
    "fam_10_2_8.json": (10, 2, 8),
    "fam_11_2_9.json": (11, 2, 9),
}

# Families at the top of the branch-and-bound's range, pinned in bnb mode: t=1
# at n=18 and 20, where the root holds over 10^5 q-zero candidates, and t=4 at
# n=14, where the ceiling is loose and the search runs many nodes.
GUARD_FAMILIES = {
    "fam_18_1_18.json": (18, 1, 18),
    "fam_20_1_20.json": (20, 1, 20),
    "fam_14_4_14.json": (14, 4, 14),
}

# A t=2 family on which the pencil ceiling binds: its forms' least Witt index
# is 7, the pencil's 5, and the maximum 5, so the search stops at its first
# subspace of dim 5 instead of proving that no 6 exists (2-4 s without it).
PENCIL_FAMILIES = {
    "fam_12_2_0.json": (12, 2, 0),
}

# Q8 x C2^2 (order 32): id = 4 * q + c; id 4 is the central -1 of Q8
PRODUCT_REPS = json.dumps(
    [
        {"c_gens": [4], "chars": [-1]},
        {"c_gens": [1], "chars": [-1]},
        {"c_gens": [4, 2], "chars": [-1, -1]},
    ]
)


# Order-256 family for the isotropy search over the stock reps.
ISOTROPY_FAMILY = ("fam_6_2_13.json", (6, 2, 13))

# Power-span data on four variables: a 4-cycle of the coordinates alone, and
# together with a dense invertible matrix; the coordinate lines are permuted
# by the cycle, the mixed lines are not.
CYCLE = ["0100", "0010", "0001", "1000"]
ACTIONS = {"action_cycle.json": {"nvars": 4, "generators": [CYCLE]},
           "action_dense.json": {"nvars": 4, "generators": [CYCLE,
                                                            ["1101", "0110", "0011", "1111"]]}}
POWER_YS = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
POWER_YS_MIXED = "[[1,1,0,0],[0,1,1,0],[0,0,1,1],[1,0,0,0]]"


def _cubics(nvars: int, density: float, seed: int) -> dict:
    """Ideal of nvars cubics, each monomial kept with the given probability."""
    rng = random.Random(seed)
    cubes = [[a, b, c] for a in range(nvars) for b in range(a, nvars) for c in range(b, nvars)]
    gens = []
    for _ in range(nvars):
        monos = []
        for combo in cubes:
            if rng.random() < density:
                exp = [0] * nvars
                for i in combo:
                    exp[i] += 1
                monos.append(exp)
        gens.append({"degree": 3, "monomials": monos})
    return {"nvars": nvars, "gens": gens}


# Five cubics in five variables: the degree-10 piece has 1001 monomials and the
# boundary degree 11 has 1365.  The dense ideal is regular (quotient of
# dimension 3^5); the sparse one is not.
IDEALS = {"ideal_cubic5_reg.json": _cubics(5, 0.4, 0),
          "ideal_cubic5_sing.json": _cubics(5, 0.15, 0)}

# A mixed-degree regular sequence in three variables, x^2 + yz, y^3 + xz^2 + xyz
# and z^4 + xy^2z + x^2yz: Hilbert values 1, 3, 5, 6, 5, 3, 1, total 2 * 3 * 4.
MIXED_IDEAL = ("ideal_mixed234.json", {"nvars": 3, "gens": [
    {"degree": 2, "monomials": [[2, 0, 0], [0, 1, 1]]},
    {"degree": 3, "monomials": [[0, 3, 0], [1, 0, 2], [1, 1, 1]]},
    {"degree": 4, "monomials": [[0, 0, 4], [1, 2, 1], [2, 1, 1]]},
]})

# Quadratic systems for `forms czero`, each monomial a list of variable indices:
# two equations of total degree 4 in six variables, which have a nonzero common
# zero by Chevalley-Warning, and x0 + x1 + x0 x1 (x0 or x1), zero only at 0.
# Hand-written families with a nonzero common radical, the one place the
# centre's radical carries a q value (`FormFamily.beta` on its basis): the
# all-ones form on F2^3 has radical <111>, where q is 1 (one order-4 central
# direction), and two forms on F2^4 pairing x0 with x1 and x1 with x3 leave
# <x2>, where q is 0 (centre rank t + 1).
RADICAL_FAMILIES = {
    "fam_radical_3_1.json": {"n": 3, "t": 1, "forms": [["011", "101", "110"]]},
    "fam_radical_4_2.json": {"n": 4, "t": 2, "forms": [["0100", "1000", "0000", "0000"],
                                                       ["0000", "0001", "0000", "0100"]]},
}

SYSTEMS = {"system_cw.json": {"v": 6, "polys": [[[0, 1], [2, 3], [4]], [[1, 2], [3, 5], [0]]]},
           "system_or.json": {"v": 2, "polys": [[[0], [1], [0, 1]]]}}


def _cases() -> list[list[str]]:
    cases = []
    for name, (n, t, seed) in FAMILIES.items():
        cases.append(["forms", "gen", "--n", str(n), "--t", str(t), "--seed", str(seed),
                      "--save-family", name])
    for name in FAMILIES:
        cases.append(["group", "info", "--family", name])
        for mode in ("exhaustive", "bnb"):
            cases.append(["group", "rank", "--family", name, "--mode", mode])
        cases.append(["group", "profile", "--family", name])
    for cmd in ("free", "isotropy"):
        cases.append(["rep", cmd, "--family", "fam_5_2_3.json"])
        cases.append(["rep", cmd, "--table", "q8xc2c2.json", "--reps", PRODUCT_REPS])
    cases.append(["rep", "twocentral", "--family", "fam_5_2_3.json"])
    cases.append(["rep", "twocentral", "--table", "q8xc2c2.json"])
    cases.append(["poly", "euler", "--table", "q8xc2c2.json", "--c-gens", "4", "--chars", "-1",
                  "--e-gens", "1,2", "--e-rank", "2"])
    cases.append(["search", "olshanskii", "--n", "6", "--t", "2", "--k", "3", "--trials", "20",
                  "--seed", "4"])
    cases.append(["bounds", "headline", "--n", "1249", "--t", "50", "--k", "51"])
    for n in range(1, 7):
        cases.append(["audit", "sn", "--n", str(n)])
    for n in range(1, 4):
        cases.append(["audit", "gl", "--n", str(n)])
    for name, (n, t, seed) in BNB_FAMILIES.items():
        cases.append(["forms", "gen", "--n", str(n), "--t", str(t), "--seed", str(seed),
                      "--save-family", name])
        cases.append(["group", "rank", "--family", name, "--mode", "bnb"])
        cases.append(["group", "profile", "--family", name, "--mode", "bnb"])
    cases.append(["search", "olshanskii", "--n", "7", "--t", "2", "--k", "2", "--trials", "30",
                  "--seed", "12"])
    for name in IDEALS:
        cases.append(["poly", "hilbert", "--ideal", name, "--degree", "10"])
        cases.append(["poly", "regseq", "--ideal", name])
    for action in ACTIONS:
        for ys in (POWER_YS, POWER_YS_MIXED):
            for p in ("2", "3", "5"):
                cases.append(["poly", "powertest", "--action", action, "--ys", ys, "--p", p])
    cases.append(["audit", "sn", "--n", "7"])
    cases.append(["audit", "gl", "--n", "4"])
    name, (n, t, seed) = ISOTROPY_FAMILY
    cases.append(["forms", "gen", "--n", str(n), "--t", str(t), "--seed", str(seed),
                  "--save-family", name])
    cases.append(["rep", "isotropy", "--family", name])
    for name, (n, t, seed) in GUARD_FAMILIES.items():
        cases.append(["forms", "gen", "--n", str(n), "--t", str(t), "--seed", str(seed),
                      "--save-family", name])
        cases.append(["group", "rank", "--family", name, "--mode", "bnb"])
        cases.append(["group", "profile", "--family", name])
    for name in SYSTEMS:
        cases.append(["forms", "czero", "--system", name])
    cases.append(["bounds", "rp-rank", "--m", "7", "--n", "3"])  # inside the small-sphere caveat
    cases.append(["bounds", "rp-rank", "--m", "9", "--n", "3"])
    # the stock rep of an order-128 group (dim 64): two characters, each to the 32nd power
    cases.append(["poly", "euler", "--family", "fam_5_2_3.json", "--c-gens", "32", "--chars", "-1",
                  "--e-gens", "32,64", "--e-rank", "2"])
    for name, (n, t, seed) in PENCIL_FAMILIES.items():
        cases.append(["forms", "gen", "--n", str(n), "--t", str(t), "--seed", str(seed),
                      "--save-family", name])
        cases.append(["group", "rank", "--family", name, "--mode", "bnb"])
        cases.append(["group", "profile", "--family", name])
    cases.append(["poly", "regseq", "--ideal", MIXED_IDEAL[0]])
    # the empty audits: no involution, only the trivial subgroup
    cases.append(["audit", "sn", "--n", "0"])
    cases.append(["audit", "gl", "--n", "0"])
    # seeds outside 0..2^64 - 1, which splitmix64 would fold onto another seed
    cases.append(["forms", "gen", "--n", "4", "--t", "2", "--seed", "-1"])
    cases.append(["search", "olshanskii", "--n", "6", "--t", "2", "--k", "3", "--trials", "20",
                  "--seed", str(1 << 64)])
    # an empty token in an integer list, which was once dropped
    cases.append(["poly", "euler", "--table", "q8xc2c2.json", "--c-gens", "4", "--chars", "-1",
                  "--e-gens", "1,,2", "--e-rank", "2"])
    for name in RADICAL_FAMILIES:
        cases.append(["group", "info", "--family", name])
    return cases


def _render(capture) -> list[dict]:
    """Run every case in order in the current directory; capture() returns stdout."""
    Path("q8xc2c2.json").write_text(json.dumps(
        {"order": 32, "mul": direct_product_table(quaternion_table(), elementary_abelian_table(2))}
    ))
    for name, doc in {**IDEALS, MIXED_IDEAL[0]: MIXED_IDEAL[1], **SYSTEMS,
                      **RADICAL_FAMILIES}.items():
        Path(name).write_text(json.dumps(doc))
    for name, action in ACTIONS.items():
        Path(name).write_text(json.dumps(action))
    out = []
    for argv in _cases():
        code = dispatch(argv)
        out.append({"argv": argv, "exit": code, "stdout": capture()})
    return out


def test_reports_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _render(lambda: capsys.readouterr().out)
    assert [c["argv"] for c in got] == [c["argv"] for c in expected]
    for g, e in zip(got, expected):
        assert (g["exit"], g["stdout"]) == (e["exit"], e["stdout"]), " ".join(g["argv"])


def _log2(size: int) -> int:
    assert size & (size - 1) == 0, size
    return size.bit_length() - 1


def test_radical_reports_match_the_oracles():
    """The pinned `group info` reports of the radical families, against brute
    force over the group on pairs (a, b), id a | b << n, whose product adds
    the cocycle a1^T L a2 of each form's strict lower triangle L to b."""
    golden = {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    for name, doc in RADICAL_FAMILIES.items():
        n, t = doc["n"], doc["t"]
        grams = [[[int(c) for c in row] for row in form] for form in doc["forms"]]
        lower = [[[g[i][j] * (j < i) for j in range(n)] for i in range(n)] for g in grams]

        def coords(a: int) -> list[int]:
            return [(a >> i) & 1 for i in range(n)]

        def mul(g: int, h: int) -> int:
            a1, a2 = g & ((1 << n) - 1), h & ((1 << n) - 1)
            beta = sum(naive_form_value(m, coords(a1), coords(a2)) << s for s, m in enumerate(lower))
            return (a1 ^ a2) | ((g >> n) ^ (h >> n) ^ beta) << n

        order = 1 << (n + t)
        centre = brute_center(mul, order)
        radical = naive_kernel_vectors([row for g in grams for row in g], n)
        assert {z & ((1 << n) - 1) for z in centre} == {
            sum(x << i for i, x in enumerate(v)) for v in radical
        }
        q_image = {tuple(naive_quadratic_value(g, list(v)) for g in grams) for v in radical}
        result = json.loads(golden[("group", "info", "--family", name)]["stdout"])["result"]
        assert result == {
            "center_a_radical_dim": _log2(len(radical)),
            "center_order4_dim": _log2(len(q_image)),
            "center_rank": _log2(sum(1 for z in centre if mul(z, z) == 0)),
            "n": n,
            "order": str(order),
            "t": t,
        }
        assert result["center_a_radical_dim"] == 1  # the radical is not zero


if __name__ == "__main__":
    import io
    import tempfile

    target = GOLDEN.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        buf = io.StringIO()
        real_stdout, sys.stdout = sys.stdout, buf

        def capture() -> str:
            text = buf.getvalue()
            buf.seek(0)
            buf.truncate()
            return text

        try:
            cases = _render(capture)
        finally:
            sys.stdout = real_stdout
    target.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} reports to {target}")
