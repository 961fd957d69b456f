"""cli_session: every subcommand of the sphererank CLI, one child process at a time.

Each operation starts a fresh interpreter on small generated input files, so
this is the only workload that pays for interpreter start, import, the JSON
loaders and validation, and report serialization.  `rep` commands stay at
order <= 128.  One argv appears twice per round so that byte-identical
output for identical argv is checked even in a one-round run.

`bounds headline --n 20000 --t 50 --k 51` fails on every run (exit 2): the
report calls str() on sphere_dim = 2^20049 - 1, and Python refuses to
convert an integer of more than 4300 digits to a string.  It is counted as
failed until the program handles it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from math import prod
from pathlib import Path

from sphererank import forms, repaction

import oracles
import wl_algebra
import wl_rank
from common import family_json, gram_lists, write_json

CHILD_PROCESSES = True  # peak memory is that of the largest child


class OpFailed(Exception):
    """A CLI child exited with a non-zero code; the run counts it as failed."""


FAILING_ARGV = ["bounds", "headline", "--n", "20000", "--t", "50", "--k", "51"]
FAMILIES = {"famA": (7, 3), "famB": (6, 2), "famS": (4, 2), "famS2": (5, 2)}
Q8_REPS = [{"c_gens": [1], "chars": [-1]}]
D8_REPS = [{"c_gens": [1], "chars": [-1]}, {"c_gens": [4], "chars": [-1]}]


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)  # the benchmark's own draws
    files = {name: family_json(forms.random_family(n, t, rng.getrandbits(63)))
             for name, (n, t) in FAMILIES.items()}
    files["q8"] = {"order": 8, "mul": repaction.quaternion_table()}
    files["d8"] = {"order": 8, "mul": oracles.dihedral_table(4)}
    alg = wl_algebra.make_inputs(rng.getrandbits(63))
    system = alg["systems"][0]
    files["sys"] = {"v": system["v"], "polys": system["polys"]}
    files["coord"] = {"v": 14, "polys": [[[i]] for i in range(14)]}
    ideals = {}
    for name, label in (("ideal", "reg-2233-0"), ("ideal2", "sing-2223-0")):
        item = next(i for i in alg["ideals"] if i["label"] == label)
        ideals[name] = item
        gens = [oracles.poly_pow(oracles.linear_poly(r, item["nvars"]), d, item["nvars"])
                for r, d in zip(item["linear"], item["degrees"])]
        files[name] = {"nvars": item["nvars"],
                       "gens": [{"monomials": sorted(list(m) for m in g)} for g in gens]}
    span = next(i for i in alg["powerspans"] if i["nvars"] == 3)
    files["act"] = {"nvars": 3, "generators": [
        ["".join(str(r >> j & 1) for j in range(3)) for r in g] for g in span["generators"]]}
    ys = [[y >> j & 1 for j in range(3)] for y in span["ys"]]
    s = [str(rng.getrandbits(31)) for _ in range(4)]
    headline = (rng.randrange(10, 400), rng.randrange(2, 60))
    headline += (rng.randrange(1, headline[0] + 2),)
    rp = [(rng.randrange(1, 40), rng.randrange(1, 20)) for _ in range(2)]
    nS = FAMILIES["famS"][0]
    argvs = [
        ["forms", "gen", "--n", "6", "--t", "3", "--seed", s[0]],
        ["forms", "gen", "--n", "9", "--t", "4", "--seed", s[1]],
        ["forms", "czero", "--system", "sys.json"],
        ["forms", "czero", "--system", "coord.json"],
        ["group", "info", "--family", "famA.json"],
        ["group", "info", "--family", "famB.json"],
        ["group", "rank", "--family", "famA.json", "--mode", "bnb"],
        ["group", "rank", "--family", "famB.json", "--mode", "exhaustive"],
        ["group", "rank", "--family", "famA.json", "--mode", "bnb"],
        ["group", "profile", "--family", "famA.json"],
        ["group", "profile", "--family", "famB.json", "--mode", "exhaustive"],
        ["search", "olshanskii", "--n", "6", "--t", "2", "--k", "2", "--trials", "20", "--seed", s[2]],
        ["search", "olshanskii", "--n", "8", "--t", "3", "--k", "3", "--trials", "50", "--seed", s[3]],
        ["rep", "free", "--family", "famS.json"],
        ["rep", "free", "--table", "q8.json", "--reps", json.dumps(Q8_REPS)],
        ["rep", "isotropy", "--family", "famS.json"],
        ["rep", "isotropy", "--table", "d8.json", "--reps", json.dumps(D8_REPS)],
        ["rep", "twocentral", "--table", "q8.json"],
        ["rep", "twocentral", "--family", "famS2.json"],
        ["poly", "hilbert", "--ideal", "ideal.json", "--degree", str(ideals["ideal"]["probe_degree"])],
        ["poly", "hilbert", "--ideal", "ideal2.json", "--degree", str(ideals["ideal2"]["probe_degree"])],
        ["poly", "regseq", "--ideal", "ideal.json"],
        ["poly", "regseq", "--ideal", "ideal2.json"],
        ["poly", "euler", "--table", "q8.json", "--c-gens", "1", "--chars", "-1",
         "--e-gens", "1", "--e-rank", "1"],
        ["poly", "euler", "--family", "famS.json", "--c-gens", str(1 << nS), "--chars", "-1",
         "--e-gens", f"{1 << nS},{1 << (nS + 1)}", "--e-rank", "2"],
        ["poly", "powertest", "--action", "act.json", "--ys", "[[1,0,0],[0,1,0],[0,0,1]]", "--p", "3"],
        ["poly", "powertest", "--action", "act.json", "--ys", json.dumps(ys), "--p", str(span["p"])],
        ["bounds", "rp-rank", "--m", str(rp[0][0]), "--n", str(rp[0][1])],
        ["bounds", "rp-rank", "--m", str(rp[1][0]), "--n", str(rp[1][1])],
        ["bounds", "headline", "--n", "1249", "--t", "50", "--k", "51"],
        ["bounds", "headline", "--n", str(headline[0]), "--t", str(headline[1]), "--k", str(headline[2])],
        FAILING_ARGV,
        ["audit", "sn", "--n", "5"],
        ["audit", "sn", "--n", "6"],
        ["audit", "gl", "--n", "3"],
        ["audit", "gl", "--n", "2"],
    ]
    return {"files": files, "argvs": argvs, "ideals": ideals, "powerspan": span}


def write_inputs(inputs: dict, workdir: Path) -> None:
    for name, doc in inputs["files"].items():
        write_json(workdir / "cli_session" / f"{name}.json", doc)


def _label(i: int, argv: list[str]) -> str:
    return f"{i:02d}-{argv[0]}-{argv[1]}"


def operations(inputs: dict, workdir: Path, tracer) -> tuple[list, dict]:
    from run import child_env

    cwd = workdir / "cli_session"
    env = child_env()
    bench = Path(__file__).resolve().parent
    ops = []
    for i, argv in enumerate(inputs["argvs"]):
        def op(argv=argv, spans=cwd / f"spans-{i}.json"):
            if tracer:
                cmd = [sys.executable, str(bench / "cli_child.py"), str(spans)] + argv
                frame = tracer.push("cli.process")
            else:
                cmd = [sys.executable, "-m", "sphererank.cli"] + argv
            try:
                proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                      timeout=120)
                if tracer:
                    with open(spans, encoding="utf-8") as fh:
                        tracer.merge(json.load(fh))
            finally:
                if tracer:
                    tracer.pop(frame)
            if proc.returncode != 0:
                raise OpFailed(f"exit {proc.returncode}: {proc.stdout.strip()[:200]}")
            return proc.stdout
        ops.append((_label(i, argv), op))
    return ops, {}


def check(inputs: dict, results: dict, state: dict) -> list[str]:
    sys.set_int_max_str_digits(0)  # headline reports carry sphere_dim as a decimal string
    errors = []
    argvs = {_label(i, a): a for i, a in enumerate(inputs["argvs"])}
    seen: dict[str, str] = {}
    for label, stdout in results.items():
        argv = argvs[label]
        key = " ".join(argv)
        if key in seen and seen[key] != stdout:
            errors.append(f"{label}: identical argv gave different output")
        seen[key] = stdout
        if not oracles.is_canonical_json(stdout):
            errors.append(f"{label}: report is not canonical JSON")
            continue
        report = json.loads(stdout)
        errors += [f"{label}: {e}" for e in _check_report(inputs, argv, report["result"])]
    return errors


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _family(inputs: dict, argv: list[str]):
    doc = inputs["files"][_opt(argv, "--family")[:-len(".json")]]
    return [[[int(c) for c in row] for row in g] for g in doc["forms"]], doc["n"], doc["t"]


def _check_report(inputs: dict, argv: list[str], res: dict) -> list[str]:
    cmd = " ".join(argv[:2])
    if cmd == "forms gen":
        n, t = int(_opt(argv, "--n")), int(_opt(argv, "--t"))
        expected = gram_lists(forms.random_family(n, t, int(_opt(argv, "--seed"))))
        got = [[[int(c) for c in row] for row in g] for g in res["family"]["forms"]]
        return [] if got == expected else ["generated family differs from random_family"]
    if cmd == "forms czero":
        doc = inputs["files"][_opt(argv, "--system")[:-len(".json")]]
        item = {"label": "czero-coord" if "coord" in _opt(argv, "--system") else "czero",
                "v": doc["v"], "polys": doc["polys"]}
        zero = None if res["zero"] is None else oracles.list_to_bits([int(c) for c in res["zero"]])
        return wl_algebra.check_czero(item, {"zero": zero})
    if cmd in ("group info", "group rank", "group profile"):
        grams, n, t = _family(inputs, argv)
        if cmd == "group info":
            got = (res["center_a_radical_dim"], res["center_rank"], res["center_order4_dim"])
            ok = got == oracles.center_invariants(grams, n, t) and res["order"] == str(1 << (n + t))
            return [] if ok else ["center invariants differ from the oracle"]
        dim = res["isotropic_dim"] if cmd == "group rank" else res["T"] - t
        witness = [oracles.list_to_bits([int(c) for c in w]) for w in res["witness"]]
        err = oracles.check_isotropic_witness(grams, witness, dim, n)
        if dim != oracles.brute_isotropic_dim(grams, n):
            err.append("isotropic dim differs from the exhaustive oracle")
        if cmd == "group rank" and res["rank"] != t + dim:
            err.append("rank != t + isotropic dim")
        if cmd == "group profile" and res["T"] + res["N"] != n + t:
            err.append("T + N != n + t")
        return err
    if cmd == "search olshanskii":
        n, t, k = (int(_opt(argv, f)) for f in ("--n", "--t", "--k"))
        item = {"n": n, "t": t, "k": k, "trials": int(_opt(argv, "--trials")),
                "seed": int(_opt(argv, "--seed"))}
        fam = res["family"]
        return wl_rank.check_search(item, {
            "found": res["found"], "trial_index": res["trial_index"],
            "trials_run": res["trials_run"], "condition": res["condition_holds"],
            "family": None if fam is None else [[[int(c) for c in row] for row in g]
                                                for g in fam["forms"]]})
    if cmd.startswith("rep ") and "--family" in argv:
        grams, n, t = _family(inputs, argv)
        G = oracles.FormGroup(grams, n)
        bs = [G.b_id(s) for s in range(t)]
        if cmd == "rep free":
            witness = next((g for g in range(1, G.order)
                            if g not in bs and G.mul(g, g) not in bs), None)
            ok = (res["free"], res["witness"]) == (witness is None, witness)
        elif cmd == "rep isotropy":
            ok = res["rank"] == t + oracles.brute_isotropic_dim(grams, n) - 1
        else:
            ok = res["two_central"] == oracles.two_central_brute(G.mul, G.order, G.generators())
        return [] if ok else [f"{cmd} on the family differs from brute force"]
    if cmd.startswith("rep "):
        table = inputs["files"][_opt(argv, "--table")[:-len(".json")]]["mul"]
        mul = lambda i, j: table[i][j]  # noqa: E731
        if cmd == "rep twocentral":
            ok = res["two_central"] == oracles.two_central_brute(mul, len(table), list(range(len(table))))
            return [] if ok else ["two-central test differs from brute force"]
        chars = [oracles.induced_character(table, oracles.character_on(table, r["c_gens"], r["chars"]))
                 for r in json.loads(_opt(argv, "--reps"))]
        if cmd == "rep free":
            ok = res["free"] == oracles.free_brute(table, chars)
        else:
            ok = res["rank"] == oracles.max_isotropy_brute(table, chars)
        return [] if ok else [f"{cmd} on the table differs from brute force"]
    if cmd in ("poly hilbert", "poly regseq"):
        item = inputs["ideals"][_opt(argv, "--ideal")[:-len(".json")]]
        if cmd == "poly hilbert":
            item = dict(item, probe_degree=int(_opt(argv, "--degree")))
            return wl_algebra.check_ideal(item, "hilbert", {"dim": res["dim"]})
        total = prod(item["degrees"]) if item["regular"] else None
        ok = (res["regular"], res["total_dim"]) == (item["regular"], total)
        return [] if ok else ["regular-sequence answer is wrong"]
    if cmd == "poly euler":
        monos = {tuple(m) for m in res["euler"]["monomials"]}
        if "--table" in argv:  # Q8, C = E = <-1>: the class is x^4
            dim, expected = 4, oracles.stock_euler_class(4, 1)
        else:
            _, n, t = _family(inputs, argv)
            dim = 1 << (n + t - 1)
            expected = oracles.stock_euler_class(dim, 2)
        ok = not res["is_zero"] and res["rep_dim"] == dim and monos == expected
        return [] if ok else ["Euler class is wrong"]
    if cmd == "poly powertest":
        ys = [oracles.list_to_bits(y) for y in json.loads(_opt(argv, "--ys"))]
        item = dict(inputs["powerspan"], ys=ys, p=int(_opt(argv, "--p")))
        return wl_algebra.check_powerspan(item, res)
    if cmd == "bounds rp-rank":
        m, n = int(_opt(argv, "--m")), int(_opt(argv, "--n"))
        expected = {0: 0, 1: n, 2: 0, 3: 2 * n}[m % 4]
        ok = res["free_rank"] == expected and res["caveat_small_m"] == (m <= 7)
        return [] if ok else ["free rank differs from the m mod 4 rule"]
    if cmd == "bounds headline":
        n, t, k = (int(_opt(argv, f)) for f in ("--n", "--t", "--k"))
        return wl_algebra.check_headline(n, t, k, {
            "condition": res["condition_holds"], "T": res["T_bound"], "N": res["N_bound"],
            "sphere_dim": int(res["sphere_dim"]), "browder": res["browder_min_m"],
            "carlsson": int(res["carlsson_exact"])})
    if cmd == "audit sn":
        n = int(_opt(argv, "--n"))
        ok = (res["ok"], res["worst_rank"], res["subgroups_checked"]) == (
            True, n // 2, oracles.count_elem_abelian_2_subgroups_sn(n))
        return [] if ok else ["S_n audit differs from the separate enumeration"]
    if cmd == "audit gl":
        n = int(_opt(argv, "--n"))
        ok = res["ok"] and res["max_rank_found"] == res["bound"] == n * n // 4
        return [] if ok else ["GL audit does not reach rank n^2/4"]
    return [f"no check for {cmd}"]


def corrupt(inputs: dict, results: dict) -> list[tuple[str, dict]]:
    """Wrong answers the checker must reject: a report that is not canonical
    JSON, a group rank off by one, an S_n subgroup count off by one."""
    bad = []
    for label, stdout in results.items():
        if "group-rank" in label and not any("rank" in b[0] for b in bad):
            bad.append((label, stdout.replace('"rank":', '"rank": ')))
            report = json.loads(stdout)
            report["result"]["rank"] += 1
            bad.append((label, json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"))
        if "audit-sn" in label and not any("audit" in b[0] for b in bad):
            report = json.loads(stdout)
            report["result"]["subgroups_checked"] += 1
            bad.append((label, json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"))
    return bad
