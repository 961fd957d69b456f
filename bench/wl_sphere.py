"""sphere_isotropy: signed-permutation sphere actions of form groups and stock tables.

Each seeded family gives G of order 64..4096 with the stock product of
spheres: one factor per central b_s, induced from <b_s> with chi(b_s) = -1.
Orders up to 256 pay the oracle's full validation (Light's associativity
test); larger orders skip it.  The isotropy search, whose cost grows with
order times representation dimension, stops at order 256: at order 1024 one
search takes 1-5 s depending on the family, which would swamp the round.
Euler classes stop at representation dimension 64 (order 128) by the degree
guard.  Q8,
dihedral and elementary abelian Cayley tables with explicit representation
specs cover the --table path, whose answers are checked by brute force.
"""

from __future__ import annotations

import random

from sphererank import forms, phigroup, polyalg, repaction

import oracles
from common import family_json, gram_lists, write_json

# (n, t, how many per round, what runs on it)
FAMILIES = [
    (4, 2, 5, "isotropy euler"),
    (5, 2, 6, "isotropy euler"),
    (4, 3, 6, "isotropy euler"),
    (6, 2, 1, "isotropy"),
    (8, 2, 1, ""),
    (7, 4, 1, ""),
    (9, 3, 1, ""),
    (8, 4, 1, ""),
]
# (name, table, reps as (c_gens, chars) specs)
TABLES = [
    ("q8", repaction.quaternion_table(), [([1], [-1])]),
    ("d8", oracles.dihedral_table(4), [([1], [-1]), ([4], [-1])]),
    ("d16", oracles.dihedral_table(8), [([1], [-1])]),
    ("e8", repaction.elementary_abelian_table(3), [([1], [-1]), ([2, 4], [-1, 1])]),
    ("e16", repaction.elementary_abelian_table(4), [([1, 2], [-1, -1]), ([4], [-1]), ([8], [-1])]),
]
# Direct products of order 32, as (table, central involution) per factor.  Each
# runs as one operation (load, induced reps, freeness, isotropy, 2-central
# test, traces) of a few milliseconds that does not depend on the seed; the
# block holds the median latency.
_FACTORS = {
    "z2": (repaction.cyclic_table(2), 1), "z4": (repaction.cyclic_table(4), 2),
    "z8": (repaction.cyclic_table(8), 4), "z16": (repaction.cyclic_table(16), 8),
    "q8": (repaction.quaternion_table(), 1), "d8": (oracles.dihedral_table(4), 2),
    "d16": (oracles.dihedral_table(8), 4),
}
PRODUCTS = ["q8-z4", "d8-z4", "q8-z2-z2", "d8-z2-z2", "d16-z2", "z8-z4", "z16-z2", "z4-z4-z2",
            "z8-z2-z2"]


def _product_tables() -> list[tuple]:
    out = []
    for name in PRODUCTS:
        (table, z_first), *rest = [_FACTORS[f] for f in name.split("-")]
        z_last = None
        for other, z in rest:
            k = len(other)
            table = [[table[a1][a2] * k + other[b1][b2] for a2 in range(len(table))
                      for b2 in range(k)] for a1 in range(len(table)) for b1 in range(k)]
            z_first, z_last = z_first * k, z
        out.append((f"{name}-1", table, [([z_first], [-1])]))
        out.append((f"{name}-2", table, [([z_first], [-1]), ([z_last], [-1])]))
    return out


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)  # the benchmark's own draws
    fams = []
    for n, t, count, runs in FAMILIES:
        for i in range(count):
            fam = forms.random_family(n, t, rng.getrandbits(63))
            order = 1 << (n + t)
            # fixed-dimension probes: one subgroup containing b_0, one that avoids it
            a = rng.randrange(1, 1 << n)
            probes = [[a, 1 << n], [a | (rng.randrange(1 << t) << n), rng.randrange(1, 1 << n)]]
            fams.append({"label": f"fam-{n}-{t}-{i}", "n": n, "t": t, "family": fam,
                         "runs": runs.split(), "probes": probes,
                         "samples": [rng.randrange(order) for _ in range(6)]})
    return {"families": fams, "tables": TABLES, "products": _product_tables()}


def write_inputs(inputs: dict, workdir) -> None:
    for f in inputs["families"]:
        write_json(workdir / "sphere_isotropy" / f"{f['label']}.json",
                   dict({k: f[k] for k in ("probes", "samples")}, family=family_json(f["family"])))
    for name, table, reps in inputs["tables"] + inputs["products"]:
        write_json(workdir / "sphere_isotropy" / f"{name}.json",
                   {"order": len(table), "mul": table,
                    "reps": [{"c_gens": c, "chars": x} for c, x in reps]})


def _euler_subgroups(n: int, t: int) -> list[list[int]]:
    """E = <b_0, ..., b_{t-1}> contains b_0; E = <b_1, ...> avoids it."""
    bs = [1 << (n + s) for s in range(t)]
    return [bs, bs[1:]]


def operations(inputs: dict, workdir, tracer) -> tuple[list, dict]:
    state: dict = {}
    ops = []
    for f in inputs["families"]:
        label, n, t, fam = f["label"], f["n"], f["t"], f["family"]
        st = state[label] = {}

        def build(st=st, fam=fam, n=n, t=t):
            st["oracle"] = repaction.GroupOracle.from_phi_group(phigroup.PhiGroup(fam))
            st["reps"] = [repaction.build_induced(st["oracle"], [1 << (n + s)], [-1])
                          for s in range(t)]
            return {"order": st["oracle"].order, "dims": [r.dim for r in st["reps"]]}

        def answers(st=st, probes=f["probes"]):
            free = repaction.is_free_on_product(st["oracle"], st["reps"])
            return {"free": free.free, "witness": free.witness,
                    "fixed": [repaction.fixed_subspace_dim(st["reps"][0], h) for h in probes],
                    "two_central": repaction.is_two_central(st["oracle"])}

        ops += [(f"{label}-build", build), (f"{label}-answers", answers)]
        if "isotropy" in f["runs"]:
            def isotropy(st=st):
                res = repaction.max_isotropy_rank(st["oracle"], st["reps"])
                return {"rank": res.rank, "witness": list(res.witness_gens)}
            ops.append((f"{label}-isotropy", isotropy))
        if "euler" in f["runs"]:
            def euler(st=st, n=n, t=t):
                out = []
                for e_gens in _euler_subgroups(n, t):
                    poly = polyalg.euler_class_restriction(st["reps"][0], e_gens, len(e_gens))
                    out.append({"zero": poly.is_zero(), "monomials": sorted(poly.monomials)})
                return out
            ops.append((f"{label}-euler", euler))

    for name, table, specs in inputs["tables"]:
        st = state[name] = {}

        def load(st=st, table=table, specs=specs):
            st["oracle"] = repaction.GroupOracle.from_table(table)
            st["reps"] = [repaction.build_induced(st["oracle"], c, x) for c, x in specs]
            return {"dims": [r.dim for r in st["reps"]]}

        def table_answers(st=st):
            G, reps = st["oracle"], st["reps"]
            free = repaction.is_free_on_product(G, reps)
            iso = repaction.max_isotropy_rank(G, reps)
            return {"free": free.free, "rank": iso.rank, "witness": list(iso.witness_gens),
                    "two_central": repaction.is_two_central(G),
                    "traces": [[r.trace(g) for g in range(G.order)] for r in reps]}

        ops += [(f"{name}-load", load), (f"{name}-answers", table_answers)]

    for name, table, specs in inputs["products"]:
        st = state[name] = {}

        def product(st=st, table=table, specs=specs):
            G = repaction.GroupOracle.from_table(table)
            reps = [repaction.build_induced(G, c, x) for c, x in specs]
            free = repaction.is_free_on_product(G, reps)
            iso = repaction.max_isotropy_rank(G, reps)
            return {"free": free.free, "rank": iso.rank, "witness": list(iso.witness_gens),
                    "two_central": repaction.is_two_central(G),
                    "traces": [[r.trace(g) for g in range(G.order)] for r in reps]}

        ops.append((f"{name}-answers", product))
    return ops, state


def check(inputs: dict, results: dict, state: dict) -> list[str]:
    errors = []
    for f in inputs["families"]:
        errors += [f"{f['label']}: {e}" for e in _check_family(f, results, state[f["label"]])]
    for name, table, specs in inputs["tables"] + inputs["products"]:
        res = results.get(f"{name}-answers")
        if res is not None:
            errors += [f"{name}: {e}" for e in _check_table(name, table, specs, res)]
    return errors


def _check_family(f: dict, results: dict, st: dict) -> list[str]:
    label, n, t = f["label"], f["n"], f["t"]
    grams = gram_lists(f["family"])
    G = oracles.FormGroup(grams, n)
    dim = G.order // 2
    bs = [G.b_id(s) for s in range(t)]
    err = []
    res = results.get(f"{label}-build")
    if res is not None:
        if res["order"] != G.order or res["dims"] != [dim] * t:
            err.append("oracle order or representation dimensions are wrong")
        rnd = random.Random(label)
        for _ in range(64):
            i, j = rnd.randrange(G.order), rnd.randrange(G.order)
            if st["oracle"].mul(i, j) != G.mul(i, j):
                err.append(f"oracle product {i}*{j} is wrong")
                break
        for s, rep in enumerate(st["reps"]):
            for g in [0, bs[s]] + f["samples"]:
                expected = dim if g == 0 else -dim if g == bs[s] else 0
                if rep.trace(g) != expected:
                    err.append(f"trace of {g} on factor {s} is {rep.trace(g)}, Frobenius gives {expected}")
    res = results.get(f"{label}-answers")
    if res is not None:
        # g fixes a point on factor s iff <g> avoids b_s
        witness = next((g for g in range(1, G.order)
                        if g not in bs and G.mul(g, g) not in bs), None)
        if (res["free"], res["witness"]) != (witness is None, witness):
            err.append(f"freeness {res['free']}, {res['witness']}; brute force gives witness {witness}")
        for h_gens, got in zip(f["probes"], res["fixed"]):
            H = oracles.closure(G.mul, h_gens)
            expected = 0 if bs[0] in H else dim // len(H)
            if got != expected:
                err.append(f"fixed dim of <{h_gens}> is {got}, expected {expected}")
        if res["two_central"] != oracles.two_central_brute(G.mul, G.order, G.generators()):
            err.append("two-central test disagrees with brute-force commutation")
    res = results.get(f"{label}-isotropy")
    if res is not None:
        expected = t + oracles.brute_isotropic_dim(grams, n) - 1
        if res["rank"] != expected:
            err.append(f"isotropy rank {res['rank']}, group rank - 1 is {expected}")
        H = oracles.closure(G.mul, res["witness"])
        if (len(H) != 1 << res["rank"] or not oracles.is_elementary_abelian(G.mul, H)
                or any(b in H for b in bs)):
            err.append("isotropy witness is not an elementary abelian subgroup avoiding every b_s")
    res = results.get(f"{label}-euler")
    for e_gens, cls in zip(_euler_subgroups(n, t), res or []):
        if bs[0] not in e_gens:
            if not cls["zero"]:
                err.append("Euler class on a subgroup avoiding b_0 is not zero")
        elif cls["zero"] or set(map(tuple, cls["monomials"])) != oracles.stock_euler_class(
                dim, len(e_gens)):
            err.append("Euler class differs from the product of its character forms")
    return err


def _check_table(name: str, table, specs, res: dict) -> list[str]:
    err = []
    chars = []
    for c_gens, values in specs:
        chars.append(oracles.induced_character(table, oracles.character_on(table, c_gens, values)))
    if res["traces"] != chars:
        err.append("traces differ from Frobenius' formula")
    if res["free"] != oracles.free_brute(table, chars):
        err.append("freeness differs from brute force")
    if res["rank"] != oracles.max_isotropy_brute(table, chars):
        err.append("isotropy rank differs from brute force")
    if res["two_central"] != oracles.two_central_brute(lambda i, j: table[i][j], len(table),
                                                       list(range(len(table)))):
        err.append("two-central test differs from brute force")
    if name == "q8" and (not res["free"] or res["rank"] != 0):
        err.append("Q8 with chi(-1) = -1 must act freely with isotropy rank 0")
    return err


def corrupt(inputs: dict, results: dict) -> list[tuple[str, dict]]:
    """Wrong answers the checker must reject: an isotropy rank off by one,
    freeness negated on a table, a fixed dimension off by one, an Euler class
    claimed zero."""
    bad = {}
    for label, res in results.items():
        kind = label.rsplit("-", 1)[1]
        if kind == "answers" and "traces" in res:
            kind = "table"
        if kind in bad:
            continue
        if kind == "isotropy":
            bad[kind] = (label, dict(res, rank=res["rank"] + 1))
        elif kind == "table":
            bad[kind] = (label, dict(res, free=not res["free"]))
        elif kind == "answers":
            bad[kind] = (label, dict(res, fixed=[res["fixed"][0] + 1] + res["fixed"][1:]))
        elif kind == "euler":
            bad[kind] = (label, [dict(res[0], zero=True)] + res[1:])
    return list(bad.values())
