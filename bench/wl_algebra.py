"""algebra_audit: graded quotients, power spans, quadratic zeros and rank audits.

Row reduction here has a different shape from rank_search: few reductions
of rows hundreds to thousands of bits wide (one bit per monomial of a
degree).  Ideal shapes (variable count and generator degrees) are fixed so
that the work per operation does not depend on the seed; the seed picks the
independent linear forms that are raised to those degrees, the dependent
forms of the ideals built not to be regular, the power-span data, the
Chevalley-Warning systems and the extra bound instances.  The coordinate
system x_0 = ... = x_{v-1} = 0 has only the zero solution, so its scan is
exhaustive.
"""

from __future__ import annotations

import random
from math import prod

from sphererank import bounds, forms, polyalg
from sphererank.gf2 import BitMatrix, BitVector

import oracles
from common import write_json

# (generator degrees, how many per round).  The fourteen (2,2,2,3,3) ideals
# hold the median latency (their Hilbert values) and the eight six-variable
# ideals the 90th percentile (their total dimensions).
REGULAR = [((2, 3), 1), ((2, 3, 4), 1), ((3, 3, 3), 1), ((2, 2, 3, 3), 3), ((3, 3, 3, 3), 1),
           ((2, 2, 2, 3, 3), 14), ((3, 3, 3, 3, 3), 1), ((2, 2, 2, 2, 2, 2), 8)]
SINGULAR = [((2, 2, 3), 1), ((2, 2, 2, 3), 2), ((2, 2, 2, 2, 2), 1)]
POWERSPAN = [(3, 2), (3, 3), (4, 3), (4, 4), (4, 5)]  # (nvars, p)
CZERO = [(12, 5), (14, 6), (16, 7), (18, 8), (20, 9)]  # (variables, equations)
COORDINATE_SYSTEM_VARS = 18
PERM_AUDITS = [3, 4, 5, 6, 7]
GL_AUDITS = [2, 3, 4]
HEADLINE = (1249, 50, 51)


def _independent_forms(rng, nvars: int, count: int) -> list[int]:
    rows: list[int] = []
    while len(rows) < count:
        r = rng.randrange(1, 1 << nvars)
        if oracles.naive_rank([oracles.bits_to_list(x, nvars) for x in rows + [r]]) == len(rows) + 1:
            rows.append(r)
    return rows


def _ideal_forms(rng, nvars: int, regular: bool) -> list[int]:
    """Linear forms whose powers generate the ideal, with a fixed number of terms
    each so that the work does not depend on the seed: two terms per form, and
    one for the last form of a regular ideal (n forms of even weight are
    dependent).  A singular ideal's last form is the sum of the first two,
    which share a variable, so the quotient is infinite."""
    while True:
        rows: list[int] = []
        while len(rows) < nvars - 1:
            r = sum(1 << i for i in rng.sample(range(nvars), 2))
            if oracles.naive_rank([oracles.bits_to_list(x, nvars) for x in rows + [r]]) == len(rows) + 1:
                rows.append(r)
        if regular:
            return rows + [1 << rng.randrange(nvars)]
        if nvars >= 3 and rows[0] & rows[1]:
            return rows + [rows[0] ^ rows[1]]


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)  # the benchmark's own draws
    ideals = []
    for degrees, count in REGULAR + SINGULAR:
        n = len(degrees)
        regular = (degrees, count) in REGULAR
        for i in range(count):
            lin = _ideal_forms(rng, n, regular)
            shape = "".join(map(str, degrees))
            ideals.append({"label": f"{'reg' if regular else 'sing'}-{shape}-{i}", "nvars": n,
                           "degrees": list(degrees), "linear": lin, "regular": regular,
                           "probe_degree": sum(d - 1 for d in degrees)})
    powerspans = []
    for n, p in POWERSPAN:
        perm = list(range(n))
        rng.shuffle(perm)
        gens = [[1 << perm[i] for i in range(n)], _independent_forms(rng, n, n)]
        powerspans.append({"label": f"powerspan-{n}-{p}", "nvars": n, "p": p, "generators": gens,
                           "ys": _independent_forms(rng, n, n)})
    systems = []
    for v, m in CZERO:  # total degree 2m < v: Chevalley-Warning gives a nonzero zero
        polys = []
        for _ in range(m):
            monos = {(i, j) for i in range(v) for j in range(i, v) if rng.random() < 4 / v}
            polys.append(sorted([sorted(set(mono)) for mono in monos]))
        systems.append({"label": f"czero-{v}", "v": v, "polys": polys})
    v = COORDINATE_SYSTEM_VARS
    systems.append({"label": f"czero-coord-{v}", "v": v, "polys": [[[i]] for i in range(v)]})
    headlines = [HEADLINE] + [(n, t, rng.randrange(1, n + 2)) for n, t in
                              ((rng.randrange(10, 400), rng.randrange(2, 60)) for _ in range(4))]
    return {"ideals": ideals, "powerspans": powerspans, "systems": systems,
            "headlines": headlines}


def write_inputs(inputs: dict, workdir) -> None:
    write_json(workdir / "algebra_audit" / "inputs.json", inputs)


def _ideal(item: dict) -> polyalg.IdealGens:
    n = item["nvars"]
    return polyalg.IdealGens(n, tuple(
        polyalg.GradedPoly.linear(n, BitVector(n, r)).power(d)
        for r, d in zip(item["linear"], item["degrees"])))


def operations(inputs: dict, workdir, tracer) -> tuple[list, dict]:
    ops = []
    for item in inputs["ideals"]:
        ideal = _ideal(item)
        if item["regular"]:
            ops.append((f"{item['label']}-total", lambda I=ideal: {
                "total": polyalg.quotient_total_dim(I)}))
        else:
            ops.append((f"{item['label']}-regular", lambda I=ideal: {
                "regular": polyalg.is_regular_sequence(I)}))
        ops.append((f"{item['label']}-hilbert", lambda I=ideal, d=item["probe_degree"]: {
            "dim": polyalg.hilbert_function(I, d)}))
    for item in inputs["powerspans"]:
        n = item["nvars"]
        act = polyalg.LinearAction(n, tuple(BitMatrix.from_bits(n, n, g) for g in item["generators"]))
        ys = [polyalg.GradedPoly.linear(n, BitVector(n, y)) for y in item["ys"]]

        def powerspan(act=act, ys=ys, p=item["p"]):
            res = polyalg.power_span_test(act, ys, p)
            return {"stable": res.stable, "permuted": res.permuted}
        ops.append((item["label"], powerspan))
    for item in inputs["systems"]:
        system = forms.QuadraticSystem.from_lists(item["v"], item["polys"])

        def czero(system=system):
            zero = forms.common_zero_quadratics(system)
            return {"zero": None if zero is None else zero.bits}
        ops.append((item["label"], czero))
    for n in PERM_AUDITS:
        ops.append((f"audit-sn-{n}", lambda n=n: bounds.perm_rank_audit(n)._asdict()))
    for n in GL_AUDITS:
        ops.append((f"audit-gl-{n}", lambda n=n: bounds.gl_rank_audit(n)._asdict()))
    for i, (n, t, k) in enumerate(inputs["headlines"]):
        def headline(n=n, t=t, k=k):
            rep = bounds.headline_report(n, t, k)
            return {"condition": rep.condition_holds, "T": rep.T_bound, "N": rep.N_bound,
                    "sphere_dim": rep.sphere_dim, "browder": rep.browder_min_m,
                    "carlsson": rep.carlsson_min_m.exact}
        ops.append((f"headline-{i}", headline))
    return ops, {}


def check(inputs: dict, results: dict, state: dict) -> list[str]:
    errors = []
    by_label = {}
    for item in inputs["ideals"]:
        by_label[f"{item['label']}-total"] = by_label[f"{item['label']}-regular"] = \
            by_label[f"{item['label']}-hilbert"] = item
    for item in inputs["powerspans"] + inputs["systems"]:
        by_label[item["label"]] = item
    for label, res in results.items():
        if label.startswith(("reg-", "sing-")):
            err = check_ideal(by_label[label], label.rsplit("-", 1)[1], res)
        elif label.startswith("powerspan"):
            err = check_powerspan(by_label[label], res)
        elif label.startswith("czero"):
            err = check_czero(by_label[label], res)
        elif label.startswith("audit-sn"):
            n = int(label.rsplit("-", 1)[1])
            expected = (True, n // 2, oracles.count_elem_abelian_2_subgroups_sn(n))
            got = (res["ok"], res["worst_rank"], res["subgroups_checked"])
            err = [] if got == expected else [f"S_n audit {got}, expected {expected}"]
            if res["worst_rank"] > n - res["worst_orbits"]:
                err.append("worst case violates rank <= n - orbits")
        elif label.startswith("audit-gl"):
            n = int(label.rsplit("-", 1)[1])
            got = (res["max_rank_found"], res["bound"])
            err = [] if got == (n * n // 4,) * 2 else [f"GL audit {got}, expected rank n^2/4"]
        else:
            n, t, k = inputs["headlines"][int(label.rsplit("-", 1)[1])]
            err = check_headline(n, t, k, res)
        errors += [f"{label}: {e}" for e in err]
    return errors


def check_ideal(item: dict, kind: str, res: dict) -> list[str]:
    degrees, n = item["degrees"], item["nvars"]
    if not item["regular"]:
        if kind == "regular":
            return ["ideal with dependent linear forms reported regular"] if res["regular"] else []
        gens = [oracles.poly_pow(oracles.linear_poly(r, n), d, n)
                for r, d in zip(item["linear"], degrees)]
        expected = oracles.naive_hilbert(gens, degrees, n, item["probe_degree"])
        return [] if res["dim"] == expected else [f"Hilbert value {res['dim']}, elimination gives {expected}"]
    if kind == "total":
        return [] if res["total"] == prod(degrees) else [f"total dim {res['total']} != {prod(degrees)}"]
    expected = oracles.hilbert_series(degrees, n, item["probe_degree"])[-1]
    return [] if res["dim"] == expected else [f"Hilbert value {res['dim']}, series gives {expected}"]


def check_powerspan(item: dict, res: dict) -> list[str]:
    n, p = item["nvars"], item["p"]
    ys = [oracles.linear_poly(y, n) for y in item["ys"]]
    powers = [oracles.poly_pow(y, p, n) for y in ys]
    stable = all(oracles.in_span(oracles.substitute(yp, g, n), powers)
                 for g in item["generators"] for yp in powers)
    permuted = all(oracles.substitute(y, g, n) in ys for g in item["generators"] for y in ys)
    expected = {"stable": stable, "permuted": permuted}
    return [] if res == expected else [f"power span {res}, expected {expected}"]


def check_czero(item: dict, res: dict) -> list[str]:
    v, polys, zero = item["v"], item["polys"], res["zero"]
    if item["label"].startswith("czero-coord"):
        return [] if zero is None else ["a zero reported for a system with only the zero solution"]
    if zero is None:
        return ["no zero reported although Chevalley-Warning guarantees one"]
    if zero == 0 or zero >> v or any(oracles.eval_system(polys, zero)):
        return [f"reported point {zero} is not a nonzero common zero"]
    if zero < 1 << 12 and any(not any(oracles.eval_system(polys, x)) for x in range(1, zero)):
        return ["a smaller common zero exists"]
    return []


def check_headline(n: int, t: int, k: int, res: dict) -> list[str]:
    T, N = t + k - 1, n - k + 1
    err = []
    if (res["T"], res["N"], res["condition"]) != (T, N, 2 * n < t * (k - 1)):
        err.append("T, N or the rank condition is wrong")
    if res["sphere_dim"] != 2 ** (n + t - 1) - 1:
        err.append("sphere dimension is not 2^(n+t-1) - 1")
    if res["browder"] != max(0, -(-(N - T) // T)):
        err.append("Browder bound is wrong")
    if not oracles.carlsson_ok(res["carlsson"], N, T):
        err.append("Carlsson value m does not satisfy (m+1)^T >= 2^N > m^T")
    return err


def corrupt(inputs: dict, results: dict) -> list[tuple[str, dict]]:
    """Wrong answers the checker must reject: a Hilbert value off by one, an
    S_n subgroup count off by one, a non-zero point reported as a zero, a
    Carlsson value off by one."""
    bad = []
    label = next(k for k in results if k.startswith("reg-") and k.endswith("-hilbert"))
    bad.append((label, {"dim": results[label]["dim"] + 1}))
    label = "audit-sn-5"
    if label in results:
        res = results[label]
        bad.append((label, dict(res, subgroups_checked=res["subgroups_checked"] + 1)))
    item = inputs["systems"][0]
    if item["label"] in results:
        point = next(x for x in range(1, 1 << item["v"]) if any(oracles.eval_system(item["polys"], x)))
        bad.append((item["label"], {"zero": point}))
    if "headline-0" in results:
        res = results["headline-0"]
        bad.append(("headline-0", dict(res, carlsson=res["carlsson"] + 1)))
    return bad
