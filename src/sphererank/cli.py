"""Command-line laboratory: every operation as a subcommand with JSON reports.

Reports are canonical JSON (sorted keys, fixed separators, one trailing
newline) so identical invocations are byte-identical.  Integers that can
exceed 64 bits travel as decimal strings.  Exit codes: 0 success, 2
validation error, 3 guard exceeded, 64 unknown subcommand, 65 malformed
JSON input file, 70 internal error (a library module that cannot be
imported).

Every command runs in a fresh interpreter, so each loader and handler imports
the library modules it calls, and `dispatch` builds only the parser of the
command it runs: a command pays for no other command's imports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Callable, NamedTuple, Optional

from . import __version__
from .errors import GuardExceeded, SchemaError, require_keys
from .gf2 import BitMatrix, BitVector, bit_rows, bit_string

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_UNKNOWN_COMMAND = 64
EXIT_BAD_JSON = 65
EXIT_INTERNAL = 70


class _CliError(Exception):
    pass


_INT_LIST = re.compile(r"-?\d+(,-?\d+)*")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2) with usage noise
        raise _CliError(message)

    def _parse_optional(self, arg_string: str):
        # argparse takes "-1,-1" for an option: only a lone negative number is a value
        if _INT_LIST.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


class Report(NamedTuple):
    command: str
    inputs: dict
    result: dict
    provenance: dict
    version: str = __version__

    def to_json(self) -> str:
        return _canonical(self._asdict())


def _canonical(obj: Any) -> str:
    """Canonical JSON: sorted keys, fixed separators, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: Optional[str], flag: str) -> None:
    """Write to the file named by `flag` when it is given, else to stdout."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission, ...
        reason = exc.strerror or "I/O error"
        raise SchemaError([f"{flag} {out}: cannot write file ({reason})"]) from exc


def _error_json(code: str, message: str, **extra: Any) -> str:
    return _canonical({"error": {"code": code, "message": message, **extra}})


# -- input loading -------------------------------------------------------------


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise SchemaError([f"{path}: file not found"]) from exc
    except OSError as exc:  # a directory, no permission, ...
        raise SchemaError([f"{path}: cannot read file ({exc.strerror or 'I/O error'})"]) from exc
    except UnicodeDecodeError as exc:
        raise _BadJson(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return _parse_json(text, path)


def _parse_json(text: str, where: str) -> Any:
    """The JSON document `text`; one that does not parse is _BadJson naming `where`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _BadJson(f"{where}: {exc}") from exc
    except RecursionError as exc:
        raise _BadJson(f"{where}: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise _BadJson(f"{where}: integer literal longer than {limit} digits") from exc


class _BadJson(Exception):
    pass


def load_family(path: str) -> forms.FormFamily:
    from . import forms
    return forms.FormFamily.from_json_dict(_as_dict(_load_json(path), path))


def load_table(path: str) -> repaction.GroupOracle:
    from . import repaction
    obj = _as_dict(_load_json(path), path)
    require_keys(obj, "order", "mul")
    if type(obj["order"]) is not int:
        raise SchemaError(["order: must be an integer"])
    if not 1 <= obj["order"] <= repaction.ORDER_GUARD:
        raise SchemaError([f"order: must be in 1..{repaction.ORDER_GUARD}"])
    if not isinstance(obj["mul"], list) or len(obj["mul"]) != obj["order"]:
        raise SchemaError(["mul: must be an order x order table"])
    try:
        return repaction.GroupOracle.from_table(obj["mul"])
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError([f"mul: {exc}"]) from exc


def load_ideal(path: str) -> polyalg.IdealGens:
    from . import polyalg
    obj = _as_dict(_load_json(path), path)
    require_keys(obj, "nvars", "gens")
    nvars, gen_objs = obj["nvars"], obj["gens"]
    if type(nvars) is not int:
        raise SchemaError(["nvars: must be an integer"])
    if not isinstance(gen_objs, list):
        raise SchemaError(["gens: must be a list of objects"])
    gens = []
    for i, g in enumerate(gen_objs):
        if not isinstance(g, dict):
            raise SchemaError([f"gens[{i}]: must be an object"])
        if "monomials" not in g:
            raise SchemaError([f"gens[{i}]: missing key 'monomials'"])
        gen_nvars = g.get("nvars", nvars)
        if type(gen_nvars) is not int or gen_nvars != nvars:
            raise SchemaError([f"gens[{i}].nvars: must equal the document's nvars"])
        try:
            gens.append(polyalg.GradedPoly.from_json_dict({**g, "nvars": nvars}))
        except SchemaError as exc:
            raise SchemaError([f"gens[{i}].{f}" for f in exc.fields]) from exc
    return polyalg.IdealGens(nvars, tuple(gens))


def load_system(path: str) -> forms.QuadraticSystem:
    from . import forms
    return forms.QuadraticSystem.from_json_dict(_as_dict(_load_json(path), path))


def load_action(path: str) -> polyalg.LinearAction:
    from . import polyalg
    obj = _as_dict(_load_json(path), path)
    require_keys(obj, "nvars", "generators")
    nvars, matrices = obj["nvars"], obj["generators"]
    if type(nvars) is not int:
        raise SchemaError(["nvars: must be an integer"])
    if not isinstance(matrices, list):
        raise SchemaError(["generators: must be a list of matrices"])
    gens = []
    for i, rows in enumerate(matrices):
        try:
            cols, rows = bit_rows(rows)
            if len(rows) != nvars or cols != nvars:
                raise ValueError("wrong shape")
            gens.append(BitMatrix(nvars, nvars, rows))
        except ValueError as exc:
            raise SchemaError([f"generators[{i}]: {exc}"]) from exc
    try:
        return polyalg.LinearAction(nvars, tuple(gens))
    except ValueError as exc:
        raise SchemaError([f"generators: {exc}"]) from exc


def _as_dict(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError([f"{path}: top-level JSON value must be an object"])
    return obj


def _ints(text: str, flag: str) -> list[int]:
    """Comma-separated integers, each token its own canonical decimal spelling
    (so not "", " 1", "+1", "01", "-0" or "1_0"); "" is the empty list."""
    tokens = text.split(",") if text else []
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        values = []
    if list(map(str, values)) != tokens:
        raise _CliError(f"{flag}: expected comma-separated integers, got {text!r}")
    return values


def _seed(args) -> int:
    """args.seed, refused outside 0..2^64 - 1: splitmix64 keeps only the low
    64 bits, so a seed outside would print another seed's family."""
    if not 0 <= args.seed < 1 << 64:
        raise _CliError(f"--seed: must be in 0..{(1 << 64) - 1}, got {args.seed}")
    return args.seed


def _json_list(text: str, name: str, items: str) -> list:
    """A JSON list given inline (text starting with '[') or in the file it names."""
    data = _parse_json(text, name) if text.lstrip().startswith("[") else _load_json(text)
    if not isinstance(data, list):
        raise SchemaError([f"{name}: must be a list of {items}"])
    return data


def _is_int_list(value: Any, allowed: Optional[tuple[int, ...]] = None) -> bool:
    """A JSON list of ints (not bools), each in `allowed` if given."""
    return isinstance(value, list) and all(
        type(v) is int and (allowed is None or v in allowed) for v in value
    )


def _load_group_and_reps(args) -> tuple[repaction.GroupOracle, list[repaction.MonomialRep]]:
    from . import repaction
    oracle = _load_group(args)
    if args.reps:
        reps = []
        for i, item in enumerate(_json_list(args.reps, "reps", "{c_gens, chars} objects")):
            if not (isinstance(item, dict) and _is_int_list(item.get("c_gens"))
                    and _is_int_list(item.get("chars"), (1, -1))):
                raise SchemaError([f"reps[{i}]: needs c_gens, a list of integer ids, "
                                   "and chars, a list of +1/-1 ints"])
            reps.append(repaction.build_induced(oracle, item["c_gens"], item["chars"]))
        return oracle, reps
    if oracle.phi is None:
        raise SchemaError(["reps: required when the group comes from a Cayley table"])
    return oracle, [repaction.build_induced(oracle, [b], [-1]) for b in oracle.phi.b_ids()]


def _load_group(args) -> repaction.GroupOracle:
    from . import phigroup, repaction
    if (args.family is None) == (args.table is None):
        raise _CliError("exactly one of --family or --table is required")
    if args.family:
        return repaction.GroupOracle.from_phi_group(phigroup.PhiGroup(load_family(args.family)))
    return load_table(args.table)


# -- command handlers ----------------------------------------------------------

_MODES = {"exhaustive": "exhaustive", "bnb": "branch_and_bound"}


def _cmd_forms_gen(args) -> dict:
    from . import forms
    fam = forms.random_family(args.n, args.t, _seed(args))
    if args.save_family:
        _emit(_canonical(fam.to_json_dict()), args.save_family, "--save-family")
    return {"family": fam.to_json_dict()}


def _cmd_forms_czero(args) -> dict:
    from . import forms
    system = load_system(args.system)
    zero = forms.common_zero_quadratics(system)
    return {
        "zero": bit_string(zero.bits, zero.n) if zero is not None else None,
        "exhaustive": True,
        "variables": system.v,
    }


def _cmd_group_info(args) -> dict:
    from . import phigroup
    fam = load_family(args.family)
    G = phigroup.PhiGroup(fam)
    c = phigroup.center(G)
    return {
        "n": G.n,
        "t": G.t,
        "order": str(G.order),
        "center_rank": c.rank,
        "center_a_radical_dim": c.a_radical.dim,
        "center_order4_dim": phigroup.center_order4_dim(G, c),
    }


def _cmd_group_rank(args) -> dict:
    from . import phigroup
    fam = load_family(args.family)
    res = phigroup.max_isotropic_qzero(fam, mode=_MODES[args.mode])
    return {
        "rank": fam.t + res.dim,
        "isotropic_dim": res.dim,
        "witness": [bit_string(v.bits, v.n) for v in res.witness.basis],
    }


def _cmd_group_profile(args) -> dict:
    from . import phigroup
    fam = load_family(args.family)
    profile = phigroup.extension_profile(phigroup.PhiGroup(fam), mode=_MODES[args.mode])
    return {
        "T": profile.T,
        "N": profile.N,
        "witness": [bit_string(v.bits, v.n) for v in profile.v_witness.basis],
    }


def _cmd_search_olshanskii(args) -> dict:
    from . import phigroup
    res = phigroup.search_forms(args.n, args.t, args.k, args.trials, _seed(args))
    if res.family is not None and args.save_family:
        _emit(_canonical(res.family.to_json_dict()), args.save_family, "--save-family")
    return {
        "condition_holds": res.condition_holds,
        "found": res.family is not None,
        "trial_index": res.trial_index,
        "trials_run": res.trials_run,
        "rank_target": args.t + args.k - 1,
        "skipped_guard": res.skipped_guard,
        "family": res.family.to_json_dict() if res.family is not None else None,
    }


def _cmd_rep_free(args) -> dict:
    from . import repaction
    oracle, reps = _load_group_and_reps(args)
    return {**repaction.is_free_on_product(oracle, reps)._asdict(), "factors": len(reps)}


def _cmd_rep_isotropy(args) -> dict:
    from . import repaction
    oracle, reps = _load_group_and_reps(args)
    return {**repaction.max_isotropy_rank(oracle, reps)._asdict(), "factors": len(reps)}


def _cmd_rep_twocentral(args) -> dict:
    from . import repaction
    oracle = _load_group(args)
    return {"two_central": repaction.is_two_central(oracle)}


def _cmd_poly_hilbert(args) -> dict:
    from . import polyalg
    ideal = load_ideal(args.ideal)
    return {"dim": polyalg.hilbert_function(ideal, args.degree), "degree": args.degree}


def _cmd_poly_regseq(args) -> dict:
    from . import polyalg
    total_dim = polyalg.quotient_total_dim(load_ideal(args.ideal))
    return {"regular": total_dim is not None, "total_dim": total_dim}


def _cmd_poly_euler(args) -> dict:
    from . import polyalg, repaction
    oracle = _load_group(args)
    c_gens, chars = _ints(args.c_gens, "--c-gens"), _ints(args.chars, "--chars")
    rep = repaction.build_induced(oracle, c_gens, chars)
    euler = polyalg.euler_class_restriction(rep, _ints(args.e_gens, "--e-gens"), args.e_rank)
    return {"euler": euler.to_json_dict(), "is_zero": euler.is_zero(), "rep_dim": rep.dim}


def _cmd_poly_powertest(args) -> dict:
    from . import polyalg
    action = load_action(args.action)
    ys = []
    for i, coords in enumerate(_json_list(args.ys, "ys", "0/1 coordinate lists")):
        if not _is_int_list(coords, (0, 1)):
            raise SchemaError([f"ys[{i}]: must be a list of 0/1 ints"])
        if len(coords) != action.nvars:
            raise SchemaError([f"ys[{i}]: must have {action.nvars} coordinates, one per variable"])
        bits = sum(c << j for j, c in enumerate(coords))
        ys.append(polyalg.GradedPoly.linear(action.nvars, BitVector(action.nvars, bits)))
    res = polyalg.power_span_test(action, ys, args.p)
    return {"stable": res.stable, "permuted": res.permuted}


def _cmd_bounds_rp_rank(args) -> dict:
    from . import bounds
    return {
        "free_rank": bounds.free_rank_rp(args.m, args.n),
        "caveat_small_m": args.m <= bounds.SMALL_SPHERE_CAVEAT,
    }


def _decimal(value: int) -> str:
    """Exact decimal string, also past the interpreter's int-to-str digit limit."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_bounds_headline(args) -> dict:
    from . import bounds
    rep = bounds.headline_report(args.n, args.t, args.k)
    sphere_dim = _decimal(rep.sphere_dim)
    return {
        "condition_holds": rep.condition_holds,
        "T_bound": rep.T_bound,
        "N_bound": rep.N_bound,
        "sphere_dim": sphere_dim,
        "sphere_dim_digits": len(sphere_dim),
        "browder_min_m": rep.browder_min_m,
        "carlsson_exact": _decimal(rep.carlsson_min_m.exact),
        "carlsson_paper_weak": _decimal(rep.carlsson_min_m.paper_weak),
    }


def _cmd_audit_sn(args) -> dict:
    from . import bounds
    return bounds.perm_rank_audit(args.n)._asdict()


def _cmd_audit_gl(args) -> dict:
    from . import bounds
    res = bounds.gl_rank_audit(args.n)
    return {**res._asdict(), "ok": res.max_rank_found <= res.bound}


# -- registry ------------------------------------------------------------------


def _add_group(p: _Parser) -> None:  # _load_group requires exactly one
    p.add_argument("--family", default=None)
    p.add_argument("--table", default=None)


# name -> (handler, flags): dispatch builds the parser of the one command it runs
_COMMANDS: dict[str, tuple[Callable, Callable[[_Parser], None]]] = {
    "forms gen": (_cmd_forms_gen, lambda p: (
        p.add_argument("--n", type=int, required=True),
        p.add_argument("--t", type=int, required=True),
        p.add_argument("--seed", type=int, default=0),
        p.add_argument("--save-family", default=None),
    )),
    "forms czero": (_cmd_forms_czero, lambda p: (
        p.add_argument("--system", required=True),
    )),
    "group info": (_cmd_group_info, lambda p: (
        p.add_argument("--family", required=True),
    )),
    "group rank": (_cmd_group_rank, lambda p: (
        p.add_argument("--family", required=True),
        p.add_argument("--mode", choices=sorted(_MODES), default="bnb"),
    )),
    "group profile": (_cmd_group_profile, lambda p: (
        p.add_argument("--family", required=True),
        p.add_argument("--mode", choices=sorted(_MODES), default="bnb"),
    )),
    "search olshanskii": (_cmd_search_olshanskii, lambda p: (
        p.add_argument("--n", type=int, required=True),
        p.add_argument("--t", type=int, required=True),
        p.add_argument("--k", type=int, required=True),
        p.add_argument("--trials", type=int, default=1000),
        p.add_argument("--seed", type=int, default=0),
        p.add_argument("--save-family", default=None),
    )),
    "rep free": (_cmd_rep_free, lambda p: (
        _add_group(p),
        p.add_argument("--reps", default=None),
    )),
    "rep isotropy": (_cmd_rep_isotropy, lambda p: (
        _add_group(p),
        p.add_argument("--reps", default=None),
    )),
    "rep twocentral": (_cmd_rep_twocentral, _add_group),
    "poly hilbert": (_cmd_poly_hilbert, lambda p: (
        p.add_argument("--ideal", required=True),
        p.add_argument("--degree", type=int, required=True),
    )),
    "poly regseq": (_cmd_poly_regseq, lambda p: (
        p.add_argument("--ideal", required=True),
    )),
    "poly euler": (_cmd_poly_euler, lambda p: (
        _add_group(p),
        p.add_argument("--c-gens", dest="c_gens", required=True),
        p.add_argument("--chars", required=True),
        p.add_argument("--e-gens", dest="e_gens", required=True),
        p.add_argument("--e-rank", dest="e_rank", type=int, required=True),
    )),
    "poly powertest": (_cmd_poly_powertest, lambda p: (
        p.add_argument("--action", required=True),
        p.add_argument("--ys", required=True),
        p.add_argument("--p", type=int, required=True),
    )),
    "bounds rp-rank": (_cmd_bounds_rp_rank, lambda p: (
        p.add_argument("--m", type=int, required=True),
        p.add_argument("--n", type=int, required=True),
    )),
    "bounds headline": (_cmd_bounds_headline, lambda p: (
        p.add_argument("--n", type=int, required=True),
        p.add_argument("--t", type=int, required=True),
        p.add_argument("--k", type=int, required=True),
    )),
    "audit sn": (_cmd_audit_sn, lambda p: (
        p.add_argument("--n", type=int, required=True),
    )),
    "audit gl": (_cmd_audit_gl, lambda p: (
        p.add_argument("--n", type=int, required=True),
    )),
}


def _report(name: str, args, result: dict) -> Report:
    guards_hit = []
    if result.get("caveat_small_m"):
        guards_hit.append("small_sphere_caveat")
    if result.get("skipped_guard"):
        guards_hit.append(result["skipped_guard"])
    provenance = {
        "seed": str(getattr(args, "seed", 0)),
        "trials": getattr(args, "trials", None),
        "guards_hit": guards_hit,
    }
    inputs = {k: v for k, v in sorted(vars(args).items()) if k != "out" and v is not None}
    return Report(command=name, inputs=inputs, result=result, provenance=provenance)


def dispatch(argv: list[str]) -> int:
    if len(argv) < 2 or " ".join(argv[:2]) not in _COMMANDS:
        known = ", ".join(sorted(_COMMANDS))
        sys.stdout.write(
            _error_json("unknown_command", f"expected one of: {known}", argv=argv[:2])
        )
        return EXIT_UNKNOWN_COMMAND
    name = " ".join(argv[:2])
    handler, flags = _COMMANDS[name]
    parser = _Parser(prog=f"sphererank {name}", add_help=True, allow_abbrev=False)
    flags(parser)
    parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv[2:])
    except _CliError as exc:
        sys.stdout.write(_error_json("validation", str(exc)))
        return EXIT_VALIDATION
    try:
        _emit(_report(name, args, handler(args)).to_json(), args.out, "--out")
    except _BadJson as exc:
        sys.stdout.write(_error_json("malformed_json", str(exc)))
        return EXIT_BAD_JSON
    except GuardExceeded as exc:
        sys.stdout.write(_error_json("guard_exceeded", str(exc), guard=exc.guard))
        return EXIT_GUARD
    except SchemaError as exc:
        sys.stdout.write(_error_json("validation", str(exc), fields=exc.fields))
        return EXIT_VALIDATION
    except (ValueError, TypeError, KeyError, _CliError) as exc:
        sys.stdout.write(_error_json("validation", str(exc)))
        return EXIT_VALIDATION
    except ImportError as exc:  # a handler's or loader's own import of a library module
        module = exc.name or "unknown"
        sys.stdout.write(_error_json("internal", f"cannot import module {module}", module=module))
        return EXIT_INTERNAL
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
