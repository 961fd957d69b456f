import json
import subprocess
import sys

import pytest

LIST_LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('sphererank'))))\n"


def loaded_modules(code: str, *args: str) -> list[str]:
    """The sphererank modules loaded after `code` runs in a fresh interpreter
    (the last line it prints; a CLI command prints its report before it)."""
    proc = subprocess.run([sys.executable, "-c", code + LIST_LOADED, *args],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("module", ["polyalg", "bounds", "repaction"])
def test_import_loads_neither_phigroup_nor_forms(module):
    # repaction and polyalg name PhiGroup, GroupOracle and MonomialRep only in
    # annotations, so importing them must not pull in the form-group modules
    out = loaded_modules(f"import sys, sphererank.{module}\n")
    assert f"sphererank.{module}" in out
    assert "sphererank.phigroup" not in out and "sphererank.forms" not in out


def test_bounds_import_loads_no_repaction():
    # only the two audits walk elementary abelian subgroups, and they import
    # the search when they run
    out = loaded_modules("import sys, sphererank.bounds\n")
    assert out == ["sphererank", "sphererank.bounds", "sphererank.errors", "sphererank.gf2"]


def test_gf2_is_a_leaf():
    # the package __init__ imports errors, so gf2 is loaded under a bare package
    # object: then `import sphererank.gf2` runs gf2 alone and whatever it imports
    out = loaded_modules(
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('sphererank')\n"
        "pkg.__path__ = importlib.util.find_spec('sphererank').submodule_search_locations\n"
        "sys.modules['sphererank'] = pkg\n"
        "import sphererank.gf2\n"
    )
    assert out == ["sphererank", "sphererank.gf2"]


@pytest.fixture
def inputs(tmp_path):
    family = tmp_path / "d8.json"
    family.write_text(json.dumps({"n": 2, "t": 1, "forms": [["01", "10"]]}))
    ideal = tmp_path / "powers.json"
    ideal.write_text(json.dumps({"nvars": 2, "gens": [{"monomials": [[4, 0]]},
                                                      {"monomials": [[0, 4]]}]}))
    return {"family": str(family), "ideal": str(ideal)}


def command_modules(*argv: str) -> set[str]:
    """The sphererank modules a CLI command loads, run to success in a fresh interpreter."""
    out = loaded_modules(
        "import sys\n"
        "from sphererank import cli\n"
        "assert cli.dispatch(sys.argv[1:]) == cli.EXIT_OK\n",
        *argv,
    )
    return {m.removeprefix("sphererank.") for m in out}


def test_bounds_rp_rank_loads_only_bounds():
    loaded = command_modules("bounds", "rp-rank", "--m", "5", "--n", "3")
    assert loaded == {"sphererank", "errors", "gf2", "cli", "bounds"}


def test_group_rank_loads_no_polynomial_or_action_modules(inputs):
    loaded = command_modules("group", "rank", "--family", inputs["family"])
    assert {"phigroup", "forms"} <= loaded
    assert not loaded & {"polyalg", "bounds", "repaction"}


def test_poly_regseq_loads_no_group_modules(inputs):
    loaded = command_modules("poly", "regseq", "--ideal", inputs["ideal"])
    assert "polyalg" in loaded
    assert not loaded & {"phigroup", "forms", "repaction", "bounds"}


def test_audit_sn_loads_the_subgroup_search_only():
    loaded = command_modules("audit", "sn", "--n", "4")
    assert {"bounds", "repaction"} <= loaded
    assert not loaded & {"phigroup", "forms", "polyalg"}


def test_no_command_loads_dataclasses(inputs):
    # dataclasses loads inspect, ast, dis and tokenize: about 8 ms of every
    # command's start, for value types that a NamedTuple or a plain class serves
    argv = [["bounds", "rp-rank", "--m", "5", "--n", "3"],
            ["group", "rank", "--family", inputs["family"]],
            ["poly", "regseq", "--ideal", inputs["ideal"]],
            ["audit", "sn", "--n", "4"]]
    code = (
        "import importlib, json, os, sys\n"
        "import sphererank\n"
        "from sphererank import cli\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert cli.dispatch(args) == cli.EXIT_OK\n"
        "for name in sorted(os.listdir(sphererank.__path__[0])):\n"
        "    if name.endswith('.py') and name != '__init__.py':\n"
        "        importlib.import_module('sphererank.' + name[:-3])\n"
        "print('dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
