import subprocess
import sys

import pytest


@pytest.mark.parametrize("module", ["polyalg", "bounds", "repaction"])
def test_import_loads_neither_phigroup_nor_forms(module):
    # repaction and polyalg name PhiGroup, GroupOracle and MonomialRep only in
    # annotations, so importing them must not pull in the form-group modules
    code = (
        f"import sys, sphererank.{module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('sphererank'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert f"sphererank.{module}" in out
    assert "sphererank.phigroup" not in out and "sphererank.forms" not in out


def test_gf2_is_a_leaf():
    # the package __init__ imports errors, so gf2 is loaded under a bare package
    # object: then `import sphererank.gf2` runs gf2 alone and whatever it imports
    code = (
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('sphererank')\n"
        "pkg.__path__ = importlib.util.find_spec('sphererank').submodule_search_locations\n"
        "sys.modules['sphererank'] = pkg\n"
        "import sphererank.gf2\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('sphererank'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["sphererank", "sphererank.gf2"]
