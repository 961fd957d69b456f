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
