"""The benchmark's tracer patches names of the package; each must exist and come back.

`bench/tracing.py` wraps package functions and methods by name.  A renamed or
deleted name makes `install` fail here, and `uninstall` must leave every
module and class attribute exactly as it found it.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

# `install` imports every module it patches, and patches the CLI loaders only
# once the CLI is loaded; a CLI command loads only the modules it runs, so all
# of them are imported here for the `before` snapshot to hold each one
import sphererank.cli  # noqa: F401
from sphererank import bounds, forms, gf2, phigroup, polyalg, repaction  # noqa: F401
from sphererank.forms import random_family

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes() -> dict:
    """Every attribute of every sphererank module and of each class it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("sphererank"):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_installs_and_restores_every_hook():
    tracer = load_tracing().Tracer()
    before = package_attributes()
    tracer.install()
    try:
        patched = list(tracer._undo)
        assert len(patched) > 30
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
        # e_0 pairs to 1 with every other basis vector under some form, so the
        # unit path keeps e_0 alone, short of the maximum 2, and the scan runs
        fam = random_family(6, 2, 3)
        res = phigroup.max_isotropic_qzero(fam)  # looked up at call time, so traced
        _, counts = tracer.take()
        assert counts["phigroup.isotropic_calls"] == 1
        assert counts["phigroup.qzero_candidates"] > 0
    finally:
        tracer.uninstall()
    assert tracer._undo == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before), [
        key for key in before if after[key] is not before[key]
    ]
    assert phigroup.max_isotropic_qzero(fam) == res
