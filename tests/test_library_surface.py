"""A ratchet on the library surface: every module-level function and every
non-dunder method or property in `src/sphererank` is referenced from `src/`
or `bench/*.py` outside its own definition, or is named below with a reason.

A reference to a method or property is an attribute, or a string argument of
a call (`bench/tracing.py` patches by name), with the same spelling; a
function is also referenced by its bare name.  The match is by spelling
alone, so a reference to a namesake keeps a definition off the list: the
ratchet catches a name that nothing spells any more, not every dead method.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sphererank").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

# name -> why it stays with no reference in src/ or bench/
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error; it raises instead of exiting 2",
    "cli._Parser._parse_optional": "argparse calls it per argument; it reads -1,-1 as a value",
    "repaction.MonomialRep.cosets": "the tests' signed-action oracle reads the coset table",
}


def spelled(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each identifier is spelled as a bare name, and as an attribute
    or a string argument of a call (`getattr(obj, "name")`, the tracer's patches)."""
    names: Counter = Counter()
    members: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            members[node.attr] += 1
        elif isinstance(node, ast.Call):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    members[arg.value] += 1
    return names, members


def definitions():
    """(qualified name, bare name, is a method, node) of every function the
    surface counts: module level, or a non-dunder member of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in SOURCES:
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                yield f"{module}.{node.name}", node.name, False, node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, functions) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        yield f"{module}.{node.name}.{member.name}", member.name, True, member


def references(counts: tuple[Counter, Counter], name: str, method: bool) -> int:
    """A method is reached through an attribute or a string; a function also by
    its bare name."""
    names, members = counts
    return members[name] + (0 if method else names[name])


def unreferenced() -> set[str]:
    names: Counter = Counter()
    members: Counter = Counter()
    for path in READERS:
        file_names, file_members = spelled(ast.parse(path.read_text()))
        names += file_names
        members += file_members
    return {
        qualified
        for qualified, name, method, node in definitions()
        if references((names, members), name, method) == references(spelled(node), name, method)
    }


def test_every_library_name_has_a_reader_or_a_reason():
    assert unreferenced() == set(ALLOWED)


def test_the_gf2_values_define_only_what_the_benchmark_reads():
    # bench/common.py reads BitMatrix.row_bits and bench/wl_algebra.py calls
    # BitMatrix.from_bits; bits enter and leave through gf2.bit_rows and bit_string
    tree = ast.parse((ROOT / "src" / "sphererank" / "gf2.py").read_text())
    methods = {node.name: {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert methods["BitVector"] == set()
    assert methods["BitMatrix"] == {"from_bits", "row_bits"}


def test_the_scan_sees_the_definitions_it_counts():
    names = {qualified for qualified, *_ in definitions()}
    assert {"gf2.kernel", "gf2._rref_bits", "forms.FormFamily.beta",
            "gf2.Subspace.dim", "cli._Parser.error"} <= names
    assert not any(name.rsplit(".", 1)[-1].startswith("__") for name in names)
    assert all(reason for reason in ALLOWED.values())
