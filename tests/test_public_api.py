"""Every public name of the package has a caller outside the tests.

A name in a module's ``__all__`` must be read somewhere in the program, the
scripts or the benchmark, or sit in ``KEEP`` with the reason it stays.  A
name that only tests call is test-only API: it goes, or moves into
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import tbaudit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tbaudit"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Names no program code reads, kept because the acceptance criteria are
# stated in their terms: each is imported by the acceptance tests.
KEEP = {
    "substitution_table": "criterion 8 builds the bricklayer table",
    "check_lemma_containment": "criterion 8 checks the derivative lemma",
    "build_present_toy_cipher": "criterion 6 audits the PRESENT toy",
    "build_secure_toy_cipher": "criterion 7 audits the inversion toys",
    "has_linear_component": "criteria 1 and 3 read the linear component",
    "anti_invariance_order": "criterion 1 reads the inversion box's order",
}


def _program_files():
    """The package (its re-exporting ``__init__`` aside), the scripts, and
    the benchmark without its tests."""
    yield from (p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    yield from (ROOT / "scripts").glob("*.py")
    yield from (p for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_"))


def _read_names():
    """Every name the program reads: as a variable, or as an attribute of a
    package module (``groups.is_primitive``, ``tbaudit.cipher.round_table``),
    not of any object, so that a field such as ``SBoxReport.nonlinearity``
    does not count for a function of the same name.  In the benchmark every
    string counts too, since its tracer names its targets."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} | {"tbaudit"}
    names = set()
    for path in _program_files():
        tree = ast.parse(path.read_text())
        aliases = {"tbaudit"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name.split(".")[0]
                            for a in node.names
                            if a.name.split(".")[0] == "tbaudit"}
            elif isinstance(node, ast.ImportFrom):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in aliases:
                    names.add(node.attr)
            elif (path.parent.name == "perfbench"
                  and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def _module_exports():
    """(module, name) for every entry of every module's ``__all__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                yield from ((path.stem, elt.value) for elt in node.value.elts)


def _imported_names(path):
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_has_a_caller_outside_the_tests():
    read = _read_names()
    uncalled = sorted(f"{module}.{name}" for module, name in _module_exports()
                      if name not in read and name not in KEEP)
    assert not uncalled, f"exported, but only tests call them: {uncalled}"


def test_keep_list_is_short_and_still_needed():
    read = _read_names()
    exported = {name for _, name in _module_exports()}
    acceptance = _imported_names(ACCEPTANCE)
    for name, reason in KEEP.items():
        assert name in exported, f"{name} is kept but no longer exported"
        assert name not in read, f"{name} has a caller now; drop it from KEEP"
        assert name in acceptance, f"{name}: {reason}, but no longer imported"


def test_package_exports_only_module_exports():
    exported = {name for _, name in _module_exports()}
    assert set(tbaudit.__all__) <= exported
