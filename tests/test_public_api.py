"""Every public name of the package has a caller outside the tests.

Each module's ``__all__`` is the one statement of its public API; the
package re-exports nothing.  Three rules hold:

- every entry of a module's ``__all__`` is bound in that module;
- every entry is read by reachable program code, or sits in ``KEEP`` with
  the reason it stays;
- so is every public method or property of a class in an ``__all__``,
  read as an attribute of any object.

Program code is the package, the scripts, and the benchmark without its
tests.  Reachable code is found by a fixpoint: module-level code, the body
of a ``KEEP`` name, and the body of every definition that reachable code
reads.  So a name read only by another name that only tests call does not
count as read.  A name that only tests call is test-only API: it goes, or
moves into ``tests/oracles.py``.

The check goes by name, not by type.  A method passes when any object's
attribute of that name is read, so a test-only ``inverse`` on one class
would pass because ``BitMatrix.inverse`` is read; and all definitions of
one name are reached together.  Dataclass fields are outside the guard: a field is set
by its constructor, so a reader is not what keeps it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tbaudit"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Names no program code reads, kept because the acceptance criteria are
# stated in their terms: each is read by the acceptance tests.
KEEP = {
    "substitution_table": "criterion 8 builds the bricklayer table",
    "check_lemma_containment": "criterion 8 checks the derivative lemma",
    "build_present_toy_cipher": "criterion 6 audits the PRESENT toy",
    "build_secure_toy_cipher": "criterion 7 audits the inversion toys",
    "has_linear_component": "criteria 1 and 3 read the linear component",
    "anti_invariance_order": "criterion 1 reads the inversion box's order",
    "BlockSystem.blocks": "criterion 9 compares block systems as blocks",
    "DDTable.row_image_size": "criterion 2 reads each row's image size",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Unit:
    """One piece of program code: a module's top level, a function or
    method body, or a class body without its methods.  ``kind`` says how a
    definition is reached: by a name ("name"), by an attribute ("attr"), or
    with its class (a dunder, which Python calls implicitly)."""

    def __init__(self, kind, name, nodes, aliases, strings, owner=None):
        self.kind, self.name, self.owner = kind, name, owner
        self.names, self.attrs = set(), set()
        for node in nodes:
            self._read(node, aliases, strings)

    def _read(self, node, aliases, strings):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self.names.add(node.id)
        elif isinstance(node, ast.Attribute):
            self.attrs.add(node.attr)
            # an attribute of a package module (``groups.is_primitive``,
            # ``tbaudit.cipher.round_table``) reads the name itself, an
            # attribute of any other object does not
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                self.names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            self.names.add(node.value)


def _walk(node, defs):
    """The nodes of ``node`` outside nested definitions, which go to
    ``defs``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            defs.append(child)
        else:
            yield child
            yield from _walk(child, defs)


def _program_files():
    yield from PACKAGE.glob("*.py")
    yield from (ROOT / "scripts").glob("*.py")
    yield from (p for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_"))


def _units():
    """Every unit of the program.  In the benchmark every string counts as
    a read too, since its tracer names its targets."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} | {"tbaudit"}
    units = []
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
        strings = path.parent.name == "perfbench"
        top = []
        units.append(_Unit("module", path.name, _walk(tree, top), aliases,
                           strings))
        for node in top:
            if isinstance(node, ast.ClassDef):
                methods = []
                units.append(_Unit("name", node.name, _walk(node, methods),
                                   aliases, strings))
                for m in methods:
                    kind = "dunder" if m.name.startswith("__") else "attr"
                    units.append(_Unit(kind, m.name, ast.walk(m), aliases,
                                       strings, owner=node.name))
            else:
                units.append(_Unit("name", node.name, ast.walk(node),
                                   aliases, strings))
    return units


def _reachable_reads(keep):
    """(names, attributes) read by reachable code, with the bodies of the
    ``keep`` names as roots."""
    units = _units()
    names, attrs = set(), set()

    def seeded(u):
        return u.kind == "module" or (
            (f"{u.owner}.{u.name}" if u.owner else u.name) in keep)

    left = []
    for u in units:
        if seeded(u):
            names |= u.names
            attrs |= u.attrs
        else:
            left.append(u)
    changed = True
    while changed:
        changed = False
        for u in list(left):
            if (u.kind == "name" and u.name in names
                    or u.kind == "attr" and u.name in attrs
                    or u.kind == "dunder" and u.owner in names):
                left.remove(u)
                names |= u.names
                attrs |= u.attrs
                changed = True
    return names, attrs


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _bound_names(tree):
    bound = set()
    for node in tree.body:
        if isinstance(node, _DEFS):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {n.id for t in node.targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
        elif isinstance(node, ast.AnnAssign):
            bound.add(node.target.id)
    return bound


def _public_api():
    """(qualified name, name, kind) for every export and every public
    method or property of an exported class."""
    for module, tree in _modules():
        exported = _exports(tree)
        yield from ((f"{module}.{name}", name, "name") for name in exported)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                yield from ((f"{module}.{node.name}.{m.name}",
                             f"{node.name}.{m.name}", "attr")
                            for m in node.body
                            if isinstance(m, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                            and not m.name.startswith("_"))


def _unread(keep):
    names, attrs = _reachable_reads(keep)
    return sorted(qual for qual, name, kind in _public_api()
                  if name not in keep
                  and (name.split(".")[-1] not in attrs if kind == "attr"
                       else name not in names))


def test_every_exported_name_is_bound_in_its_module():
    unbound = sorted(f"{module}.{name}" for module, tree in _modules()
                     for name in _exports(tree)
                     if name not in _bound_names(tree))
    assert not unbound, f"in __all__ but not bound: {unbound}"


def test_every_exported_name_has_a_caller_outside_the_tests():
    uncalled = _unread(KEEP)
    assert not uncalled, f"public, but only tests call them: {uncalled}"


def test_keep_list_is_short_and_still_needed():
    public = {name for _, name, _ in _public_api()}
    acceptance = _Unit("module", ACCEPTANCE.name,
                       ast.walk(ast.parse(ACCEPTANCE.read_text())), set(),
                       False)
    unread = _unread({})
    for name, reason in KEEP.items():
        assert name in public, f"{name} is kept but no longer public"
        assert any(q.endswith(f".{name}") for q in unread), (
            f"{name} has a caller now; drop it from KEEP")
        read = acceptance.attrs if "." in name else acceptance.names
        assert name.split(".")[-1] in read, (
            f"{name}: {reason}, but the acceptance tests no longer read it")


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # the package imports nothing, so no fixed import order hides a cycle
    proc = subprocess.run([sys.executable, "-B", "-c",
                           f"import tbaudit.{module}"],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
