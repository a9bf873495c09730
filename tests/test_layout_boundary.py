"""Only `algebra.py` knows how a term key is packed.

Every other module of the package maps legs and reads terms through
`Algebra` and `TensorElement` methods.  This test parses each of them and
fails on any reference to a private name of the key layout, so that the
format stays behind one module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtwist"
LAYOUT_NAMES = {
    "_layout",
    "_W",
    "_FIELD",
    "_units",
    "_leg_bits",
    "_leg_mask",
    "_x_mask",
    "_h_mask",
    "_field",
    "_mono",
}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "algebra.py")


def _layout_references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in LAYOUT_NAMES:
            yield node.lineno, name


def test_every_module_of_the_package_is_parsed():
    assert {"hopf.py", "verify.py", "model.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_algebra_reads_the_key_layout(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"), filename=module)
    assert list(_layout_references(tree)) == []


def test_the_scan_finds_each_kind_of_reference():
    source = "from .algebra import _W\nx = alg._layout(3)\ny = _FIELD\n"
    assert {name for _, name in _layout_references(ast.parse(source))} == {"_W", "_layout", "_FIELD"}
