"""The names `perfbench/tracer.py` rebinds at run time must exist where it
looks for them.  A rename or a method moved into a base class would
otherwise break `perfbench/run.py --trace 1` with an AttributeError, or
silently drop its spans.  The tracer is read from its file, never
imported as a package and never installed.  Its names also bound `src/`
from the other side: a top-level definition, public or private, or a
non-dunder method, that neither other `src/` code nor the tracer reads is
test-only or dead.
"""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from stickelberger.cyclotomic import BiCycInt, CycInt

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SRC_MODULES = sorted((ROOT / "src" / "stickelberger").glob("[!_]*.py"))


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    code = compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec")
    exec(code, module.__dict__)
    return module


WRAPPED = _load_tracer().WRAPPED


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_path_resolves(name):
    owner = importlib.import_module("stickelberger." + name.split(".")[0])
    *cls_path, attr = WRAPPED[name].split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
    if cls_path:
        # the tracer rebinds class attributes in vars(cls) only
        assert attr in vars(owner), f"{WRAPPED[name]} is inherited, not defined"


def test_class_level_paths_are_the_two_products():
    class_paths = sorted(path for path in WRAPPED.values() if "." in path)
    assert class_paths == ["BiCycInt.__mul__", "CycInt.__mul__"]


def test_term_pair_hook_can_coerce():
    # the term-pair count calls a._coerce(b) on the product's operands
    assert CycInt.zeta(5)._coerce(2) == CycInt.from_int(5, 2)
    one = BiCycInt.from_int(5, 3, 1)
    assert one._coerce(2) == BiCycInt.from_int(5, 3, 2)
    assert one._coerce(one) is one


def test_bernoulli_cache_is_a_list():
    import stickelberger.regularity as regularity

    assert isinstance(regularity._bernoulli_cache, list)


def _names_read(node):
    """How often each name is read in node, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_is_used_by_src_or_traced():
    # a top-level function or class, public or private, or a non-dunder
    # method of a src/ class, that no src/ code other than itself reads
    # and the tracer does not wrap is test-only or dead: it belongs in
    # tests/reference.py or nowhere
    modules = [ast.parse(path.read_text()) for path in SRC_MODULES]
    definitions = []
    for module in modules:
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                definitions += [
                    (f"{stmt.name}.{item.name}", item)
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    traced = set(WRAPPED.values()) | {path.split(".")[0] for path in WRAPPED.values()}
    reads = sum(map(_names_read, modules), Counter())
    unused = [
        path
        for path, node in definitions
        if path not in traced
        and reads[node.name] == _names_read(node)[node.name]
    ]
    assert unused == []
