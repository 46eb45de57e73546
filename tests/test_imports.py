"""Every module-level import in src/matzero is used somewhere in its
module.  The package ``__init__.py`` is skipped, since its imports are
the public re-exports, and so is ``from __future__``.  Every private
name that src/matzero defines is used somewhere in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matzero"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node) -> set[str]:
    """Names inside an annotation, including a quoted one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that no
    expression, annotation or ``__all__`` entry of the module uses."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detector_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp, json\n"
        "from typing import Iterable, Sequence\n"
        "from .a import B, C as D, E\n"
        "__all__ = ['E']\n"
        "def f(x: 'Iterable[int]') -> \"B\":\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["os", "osp", "Sequence", "D"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, node) for the private functions, classes and constants at
    module level, the private methods of its classes and the private
    attributes that their methods assign on ``self``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    yield target.id, node
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(item.name):
                yield item.name, item
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                            and target.value.id == "self" and _private(target.attr)):
                        yield target.attr, sub


def _reads(node):
    """The names that ``node`` reads: loaded names and attributes, and
    string constants such as ``getattr`` arguments."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def dead_private_names(sources: dict) -> list[str]:
    """The private names defined in ``sources`` (module name -> text)
    that no code of any of them reads outside the definition itself, as
    "module.name"."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if reads[name] == sum(1 for read in _reads(node) if read == name):
                dead.append(f"{module}.{name}")
    return dead


def test_detector_finds_dead_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._kept = 1\n"
            "        self._kept_bits = ()\n"
            "    def _matrix_triple(self):\n"
            "        return self._kept\n"
            "    def _named(self):\n"
            "        return 0\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "b": (
            "from .a import _helper\n"
            "def f(box):\n"
            "    return _helper(), getattr(box, '_named')()\n"
        ),
    }
    assert dead_private_names(sources) == [
        "a._UNUSED", "a._recursive", "a._matrix_triple", "a._kept_bits",
    ]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


BARE_EXCEPTIONS = {"ValueError", "KeyError", "IndexError", "RuntimeError", "NotImplementedError"}


def bare_raises(source: str) -> list[str]:
    """The builtin exceptions in ``BARE_EXCEPTIONS`` that a ``raise``
    statement of ``source`` raises by name, called or not, as
    "line:name"; a re-raise, a raised variable and a typed error are not
    flagged."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BARE_EXCEPTIONS:
            out.append((node.lineno, exc.id))
    return [f"{line}:{name}" for line, name in sorted(out)]


def test_detector_finds_bare_builtin_raises():
    source = (
        "from .errors import ArgumentError\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n"
        "    if x == 0:\n"
        "        raise ArgumentError('zero')\n"
        "    try:\n"
        "        return {}[x]\n"
        "    except KeyError as exc:\n"
        "        raise ArgumentError(str(exc)) from None\n"
        "    except IndexError:\n"
        "        raise\n"
        "def g():\n"
        "    raise NotImplementedError\n"
        "def h(err):\n"
        "    raise err\n"
        "def i():\n"
        "    raise RuntimeError(f'{1}') from None\n"
    )
    assert bare_raises(source) == ["4:ValueError", "14:NotImplementedError", "18:RuntimeError"]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_bare_builtin_raises(path):
    """Bad input raises a typed MatZeroError, never a bare builtin one."""
    assert bare_raises(path.read_text(encoding="utf-8")) == []


#: the one function outside gfq.py that may reduce against a basis by
#: hand: the pass that tracks coordinates
REDUCE_CALLERS = {"_standard_rows"}


def field_reduce_reads(source: str) -> list[str]:
    """The top-level functions and classes of ``source`` outside
    ``REDUCE_CALLERS`` that read a ``.reduce`` attribute, calling it or
    binding it for a later call, as "line:name"."""
    out = []
    for node in ast.parse(source).body:
        if getattr(node, "name", None) in REDUCE_CALLERS:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "reduce":
                out.append(f"{sub.lineno}:{getattr(node, 'name', '<module>')}")
    return out


def test_detector_finds_hand_rolled_elimination():
    source = (
        "def _standard_rows(field, rows):\n"
        "    return field.reduce([], rows[0])\n"
        "def spans(field, rows):\n"
        "    reduce, normalize = field.reduce, field.normalize\n"
        "    return [normalize(reduce([], v)) for v in rows]\n"
        "class Minor:\n"
        "    def __init__(self, field, v):\n"
        "        self.v = field.reduce([], v)\n"
        "def ranks(field, rows):\n"
        "    return field.echelon_into([], rows)\n"
    )
    assert field_reduce_reads(source) == ["4:spans", "8:Minor"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gfq.py"], ids=lambda p: p.name)
def test_no_hand_rolled_elimination(path):
    """Outside gfq.py, only ``REDUCE_CALLERS`` reduce by hand; anything
    else eliminates through ``GF.echelon``, ``echelon_into``, ``project``
    or the standard form."""
    assert field_reduce_reads(path.read_text(encoding="utf-8")) == []


#: the calls that build a simplification as a matroid, or test for one
SIMPLIFICATION_CALLS = {"simplify", "is_simple"}


def simplification_calls(source: str) -> list[str]:
    """The calls of a ``.simplify`` or ``.is_simple`` attribute in
    ``source``, as "line:attribute"."""
    return [
        f"{node.lineno}:{node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in SIMPLIFICATION_CALLS
    ]


def test_detector_finds_simplification_calls():
    source = (
        "def f(m):\n"
        "    if not m.is_simple():\n"
        "        m, _ = m.delete(m.loops_mask()).simplify()\n"
        "    simplify = m.simplify\n"
        "    return m.simplified, simplify()\n"
    )
    assert simplification_calls(source) == ["2:is_simple", "3:simplify"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "matroid.py"], ids=lambda p: p.name)
def test_no_second_simplification_route(path):
    """Outside matroid.py, which defines them, nothing calls
    ``.simplify()`` or ``.is_simple()``: a simplification is read off a
    standard form as its distinct nonzero rows."""
    assert simplification_calls(path.read_text(encoding="utf-8")) == []


#: module-level dicts that may be stored into directly: ``gf`` keeps one
#: field per prime power up to ``MAX_ORDER``, so ``_FIELDS`` is bounded
#: by that cap and never needs to drop an entry
BOUNDED_BY_THEIR_KEYS = {"_FIELDS"}


def module_dict_stores(source: str) -> list[str]:
    """The stores into a dict bound at module level of ``source``, outside
    ``BOUNDED_BY_THEIR_KEYS``, as "line:name": a subscript assignment,
    plain or augmented, an in-place ``|=``, or a call of its
    ``setdefault`` or ``update``.  A table handed to
    ``charpoly._remember``, which checks the cap and drops the oldest
    entry before it stores, is stored into by that function's own
    parameter and is not flagged."""
    tree = ast.parse(source)
    tables = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) and node.value is not None else []
        )
        value = getattr(node, "value", None)
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
        )
        if is_dict:
            tables |= {t.id for t in targets if isinstance(t, ast.Name)}
    tables -= BOUNDED_BY_THEIR_KEYS
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            name = node.value
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            name = node.target
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("setdefault", "update")):
            name = node.func.value
        else:
            continue
        if isinstance(name, ast.Name) and name.id in tables:
            out.append((node.lineno, name.id))
    return [f"{line}:{name}" for line, name in sorted(set(out))]


def test_detector_finds_unbounded_table_stores():
    source = (
        "from .charpoly import _remember\n"
        "_MEMO: dict[int, int] = {}\n"
        "_FIELDS = {}\n"
        "_NAMES = dict()\n"
        "_SQUARES = {i: i * i for i in range(4)}\n"
        "LIMITS = (1, 2)\n"
        "def f(k):\n"
        "    _MEMO[k] = 1\n"
        "    _NAMES.setdefault(k, 2)\n"
        "    _SQUARES.update({k: 3})\n"
        "    _FIELDS[k] = 4\n"
        "    _remember(_MEMO, k, 5, 8)\n"
        "    local = {}\n"
        "    local[k] = _MEMO.get(k)\n"
        "def g(k):\n"
        "    _SQUARES[k] += 1\n"
        "    _NAMES |= {k: 0}\n"
    )
    assert module_dict_stores(source) == ["8:_MEMO", "9:_NAMES", "10:_SQUARES", "16:_SQUARES", "17:_NAMES"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_process_wide_table_stays_bounded(path):
    """Every process-wide table stores only through ``charpoly._remember``,
    which keeps it within its cap, except ``_FIELDS``, which its keys
    bound."""
    assert module_dict_stores(path.read_text(encoding="utf-8")) == []
