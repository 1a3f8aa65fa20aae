"""Static hygiene of the source and test trees.

Neither pyflakes nor ruff is a dependency, so the unused-import,
unused-parameter, unpassed-default and dead-definition checks are small
AST scans here.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never loads.

    A dotted `import a.b` binds `a`; a name listed in `__all__` counts as
    used; `from __future__` imports are compiler directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_detector():
    src = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\n"
    src += "def f():\n    return a.b.c + w\n"
    assert unused_imports(src) == ["os (line 1)", "z (line 3)"]
    assert unused_imports("from m import q\n__all__ = ['q']\n") == []


def test_no_unused_imports_in_src_and_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def flagged_parameters(source: str, flag) -> list[str]:
    """The parameters of every function and lambda for which
    flag(node, name) holds, as "function:parameter (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            name = getattr(node, "name", "<lambda>")
            found += [
                f"{name}:{a.arg} (line {a.lineno})"
                for a in params
                if a is not None and flag(node, a.arg)
            ]
    return found


def unused_parameters(source: str) -> list[str]:
    """Parameters that their function's body never reads; `self` and `cls`
    are exempt."""

    def unread(node, arg: str) -> bool:
        body = node.body if isinstance(node.body, list) else [node.body]
        return arg not in ("self", "cls") and not any(
            isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == arg
            for stmt in body
            for n in ast.walk(stmt)
        )

    return flagged_parameters(source, unread)


def scan_src(scan) -> dict[str, list[str]]:
    """scan(source) over every module of `src/`, keeping the nonempty ones."""
    return {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (names := scan(path.read_text(encoding="utf-8")))
    }


def test_unused_parameters_detector():
    src = "def f(a, b, *c, d=1, **e):\n    def g(x):\n        return a + d\n    b = 2\n    return g\n"
    src += "class K:\n    def m(self, y):\n        return y\n"
    src += "h = lambda u, v: u\n"
    assert unused_parameters(src) == [
        "f:b (line 1)",
        "f:c (line 1)",
        "f:e (line 1)",
        "g:x (line 2)",
        "<lambda>:v (line 9)",
    ]


def test_no_unused_parameters_in_src():
    assert scan_src(unused_parameters) == {}


def budget_parameters(source: str) -> list[str]:
    """Parameters named `budget`, `*_budget`, `trials` or `*_limit`: every
    cap and search size is a module-level constant read at call time, never
    an argument."""
    return flagged_parameters(
        source, lambda _, arg: arg in ("budget", "trials") or arg.endswith(("_budget", "_limit"))
    )


def test_budget_parameters_detector():
    # the common-intersection search took its cap as the argument `budget`
    src = "def _best_common_intersection(sets, t, budget):\n    return t * budget\n"
    src += "def f(a, *, node_budget=3, **budget):\n    return a\n"
    src += "g = lambda refine_budget: 0\n"
    src += "def h(budgets, budgeted, BUDGET=1):\n    return 0\n"
    # the split search took its sizes as the arguments `trials` and `exhaustive_limit`
    src += "def _best_split(adj, m, trials, exhaustive_limit, rng):\n    return trials\n"
    src += "def k(trial, limits, limit):\n    return 0\n"
    assert budget_parameters(src) == [
        "_best_common_intersection:budget (line 1)",
        "f:node_budget (line 3)",
        "f:budget (line 3)",
        "_best_split:trials (line 8)",
        "_best_split:exhaustive_limit (line 8)",
        "<lambda>:refine_budget (line 5)",
    ]


def test_no_budget_parameters_in_src():
    assert scan_src(budget_parameters) == {}


def class_literal(cls: ast.ClassDef, target: str) -> list[str]:
    """The strings of a literal tuple or list, or the string keys of a
    literal dict, that the body of `cls` assigns to `target`."""
    found = []
    for stmt in cls.body:
        targets = [getattr(t, "id", None) for t in getattr(stmt, "targets", ())]
        if isinstance(stmt, ast.Assign) and targets == [target]:
            value = stmt.value
            names = value.keys if isinstance(value, ast.Dict) else getattr(value, "elts", [])
            found += [n.value for n in names if isinstance(n, ast.Constant)]
    return found


def unpassed_defaults(modules: dict[str, str]) -> list[str]:
    """Defaulted parameters that no call in `modules` passes, by keyword or
    by position, as "module:function:parameter".  Calls match functions by
    name, and a call of a class is a call of its `__init__`, reported as
    "Class.__init__"; a call through an attribute, or of a class, binds a
    method's `self` or `cls`, and only the arguments before a starred one
    pass positions.  The keys of a class's `DEFAULTS` dict count as keyword
    defaults of its `__init__`, all of which a `**` argument passes.

    Blind spot: a forwarding call counts as a real one.  When `g` calls
    `f(budget=budget)` and only tests set `g`'s own `budget`, the scan flags
    `g`'s default but not `f`'s, which no caller outside the tests changes."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)

    def passes(call: ast.Call, arg: ast.arg, position: int | None, offset: int) -> bool:
        if any(kw.arg in (arg.arg, None) for kw in call.keywords):
            return True
        starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        given = starred[0] if starred else len(call.args)
        return position is not None and given + offset > position

    found = []
    for name, tree in trees.items():
        init_of = {
            id(fn): (node.name, class_literal(node, "DEFAULTS"))
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for fn in node.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
            defaulted = [
                (a, positional.index(a)) for a in positional[len(positional) - len(args.defaults) :]
            ] + [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            cls, keys = init_of.get(id(node), (None, ()))
            defaulted += [(ast.arg(arg=key), None) for key in keys]
            label = node.name if cls is None else f"{cls}.__init__"
            found += [
                f"{name}:{label}:{a.arg}"
                for a, position in defaulted
                if not any(
                    passes(c, a, position, bound if cls or isinstance(c.func, ast.Attribute) else 0)
                    for c in calls.get(cls or node.name, [])
                )
            ]
    return found


def test_unpassed_defaults_detector():
    mod = "def f(a, b=1, *, c=2, d=3):\n    return a + b + c + d\n"
    mod += "class K:\n    def m(self, x=0, y=0):\n        return x + y\n"
    mod += "def g(u=0, v=0):\n    return u + v\n"
    mod += "class C:\n    def __init__(self, u, v=0, w=0):\n        self.u = u + v + w\n"
    mod += "class P:\n    DEFAULTS = {'e': 1, 'f': 2}\n    def __init__(self, **kw):\n"
    mod += "        self.kw = kw\n"
    mod += "f(1, d=4)\nK().m(5)\nh = [0]\ng(1, *h)\nC(1, 2)\nP(e=3)\n"
    assert unpassed_defaults({"m": mod}) == [
        "m:f:b", "m:f:c", "m:g:v", "m:m:y", "m:C.__init__:w", "m:P.__init__:f"
    ]
    calls = "f(1, 2, **{})\nK.m(K(), 1, 2)\ng(0, 1, *h)\nC(1, w=3)\nP(**{})\n"
    assert unpassed_defaults({"m": mod, "n": calls}) == []


def test_every_default_is_passed_in_src():
    # the console entry point calls main() and leaves argv to sys.argv
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "f2lab").glob("*.py"))
    }
    assert unpassed_defaults(modules) == ["cli.py:main:argv"]


def loaded_names(tree: ast.AST) -> Counter:
    """How often a tree reads each name, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def dead_definitions(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Top-level functions and classes of `modules` that no source in
    `modules` or `readers` reads outside their own definition."""
    trees = {name: ast.parse(source) for name, source in {**readers, **modules}.items()}
    loaded = sum((loaded_names(tree) for tree in trees.values()), Counter())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{name}:{node.name}"
        for name in modules
        for node in trees[name].body
        if isinstance(node, defs) and loaded[node.name] == loaded_names(node)[node.name]
    ]


def test_dead_definitions_detector():
    mod = "def used():\n    pass\ndef dead():\n    return used()\nclass Gone:\n    pass\n"
    mod += "def rec():\n    return rec()\n"
    assert dead_definitions({"m": mod}, {}) == ["m:dead", "m:Gone", "m:rec"]
    assert dead_definitions({"m": mod}, {"t": "import m\nm.dead(Gone, m.rec)\n"}) == []


def test_no_dead_definitions_in_src():
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "f2lab").glob("*.py"))
    }
    readers = {str(p): p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))}
    assert dead_definitions(modules, readers) == []


def class_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for each field a class of `tree` declares: the strings
    of a literal `__slots__`, and the keys of a `DEFAULTS` dict, from which a
    parameter class builds its `__slots__`."""
    return [
        (node.name, field)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for field in class_literal(node, "__slots__") + class_literal(node, "DEFAULTS")
    ]


def unread_fields(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Fields (see `class_fields`) of the classes of `modules` that no source
    in `modules` or `readers` loads as an attribute, as "module:Class.field".

    Blind spot: fields match by name, not by type.  A field that nothing
    reads passes whenever an attribute of the same name is loaded on any
    other object, such as `inst.seed` next to a read of `params.seed`."""
    trees = {name: ast.parse(source) for name, source in {**readers, **modules}.items()}
    loaded = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"{name}:{cls}.{field}"
        for name in modules
        for cls, field in class_fields(trees[name])
        if field not in loaded
    ]


def test_unread_fields_detector():
    mod = "class K:\n    __slots__ = ('a', 'b', 'c')\n"
    mod += "class J:\n    __slots__ = ('d',)\n"
    mod += "class P:\n    DEFAULTS = {'e': 1, 'f': 2}\n    __slots__ = tuple(DEFAULTS)\n"
    mod += "class Base:\n    __slots__ = ()\n"
    mod += "class Plain:\n    g: int\n"
    mod += "def f(k, j, p):\n    k.c = j.g\n    return k.a + p.e\n"
    assert unread_fields({"m": mod}, {}) == ["m:K.b", "m:K.c", "m:J.d", "m:P.f"]
    readers = {"t": "def g(k, j, p):\n    return k.b + j.d + k.c + p.f\n"}
    assert unread_fields({"m": mod}, readers) == []


def test_no_unread_slot_fields_in_src():
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "f2lab").glob("*.py"))
    }
    readers = {str(p): p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))}
    # the scan sees every field: the run-time `__slots__` of each class
    for name, source in modules.items():
        module = importlib.import_module("f2lab" if name == "__init__.py" else f"f2lab.{name[:-3]}")
        runtime = {
            cls.__name__: cls.__slots__
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__ == module.__name__
            and cls.__dict__.get("__slots__")
        }
        scanned: dict[str, tuple[str, ...]] = {}
        for cls, field in class_fields(ast.parse(source)):
            scanned[cls] = scanned.get(cls, ()) + (field,)
        assert scanned == runtime, name
    assert unread_fields(modules, readers) == []


def _reads_config(node: ast.AST) -> bool:
    return getattr(node, "id", None) == "config"


def _walk_in_line_order(tree: ast.AST) -> list[ast.AST]:
    return sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0))


def config_defaults(source: str) -> list[str]:
    """`config.get` calls that carry a default, as "line n": the command
    table holds every default, and `run_config` fills it in."""
    return [
        f"line {n.lineno}"
        for n in _walk_in_line_order(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "get"
        and _reads_config(n.func.value)
        and (len(n.args) > 1 or n.keywords)
    ]


def config_key(node: ast.AST) -> str | None:
    """The literal key that `node` reads from `config`, if it reads one:
    `config["k"]`, `config.get("k")` or `"k" in config`."""
    if isinstance(node, ast.Subscript) and _reads_config(node.value):
        key = node.slice
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
        key = node.args[0] if node.func.attr == "get" and _reads_config(node.func.value) else None
    elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
        key = node.left if _reads_config(node.comparators[0]) else None
    else:
        return None
    return key.value if isinstance(key, ast.Constant) else None


def unlisted_config_reads(source: str, keys_of: dict[str, set[str]]) -> list[str]:
    """Keys that a handler, or a function of the module that it hands
    `config` to, reads from `config` though its table entry, `keys_of[handler]`,
    does not list them, as "handler:key (line n)"; a handler that the source
    does not define is "handler: not defined"."""
    functions = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    found = []
    for handler, keys in keys_of.items():
        todo, seen = [handler], set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            if name not in functions:
                found.append(f"{name}: not defined")
                continue
            for node in _walk_in_line_order(functions[name]):
                key = config_key(node)
                if key is not None and key not in keys:
                    found.append(f"{handler}:{key} (line {node.lineno})")
                callee = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
                if callee in functions and any(map(_reads_config, node.args)):
                    todo.append(callee)
    return found


def test_config_scans_detector():
    src = "def _cmd_a(config):\n    x = config['k'] + config.get('n', 3)\n"
    src += "    if 'alpha' in config or 'r' not in config:\n        return _helper(x, config)\n"
    src += "    return config.get('params', default={})\n"
    src += "def _helper(x, config):\n    return config['seed'], config.get('params')\n"
    src += "def _cmd_b(config):\n    return len(config), config['q'], _cmd_a(config)\n"
    src += "def other(config):\n    return config.get('z', 1), other(config)\n"
    assert config_defaults(src) == ["line 2", "line 5", "line 11"]
    keys_of = {"_cmd_a": {"k", "n", "alpha", "r", "params"}, "_cmd_b": {"q"}, "_cmd_c": set()}
    assert unlisted_config_reads(src, keys_of) == [
        "_cmd_a:seed (line 7)",
        "_cmd_b:k (line 2)",
        "_cmd_b:n (line 2)",
        "_cmd_b:alpha (line 3)",
        "_cmd_b:r (line 3)",
        "_cmd_b:params (line 5)",
        "_cmd_b:seed (line 7)",
        "_cmd_b:params (line 7)",
        "_cmd_c: not defined",
    ]


def test_cli_handlers_read_only_their_table_entry():
    from f2lab import cli

    source = (ROOT / "src" / "f2lab" / "cli.py").read_text(encoding="utf-8")
    keys_of = {
        handler.__name__: {key for flag in flags for key in flag[1].split()}
        for _, flags, handler in cli._COMMANDS.values()
    }
    assert len(keys_of) == len(cli._COMMANDS)
    assert config_defaults(source) == []
    assert unlisted_config_reads(source, keys_of) == []
