#!/usr/bin/env python3
"""List flowlab parameters and scenario keys that no caller varies.

An AST pass collects every function and method defined in `src/flowlab`
and every call in `src/`, `scripts/`, `perfbench/` and `tests/`, matched to
its callee by name (`f(...)` and `obj.f(...)` both call every `f`).  Only
the program's calls, those in `src/`, `scripts/` and `perfbench/`, decide
an option: a value that only a test sets justifies no parameter.  It
prints five lists:

    idle default        a defaulted parameter that no program call sets
    filled default      a `None` default that every program call sets
    idle scenario key   a key of `scenario._COMMAND_KEYS` that no `.scn`
                        file under `scripts/` or `perfbench/` and no
                        string constant in `tests/` sets
    unread parameter    a parameter that its function's body never reads
                        (a read in a nested function or lambda counts;
                        the `self` or `cls` of a method is left out)
    test-only definition
                        a public module-level function or class of
                        `src/flowlab`, or a public method of such a class
                        (`module.Class.method`), that only `tests/` calls
                        (an `__init__` export is not a call)

`tol` is left out: it is the accuracy contract of the whole API.  A call
that passes a parameter sets it whatever the value (a variable that may
hold `None` included), a call with `*args` or `**kwargs` counts as setting
every parameter, and a function that no program calls by name (a handler
in a table, a method reached only through an operator, a definition on
the test-only list) is not listed.  Name matching cannot tell apart
methods that share a name: a program call of `ScanConfig.validate()` or
`CocycleSpec.validate(field)` counts for every `validate`, so a test-only
method with a name that a program calls elsewhere is not listed, and its
defaults are judged by the other method's calls.  A scenario text sets a
key of command X with an indented line `key ...` under a `command X` line.
Run from anywhere:

    python3 scripts/idle_options.py
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
CALLER_DIRS = PROGRAM_DIRS + ("tests",)
SCENARIO_DIRS = ("scripts", "perfbench")
EXCLUDED = {"tol"}


def _definitions(path):
    """(qualified name, called name, positional params, defaults) per def."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    unread = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaults = dict(zip(positional[len(positional)
                                               - len(a.defaults):],
                                    a.defaults))
                defaults.update({p.arg: d for p, d in
                                 zip(a.kwonlyargs, a.kw_defaults)
                                 if d is not None})
                # obj.m(...) and Class(...) bind self implicitly
                if owner is not None and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list):
                    positional = positional[1:]
                qual = f"{path.stem}.{owner + '.' if owner else ''}{node.name}"
                # a constructor is called by its class name
                name = owner if node.name == "__init__" else node.name
                out.append((qual, name, positional, defaults))
                read = _read_names(node.body)
                params = positional + [p.arg for p in a.kwonlyargs] + [
                    p.arg for p in (a.vararg, a.kwarg) if p is not None]
                unread.extend(f"{qual}({p})" for p in params
                              if p not in read)
    visit(tree.body, None)
    return out, unread


def _read_names(body):
    """Names that a list of statements reads, nested scopes included."""
    read = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Name)):
                read.add(node.target.id)
    return read


def _calls(paths):
    """callee name -> per call (positional count, keywords), None if starred."""
    calls = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif isinstance(f, ast.Attribute):
                name = f.attr
            else:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls[name].append(None if starred else
                               (len(node.args), {k.arg for k in node.keywords}))
    return calls


def scan(root=ROOT):
    """(idle defaults, filled defaults, unread parameters)."""
    defs, unread = [], []
    for path in sorted((root / "src" / "flowlab").glob("*.py")):
        found, never_read = _definitions(path)
        defs.extend(found)
        unread.extend(never_read)
    callers = [p for d in PROGRAM_DIRS
               for p in sorted((root / d).rglob("*.py"))]
    calls = _calls(callers)
    idle, filled = [], []
    for qual, name, positional, defaults in defs:
        sites = calls.get(name, [])
        if not sites:
            continue
        for param, default in defaults.items():
            if param in EXCLUDED:
                continue
            idx = positional.index(param) if param in positional else None
            set_at = [site is None or param in site[1]
                      or (idx is not None and idx < site[0])
                      for site in sites]
            if not any(set_at):
                idle.append(f"{qual}({param}={ast.unparse(default)})")
            elif (isinstance(default, ast.Constant) and default.value is None
                  and all(set_at)):
                filled.append(f"{qual}({param}=None)")
    return idle, filled, unread


def _command_keys(root):
    """`scenario._COMMAND_KEYS`, read from the source without importing it."""
    path = root / "src" / "flowlab" / "scenario.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_COMMAND_KEYS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"no _COMMAND_KEYS in {path}")


def _scenario_texts(root):
    """The shipped `.scn` files, and every string constant of the tests."""
    for d in SCENARIO_DIRS:
        for path in sorted((root / d).rglob("*.scn")):
            yield path.read_text()
    for path in sorted((root / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def _set_keys(texts):
    """(command, key) per indented line under a `command X` line."""
    keys = set()
    for text in texts:
        command = None
        for line in text.splitlines():
            line = line.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            words = line.split()
            if not line[0].isspace():
                command = (words[1] if words[0] == "command"
                           and len(words) > 1 else None)
            elif command is not None:
                keys.add((command, words[0]))
    return keys


def _public(path):
    """(qualified name, called name) per public module-level function or
    class and per public method of such a class (a property is read, not
    called, and is left out)."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")
                        and not any(isinstance(d, ast.Name)
                                    and d.id == "property"
                                    for d in m.decorator_list)):
                    yield f"{path.stem}.{node.name}.{m.name}", m.name


def test_only(root=ROOT):
    """Public definitions of `src/flowlab` that only the tests call."""
    called = {d: set(_calls(sorted((root / d).rglob("*.py"))))
              for d in CALLER_DIRS}
    program = set().union(*(called[d] for d in PROGRAM_DIRS))
    return [qual
            for path in sorted((root / "src" / "flowlab").glob("*.py"))
            for qual, name in _public(path)
            if name in called["tests"] and name not in program]


def idle_keys(root=ROOT):
    set_keys = _set_keys(_scenario_texts(root))
    return [f"{command} {key}"
            for command, keys in sorted(_command_keys(root).items())
            for key in sorted(keys) if (command, key) not in set_keys]


def main():
    idle, filled, unread = scan()
    for label, items in (("idle default", idle), ("filled default", filled),
                         ("idle scenario key", idle_keys()),
                         ("unread parameter", unread),
                         ("test-only definition", test_only())):
        print(f"{label}: {len(items)}")
        for item in items:
            print(f"  {item}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
