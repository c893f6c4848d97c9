"""Source layout checks read with stdlib ``ast``.

Every import a module makes is read in it, and every public function,
class and method under ``src/calypso/`` is named somewhere other than its
own definition: in the package, a demo or the acceptance gate.  Code that
only the other tests reach is dead code with a test.  Every class in
``errors.py`` is named in a ``raise`` under ``src/calypso/``: a class
nothing raises is a name no user can see.  Every option of a subcommand
(the one check that imports the package, for ``cli._build_parser``) is
read by its handler: an option nothing reads is a setting no run obeys.
The package's settable values, counted with ``settable_values``, stay at
or below ``SETTABLE_CEILING``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "calypso"
# ``__init__.py`` imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a definition under src/calypso/ may be named: the package, the demos and the acceptance gate
USERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def definitions(source: str) -> list[tuple[str, ast.AST]]:
    """Public functions and classes, and the non-dunder methods of those classes, by qualified name."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node))
            out += [(f"{node.name}.{m.name}", m) for m in getattr(node, "body", [])
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def names_read(source: str) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute and imported name in ``source``."""
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return [(getattr(node, field[type(node)]), node.lineno)
            for node in ast.walk(ast.parse(source)) if type(node) in field]


def unnamed_definitions(sources: dict[str, str], module: str) -> list[str]:
    """Definitions in ``sources[module]`` that no source names outside their own lines.
    ``cli.cmd_*`` is exempt: ``cli._HANDLERS`` reaches each by its subcommand name."""
    reads = {key: names_read(text) for key, text in sources.items()}
    out = []
    for qual, node in definitions(sources[module]):
        if Path(module).stem == "cli" and qual.startswith("cmd_"):
            continue
        if not any(name == node.name and (key != module or not node.lineno <= line <= node.end_lineno)
                   for key, named in reads.items() for name, line in named):
            out.append(qual)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_definition_is_named_by_the_package_the_demos_or_the_gate(path):
    sources = {str(p): p.read_text(encoding="utf-8") for p in USERS}
    assert unnamed_definitions(sources, str(path)) == []


def test_the_check_finds_a_definition_only_its_own_body_names():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef alone(n):\n    return alone(n - 1)\n\n"
                "class Net:\n    def __init__(self):\n        pass\n\n    def zero_(self):\n        pass\n",
        "b.py": "from a import used, Net\nNet()\n",
        "cli.py": "def cmd_run():\n    pass\n",
    }
    assert unnamed_definitions(sources, "a.py") == ["alone", "Net.zero_"]
    assert unnamed_definitions(sources, "cli.py") == []
    assert USERS[-1].name == "test_acceptance.py" and any(p.parent.name == "demos" for p in USERS)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import json\nimport numpy as np\nfrom .core import DataSet, PatchGraph\nx: PatchGraph = np.ones(1)\n"
    assert unused_imports(source) == ["line 1: json", "line 3: DataSet"]
    assert MODULES and all(p.suffix == ".py" for p in MODULES)


def unraised_classes(errors_source: str, sources: list[str]) -> list[str]:
    """Classes defined in ``errors_source`` that no ``raise`` statement in ``sources`` names."""
    raised = {getattr(node, "id", getattr(node, "attr", None))
              for source in sources for statement in ast.walk(ast.parse(source)) if isinstance(statement, ast.Raise)
              for node in ast.walk(statement)}
    return [node.name for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.name not in raised]


def test_every_error_class_is_raised_by_the_package():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unraised_classes((SRC / "errors.py").read_text(encoding="utf-8"), sources) == []


def test_the_check_finds_an_error_class_nothing_raises():
    errors = "class Base(Exception):\n    pass\n\nclass Named(Base):\n    pass\n\nclass Passed(Base):\n    pass\n"
    sources = ["raise Named('x')\n", "def f(exc):\n    raise fault(Passed, 1) from exc\n\nBase\n"]
    assert unraised_classes(errors, sources) == ["Base"]


# cli's shared readers of a handler's ``config``
CONFIG_HELPERS = ("_load_bundle", "_load_net", "_load_model", "_out_dir")
# (command, option) pairs no handler reads, each with its reason
UNREAD_OPTIONS = {(command, "seed"): "perfbench passes --seed to every stage it runs (ROADMAP item 1)"
                  for command in ("forecast", "outbreak", "policy-greedy", "policy-region", "sensitivity")}


def unread_options(cli_source: str, types: dict[str, dict]) -> list[tuple[str, str]]:
    """(command, option) pairs of ``types`` (``cli._build_parser()[1]``) that
    the command's handler ``cmd_<command>`` never reads as ``config[key]`` or
    ``config.get(key)``, neither itself nor through a call to a ``CONFIG_HELPERS`` function."""
    reads, calls = {}, {}
    for node in ast.parse(cli_source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        keys, called = set(), set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "config":
                keys.add(getattr(sub.slice, "value", None))
            elif isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "get" \
                    and getattr(sub.func.value, "id", None) == "config" and sub.args:
                keys.add(getattr(sub.args[0], "value", None))
            elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in CONFIG_HELPERS:
                called.add(sub.func.id)
        reads[node.name], calls[node.name] = keys, called

    def read(function: str) -> set:
        return reads[function].union(*map(read, calls[function]))

    return [(command, option) for command, kinds in sorted(types.items())
            for option in sorted(set(kinds) - read("cmd_" + command.replace("-", "_")))]


def test_every_command_option_is_read_by_its_handler():
    from calypso import cli

    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert unread_options(source, cli._build_parser()[1]) == sorted(UNREAD_OPTIONS)


def test_the_check_finds_an_option_no_handler_reads():
    source = ("def _out_dir(config):\n    return config['out']\n\n"
              "def _load_net(config):\n    return config.get('checkpoint')\n\n"
              "def _load_model(config):\n    return _load_net(config)\n\n"
              "def _write_manifest(config):\n    return config.get('seed')\n\n"
              "def cmd_run(config):\n    _load_model(config)\n    return _out_dir(config), config['size']\n\n"
              "def cmd_idle_run(config):\n    _write_manifest(config)\n    return config\n")
    types = {"run": {"size": int, "seed": int, "checkpoint": str, "out": str}, "idle-run": {"seed": int}}
    assert unread_options(source, types) == [("idle-run", "seed"), ("run", "seed")]


# The most settable values ``settable_values`` may count across ``MODULES``.  A change that adds one
# raises this ceiling and gives its reason in CHANGES.md; one that removes some lowers it.
SETTABLE_CEILING = 127


def settable_values(source: str) -> list[str]:
    """The settable values of a module: the fields of its public dataclasses, and the
    defaulted parameters (keyword-only ones too) of its public functions and of the
    public methods and ``__init__`` of its public classes, as ``Class.field`` and
    ``function(parameter=)``."""
    def defaulted(qual: str, node: ast.FunctionDef) -> list[str]:
        args = node.args
        positional = args.posonlyargs + args.args
        names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
        names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        return [f"{qual}({name}=)" for name in names]

    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += defaulted(node.name, node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                out += [f"{node.name}.{s.target.id}" for s in node.body
                        if isinstance(s, ast.AnnAssign) and not s.target.id.startswith("_")]
            out += [value for m in node.body if isinstance(m, ast.FunctionDef)
                    and (m.name == "__init__" or not m.name.startswith("_"))
                    for value in defaulted(f"{node.name}.{m.name}", m)]
    return out


def test_settable_values_stay_under_the_ceiling():
    counts = {p.stem: len(settable_values(p.read_text(encoding="utf-8"))) for p in MODULES}
    assert sum(counts.values()) <= SETTABLE_CEILING, counts


def test_the_counter_finds_fields_and_defaulted_parameters():
    source = ("from dataclasses import dataclass, field\n\n"
              "@dataclass(frozen=True)\nclass Spec:\n    size: int\n    seed: int = 0\n    _memo: dict = field(default_factory=dict)\n\n"
              "class Net:\n    depth: int = 2\n    def __init__(self, width, scale=1.0):\n        pass\n\n"
              "    def fit(self, data, *, epochs=10, lr):\n        pass\n\n"
              "    def _step(self, rate=0.1):\n        pass\n\n"
              "def run(graph, /, steps=4, *args, seed=None, **kwargs):\n    pass\n\n"
              "def _helper(x=1):\n    pass\n\n"
              "@dataclass\nclass _Hidden:\n    n: int = 1\n")
    assert settable_values(source) == ["Spec.size", "Spec.seed", "Net.__init__(scale=)", "Net.fit(epochs=)",
                                       "run(steps=)", "run(seed=)"]
