"""Layout guards: the package imports only numpy and the standard library,
solves no ODE adaptively, evaluates polynomials one way, loads the README's
config example and converts config values only where it loads them,
exports only what it uses or documents, keeps no dataclass field that only
the tests read, and its import loads the pipeline alone; the CLI
leaves the tracking module (an oracle of the tests) alone, and the tests
stay independent of the benchmark."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import kpevans
from kpevans import cli

SRC = Path(kpevans.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
README = TESTS.parent / "README.md"
PIPELINE = {"asymptotics", "conserved", "errors", "evans", "kernel", "model",
            "quadrature", "wave"}


def nodes(path, kinds):
    return [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, kinds)]


def test_no_dp5_integrate_in_src():
    for path in SRC.glob("*.py"):
        for node in nodes(path, (ast.FunctionDef, ast.ImportFrom, ast.Import)):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "integrate", path.name
            else:
                names = {alias.name for alias in node.names}
                assert "integrate" not in names and "dp5" not in names, path.name
                assert getattr(node, "module", None) != "dp5", path.name


def test_one_polynomial_evaluator():
    """model.polyval_ascending is the package's only polynomial evaluator."""
    banned = {"polyval", "polyder", "poly1d"}
    for path in SRC.glob("*.py"):
        for node in nodes(path, (ast.Attribute, ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned, (path.name, node.attr)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("numpy.polynomial")
                               for a in node.names), path.name
            else:
                module = node.module or ""
                assert not module.startswith("numpy.polynomial"), path.name
                if module == "numpy":
                    names = {alias.name for alias in node.names}
                    assert not names & (banned | {"polynomial"}), path.name


def test_readme_config_example_loads(tmp_path):
    """The README's json schema example is a config load_config accepts,
    every block of it included: the documented schema is the accepted one."""
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "readme.json"
    path.write_text(block)
    cfg = cli.load_config(path)
    example = json.loads(block)
    assert (cfg.params.a, cfg.params.E, cfg.params.c, cfg.params.sigma) == \
        tuple(example[key] for key in ("a", "E", "c", "sigma"))
    assert cfg.bracket_hint == tuple(example["bracket_hint"])
    assert cfg.samples_per_period == example["samples_per_period"]
    assert set(cfg.scan) == set(example["scan"])
    assert cfg.scan["high_freq"] == example["scan"]["high_freq"]
    assert cfg.scan["low_freq"] == {}


def test_commands_only_compute():
    """load_config converts, checks and defaults every config value, so no
    cmd_* function in cli calls float, int or .get."""
    for fn in nodes(SRC / "cli.py", ast.FunctionDef):
        if not fn.name.startswith("cmd_"):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                assert node.func.id not in ("float", "int"), (fn.name, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                assert node.func.attr != "get", fn.name


def test_cli_imports_no_tracking():
    """cli neither imports the tracking module nor refers to it: every
    command, verify included, works on the config's wave only."""
    for node in nodes(SRC / "cli.py", (ast.Import, ast.ImportFrom, ast.Name,
                                       ast.Attribute)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            names = [node.id if isinstance(node, ast.Name) else node.attr]
        assert not any("tracking" in name.split(".") for name in names), names


def test_tests_do_not_import_perfbench():
    banned = {"perfbench"} | {p.stem for p in PERFBENCH.glob("*.py")}
    for path in TESTS.glob("*.py"):
        for node in nodes(path, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            assert not any(m.split(".")[0] in banned for m in modules), path.name


def test_src_imports_numpy_and_stdlib_only():
    """src stays numpy-only: every absolute import names numpy or a module
    of the standard library (no scipy, not even its BLAS wrappers)."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in SRC.glob("*.py"):
        for node in nodes(path, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif node.level == 0:
                modules = [node.module]
            else:   # relative: inside the package
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, (path.name, module)


def test_every_export_is_used_or_documented():
    """Each name in kpevans.__all__ is used by another part of the package
    or called in README's examples (kp.<name>): no export exists only for
    the tests."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in nodes(path, (ast.Name, ast.Attribute, ast.ImportFrom)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            else:
                used.update(alias.name for alias in node.names)
    documented = set(re.findall(r"\bkp\.(\w+)", README.read_text()))
    assert not set(kpevans.__all__) - used - documented


def referenced_names(tree, skip=None):
    """Every name, attribute and imported name in tree, outside node skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_definition_is_used_or_documented():
    """Each public top-level function or class of a src module is referenced
    elsewhere in src (outside its own definition and __init__) or named in
    README: the __all__ rule, for every module-level definition.
    errors.StencilLeftRegion is the one exception: perfbench imports it."""
    trees = {path: ast.parse(path.read_text()) for path in SRC.glob("*.py")
             if path.name != "__init__.py"}
    refs = {path: referenced_names(tree) for path, tree in trees.items()}
    readme = README.read_text()
    unused = []
    for path, tree in trees.items():
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")
                    or (path.stem, node.name) == ("errors", "StencilLeftRegion")):
                continue
            if (node.name not in elsewhere | referenced_names(tree, node)
                    and not re.search(rf"\b{node.name}\b", readme)):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in src is read as an attribute in src
    outside its class, read by one of the class's own methods, or named
    Class.field in README: no field exists only for the tests.  An
    attribute that is called, as in profile.ux(x), is a method and reads no
    field."""
    everything = [node for path in SRC.glob("*.py")
                  for node in ast.parse(path.read_text()).body]
    readme = README.read_text()
    unread = []
    for cls in everything:
        if not (isinstance(cls, ast.ClassDef) and any(
                getattr(d, "func", d).id == "dataclass" for d in cls.decorator_list)):
            continue
        readers = [node for node in everything if node is not cls] + [
            m for m in cls.body if isinstance(m, ast.FunctionDef)]
        walked = [n for r in readers for n in ast.walk(r)]
        called = {id(n.func) for n in walked if isinstance(n, ast.Call)}
        read = {n.attr for n in walked
                if isinstance(n, ast.Attribute) and id(n) not in called}
        unread += [f"{cls.name}.{n.target.id}" for n in cls.body
                   if isinstance(n, ast.AnnAssign) and n.target.id not in read
                   and not re.search(rf"\b{cls.name}\.{n.target.id}\b", readme)]
    assert not unread


def test_import_loads_the_pipeline_only():
    """A fresh `import kpevans` loads the pipeline modules and nothing else:
    neither the tests' tracking or elliptic oracles nor the CLI."""
    code = ("import sys, kpevans; "
            "print(' '.join(m for m in sys.modules if m.startswith('kpevans.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=TESTS.parent,
                         capture_output=True, text=True, check=True).stdout
    loaded = {name.removeprefix("kpevans.") for name in out.split()}
    assert loaded == PIPELINE
