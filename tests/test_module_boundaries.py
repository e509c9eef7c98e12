"""Where the package's names live: its import graph, and the names the benchmark traces."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "evoquery"


def package_imports(path: Path) -> set[str]:
    """The evoquery modules that ``path`` imports, at any depth of its tree."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evoquery."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("evoquery.")}
    return {name.split(".")[0] for name in found}


GRAPH = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_type_checking_import():
    holders = [path.name for path in PACKAGE.glob("*.py") if "TYPE_CHECKING" in path.read_text()]
    assert holders == []


def test_no_import_cycle():
    for start in GRAPH:
        reached, frontier = {}, [start]  # module -> the module that imports it
        while frontier:
            module = frontier.pop()
            for imported in GRAPH[module] - reached.keys():
                reached[imported] = module
                frontier.append(imported)
        if start in reached:
            chain = [start]
            while chain[-1] != start or len(chain) == 1:
                chain.append(reached[chain[-1]])
            raise AssertionError(f"import cycle: {' <- '.join(chain)}")


def test_config_and_ledger_stand_low():
    assert GRAPH["config"] <= {"errors", "genome"}
    assert GRAPH["ledger"] <= {"errors"}


def test_every_benchmark_target_resolves():
    """Each name perfbench wraps is still where its caller looks it up."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for names in spans.TARGETS.values() for target in names]
    unresolved = []
    for target in [*targets, spans.EXECUTE_TARGET]:
        try:
            getattr(*spans._resolve(target))
        except (ImportError, AttributeError):
            unresolved.append(target)
    assert unresolved == []


def test_cli_import_leaves_out_what_a_stage_may_never_use():
    """Every stage imports the CLI: ``dataclasses`` would bring in ``inspect``,
    ``ast``, ``dis`` and ``tokenize``; a stage that hashes imports ``hashlib``
    when it first hashes, and one that removes a directory imports ``shutil``."""
    code = "import sys, evoquery.cli; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib", "_hashlib", "shutil"}
    assert heavy & set(done.stdout.split()) == set()
