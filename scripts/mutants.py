#!/usr/bin/env python3
"""Mutation runner: how many small faults planted in a module does the test suite catch?

For each module given, the runner lists every mutation site, draws ``--count``
of them by ``--seed``, and plants each one alone in a copy of the checkout under
a temp dir (the checkout itself is never written). The mutations are

- a swapped comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in``)
- swapped arithmetic (``+`` and ``-``, ``*`` and ``/``, ``//`` to ``/``,
  ``%`` to ``//``, ``<<`` and ``>>``, ``**`` to ``*``)
- ``and`` and ``or`` swapped
- +1 on an int or float constant
- a ``raise`` guarded by an ``if`` turned into ``pass``

A mutant runs its module's tests, ``tests/test_NAME.py``, with ``-x``; one
that passes them runs the whole tier-1 command. Hypothesis runs with a fixed
seed and no example database, so a verdict does not depend on an earlier
mutant. Each mutant prints one JSON record: its site, its mutation and its
verdict, ``killed`` (by the targeted tests), ``killed-full``, ``timeout``
(counted as killed) or ``survived``. A score per module goes to stderr. The method is DeMillo, Lipton & Sayward 1978, "Hints on test data
selection".

    python3 scripts/mutants.py src/evoquery/corpus.py src/evoquery/provider.py --seed 0
    python3 scripts/mutants.py src/evoquery/corpus.py --lines 37 --count 99
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parents[1]
TIER_1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
RUN_TIMEOUT_S = 600.0  # per pytest run; a mutant that hangs counts as killed
_SKIPPED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                  ".benchmarks", ".bench_*")

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.Pow: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}


def _nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``tree`` in source order (depth first), the same order on every parse."""
    yield tree
    for child in ast.iter_child_nodes(tree):
        yield from _nodes(child)


def _sites(tree: ast.AST) -> list[tuple[int, int]]:
    """(node number, slot) of each mutation: the slot is a comparison's operator
    index, or the index of a guarded ``raise`` in its ``if`` body, else 0."""
    sites = []
    for number, node in enumerate(_nodes(tree)):
        if isinstance(node, ast.Compare):
            sites += [(number, i) for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            sites += [(number, 0)] if type(node.op) in _SWAPS else []
        elif isinstance(node, ast.Constant):
            sites += [(number, 0)] if type(node.value) in (int, float) else []
        elif isinstance(node, ast.If):
            sites += [(number, i) for i, stmt in enumerate(node.body)
                      if isinstance(stmt, ast.Raise)]
    return sites


def _mutate(node: ast.AST, slot: int) -> tuple[ast.AST, str]:
    """Plant the mutation at ``slot`` of ``node`` in place; the node it changed, and
    the change as "before -> after"."""
    if isinstance(node, ast.If):  # a guarded raise
        raised, node.body[slot] = node.body[slot], ast.Pass()
        return raised, f"{ast.unparse(raised)} -> pass"
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[slot] = _SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _SWAPS[type(node.op)]()
    return node, f"{before} -> {ast.unparse(node)}"


def draw_mutants(source: str, seed: int, count: int, lines: set[int] | None = None
                 ) -> list[dict]:
    """``count`` mutants of ``source`` drawn by ``seed`` (all of them if fewer), in
    source order: each a dict of its ``line``, ``col``, ``mutation`` and ``source``,
    the whole mutated module. Only sites on ``lines`` are drawn, if given."""
    mutants = []
    for number, slot in sorted(_sites(ast.parse(source))):
        tree = ast.parse(source)
        changed, mutation = _mutate(list(_nodes(tree))[number], slot)
        mutants.append({"line": changed.lineno, "col": changed.col_offset,
                        "mutation": mutation, "source": ast.unparse(tree) + "\n"})
    if lines is not None:
        mutants = [m for m in mutants if m["line"] in lines]
    drawn = random.Random(seed).sample(mutants, min(count, len(mutants)))
    return sorted(drawn, key=lambda m: (m["line"], m["col"]))


def _passes(copy: Path, args: list[str], seed: int) -> bool | None:
    """Whether pytest ``args`` pass in ``copy``; None on a timeout."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, *args, "-x", "-p", "no:cacheprovider", f"--hypothesis-seed={seed}"]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths relative to the checkout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20, help="mutants drawn per module")
    parser.add_argument("--lines", type=int, nargs="+", help="draw only sites on these lines")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO_ROOT, copy, ignore=_SKIPPED)
        if not _passes(copy, TIER_1, args.seed):
            sys.exit("the unmutated copy fails its tier-1 tests")
        for module in args.modules:
            target = copy / module
            original = target.read_text(encoding="utf-8")
            targeted = ["-m", "pytest", "-q", f"tests/test_{target.stem}.py"]
            target.write_text(ast.unparse(ast.parse(original)) + "\n", encoding="utf-8")
            if not _passes(copy, targeted, args.seed):
                sys.exit(f"{module} fails its targeted tests once unparsed, unmutated")
            mutants = draw_mutants(original, args.seed, args.count,
                                   set(args.lines) if args.lines else None)
            killed = 0
            for mutant in mutants:
                target.write_text(mutant["source"], encoding="utf-8")
                try:
                    verdict = {True: "survived", False: "killed", None: "timeout"}[
                        _passes(copy, targeted, args.seed)]
                    if verdict == "survived":
                        verdict = {True: "survived", False: "killed-full", None: "timeout"}[
                            _passes(copy, TIER_1, args.seed)]
                finally:
                    target.write_text(original, encoding="utf-8")
                killed += verdict != "survived"
                site = f"{module}:{mutant['line']}:{mutant['col']}"
                print(json.dumps({"site": site, "mutation": mutant["mutation"],
                                  "verdict": verdict}, ensure_ascii=False), flush=True)
            print(f"{module}: {killed} of {len(mutants)} killed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
