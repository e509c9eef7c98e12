#!/usr/bin/env python3
"""evoquery benchmark: the five CLI stages run as a user runs them.

Usage (from the repository root):

    python3 perfbench/run.py --workload bundled-wide --seed 0 --seconds 36 --trace 0

It writes the workload's inputs from --seed under .bench_work/, then runs
pipeline passes (index -> evolve -> evaluate -> report -> replay), each
stage a fresh ``python3 -m evoquery.cli`` process, one at a time, while
another pass should still end within --seconds (at least one pass).
Every stage's output is checked. With --trace 0 the last stdout line
reports the end-to-end metrics (medians over passes); with --trace 1
untraced and traced passes alternate and it reports the per-layer
metrics instead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from counts import csv_ndcg, ledger_counts, specialist_ndcg, tree_bytes, tree_digest
from workloads import WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REQUIRED = (
    SRC / "evoquery" / "cli.py",
    ROOT / "data" / "corpus.jsonl",
    ROOT / "data" / "seed_material.jsonl",
    ROOT / "data" / "qrels.tsv",
    ROOT / "data" / "config.json",
    ROOT / "data" / "baseline_list.txt",
    ROOT / "tests" / "golden" / "metrics.csv",
)

# Relative paths only: the ledger records the paths it was given, so its
# bytes (and sha256) do not depend on where the checkout lives.
STAGES = (
    ("index", ["index", "--corpus", "corpus.jsonl", "--out", "index.json"]),
    ("evolve", ["evolve", "--config", "config.json", "--seed-material",
                "seed_material.jsonl", "--index", "index.json", "--out", "ledger"]),
    ("evaluate", ["evaluate", "--ledger", "ledger", "--qrels", "qrels.tsv",
                  "--out", "metrics.csv"]),
    ("report", ["report", "--metrics", "metrics.csv", "--out", "report"]),
    ("replay", ["replay", "--ledger", "ledger"]),
)
PASS_OUTPUTS = ("index.json", "ledger", "metrics.csv", "report", "spans")


@dataclass
class StageRun:
    stage: str
    wall_s: float
    max_rss_kib: int
    code: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    traced: bool
    runs: list[StageRun] = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced passes only
    evolve_self_s: dict = field(default_factory=dict)  # by span name
    untraced: list = field(default_factory=list)

    def wall(self, stage: str) -> float:
        return next(r.wall_s for r in self.runs if r.stage == stage)

    @property
    def pipeline_s(self) -> float:
        return sum(r.wall_s for r in self.runs)


@dataclass
class Tally:
    """Operations attempted (stage runs and the seed-0 input check) and
    the problems found in them."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)
        return problem is None


def run_stage(stage: str, argv: list[str], cwd: Path, env: dict) -> StageRun:
    """Run one process to completion; wall time and its own peak RSS."""
    logs = cwd / "logs"
    logs.mkdir(exist_ok=True)
    out_path, err_path = logs / f"{stage}.out", logs / f"{stage}.err"
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out_fh, stderr=err_fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(
        stage=stage,
        wall_s=wall,
        max_rss_kib=usage.ru_maxrss,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(stage: str, cli_args: list[str], spans_dir: Path | None) -> list[str]:
    if spans_dir is None:
        return [sys.executable, "-m", "evoquery.cli", *cli_args]
    return [sys.executable, str(BENCH_DIR / "traced_stage.py"),
            str(spans_dir / f"{stage}.json"), stage, "--", *cli_args]


def exit_problem(run: StageRun) -> str | None:
    if run.code == 0:
        return None
    tail = run.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return f"{run.stage} exited {run.code}: {tail[0]}"


class Ledgers:
    """Ledger sha256 per (workload, seed, inputs digest, source digest).

    The same code and inputs must give the same ledger bytes in every pass
    of every run; the first digest seen is kept in .bench_work.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.known = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, digest: str) -> str | None:
        expected = self.known.setdefault(self.key, digest)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n")
        if digest != expected:
            return f"ledger sha256 {digest} differs from {expected} for {self.key}"
        return None


def stage_problem(stage: str, run: StageRun, work: Path, ledgers: Ledgers) -> str | None:
    problem = exit_problem(run)
    if problem:
        return problem
    try:
        if stage == "evolve":
            return ledgers.check(tree_digest(work / "ledger"))
        if stage == "evaluate":
            reported = csv_ndcg(work / "metrics.csv")
            expected = specialist_ndcg(work / "ledger", work / "qrels.tsv")
            if reported is None or abs(reported - expected) > 5e-7:
                return f"evaluate ndcg {reported} != recomputed {expected:.6f}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{stage} output unreadable: {exc!r}"
    if stage == "report" and not (work / "report" / "merged.csv").is_file():
        return "report wrote no merged.csv"
    if stage == "replay" and "replay verified" not in run.stdout:
        return f"replay did not report the ledger verified: {run.stdout.strip()!r}"
    return None


def run_pass(work: Path, env: dict, traced: bool, tally: Tally, ledgers: Ledgers) -> Pass:
    for name in PASS_OUTPUTS:
        target = work / name
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
    spans_dir = work / "spans" if traced else None
    if spans_dir:
        spans_dir.mkdir()
    result = Pass(traced=traced)
    for stage, cli_args in STAGES:
        run = run_stage(stage, cli_argv(stage, cli_args, spans_dir), work, env)
        result.runs.append(run)
        if not tally.check(stage_problem(stage, run, work, ledgers)):
            return result
    if traced:
        from spans import layer_metrics, self_time_by_span

        dumps = [json.loads((spans_dir / f"{stage}.json").read_text()) for stage, _ in STAGES]
        result.layers = layer_metrics(dumps)
        result.evolve_self_s = self_time_by_span(dumps[1])
        result.untraced = sorted({t for d in dumps for t in d["untraced"]})
    return result


def golden_check(work: Path, env: dict, tally: Tally) -> None:
    """Seed-0 inputs equal data/, and the quick start reproduces the golden CSV."""
    data = ROOT / "data"
    write_inputs(WORKLOADS["bundled-wide"], 0, work / "seed0")
    differing = [
        name for name in ("corpus.jsonl", "seed_material.jsonl", "qrels.tsv")
        if (work / "seed0" / name).read_bytes() != (data / name).read_bytes()
    ]
    tally.check(f"seed-0 inputs differ from data/: {differing}" if differing else None)
    steps = (
        ("index", ["index", "--corpus", str(data / "corpus.jsonl"), "--out", "index.json"]),
        ("evolve", ["evolve", "--config", str(data / "config.json"),
                    "--seed-material", str(data / "seed_material.jsonl"),
                    "--index", "index.json", "--out", "ledger"]),
        ("evaluate", ["evaluate", "--ledger", "ledger",
                      "--list", str(data / "baseline_list.txt"),
                      "--qrels", str(data / "qrels.tsv"), "--out", "metrics.csv"]),
    )
    golden = work / "golden"
    golden.mkdir()
    for stage, cli_args in steps:
        run = run_stage(stage, cli_argv(stage, cli_args, None), golden, env)
        problem = exit_problem(run)
        if not problem and stage == "evaluate":
            expected = (ROOT / "tests" / "golden" / "metrics.csv").read_bytes()
            if (golden / "metrics.csv").read_bytes() != expected:
                problem = "quick-start metrics.csv differs from tests/golden/metrics.csv"
        if not tally.check(problem):
            return


def host_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": tree_digest(SRC / "evoquery", "*.py"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
    }


def end_to_end(passes: list[Pass], workload, work: Path, tally: Tally) -> dict:
    median = statistics.median
    evolve_s = median(p.wall("evolve") for p in passes)
    config = workload.config
    queries = config.get("g2", 8) * config.get("e1", 10)
    values = {
        "setup_s": (median(p.wall("index") for p in passes), "s"),
        "evolve_s": (evolve_s, "s"),
        "replay_s": (median(p.wall("replay") for p in passes), "s"),
        "pipeline_s": (median(p.pipeline_s for p in passes), "s"),
        "evolve_qps": (queries / evolve_s, "queries/s"),
        "peak_rss_mb": (median(max(r.max_rss_kib for r in p.runs) for p in passes) / 1024, "MiB"),
        "index_bytes": ((work / "index.json").stat().st_size, "B"),
        "ledger_bytes": (tree_bytes(work / "ledger"), "B"),
        "ndcg_at_20": (specialist_ndcg(work / "ledger", work / "qrels.tsv"), "ratio"),
        "op_success_ratio": (1.0 - len(tally.problems) / tally.attempted, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(passes: list[Pass], work: Path) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and their context."""
    from spans import PER_LAYER, by_layer, tail_fraction

    traced = [p for p in passes if p.traced]
    metrics = {
        name: statistics.median(p.layers[name] for p in traced)
        for name in traced[0].layers
    }
    metrics.update(ledger_counts(work / "index.json", work / "ledger"))
    metrics["trace.overhead_s"] = statistics.median(p.pipeline_s for p in traced) - (
        statistics.median(p.pipeline_s for p in passes if not p.traced)
    )
    spans = traced[-1].evolve_self_s
    layers = by_layer(spans)
    fraction = tail_fraction(int(metrics["provider.execute_disjunctive_calls"]))
    context = {
        "traced_passes": len(traced),
        "evolve_self_s_by_span": spans,
        "evolve_self_s_by_layer": layers,
        "evolve_largest_span": max(spans, key=spans.get),
        "evolve_largest_layer": max(layers, key=layers.get),
        "execute_disjunctive_tail": f"p{100 * fraction:g}" if fraction else None,
        "untraced_targets": traced[-1].untraced,
    }
    result = {name: {"value": metrics[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    return result, context


def stage_summary(passes: list[Pass]) -> dict:
    summary = {}
    for stage, _ in STAGES:
        walls = [r.wall_s for p in passes for r in p.runs if r.stage == stage]
        if walls:
            summary[stage] = {"n": len(walls), "median_s": statistics.median(walls),
                              "walls_s": walls}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    absent = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if absent:
        print(f"error: not an evoquery checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    host = host_facts()
    tally = Tally()
    golden_check(work, env, tally)
    inputs = write_inputs(workload, args.seed, work)
    ledgers = Ledgers(WORK_ROOT / "ledger_sha256.json",
                      f"{args.workload}/{args.seed}/{inputs}/{host['source_sha256']}")

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(work, env, traced, tally, ledgers))
        if tally.problems:
            break
        # another pass only if a typical one still ends within --seconds
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.pipeline_s for p in passes)
        if len(passes) > args.trace and elapsed + typical > args.seconds:
            break

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "config": workload.config,
        "host": host,
        "inputs_sha256": inputs,
        "ledger_sha256": ledgers.known.get(ledgers.key),
        "stages": stage_summary(passes),
        "problems": tally.problems,
    }
    metrics: dict = {}
    if not tally.problems:
        if args.trace:
            metrics, info["trace"] = per_layer(passes, work)
        else:
            metrics = end_to_end(passes, workload, work, tally)
    info["metrics"] = metrics
    results = WORK_ROOT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n"
    )
    print(json.dumps({key: value for key, value in info.items() if key != "metrics"}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
