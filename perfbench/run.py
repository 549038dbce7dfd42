"""Run one ``setn`` benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-ref --seed 0 --seconds 20 --trace 0

Run from the repository root. The workload runs in a child process
(``perfbench/workloads.py``) with BLAS pinned to one thread, so the peak
resident memory read here after the child exits is that workload's own.
Earlier stdout lines give the machine, the workload's reason, every metric
with its unit and direction, and the correctness checks. The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-ref", "train-full", "infer-2000")
CHILD_TIMEOUT_S = 170

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "targets_per_s": ("1/s", "higher"),
    "embed_stocks_per_s": ("1/s", "higher"),
    "score_queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "map5_sector": ("ratio", "higher"),
    "map5_industry": ("ratio", "higher"),
}

PER_LAYER_NAMES = (
    "text.tokenize.self_s", "text.encode.calls", "text.encode.self_s",
    "text.block0.calls", "text.block0.self_s", "text.block1.calls", "text.block1.self_s",
    "text.pool.self_s",
    "graph.sample_subgraph.calls", "graph.sample_subgraph.self_s",
    "graph.subgraph_members.mean", "graph.gnn_layer.self_s",
    "model.forward.calls", "model.forward.self_s", "model.compute_loss.self_s",
    "autodiff.backward.self_s", "autodiff.adam_step.self_s",
    "autodiff.tensors_created", "autodiff.tensors_per_step",
    "training.train.self_s", "training.validation_s",
    "training.save_model_s", "training.load_model_s",
    "evaluation.embed_universe.self_s", "evaluation.map_at_k.self_s",
    "evaluation.theme_metric.self_s", "evaluation.ranked_neighbors.calls",
    "evaluation.ranked_cache_hit_ratio",
    "data.generate_synthetic_s", "data.export_embeddings_s",
    "text.self_s", "graph.self_s", "model.self_s", "autodiff.self_s",
    "training.self_s", "evaluation.self_s", "data.self_s",
    "trace.overhead_ratio", "trace.accounted_ratio", "trace.wall_s", "trace.spans",
)


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("ratio"):
        return "ratio", "higher" if "hit" in name or "accounted" in name else "lower"
    return "count", "lower"


PER_LAYER = {name: layer_unit(name) for name in PER_LAYER_NAMES}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one setn benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "setn" / "__init__.py").is_file():
        print(f"error: no setn package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload {args.workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        child = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("error: workload printed no result", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if args.trace:
        spec, values = PER_LAYER, child["per_layer"]
    else:
        spec, values = END_TO_END, {**child["end_to_end"], "peak_rss_mb": peak_rss_mb}
    missing = sorted(set(spec) - set(values))
    if missing:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 1

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "seed": args.seed,
        **child["info"],
    }
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload}: {child['why']}")
    for name in spec:
        unit, better = spec[name]
        print(f"  {name:40s} {values[name]:>16.6g} {unit:6s} ({better} is better)")
    error_rate = child["failed"] / child["attempted"]
    print(f"  {'error_rate':40s} {error_rate:>16.6g} ratio  (lower is better)")
    print("checks " + json.dumps(child["checks"], sort_keys=True))

    correct = child["failed"] == 0 and all(child["checks"].values())
    result = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": spec[name][0]} for name in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
