"""Record the golden ``train-ref`` parameter digests that ``workloads.py`` checks.

    python3 perfbench/golden.py --first-seed 0 --last-seed 31 --seconds 20

Trains ``train-ref`` once per seed, for the epoch count a run of that many
seconds uses, and rewrites ``perfbench/golden.json``. Run it only when a
change to ``setn`` is meant to alter trained parameters.
"""

from __future__ import annotations

import argparse
import json
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import oracle  # noqa: E402
import workloads  # noqa: E402

setn = workloads.setn


def digest(seed: int, epochs: int) -> str:
    ds, config, model = workloads.build_universe(workloads.WORKLOADS["train-ref"], seed, epochs)
    split = setn.split_dataset([r.stock_id for r in ds.records], config.proportions, config.seed)
    setn.train(model, ds.graph, ds.records, split, config)
    return oracle.param_digest(model)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--last-seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    epochs = workloads.WORKLOADS["train-ref"].epochs(args.seconds)
    golden = {"train-ref": {}}
    for seed in range(args.first_seed, args.last_seed + 1):
        golden["train-ref"][str(seed)] = {"epochs": epochs, "sha256": digest(seed, epochs)}
        print(seed, golden["train-ref"][str(seed)]["sha256"], flush=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
