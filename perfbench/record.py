"""Regenerate the benchmark's recorded data.

    python3 perfbench/record.py                # references.json only
    python3 perfbench/record.py --checkpoint   # retrain sparse-m10.json first

The checkpoint is a sparse M=10 spline network trained once with
kan.fit_sparse; detect-ckpt loads it on every dwell.  references.json holds
the decision-level outputs of each workload's reference case.  Both are
recorded at the commit that defines the benchmark and are only
re-recorded when a change is meant to alter those decisions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

CHECKPOINT_SIZES = (6000, 2000)


def train_checkpoint(path) -> None:
    import numpy as np
    from rdkan import datasets, kan
    import workloads
    rng = np.random.default_rng(workloads.op_seed("checkpoint", workloads.REFERENCE_SEED, 0))
    X, y = datasets.build_labeled_segments(datasets.IN_DISTRIBUTION, CHECKPOINT_SIZES[0], 10, rng)
    X_val, y_val = datasets.build_labeled_segments(datasets.IN_DISTRIBUTION, CHECKPOINT_SIZES[1], 10, rng)
    result = kan.fit_sparse(10, X, y, X_val, y_val)
    kan.save_model(path, result.model)
    print(f"checkpoint: val acc {result.val_accuracy:.4f}, "
          f"active inputs {result.model.active_inputs().tolist()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkpoint", action="store_true", help="retrain the checkpoint first")
    args = parser.parse_args(argv)
    run.import_rdkan()
    import workloads
    if args.checkpoint or not workloads.CHECKPOINT.exists():
        train_checkpoint(workloads.CHECKPOINT)
    references = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    try:
        for name, factory in workloads.WORKLOADS.items():
            workload = factory()
            workload.setup(workloads.REFERENCE_SEED, workdir)
            references[name] = workload.reference()
            print(f"{name}: {json.dumps(references[name])[:200]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
