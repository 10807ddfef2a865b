"""Rewrite the golden outputs that ``tests/test_golden.py`` compares.

    PYTHONPATH=src python tests/golden/make.py

For each config in ``CONFIGS`` it keeps the ``metrics.csv``, ``eval.csv``
and ``checkpoint.bin`` of ``structseg train``, for each suite in ``SUITES``
the stdout of the subcommand, and in ``environment.json`` the interpreter,
numpy and BLAS that produced them. A change that moves these bits on
purpose reruns this script and says so, as a change of test data.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from structseg import cli  # noqa: E402  (after the BLAS pin)
from structseg.trainer import TrainConfig  # noqa: E402

GOLDEN = Path(__file__).resolve().parent

CRITERION_8 = {"height": 32, "width": 32, "num_classes": 3, "n_labeled": 5,
               "n_unlabeled": 8, "n_validation": 4, "model_widths": [8, 8],
               "num_boxes": 8, "num_active_boxes": 4, "pair_budget": 256,
               "epochs": 2, "seed": 11}
CONFIGS = {
    "criterion8": TrainConfig(**CRITERION_8),
    "preset": replace(TrainConfig.ablation_preset(), epochs=1),
    "default": TrainConfig(epochs=1, n_labeled=6, n_validation=5),
}
RUN_OUTPUTS = ("metrics.csv", "eval.csv", "checkpoint.bin")
SUITES = {"gradcheck.txt": ["gradcheck", "--seeds-count", "20"],
          "oracle.txt": ["oracle", "--seeds-count", "50"]}
ENVIRONMENT_KEYS = ("python", "numpy", "blas")


def environment() -> dict:
    env = cli._environment()
    return {key: env[key] for key in ENVIRONMENT_KEYS}


def produce(dest: Path) -> None:
    """Write every golden file of this environment under ``dest``, named
    as in this directory."""
    with tempfile.TemporaryDirectory() as scratch:
        for name, config in CONFIGS.items():
            config_path, run = Path(scratch) / f"{name}.json", Path(scratch) / name
            config_path.write_text(json.dumps(config.to_dict(), sort_keys=True))
            assert cli.main(["train", "--config", str(config_path), "--out-dir", str(run)]) == 0
            (dest / name).mkdir(parents=True, exist_ok=True)
            for output in RUN_OUTPUTS:
                (dest / name / output).write_bytes((run / output).read_bytes())
    for file_name, argv in SUITES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        (dest / file_name).write_text(out.getvalue())
    (dest / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")


if __name__ == "__main__":
    produce(GOLDEN)
    print(f"wrote the golden outputs under {GOLDEN}", file=sys.stderr)
