"""Output bytes do not depend on the BLAS thread count.

A 240-patch, 40-region pipeline runs twice, each time in a child process
whose own environment sets the OpenBLAS, OpenMP and MKL thread counts (1,
then 2), so the setting reaches the BLAS library as it loads.  Every file
but the manifests must match byte for byte.  The forecast's region series
sums 240 patches over 124 weeks, a product a threaded BLAS would split.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# synth, calibrate, adapter, forecast, eakf, the four analyses and correct-data,
# at tiny epochs, members and budgets; argv[1] is the output root
PIPELINE = """
import sys
from pathlib import Path
from calypso.cli import main

root = Path(sys.argv[1])
data = str(root / "data")
fit = ["--data", data, "--checkpoint", str(root / "fit" / "checkpoint.json")]
runs = {
    "data": ["synth", "--patches", "240", "--regions", "40", "--seed", "1"],
    "fit": ["calibrate", "--data", data, "--epochs", "2"],
    "adapter": ["adapter", *fit, "--epochs", "1"],
    "forecast": ["forecast", *fit, "--adapter", str(root / "adapter" / "adapter.json")],
    "eakf": ["eakf", "--data", data, "--size", "10"],
    "region": ["policy-region", *fit, "--region", "R0"],
    "sensitivity": ["sensitivity", *fit],
    "outbreak": ["outbreak", *fit],
    "greedy": ["policy-greedy", *fit, "--budget", "1"],
    "correct": ["correct-data", "--data", data, "--epochs", "1", "--k", "1", "--noisy-count", "1",
                "--eval-draws", "1"],
}
for name, argv in runs.items():
    assert main([*argv, "--out", str(root / name)]) == 0, name
"""


def run_pipeline(out: Path, threads: int) -> dict[str, bytes]:
    """Every file but the manifests that the pipeline writes under ``out``, by relative path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads)))
    subprocess.run([sys.executable, "-c", PIPELINE, str(out)], env=env, check=True)
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run_manifest.json"}


def test_every_output_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    one, two = (run_pipeline(tmp_path / f"threads-{n}", n) for n in (1, 2))
    assert len(one) == 31 and sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
