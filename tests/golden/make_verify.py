"""Write verify_*.txt: the `adasub verify` text for four instances.

Run from the repository root:  python3 tests/golden/make_verify.py

Each file holds what `adasub verify --checks ...` prints for one instance:
every check's verdict and comparison count and, for a failing check, its
witness.  The instances are `gen --n 5 --seed 1` (all three checks),
`gen --n 6 --seed 2` (monotone and submodular; fully is over its cap at
n = 6) and the two hand-built counterexamples (all three checks).
tests/test_golden_verify.py compares a fresh run with the files byte for
byte, so regenerate them only when a change is meant to alter a verdict, a
count or a witness, and say why.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from adasub import (  # noqa: E402
    cli,
    complementarity_counterexample,
    monotonicity_counterexample,
    save_instance,
)

ALL_CHECKS = "monotone,submodular,fully"
# golden file name -> (`gen` arguments or an instance builder, --checks)
CASES = {
    "verify_coverage_n5_seed1.txt": (["--n", "5", "--seed", "1"], ALL_CHECKS),
    "verify_coverage_n6_seed2.txt": (["--n", "6", "--seed", "2"], "monotone,submodular"),
    "verify_monotonicity.txt": (monotonicity_counterexample, ALL_CHECKS),
    "verify_complementarity.txt": (complementarity_counterexample, ALL_CHECKS),
}


def verify_texts() -> dict:
    """Golden file name -> the verify text of its instance, run afresh."""
    runner = CliRunner()
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (source, checks) in CASES.items():
            instance = Path(tmp) / (name + ".json")
            if callable(source):
                save_instance(source(), instance)
            else:
                res = runner.invoke(cli.main, ["gen"] + source + ["--out", str(instance)])
                assert res.exit_code == 0, res.output
            out = Path(tmp) / name
            res = runner.invoke(cli.main, ["verify", "--instance", str(instance),
                                       "--checks", checks, "--out", str(out)])
            assert res.exit_code in (0, 1), res.output
            texts[name] = out.read_text()
    return texts


def main():
    for name, text in verify_texts().items():
        with open(HERE / name, "w") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
