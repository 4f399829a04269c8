"""Entry point of the repository benchmark (see README.md beside it).

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 repobench/run.py [--seed N] [--smoke] [--aa] [--runs K]

The first form is one measured run of one workload in this interpreter;
its last line of output is the result as one JSON object.  The second
runs the whole suite, each workload in a fresh interpreter.
"""

import sys
import time

# Taken before anything heavy is imported: set-up time counts imports.
_PROCESS_START = time.perf_counter()

from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(
        f"repobench: no src/repro package under {_ROOT}; the benchmark "
        "measures the repository it is checked out in"
    )
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from repobench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _PROCESS_START))
