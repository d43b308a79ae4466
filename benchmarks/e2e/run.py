"""Driver entry point named by ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout.  A script run by path gets
its own directory on ``sys.path`` instead of the checkout root, so this
shim swaps the two (the package is ``benchmarks.e2e``; ``src`` is added
for the program under test) and hands over to the package's command
line.  It exits non-zero without a result when ``src/repro`` is absent.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
