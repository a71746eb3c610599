"""Script entry named by ``BENCHMARK.json``:

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Puts the checkout's ``src`` (the program under test) and its root (this
package) on ``sys.path``, then hands over to :mod:`benchmarks.e2e.harness`.
``PYTHONPATH=src python -m benchmarks.e2e`` is the same thing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]  # replaces the script's own dir

from benchmarks.e2e.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
