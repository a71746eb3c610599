"""``PYTHONPATH=src python -m benchmarks.e2e --workload NAME ...``"""

import sys

from benchmarks.e2e.harness import main

sys.exit(main())
