"""``python -m benchmarks.e2e run|trace --seed N``: every workload."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
