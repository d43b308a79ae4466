"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.cli`."""

import sys

from .cli import main

sys.exit(main())
