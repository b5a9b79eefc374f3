"""``python -m lyapmetric``: the command line of :mod:`lyapmetric.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
