"""``python -m hybridse``: the same entry point as the ``hybridse`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
