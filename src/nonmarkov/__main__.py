"""``python -m nonmarkov``: the command-line interface of :mod:`nonmarkov.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
