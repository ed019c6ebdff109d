"""``python -m quboreduce``: the command-line interface of :mod:`quboreduce.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
