"""Run the command-line interface as a module: python -m eulerprod <command> [options]."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
