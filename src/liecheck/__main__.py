"""python -m liecheck: the liecheck command line."""

import sys

from .report_cli import main

if __name__ == "__main__":
    sys.exit(main())
