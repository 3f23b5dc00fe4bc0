"""``python -m qlam``: the ``qlam`` command, runnable from a checkout with
``src`` on the import path."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
