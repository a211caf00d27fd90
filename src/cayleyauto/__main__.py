"""`python -m cayleyauto`: the command-line interface of `cayleyauto.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
