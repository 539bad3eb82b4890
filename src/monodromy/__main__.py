"""`python -m monodromy`: the `monodromy` command."""

import sys

from .cli import main

sys.exit(main())
