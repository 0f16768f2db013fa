"""``python -m closedloft``: the command-line interface."""

from .cli_io import main

raise SystemExit(main())
