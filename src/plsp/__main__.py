"""``python -m plsp``: the ``plsp`` command line, for where the script is not
installed."""

from .evalcli import main

if __name__ == "__main__":
    main()
