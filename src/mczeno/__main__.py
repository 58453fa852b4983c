"""``python -m mczeno``: the mczeno command line, mczeno.cli.main."""

from mczeno.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
