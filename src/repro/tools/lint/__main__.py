"""``python -m repro.tools.lint`` — run the invariant checker."""

from repro.tools.driver import main

if __name__ == "__main__":
    raise SystemExit(main("lint"))
