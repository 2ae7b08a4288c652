"""``python -m repro.tools.flow`` — run the flow analyzer."""

from repro.tools.driver import main

if __name__ == "__main__":
    raise SystemExit(main("flow"))
