"""``python -m repro.tools.shape`` — run the shape analyzer."""

from repro.tools.driver import main

if __name__ == "__main__":
    raise SystemExit(main("shape"))
