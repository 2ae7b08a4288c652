"""``python -m repro.tools.wire`` — run the wire analyzer."""

from repro.tools.driver import main

if __name__ == "__main__":
    raise SystemExit(main("wire"))
