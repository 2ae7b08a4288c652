"""``python -m repro.tools.perf`` — run the performance analyzer."""

from repro.tools.driver import main

if __name__ == "__main__":
    raise SystemExit(main("perf"))
