"""``python -m repro.tools.race`` — run the concurrency analyzer."""

from repro.tools.driver import main

if __name__ == "__main__":
    raise SystemExit(main("race"))
