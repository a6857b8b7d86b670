"""Regenerate the golden solver traces: ``python -m tests.golden.regen``.

Run from the repository root with ``PYTHONPATH=src``.  Only do this
after an *intentional* change to the solver's physics or constants —
the stored JSON is the contract both engines are tested against.  The
files are always generated with the reference ``python`` engine.
"""

import json

from . import decisions, sweep
from .traces import GOLDEN_DIR, GOLDEN_TRACES


def regenerate() -> None:
    for name, (generate, filename) in GOLDEN_TRACES.items():
        data = generate(engine="python")
        path = GOLDEN_DIR / filename
        path.write_text(json.dumps(data, indent=1) + "\n")
        ticks = len(data["times"])
        print(f"wrote {path} ({len(data['series'])} series x {ticks} ticks)")
    sweep.regenerate()
    decisions.regenerate()


if __name__ == "__main__":
    regenerate()
