#!/usr/bin/env python3
"""Regenerate frozen golden files from the exploration oracle.

Run from the repository root after an intentional change to canonical state
rendering, then review the diff:

    python scripts/regenerate_goldens.py
"""

from pathlib import Path

from strictlin import explorer, models
from strictlin.reproductions import TWO_ENQUEUES_ONE_DEQUEUE

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def fig2_states() -> str:
    ex, ex_a = explorer.explore_both(TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
    lines = ["# final object states, fine-grained array queue (N=4)"]
    lines += sorted({ex.spec.render_state(ex.states[c.sid]) for c in ex.terminal_done})
    lines += ["# final object states, atomic version"]
    lines += sorted({ex_a.spec.render_state(ex_a.states[c.sid]) for c in ex_a.terminal_done})
    return "\n".join(lines) + "\n"


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    (GOLDEN / "fig2-states.txt").write_text(fig2_states())
    print(f"wrote {GOLDEN / 'fig2-states.txt'}")


if __name__ == "__main__":
    main()
