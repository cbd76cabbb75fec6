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


def fig2_states(ex: explorer.Exploration, ex_a: explorer.Exploration) -> str:
    """The text of ``fig2-states.txt`` from the fine-grained and the atomic
    exploration of the fig2 program: each side's final object states."""
    lines = []
    for title, side in (("fine-grained array queue (N=4)", ex), ("atomic version", ex_a)):
        lines.append(f"# final object states, {title}")
        lines += sorted({side.spec.render_state(side.states[side.config(i).sid])
                         for i in side.terminal_done})
    return "\n".join(lines) + "\n"


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sides = explorer.explore_both(TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
    (GOLDEN / "fig2-states.txt").write_text(fig2_states(*sides))
    print(f"wrote {GOLDEN / 'fig2-states.txt'}")


if __name__ == "__main__":
    main()
