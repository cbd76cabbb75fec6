#!/usr/bin/env python3
"""Derive ``known_answers.json`` and record where each value comes from.

    python3 bench/derive_answers.py            # compare with the file
    python3 bench/derive_answers.py --write    # rewrite the file

Every value of every explore query is computed by the current code and
labelled with its source:

* ``acceptance`` -- a hand-derived value of the acceptance suite (fig2's four
  fine-grained vs two atomic final states, fig3's missing strict
  linearization, the sec52 divergence contrast, the propH passes);
* ``oracle`` -- confirmed by ``brute_force_linearizations``, which this
  script runs over every completion of every recorded execution,
  independently of the checker's witness search;
* ``pin`` -- taken from the current code alone (a regression pin).  The
  naive schedule enumerator does not finish on any ladder rung (their
  spinning dequeues and interleavings give too many schedules), so outcome
  counts and final-state sets outside the acceptance values are pins.

A value whose source disagrees with the current code stops the script.
Generated histories of the check-history workload carry their answer from
the construction (see ``workloads.generate_history``); ``selftest.py``
confirms the construction against ``brute_force_linearizations``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strictlin import checker, explorer, models, specs  # noqa: E402
from strictlin.history import Inv, Ret, completions, is_complete  # noqa: E402
from strictlin.programs import parse_program  # noqa: E402
from strictlin.values import EMPTY, UNIT  # noqa: E402

import workloads  # noqa: E402

FIG2_FINE = ["back=3 items=[c,·,·,·]", "back=3 items=[d,·,·,·]",
             "back=3 items=[·,c,·,·]", "back=3 items=[·,d,·,·]"]
FIG2_ATOMIC = ["back=3 items=[·,c,·,·]", "back=3 items=[·,d,·,·]"]

# (query, key) -> (expected value or a predicate on it, source)
ACCEPTANCE = {
    ("strict/fig2", "verdict"): ("fail", "acceptance criterion 2 (fig3): an execution "
                                 "of this program has no strict linearization"),
    ("strict/fig2", "final_states"): (
        lambda v: sorted(x.split("object: ")[1] for x in v) == FIG2_FINE,
        "acceptance criterion 1: the four hand-derived final object states"),
    ("strict/ms-2x2", "verdict"): ("pass", "acceptance criterion 7 (propH): strict pass"),
    ("impl-pseudo/ms-2x2", "verdict"): ("pass", "acceptance criterion 7 (propH): "
                                        "pseudo-queue implementation pass"),
    ("impl-multiset/ms-2x2", "verdict"): ("pass", "acceptance criterion 7 (propH): "
                                          "multiset implementation pass"),
    ("compare/fig2", "states_equal"): (False, "acceptance criteria 1 and 8: 4 "
                                       "fine-grained vs 2 atomic final states"),
    ("compare/fig2", "final_states_fine_grained"): (
        lambda v: sorted(x.split("object: ")[1] for x in v) == FIG2_FINE,
        "acceptance criterion 1: the four hand-derived fine-grained final states"),
    ("compare/fig2", "final_states_atomic"): (
        lambda v: sorted(x.split("object: ")[1] for x in v) == FIG2_ATOMIC,
        "acceptance criterion 1: the two hand-derived atomic final states"),
    ("compare/three-phase", "divergence_fine_grained"): (
        lambda v: bool(v), "acceptance criterion 4 (sec52): the fine-grained side diverges"),
    ("compare/three-phase", "divergence_atomic"): (
        [], "acceptance criterion 4 (sec52): the atomic side always terminates"),
}
BRUTE_FORCE = ("oracle: brute_force_linearizations over every completion of every "
               "recorded execution")
WORK = "pin (work counter: reported as drift, never a failure)"


def brute_strict_ok(history, terminated: bool, final, spec) -> bool:
    """Strict linearizability of one record by brute force over completions:
    some completion has a sequential witness that is legal from the initial
    state and, for a terminated record, can end in the recorded final state."""
    values = {e.label.value for e in history if isinstance(e.label, Ret)}
    values |= {e.label.arg for e in history if isinstance(e.label, Inv)}
    cands = {e.op: sorted(values | {UNIT, EMPTY}, key=repr)
             for e in history if isinstance(e.label, Inv)}
    for c in ([history] if is_complete(history) else completions(history, cands)):
        for w in checker.brute_force_linearizations(c):
            finals = specs.legal_seq_outcomes(spec, spec.initial_states[0], w)
            if finals and (not terminated or spec.state_key(final)
                           in {spec.state_key(s) for s in finals}):
                return True
    return False


def brute_strict_verdict(prog, model) -> str:
    recs = checker.recorded_executions(explorer.explore(prog, model))
    ok = all(brute_strict_ok(r.history, r.terminated, r.final_state, model.seq_spec)
             for r in recs)
    return "pass" if ok else "fail"


def derive() -> dict:
    rows = [(qid, prog, ref, workloads.explore_strict)
            for qid, prog, ref, *_ in workloads.STRICT_QUERIES]
    rows += [(qid, prog, ref, workloads.explore_compare)
             for qid, prog, ref in workloads.COMPARE_QUERIES]
    no_answers = {qid: {} for qid, *_ in rows}
    queries = {}
    for qid, prog_name, ref, build in rows:
        (q,) = [q for q in build(0, "full", no_answers).queries if q.qid == qid]
        got = q.run()
        entry = {}
        for k, v in got.items():
            source = "pin"
            if (qid, k) in ACCEPTANCE:
                want, source = ACCEPTANCE[(qid, k)]
                ok = want(v) if callable(want) else v == want
                if not ok:
                    raise SystemExit(f"{qid} {k}: {v!r} disagrees with {source}")
            elif k in workloads.WORK_KEYS:
                source = WORK
            if qid.startswith("strict/") and k == "verdict":
                prog = parse_program(workloads.PROGRAMS[prog_name])
                if brute_strict_verdict(prog, models.parse_model_ref(ref)) != v:
                    raise SystemExit(f"{qid} {k}: {v!r} disagrees with {BRUTE_FORCE}")
                source = BRUTE_FORCE if source == "pin" else f"{source}; {BRUTE_FORCE}"
            entry[k] = {"value": v, "source": source}
        queries[qid] = entry
        print(f"{qid}: " + ", ".join(f"{k}={e['source'].split(':')[0]}"
                                     for k, e in entry.items()))
    return {
        "about": "Known answers of the explore queries, each with its source; "
        "bench/derive_answers.py derives them.  check-history answers come from "
        "the construction of each generated history.",
        "queries": queries,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="rewrite known_answers.json")
    args = ap.parse_args()
    text = json.dumps(derive(), indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    if args.write:
        workloads.ANSWERS_PATH.write_text(text)
        print(f"wrote {workloads.ANSWERS_PATH}")
        return 0
    same = workloads.ANSWERS_PATH.read_text() == text
    print("known_answers.json is " + ("up to date" if same else "OUT OF DATE"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
