"""Regenerate the committed reference outputs under ``layerbench/truth/``.

Usage (from the repository root)::

    PYTHONPATH=src python3 layerbench/make_truth.py

For each pinned program it steps the reference interpreter to halt,
counting retirements per PC, and records the final architectural state
digest.  It also records the PGO baseline cycles of ``compress@1`` for
both measurement protocols, which are deterministic.
"""

import json
import sys
from collections import Counter

from hostproc import SRC

sys.path.insert(0, str(SRC))

from truthdata import (PGO_TRUTH, PINNED, TRUTH_DIR,  # noqa: E402
                       state_digest, truth_path)


def interpreter_truth(name, scale):
    from repro.isa.interpreter import Interpreter
    from repro.workloads.suite import suite_program

    interp = Interpreter(suite_program(name, scale=scale))
    state = interp.state
    counts = Counter()
    while not state.halted:
        counts[state.pc] += 1
        interp.step()
    return {
        "program": name,
        "scale": scale,
        "retired": interp.retired,
        "state_digest": state_digest(state.regs.snapshot(),
                                     state.memory.snapshot()),
        "retire_counts": {str(pc): counts[pc] for pc in sorted(counts)},
    }


def pgo_truth():
    from repro.pgo.pipeline import PgoOptions, run_pgo
    from repro.workloads.suite import suite_program

    report = run_pgo(suite_program("compress", scale=1),
                     PgoOptions(replicates=1), workload="compress")
    return {"program": "compress", "scale": 1,
            "baseline_cycles": {m.name: m.baseline_cycles
                                for m in report.measurements}}


def main():
    TRUTH_DIR.mkdir(exist_ok=True)
    documents = {label: interpreter_truth(*spec)
                 for label, spec in PINNED.items()}
    documents[PGO_TRUTH] = pgo_truth()
    for label, document in documents.items():
        with open(truth_path(label), "w") as stream:
            json.dump(document, stream, indent=1, sort_keys=True)
            stream.write("\n")
        print("wrote %s" % truth_path(label))


if __name__ == "__main__":
    main()
