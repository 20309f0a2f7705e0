"""Committed reference outputs for the pinned benchmark programs.

``truth/<label>.json`` holds, for one program, the exact per-PC retire
counts and final architectural state of the reference interpreter, so a
timed run needs no ground-truth simulation.  Regenerate with::

    PYTHONPATH=src python3 layerbench/make_truth.py

Cycle counts do not depend on the sampling seed (the ProfileMe interrupt
cost is 0 cycles), so the pinned PGO baseline cycles hold for every seed.
"""

import hashlib
import json

from hostproc import HERE

TRUTH_DIR = HERE / "truth"

# label -> (suite program, scale)
PINNED = {"gcc@2": ("gcc", 2), "compress@56": ("compress", 56)}
PGO_TRUTH = "pgo-compress@1"


def state_digest(regs, memory):
    """SHA-256 over the register file and every written memory word."""
    document = {"regs": list(regs),
                "memory": sorted((int(addr), int(word))
                                 for addr, word in memory.items())}
    return hashlib.sha256(
        json.dumps(document, separators=(",", ":")).encode()).hexdigest()


def truth_path(label):
    return TRUTH_DIR / ("%s.json" % label.replace("@", "-"))


def load_truth(label):
    with open(truth_path(label)) as stream:
        document = json.load(stream)
    if "retire_counts" in document:
        document["retire_counts"] = {int(pc): count for pc, count
                                     in document["retire_counts"].items()}
    return document
