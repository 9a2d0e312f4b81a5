"""Seeded inputs of the benchmark workloads, as JSON diagram text.

Each workload is a fixed set of diagrams built through the package's public
constructors (`braid_closure`, `random_diagram_stream`) and serialised with
`diagram_to_json`.  The workload seed does not change which diagrams are
run, so a run's cost does not depend on the seed; it renumbers the edge ids
of every diagram and shuffles the task order.  Edge ids are labels only, so
every table must come out the same for every seed, and one recorded
reference digest per task and flavor serves all seeds.
"""

from __future__ import annotations

import json
import random

from hkhovanov.braid import braid_closure
from hkhovanov.diagram import diagram_to_json
from hkhovanov.randgen import random_diagram_stream

WORKLOADS = ("braid_g1_12", "fuzz_mixed")

# the fuzz_mixed diagrams: always the same stream, whatever the workload seed
FUZZ_STREAM_SEED = 0
FUZZ_COUNT = 300
FUZZ_PARAMS = {"max_crossings": 8, "max_genus": 3, "max_word_len": 4}


def base_docs(workload: str) -> list[tuple[str, dict]]:
    """(task name, diagram dict) pairs of a workload, before seeding."""
    if workload == "braid_g1_12":
        # the same diagram as corpus/perf12_genus1.json
        d = braid_closure([1, 2, 3] * 4, 4, genus=1, closure_words=["a", "", "", ""])
        return [(workload, diagram_to_json(d))]
    if workload == "fuzz_mixed":
        stream = random_diagram_stream(FUZZ_STREAM_SEED, FUZZ_COUNT, **FUZZ_PARAMS)
        return [(f"fuzz_mixed[{k}]", diagram_to_json(d)) for k, d in enumerate(stream)]
    raise ValueError(f"unknown workload {workload!r}")


def relabel_edges(doc: dict, rng: random.Random) -> dict:
    """The same diagram with its edge ids permuted and its edge list shuffled."""
    ids = [e["id"] for e in doc["edges"]]
    new_ids = ids[:]
    rng.shuffle(new_ids)
    rename = dict(zip(ids, new_ids))
    edges = [{"id": rename[e["id"]], "word": e["word"]} for e in doc["edges"]]
    rng.shuffle(edges)
    crossings = [{"id": c["id"], "slots": [rename[e] for e in c["slots"]]}
                 for c in doc["crossings"]]
    return {**doc, "edges": edges, "crossings": crossings}


def make_tasks(workload: str, seed: int) -> list[tuple[str, str]]:
    """(task name, JSON text) pairs of a workload for one seed."""
    rng = random.Random(seed)
    tasks = [(name, json.dumps(relabel_edges(doc, rng)))
             for name, doc in base_docs(workload)]
    rng.shuffle(tasks)
    return tasks
