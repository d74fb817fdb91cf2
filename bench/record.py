"""Write bench/expected.json from the program as it stands.

    python3 bench/record.py

The file holds the sentence pools the workloads sample from and, for every
sentence key the workloads can produce, the outputs check.py compares
against.  It was recorded from a version of the program that enumerates and
ranks every derivation; re-record only when a change is meant to alter the
program's output.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH, ROOT, _import_program

_import_program()

import check  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import derivation_universe  # noqa: E402

import ltagrank as lt  # noqa: E402
from ltagrank import heuristics  # noqa: E402


def main() -> int:
    grammars = {gid: lt.loads(*texts) for gid, texts in wl.GRAMMARS.items()}
    universes = {gid: (grammars[gid], derivation_universe(grammars[gid], "S",
                                                          wl.MAX_ORACLE_WORDS))
                 for gid in wl.UNIVERSE_GRAMMARS}
    pool = wl.build_pool(universes)
    registry = heuristics.load_registry(os.path.join(ROOT, "sample", "registry.txt"))
    weights = heuristics.load_weights(os.path.join(ROOT, "sample", "weights.tsv"), registry)
    config = lt.PipelineConfig(filter_k=3, adjunction_cap=3)

    def record(gid, line):
        analysis = lt.analyze_sentence(grammars[gid], lt.parse_tagged_line(line),
                                       registry, weights, config)
        return check.sentence_record(analysis, with_all=True)

    sentences = {}
    for entries in pool.values():
        for gid, line in entries:
            sentences[f"{gid}|{line}"] = record(gid, line)
    shapes = {wl.ladder_tags(k) for k in wl.LADDER_RUNGS}
    shapes |= {wl.ladder_tags(k) + (tail,) for k in wl.BROKEN_RUNGS
               for tail in wl.BROKEN_TAILS}
    shapes |= set(wl.train_shapes())
    for tags in sorted(shapes, key=lambda t: (len(t), t)):
        # outputs must not depend on which word of a tag is used
        first, last = ({t: words[i] for t, words in wl.OFPP_WORDS.items()} for i in (0, -1))
        records = [record("ofpp", " ".join(f"{choice[t]}/{t}" for t in tags))
                   for choice in (first, last)]
        if records[0] != records[1]:
            sys.exit(f"error: outputs of {' '.join(tags)} depend on the words chosen")
        sentences[wl.ofpp_key(tags)] = records[0]

    with open(os.path.join(BENCH, "expected.json"), "w") as handle:
        handle.write('{"pool": {\n')
        handle.write(",\n".join(
            f"{json.dumps(category)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "]"
            for category, entries in pool.items()))
        handle.write('},\n"sentences": {\n')
        handle.write(",\n".join(f"{json.dumps(key)}: {json.dumps(value)}"
                                for key, value in sentences.items()))
        handle.write("}}\n")
    print(f"recorded {len(sentences)} sentence keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
