"""Seeded fuzzing of the readers and of the value types they build.

``test_mutated_inputs_give_one_error_line_or_none`` mutates one input file
per case, each of ``sample/``, an n-best file and a training log, and runs
``cli.main`` in process on every command that reads it, with small
``--max-parses`` and ``--max-iterations``.  A run must exit 0 with nothing
on stderr, or exit 1 with exactly one ``error:`` line on stderr and no
traceback: bad input never crashes a reader (the property of Miller,
Fredriksen and So 1990, *An Empirical Study of the Reliability of UNIX
Utilities*).  A run that exits 0 writes no NaN in its report or log: a
NaN penalty, weight or objective leaves no ranking order defined, and a
reader that let a non-finite number through would write one.  An
infinite penalty, which a weight like 1e308 makes, is ordered, and
passes.

``test_value_types_from_random_parts`` builds ``TreeNode``, ``Predicate``,
``Heuristic`` and ``FrequencyTable`` values from random parts, valid and
not.  Each either raises the reader's error type where it is built, or
the grammar and registry made of them run through the frequency cut,
``parse``, ``extract`` and ``rank`` without an error.

Both run with fixed seeds: a failure names its case and replays.  Each
failure they found is a named regression test besides.
"""

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path

import pytest

from ltagrank import cli
from ltagrank.grammar import (ANCHOR, FOOT, INTERNAL, NODE_KINDS, SUBSTITUTION, ElementaryTree,
                              FrequencyTable, Grammar, GrammarError, LexEntry, TreeNode)
from ltagrank.heuristics import (GLOBAL_BUILTINS, GLOBAL_STRUCTURAL, LOCAL_LEXICAL,
                                 LOCAL_TREE_TYPE, Heuristic, HeuristicRegistry, Predicate,
                                 RegistryError, uniform_weights)
from ltagrank.pipeline import PipelineConfig, analyze_sentence
from ltagrank.tagging import TaggedWord

SAMPLE = Path(__file__).resolve().parent.parent / "sample"

# ---------------------------------------------------------------------------
# mutations: each takes a random generator and a file's bytes


def _lines(data):
    return data.splitlines(keepends=True) or [b""]


def flip_byte(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]


def drop_line(rng, data):
    lines = _lines(data)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def repeat_line(rng, data):
    lines = _lines(data)
    at = rng.randrange(len(lines))
    return b"".join(lines[:at + 1] + lines[at:])


def _tokens(data):
    """The non-blank runs of ``data``, as (start, end) pairs."""
    return [m.span() for m in re.finditer(rb"[^\s()\[\]{},:|]+", data)]


def swap_tokens(rng, data):
    tokens = _tokens(data)
    (a, b), (c, d) = sorted(rng.sample(tokens, 2))
    return data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]


ODD_NUMBERS = [b"nan", b"inf", b"-inf", b"-0", b"1e308", b"-1e308", b"1e-400", b"NaN"]


def odd_number(rng, data):
    """A number, or any token where the file has none, becomes nan, inf,
    -0, 1e308 or the like.  In a JSON file, half the time it is the value
    of a key, not one of the many in lists."""
    numbers = [m.span() for m in re.finditer(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", data)]
    keyed = [(a, b) for a, b in numbers if data[a - 2:a] == b": "]
    if keyed and rng.random() < 0.5:
        numbers = keyed
    a, b = rng.choice(numbers or _tokens(data))
    return data[:a] + rng.choice(ODD_NUMBERS) + data[b:]


def deep_nesting(rng, data):
    """A token wrapped in up to 700 nodes, ``(X (X ... tok))``: in a tree
    expression a child, not a label, where there is one; in a JSON file,
    in twice as many lists."""
    depth = rng.choice([60, 700])
    if data.startswith(b"{"):
        depth, opening, closing, tokens = 2 * depth, b"[", b"]", _tokens(data)
    else:
        opening, closing = b"(X ", b")"
        children = [(a, b) for a, b in _tokens(data) if _is_child(data, a)]
        tokens = children or _tokens(data)
    a, b = rng.choice(tokens)
    return data[:a] + opening * depth + data[a:b] + closing * depth + data[b:]


def _is_child(data, at):
    """Whether the token at ``at`` is a child in a bracketed expression:
    more brackets open than close before it on its line, and no '(' right
    before it."""
    line = data[data.rfind(b"\n", 0, at) + 1:at]
    return line.count(b"(") > line.count(b")") and not line.rstrip().endswith(b"(")


def unclosed_bracket(rng, data):
    closers = [m.start() for m in re.finditer(rb"[)\]}]", data)]
    if closers and rng.random() < 0.5:
        at = rng.choice(closers)
        return data[:at] + data[at + 1:]
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice([b"(", b"[", b"{"]) + data[at:]


def non_utf8(rng, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice([b"\xff", b"\xc3\x28", b"\x80\x80", b"\xed\xa0\x80"]) + data[at:]


def crlf(rng, data):
    return data.replace(b"\n", b"\r\n")


MUTATIONS = [flip_byte, drop_line, repeat_line, swap_tokens, odd_number, deep_nesting,
             unclosed_bracket, non_utf8, crlf]

# ---------------------------------------------------------------------------
# the commands, and which of the inputs each reads

PIPELINE = ["--grammar", "{grammar}", "--freq", "{freq}", "--registry", "{registry}",
            "--weights", "{weights}", "--max-parses", "20"]
COMMANDS = {
    "check": ["check", "{grammar}", "--freq", "{freq}"],
    "parse": ["parse", *PIPELINE, "{corpus}", "--report", "{out}/parse.jsonl"],
    "rank": ["rank", *PIPELINE, "{corpus}", "--report", "{out}/rank.jsonl"],
    "eval": ["eval", "{nbest}", "--gold", "{gold}"],
    "split": ["split", "{corpus}", "--ratios", "3,1,1"],
    "train": ["train", *PIPELINE, "{corpus}", "--gold", "{gold}", "--ratios", "3,1,1",
              "--max-iterations", "3", "--resume", "{log}", "--weights-out", "{out}/w.tsv",
              "--log", "{out}/train.log"],
}
READERS = {name: [command for command, argv in COMMANDS.items()
                  if "{" + name + "}" in argv]
           for name in ("grammar", "freq", "registry", "weights", "corpus", "gold",
                        "nbest", "log")}
# the JSON-lines file each command writes
WRITES = {"parse": "parse.jsonl", "rank": "rank.jsonl", "train": "train.log"}
CASES = 300


def run(argv):
    """(exit code, stderr) of ``cli.main`` on ``argv``; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The bytes of each input file: ``sample/``'s, an n-best file of its
    gold trees and a training log of three attempts."""
    paths = {name: SAMPLE / filename for name, filename in [
        ("grammar", "grammar.ltag"), ("freq", "freq.tsv"), ("registry", "registry.txt"),
        ("weights", "weights.tsv"), ("corpus", "corpus.tagged"), ("gold", "gold.brackets")]}
    files = {name: path.read_bytes() for name, path in paths.items()}
    gold = files["gold"].decode().splitlines()
    files["nbest"] = "".join(f"{line} ||| {line}\n" if k % 2 else f"{line}\n"
                             for k, line in enumerate(gold[:-1])).encode() + b"\n"
    out = tmp_path_factory.mktemp("log")
    argv = [arg.format(out=out, **paths) for arg in COMMANDS["train"]
            if arg not in ("--resume", "{log}")]
    assert run(argv) == (0, "")
    files["log"] = (out / "train.log").read_bytes()
    assert len(files["log"].splitlines()) == 5
    return files


def test_mutated_inputs_give_one_error_line_or_none(inputs, tmp_path):
    outcomes = {0: 0, 1: 0}
    for seed in range(CASES):
        rng = random.Random(seed)
        name = sorted(inputs)[seed % len(inputs)]
        mutation = MUTATIONS[rng.randrange(len(MUTATIONS))]
        case = tmp_path / f"case{seed}"
        case.mkdir()
        paths = {}
        for other, data in inputs.items():
            paths[other] = case / other
            paths[other].write_bytes(mutation(rng, data) if other == name else data)
        for command in READERS[name]:
            argv = [arg.format(out=case, **paths) for arg in COMMANDS[command]]
            where = f"seed {seed}: {mutation.__name__} of {name}, {command}"
            written = case / WRITES.get(command, "nothing")
            written.unlink(missing_ok=True)
            try:
                code, err = run(argv)
            except Exception as exc:
                pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
            assert (code, err) == (0, "") or (
                code == 1 and err.startswith("error: ") and err.count("\n") == 1
                and "Traceback" not in err), f"{where}: exit {code}, stderr {err!r}"
            if code == 0 and command in WRITES:
                constants = []  # NaN, Infinity and -Infinity, as written
                for line in written.read_text().splitlines():
                    json.loads(line, parse_constant=constants.append)
                assert "NaN" not in constants, f"{where}: NaN in {written.name}"
            outcomes[code] += 1
    assert min(outcomes.values()) > 50, outcomes


# ---------------------------------------------------------------------------
# value types from random parts

LABELS = ["S", "NP", "N", "VP", "V", "PP", "P"]


def random_tree(rng, name, bad=False):
    """An ``ElementaryTree`` of random parts: an anchor, up to two NP
    substitution slots and, in an auxiliary tree, a foot, grouped under
    random internal nodes.  A ``bad`` one has a leaf of a kind no node
    has, an unmarked leaf, a leaf with children or a second anchor."""
    kind = rng.choice(["initial", "initial", "auxiliary"])
    root = rng.choice(["S", "NP"])
    leaves = [(rng.choice(["N", "V", "P"]), ANCHOR)] + [("NP", SUBSTITUTION)] * rng.randint(0, 2)
    if kind == "auxiliary":
        leaves.append((root, FOOT))
    flaw = rng.choice(["bogus", INTERNAL, "wrapper", "anchor"]) if bad else None
    if flaw in ("bogus", INTERNAL):
        leaves[rng.randrange(len(leaves))] = ("NP", flaw)
    elif flaw == "anchor":
        leaves.append(("D", ANCHOR))
    rng.shuffle(leaves)
    nodes = [TreeNode(label, leaf_kind) for label, leaf_kind in leaves]
    while len(nodes) > 1 or rng.random() < 0.3:
        a = rng.randrange(len(nodes))
        b = rng.randint(a + 1, len(nodes))
        wrapper = INTERNAL
        if flaw == "wrapper":
            wrapper, flaw = rng.choice(NODE_KINDS[1:]), None
        nodes[a:b] = [TreeNode(rng.choice(LABELS), wrapper, tuple(nodes[a:b]),
                               rng.choice([(), (("num", "sg"),)]))]
    if flaw == "wrapper":
        nodes = [TreeNode(root, rng.choice(NODE_KINDS[1:]), tuple(nodes))]
    return ElementaryTree(name, kind, TreeNode(root, INTERNAL, tuple(nodes)))


def random_predicate(rng, bad=False):
    """A ``Predicate``; a ``bad`` one has a mode of none of the three, or
    values that are no non-empty tuple of non-empty strings."""
    mode = rng.choice(["pos", "tree", "prefix"])
    values = rng.choice([("N",), ("NP", "V"), ("T",), ("T1", "T3")])
    if bad and rng.random() < 0.3:
        mode = rng.choice(["bogus", "", "POS"])
    elif bad:
        values = rng.choice([(), ("",), ("N", ""), "N", ["N"], (3,), None])
    return Predicate(mode, values)


def random_heuristic(rng, index, bad=False):
    """A ``Heuristic`` of a random kind with the fields that kind reads; a
    ``bad`` one has a kind or builtin none has, lacks a field its kind
    reads, has one its kind does not read, or has a bad predicate or a bad
    height list."""
    flaw = rng.choice(["kind", "lacks", "extra", "predicate", "builtin", "list"]) \
        if bad else None
    kind = rng.choice([LOCAL_TREE_TYPE, LOCAL_LEXICAL] if flaw == "predicate"
                      else [GLOBAL_STRUCTURAL] if flaw in ("builtin", "list")
                      else [LOCAL_TREE_TYPE, LOCAL_LEXICAL, GLOBAL_STRUCTURAL])
    fields = {}
    if kind in (LOCAL_TREE_TYPE, LOCAL_LEXICAL):
        fields["disprefer"] = random_predicate(rng, flaw == "predicate")
    if kind == LOCAL_LEXICAL:
        fields["word"] = rng.choice(["w0", "W1", "of"])
    if kind == GLOBAL_STRUCTURAL:
        fields["builtin"] = rng.choice(GLOBAL_BUILTINS[1:] if flaw == "list" else GLOBAL_BUILTINS)
        if fields["builtin"] != GLOBAL_BUILTINS[0]:
            fields["modifier"] = rng.choice([("PP",), ("NP", "VP"), ("A",)])
            fields["sites"] = rng.choice([("NP",), tuple(LABELS[:3])])
    if flaw == "kind":
        kind = rng.choice(["bogus", "local", GLOBAL_STRUCTURAL.upper()])
    elif flaw == "builtin":
        fields["builtin"] = rng.choice(["no_such", None, "PP_ATTACHMENT_HEIGHT"])
    elif flaw == "list":
        fields[rng.choice(["modifier", "sites"])] = rng.choice([(), ("",), "PP", None])
    elif flaw == "lacks":
        del fields[rng.choice(sorted(fields))]
    elif flaw == "extra":
        extra = {"word": "w0", "disprefer": Predicate("pos", ("N",)),
                 "builtin": GLOBAL_BUILTINS[0], "modifier": ("PP",), "sites": ("NP",)}
        key = rng.choice(sorted(set(extra) - set(fields)))
        fields[key] = extra[key]
    return Heuristic(f"h{index}", kind, **fields)


def random_frequencies(rng, names, bad=False):
    """A ``FrequencyTable`` of some of ``names``; in a ``bad`` one, one
    tree has a value that is no probability."""
    entries = {name: rng.choice([0.0, 0.25, 1.0, 1, 0.5, -0.0])
               for name in names if rng.random() < 0.7}
    if bad:
        entries[rng.choice(sorted(names))] = rng.choice(
            [1.5, -0.25, math.nan, math.inf, -math.inf, "0.5", None])
    return FrequencyTable(entries)


PARTS = ["tree", "frequencies", "predicate", "heuristic"]


def test_value_types_from_random_parts():
    """Per seed at most one part is bad; building it must raise the
    reader's error type, and a grammar and registry of good parts must
    analyze sentences of the grammar's words without an error."""
    outcomes = {part: 0 for part in PARTS} | {"parsed": 0, "ranked": 0}
    for seed in range(400):
        rng = random.Random(seed)
        bad = rng.choice(PARTS + [None] * 4)
        if bad is not None:
            error = RegistryError if bad in ("predicate", "heuristic") else GrammarError
            with pytest.raises(error):
                if bad == "tree":
                    random_tree(rng, "T", bad=True)
                elif bad == "frequencies":
                    random_frequencies(rng, ["T0", "T1"], bad=True)
                elif bad == "predicate":
                    random_predicate(rng, bad=True)
                else:
                    HeuristicRegistry([random_heuristic(rng, 0),
                                       random_heuristic(rng, 1, bad=True)])
            outcomes[bad] += 1
            continue
        trees = {}
        for k in range(rng.randint(2, 6)):
            tree = random_tree(rng, f"T{k}")
            trees[tree.name] = tree
        grammar = Grammar(trees, {}, {
            (f"w{k}", tree.anchor_pos): LexEntry(f"w{k}", tree.anchor_pos, (name,))
            for k, (name, tree) in enumerate(trees.items())}, random_frequencies(rng, trees))
        registry = HeuristicRegistry(
            tuple(random_heuristic(rng, k) for k in range(rng.randint(1, 4))))
        config = PipelineConfig(filter_k=1, adjunction_cap=2, max_parses=50)
        for _ in range(8):
            words = [rng.choice(sorted(grammar.lexicon)) for _ in range(rng.randint(1, 3))]
            sentence = [TaggedWord(word, (pos,)) for word, pos in words]
            analysis = analyze_sentence(grammar, sentence, registry,
                                        uniform_weights(registry), config)
            outcomes["parsed"] += 1
            if analysis.parses:
                assert len(analysis.parses[0].vector) == len(registry)
                json.dumps([rp.derived.to_string() for rp in analysis.parses])
                outcomes["ranked"] += 1
    assert min(outcomes.values()) >= 15, str(outcomes)
