import gc
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import ltagrank
from ltagrank import cli, parser, parseval
from ltagrank.cli import build_records, main
from ltagrank.heuristics import default_registry, uniform_weights
from ltagrank.pipeline import PipelineConfig, analyze_sentence
from ltagrank.training import Candidate, SentenceRecord, TrainConfig
from oracles import blank_unreachable
from test_pipeline import _collector, _ladder, _recorded_collections
from toygrammars import OFPP_GRAMMAR, tag

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_grammar(capsys):
    code, out, _ = run(["check", SAMPLE / "grammar.ltag",
                        "--freq", SAMPLE / "freq.tsv"], capsys)
    assert code == 0
    assert "trees: 6" in out


def test_check_invalid_grammar(tmp_path, capsys):
    bad = tmp_path / "bad.ltag"
    bad.write_text("tree Broken_Aux : auxiliary (VP ADV@ NP*)\n")
    code, _, err = run(["check", bad], capsys)
    assert code == 1
    assert "Broken_Aux" in err


def test_check_missing_file(capsys):
    code, _, err = run(["check", "/nonexistent/grammar.ltag"], capsys)
    assert code == 1
    assert "grammar.ltag" in err


def test_parse_command(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code, out, _ = run(["parse", "--grammar", SAMPLE / "grammar.ltag",
                        "--freq", SAMPLE / "freq.tsv",
                        SAMPLE / "corpus.tagged", "--report", report], capsys)
    assert code == 0
    assert "% Parsed" in out
    records = [json.loads(line) for line in report.read_text().splitlines()]
    summary = [r for r in records if r["type"] == "summary"][0]
    assert summary["n_sentences"] == 5
    assert summary["parsed_pct"] == 100.0
    sentences = [r for r in records if r["type"] == "sentence"]
    assert sentences[0]["n_parses"] == 3
    assert sentences[0]["filter"]["fallback_triggered"] is False


def test_parse_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.tagged"
    empty.write_text("")
    code, out, _ = run(["parse", "--grammar", SAMPLE / "grammar.ltag",
                        empty], capsys)
    assert code == 0


def test_parse_unknown_word_is_coverage_failure(tmp_path, capsys):
    corpus = tmp_path / "c.tagged"
    corpus.write_text("zork/N is/V the/D name/N\n")
    report = tmp_path / "r.jsonl"
    code, out, _ = run(["parse", "--grammar", SAMPLE / "grammar.ltag",
                        corpus, "--report", report], capsys)
    assert code == 0
    assert "NO PARSE" in out
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r for r in records if r["type"] == "summary"][0]["parsed_pct"] == 0.0


def test_rank_command(capsys):
    code, out, _ = run(["rank", "--grammar", SAMPLE / "grammar.ltag",
                        "--freq", SAMPLE / "freq.tsv",
                        "--weights", SAMPLE / "weights.tsv",
                        SAMPLE / "corpus.tagged"], capsys)
    assert code == 0
    assert "penalty=" in out


def test_eval_identical_parses(tmp_path, capsys):
    report = tmp_path / "eval.jsonl"
    code, out, _ = run(["eval", SAMPLE / "gold.brackets",
                        "--gold", SAMPLE / "gold.brackets",
                        "--report", report], capsys)
    assert code == 0
    corpus = [json.loads(line) for line in report.read_text().splitlines()
              if json.loads(line)["type"] == "corpus"][0]
    assert corpus["zero_crossing_pct"] == 100.0
    assert corpus["crossing_avg"] == 0.0
    assert corpus["recall_pct"] == 100.0
    assert corpus["precision_pct"] == 100.0


def test_eval_crossing_pair(tmp_path, capsys):
    parses = tmp_path / "parses.txt"
    gold = tmp_path / "gold.txt"
    parses.write_text("(X (X a b) c)\n")
    gold.write_text("(X a (X b c))\n")
    report = tmp_path / "eval.jsonl"
    code, _, _ = run(["eval", parses, "--gold", gold, "--report", report], capsys)
    assert code == 0
    corpus = [json.loads(line) for line in report.read_text().splitlines()
              if json.loads(line)["type"] == "corpus"][0]
    assert corpus["zero_crossing_pct"] == 0.0
    assert corpus["crossing_avg"] == 1.0


def test_eval_misaligned_files(tmp_path, capsys):
    parses = tmp_path / "parses.txt"
    gold = tmp_path / "gold.txt"
    parses.write_text("(X (X a b) c)\n(X a b)\n")
    gold.write_text("(X a (X b c))\n")
    code, _, err = run(["eval", parses, "--gold", gold], capsys)
    assert code == 1
    assert "unmatched index 1" in err


def test_eval_nbest_and_no_parse_lines(tmp_path, capsys):
    parses = tmp_path / "parses.txt"
    gold = tmp_path / "gold.txt"
    parses.write_text("(X a (X b c)) ||| (X (X a b) c)\n\n")
    gold.write_text("(X a (X b c))\n(X a (X b c))\n")
    report = tmp_path / "eval.jsonl"
    code, _, _ = run(["eval", parses, "--gold", gold, "--top-k", "1",
                      "--aggregation", "first", "--report", report], capsys)
    assert code == 0
    corpus = [json.loads(line) for line in report.read_text().splitlines()
              if json.loads(line)["type"] == "corpus"][0]
    assert corpus["coverage_failures"] == 1
    assert corpus["zero_crossing_pct"] == 50.0


def test_split_command(tmp_path, capsys):
    corpus = tmp_path / "lines.txt"
    corpus.write_text("\n".join(f"sentence {i}" for i in range(50)) + "\n")
    report = tmp_path / "split.json"
    code, out, _ = run(["split", corpus, "--sizes", "30,12,8", "--seed", "4",
                        "--report", report], capsys)
    assert code == 0
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert records[0]["type"] == "config" and records[0]["seed"] == 4
    record = [r for r in records if r["type"] == "split"][0]
    assert len(record["train"]) == 30
    assert len(record["heldout"]) == 12
    assert len(record["test"]) == 8


def test_train_command_deterministic(tmp_path, capsys):
    logs = []
    for attempt in range(2):
        weights_out = tmp_path / f"w{attempt}.tsv"
        log = tmp_path / f"log{attempt}.jsonl"
        code, out, _ = run([
            "train", "--grammar", SAMPLE / "grammar.ltag",
            "--freq", SAMPLE / "freq.tsv", SAMPLE / "corpus.tagged",
            "--gold", SAMPLE / "gold.brackets",
            "--ratios", "3,1,1", "--seed", "9", "--split-seed", "2",
            "--max-iterations", "40", "--strike-limit", "5",
            "--weights-out", weights_out, "--log", log], capsys)
        assert code == 0
        assert "Preferences Trained" in out
        logs.append((weights_out.read_bytes(), log.read_bytes()))
    assert logs[0] == logs[1]


def test_train_misaligned_gold(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("(S a b)\n")
    code, _, err = run([
        "train", "--grammar", SAMPLE / "grammar.ltag",
        "--freq", SAMPLE / "freq.tsv", SAMPLE / "corpus.tagged",
        "--gold", gold, "--weights-out", tmp_path / "w.tsv",
        "--log", tmp_path / "log.jsonl"], capsys)
    assert code == 1
    assert "unmatched" in err


def test_console_script_runs():
    # the child imports the same ltagrank as this process, however it got here
    package_root = str(Path(ltagrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "ltagrank.cli", "check", str(SAMPLE / "grammar.ltag")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "trees:" in result.stdout


def test_running_out_of_memory_gives_one_error_line(tmp_path):
    # the 36-word of-PP ladder has millions of parses under the default
    # cap, more than a 256 MB address space holds; the limit is set in the
    # child alone.  The short sentence before it is analyzed first
    resource = pytest.importorskip("resource")
    package_root = str(Path(ltagrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    grammar, corpus = tmp_path / "grammar.ltag", tmp_path / "corpus.tagged"
    grammar.write_text(OFPP_GRAMMAR)
    corpus.write_text("the/D name/N is/V the/D part/N\n"
                      "the/D second/A part/N is/V the/D name/N"
                      + " of/P the/D part/N" * 10 + "\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    def parse(*flags):
        return subprocess.run([sys.executable, "-m", "ltagrank.cli", "parse",
                               "--grammar", str(grammar), str(corpus), *flags],
                              capture_output=True, text=True, env=env, preexec_fn=limit)

    result = parse()
    assert result.returncode == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: sentence 1: out of memory; --max-parses bounds the parses"
                      " kept per sentence"], result.stderr
    result = parse("--max-parses", "1000")
    assert result.returncode == 0, result.stderr
    assert "-> 1000 parses" in result.stdout


# ---------------------------------------------------------------------------
# golden outputs on sample/

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLE_GRAMMAR = ["--grammar", SAMPLE / "grammar.ltag", "--freq", SAMPLE / "freq.tsv"]

# name -> argv; each run's stdout is compared with golden/<name>.out
GOLDEN_COMMANDS = {
    "parse": ["parse", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
              "--report", "parse.jsonl"],
    "rank": ["rank", *SAMPLE_GRAMMAR, "--weights", SAMPLE / "weights.tsv",
             SAMPLE / "corpus.tagged", "--report", "rank.jsonl"],
    "eval": ["eval", SAMPLE / "gold.brackets", "--gold", SAMPLE / "gold.brackets",
             "--flatten", "NP,VP"],
    "train": ["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
              "--gold", SAMPLE / "gold.brackets", "--ratios", "3,1,1", "--seed", "9",
              "--aggregation", "first", "--max-iterations", "500",
              "--weights-out", "trained.tsv", "--log", "train.log"],
}
# files the commands write, compared with golden/<name>; reports lose their
# config record, which holds paths
GOLDEN_FILES = ["parse.jsonl", "rank.jsonl", "train.log", "trained.tsv"]


def golden_outputs(capsys) -> dict:
    """name -> bytes of every golden output, running in the current directory."""
    outputs = {}
    for name, argv in GOLDEN_COMMANDS.items():
        code, out, _ = run(argv, capsys)
        assert code == 0, name
        outputs[f"{name}.out"] = out.encode()
    for name in GOLDEN_FILES:
        lines = Path(name).read_bytes().splitlines(keepends=True)
        if name.endswith(".jsonl"):
            lines = [line for line in lines if json.loads(line)["type"] != "config"]
        outputs[name] = b"".join(lines)
    return outputs


def test_golden_outputs_on_sample(tmp_path, monkeypatch, capsys):
    """Byte-identical CLI output on sample/.  A change meant to alter the
    output re-records golden/ from golden_outputs()."""
    monkeypatch.chdir(tmp_path)
    outputs = golden_outputs(capsys)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(outputs)
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_parse_derives_trees_only_for_its_report(tmp_path, monkeypatch, capsys):
    # stdout prints counts alone; the report's records print the top parses
    derived = []
    derive = parser.Deriver.derive
    monkeypatch.setattr(parser.Deriver, "derive",
                        lambda self, derivation: derived.append(derivation)
                        or derive(self, derivation))
    monkeypatch.chdir(tmp_path)
    argv = GOLDEN_COMMANDS["parse"]
    code, out, _ = run(argv[:argv.index("--report")], capsys)
    assert code == 0 and out == (GOLDEN / "parse.out").read_text()
    assert derived == [] and not Path("parse.jsonl").exists()
    code, out, _ = run(argv, capsys)
    assert code == 0 and out == (GOLDEN / "parse.out").read_text()
    lines = Path("parse.jsonl").read_bytes().splitlines(keepends=True)
    assert b"".join(line for line in lines if json.loads(line)["type"] != "config") == \
        (GOLDEN / "parse.jsonl").read_bytes()
    assert derived


# ---------------------------------------------------------------------------
# bad input: one error line, exit code 1

def assert_one_error(code, err):
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_token_without_tag_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "c.tagged"
    corpus.write_text("the/D part bark/V\n")
    for argv in (["parse", *SAMPLE_GRAMMAR, corpus],
                 ["rank", *SAMPLE_GRAMMAR, corpus],
                 ["train", *SAMPLE_GRAMMAR, corpus, "--gold", SAMPLE / "gold.brackets",
                  "--weights-out", tmp_path / "w.tsv", "--log", tmp_path / "log"]):
        code, _, err = run(argv, capsys)
        assert_one_error(code, err)
        assert "'part'" in err


def test_empty_tag_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "c.tagged"
    corpus.write_text("the/D| part/N is/V the/D name/N\n")
    code, _, err = run(["parse", *SAMPLE_GRAMMAR, corpus], capsys)
    assert_one_error(code, err)
    assert "'the'" in err


@pytest.mark.parametrize("parsed", [True, False], ids=["parsed", "no_parse"])
def test_train_gold_of_the_wrong_length_is_an_error(tmp_path, capsys, parsed):
    corpus = SAMPLE / "corpus.tagged"
    gold = (SAMPLE / "gold.brackets").read_text().splitlines()
    if not parsed:   # an unknown word: the sentence has no parse
        corpus = tmp_path / "c.tagged"
        corpus.write_text((SAMPLE / "corpus.tagged").read_text()
                          .replace("the/D second/A", "zork/N second/A", 1))
    gold[0] = "(S (NP (N dogs)))"
    gold_path = tmp_path / "gold.brackets"
    gold_path.write_text("\n".join(gold) + "\n")
    code, _, err = run(["train", *SAMPLE_GRAMMAR, corpus, "--gold", gold_path,
                        "--weights-out", tmp_path / "w.tsv",
                        "--log", tmp_path / "log"], capsys)
    assert_one_error(code, err)
    assert "sentence 0" in err


def test_train_frees_each_analysis_before_the_one_after_next(tmp_path, capsys,
                                                              monkeypatch):
    # train builds each sentence's record, and parse and rank print each
    # sentence, as soon as it is analyzed: when sentence i is analyzed, no
    # analysis of sentence i - 2 or earlier is alive, and with it no chart
    for argv in (["parse", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                  "--report", tmp_path / "parse.jsonl"],
                 ["rank", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                  "--report", tmp_path / "rank.jsonl"],
                 ["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                  "--gold", SAMPLE / "gold.brackets", "--ratios", "3,1,1",
                  "--max-iterations", "5", "--weights-out", tmp_path / "w.tsv",
                  "--log", tmp_path / "log"]):
        analyzed = []

        def tracked(*args):
            assert [ref() for ref in analyzed[:-1]] == [None] * len(analyzed[:-1])
            analysis = analyze_sentence(*args)
            analyzed.append(weakref.ref(analysis))
            return analysis

        monkeypatch.setattr(cli, "analyze_sentence", tracked)
        code, _, _ = run(argv, capsys)
        assert code == 0 and len(analyzed) == 5, argv[0]


def test_parse_and_rank_peak_memory_does_not_grow_with_the_corpus(tmp_path, capsys):
    # each sentence is printed and its report record kept as JSON text as
    # soon as it is analyzed, so 8 copies of an 18-word ladder sentence
    # peak where 4 do; holding every analysis, 8 copies peaked at twice 4
    grammar = tmp_path / "grammar.ltag"
    grammar.write_text(OFPP_GRAMMAR)
    ladder = "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * 4 + "\n"
    for command in ("parse", "rank"):
        peaks = {}
        for copies in (4, 8):
            corpus = tmp_path / f"corpus{copies}.tagged"
            corpus.write_text(ladder * copies)
            tracemalloc.start()
            try:
                code, out, _ = run([command, "--grammar", grammar, corpus,
                                    "--report", tmp_path / "report.jsonl"], capsys)
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and f"[{copies - 1}] the second part" in out
        assert peaks[8] <= 1.1 * peaks[4], (command, peaks)


CHAIN_GRAMMAR = """\
tree T : initial (S N@ S^)
tree E : initial (S N@)
lex a N -> T
lex b N -> E
"""


@pytest.mark.parametrize("command", ["parse", "rank", "train"])
def test_a_sentence_too_deep_for_the_stack_gives_one_error_line(tmp_path, capsys, command):
    # each a/N substitutes the rest of the sentence into its S slot, so
    # the derivations of 199 of them and a b/N nest deeper than Python's
    # recursion limit; the short sentence before it is analyzed first
    grammar, corpus, gold = (tmp_path / name for name in ("g.ltag", "c.tagged", "gold"))
    grammar.write_text(CHAIN_GRAMMAR)
    corpus.write_text("a/N b/N\n" + "a/N " * 199 + "b/N\n" + "b/N\n" * 3)
    gold.write_text("(S (N a) (S (N b)))\n(S" + " (N a)" * 199 + " (N b))\n"
                    + "(S (N b))\n" * 3)
    argv = [command, "--grammar", grammar, corpus]
    if command == "train":
        argv += ["--gold", gold, "--ratios", "1,1,1", "--max-iterations", "1",
                 "--weights-out", tmp_path / "w.tsv", "--log", tmp_path / "log"]
    code, out, err = run(argv, capsys)
    assert_one_error(code, err)
    assert err == "error: sentence 1: nested too deeply to analyze (Python's recursion limit)\n"
    if command != "train":
        assert out.startswith("[0] a b")


@pytest.mark.parametrize("command, target", [
    ("parse", (parser.Deriver, "derive")), ("rank", (parser.Deriver, "derive")),
    ("train", (parseval, "evaluate_derivations"))])
def test_a_derived_tree_or_score_too_deep_for_the_stack_gives_one_error_line(
        tmp_path, capsys, monkeypatch, command, target):
    # the lazy derived tree that parse --report and rank read, and the
    # scores train builds its records from, are made outside
    # analyze_sentence; running out of stack there names the sentence too
    calls = []

    def deep(*args, **kwargs):
        calls.append(args)
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(*target, deep)
    argv = [command, *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged"]
    argv += {"parse": ["--report", tmp_path / "report.jsonl"], "rank": [],
             "train": ["--gold", SAMPLE / "gold.brackets", "--max-iterations", "1",
                       "--weights-out", tmp_path / "w.tsv", "--log", tmp_path / "log"]}[command]
    code, _, err = run(argv, capsys)
    assert_one_error(code, err)
    assert err == "error: sentence 0: nested too deeply to analyze (Python's recursion limit)\n"
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["parse", "rank", "train"])
def test_a_penalty_that_is_not_finite_gives_one_error_line(tmp_path, capsys, command):
    # every weight is finite, but pp_attachment_height 1e308 times a count
    # of 2 overflows: the second sentence's high of-PP attachment has no
    # finite penalty, while the first sentence has no PP
    lines = [1, 2, 3, 3]  # of sample/'s corpus and gold
    corpus, gold, weights = (tmp_path / name for name in ("c.tagged", "gold", "w.tsv"))
    for path, source in ((corpus, "corpus.tagged"), (gold, "gold.brackets")):
        sample = (SAMPLE / source).read_text().splitlines()
        path.write_text("".join(sample[i] + "\n" for i in lines))
    weights.write_text((SAMPLE / "weights.tsv").read_text().replace(
        "pp_attachment_height\t1.0", "pp_attachment_height\t1e308"))
    argv = [command, *SAMPLE_GRAMMAR, "--weights", weights, corpus]
    if command == "train":
        argv += ["--gold", gold, "--ratios", "1,1,1", "--max-iterations", "1",
                 "--weights-out", tmp_path / "out.tsv", "--log", tmp_path / "log"]
    code, out, err = run(argv, capsys)
    assert_one_error(code, err)
    assert err == ("error: sentence 1: a parse's penalty is inf, not a finite number:"
                   " the weights are too large for its heuristic counts\n")
    if command != "train":
        assert out.startswith("[0] the name is the part") and "[1]" not in out


def test_a_sentence_out_of_memory_leaves_the_lines_printed_before_it(tmp_path, capsys,
                                                                     monkeypatch):
    # parse prints each sentence as it is analyzed; the report is written
    # only once the corpus is done, so a failed run writes none
    calls = []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError
        return analyze_sentence(*args)

    monkeypatch.setattr(cli, "analyze_sentence", second_fails)
    report = tmp_path / "report.jsonl"
    code, out, err = run(["parse", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                          "--report", report], capsys)
    assert_one_error(code, err)
    assert err == ("error: sentence 1: out of memory; --max-parses bounds the parses"
                   " kept per sentence\n")
    first = (GOLDEN / "parse.out").read_text().splitlines()[0]
    assert first.startswith("[0] ") and out == first + "\n"
    assert len(calls) == 2 and not report.exists()


def test_train_checks_the_gold_before_analyzing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "analyze_sentence",
                        lambda *args: calls.append(args) or analyze_sentence(*args))
    gold = (SAMPLE / "gold.brackets").read_text().splitlines()
    gold_path = tmp_path / "gold.brackets"
    gold_path.write_text("\n".join(gold[1:]) + "\n")
    code, _, err = run(["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--gold", gold_path, "--weights-out", tmp_path / "w.tsv",
                        "--log", tmp_path / "log"], capsys)
    assert_one_error(code, err)
    assert "unmatched" in err
    assert calls == []


@pytest.mark.parametrize("flags, message", [
    (["--sizes", "1,1,1"], "--sizes 1,1,1 sum to 3, but the corpus has 5 sentences"),
    (["--delta-scale", "nan"], "delta_scale nan is not finite"),
    (["--max-iterations", "0"], "config values must be positive"),
    (["--resume", "broken"], "line 1: not a JSON record"),
], ids=["sizes", "delta_scale", "max_iterations", "resume"])
def test_train_checks_its_arguments_before_analyzing(tmp_path, capsys, monkeypatch,
                                                     flags, message):
    calls = []
    monkeypatch.setattr(cli, "analyze_sentence",
                        lambda *args: calls.append(args) or analyze_sentence(*args))
    (tmp_path / "broken").write_text("not json\n")
    flags = [tmp_path / flag if flag == "broken" else flag for flag in flags]
    code, _, err = run(["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--gold", SAMPLE / "gold.brackets", "--weights-out", tmp_path / "w.tsv",
                        "--log", tmp_path / "log", *flags], capsys)
    assert_one_error(code, err)
    assert message in err
    assert calls == []


DEEP = 1200  # nesting levels, more than Python's recursion limit allows


def test_eval_reads_brackets_nested_deeper_than_the_recursion_limit(tmp_path, capsys):
    closed = tmp_path / "closed.brackets"
    closed.write_text("(X " * DEEP + "w" + ")" * DEEP + "\n")
    code, out, _ = run(["eval", closed, "--gold", closed], capsys)
    assert code == 0
    assert "100.00" in out
    unclosed = tmp_path / "unclosed.brackets"
    unclosed.write_text("(X " * DEEP + "\n")
    code, _, err = run(["eval", unclosed, "--gold", unclosed], capsys)
    assert_one_error(code, err)
    assert "missing ')'" in err


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
def test_train_reads_gold_nested_deeper_than_the_recursion_limit(tmp_path, capsys,
                                                                 closed):
    # the first gold tree wrapped in DEEP whole-sentence nodes, which scoring
    # drops; or opened DEEP times and never closed
    gold = (SAMPLE / "gold.brackets").read_text().splitlines()
    gold[0] = "(X " * DEEP + gold[0] + (")" * DEEP if closed else "")
    gold_path = tmp_path / "gold.brackets"
    gold_path.write_text("\n".join(gold) + "\n")
    code, out, err = run(["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                          "--gold", gold_path, "--max-iterations", "5",
                          "--weights-out", tmp_path / "w.tsv",
                          "--log", tmp_path / "log"], capsys)
    if closed:
        assert code == 0 and "Preferences Trained" in out
    else:
        assert_one_error(code, err)
        assert "missing ')'" in err


def test_a_tree_line_may_nest_deeper_than_the_recursion_limit(tmp_path, capsys):
    # check reads it; rank, which parses with it, names the sentence whose
    # derivations nest too deeply
    grammar = tmp_path / "deep.ltag"
    grammar.write_text("tree Deep : initial " + "(S " * DEEP + "N@" + ")" * DEEP
                       + "\nlex a N -> Deep\n")
    code, out, _ = run(["check", grammar], capsys)
    assert code == 0 and "trees: 1 (1 initial, 0 auxiliary)" in out
    corpus = tmp_path / "c.tagged"
    corpus.write_text("a/N\n")
    code, out, err = run(["rank", "--grammar", grammar, corpus], capsys)
    assert_one_error(code, err)
    assert err == "error: sentence 0: nested too deeply to analyze (Python's recursion limit)\n"


def test_bad_tagged_line_names_its_file_and_line(tmp_path, capsys):
    # line numbers count the blank line
    corpus = tmp_path / "c.tagged"
    corpus.write_text("the/D part/N is/V the/D name/N\n\nthe/D dogs is/V\n")
    code, _, err = run(["parse", *SAMPLE_GRAMMAR, corpus], capsys)
    assert_one_error(code, err)
    assert err == f"error: {corpus}, line 3: token 'dogs' is missing a /TAG suffix\n"


def test_bad_gold_line_names_its_file_and_line(tmp_path, capsys):
    gold = (SAMPLE / "gold.brackets").read_text().splitlines()
    gold[2] = gold[2][:-1]
    gold_path = tmp_path / "gold.brackets"
    gold_path.write_text("\n" + "\n".join(gold) + "\n")
    code, _, err = run(["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--gold", gold_path, "--max-iterations", "5",
                        "--weights-out", tmp_path / "w.tsv",
                        "--log", tmp_path / "log"], capsys)
    assert_one_error(code, err)
    assert err.startswith(f"error: {gold_path}, line 4: missing ')' (at character ")


def test_indented_bad_gold_line_names_its_offset_in_the_line(tmp_path, capsys):
    # as in eval, the character offset counts from the start of the line,
    # not from its first non-blank character
    gold_path = tmp_path / "gold.brackets"
    gold_path.write_text("\n   (S (N a) (V b)\n")
    code, _, err = run(["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--gold", gold_path, "--weights-out", tmp_path / "w.tsv",
                        "--log", tmp_path / "log"], capsys)
    assert_one_error(code, err)
    assert err == f"error: {gold_path}, line 2: missing ')' (at character 3)\n"


@pytest.mark.parametrize("bad", ["parses", "gold"])
def test_eval_bad_line_names_its_file_and_line(tmp_path, capsys, bad):
    # the gold file's two leading blank lines are skipped, but counted
    lines = (SAMPLE / "gold.brackets").read_text().splitlines()
    broken = lines[:3] + [lines[3][:-1]] + lines[4:]
    paths = {"parses": tmp_path / "parses.txt", "gold": tmp_path / "gold.brackets"}
    paths["parses"].write_text("\n".join(broken if bad == "parses" else lines) + "\n")
    paths["gold"].write_text("\n\n" + "\n".join(broken if bad == "gold" else lines) + "\n")
    code, _, err = run(["eval", paths["parses"], "--gold", paths["gold"]], capsys)
    assert_one_error(code, err)
    number = 4 if bad == "parses" else 6
    assert err.startswith(f"error: {paths[bad]}, line {number}: missing ')' (at character ")


def test_eval_bad_candidate_names_its_offset_in_the_line(tmp_path, capsys):
    # the second n-best candidate's unclosed '(' is character 20 of the
    # line, counting from 0, not character 1 of its '|||' chunk
    parses, gold = tmp_path / "p.txt", tmp_path / "g.txt"
    parses.write_text("(S (N a) (V b)) ||| (S (N a) (V b)\n")
    gold.write_text("(S (N a) (V b))\n")
    code, _, err = run(["eval", parses, "--gold", gold], capsys)
    assert_one_error(code, err)
    assert err == f"error: {parses}, line 1: missing ')' (at character 20)\n"


def test_eval_empty_files_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(["eval", empty, "--gold", empty], capsys)
    assert_one_error(code, err)


def test_eval_top_k_zero_is_an_error(capsys):
    code, _, err = run(["eval", SAMPLE / "gold.brackets", "--gold",
                        SAMPLE / "gold.brackets", "--top-k", "0"], capsys)
    assert_one_error(code, err)
    assert "--top-k" in err


def test_negative_filter_k_is_an_error(capsys):
    code, _, err = run(["parse", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--filter-k", "-1"], capsys)
    assert_one_error(code, err)
    assert "--filter-k" in err


def test_negative_adjunction_cap_is_an_error(capsys):
    code, _, err = run(["rank", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--adjunction-cap", "-1"], capsys)
    assert_one_error(code, err)
    assert "--adjunction-cap" in err


def test_max_parses_zero_is_an_error(capsys):
    code, _, err = run(["parse", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--max-parses", "0"], capsys)
    assert_one_error(code, err)
    assert "--max-parses" in err


@pytest.mark.parametrize("flag, values", [("--sizes", "nan,1,1"),
                                          ("--ratios", "inf,1,1")])
def test_split_non_finite_proportions_is_an_error(tmp_path, capsys, flag, values):
    corpus = tmp_path / "lines.txt"
    corpus.write_text("a\nb\nc\nd\n")
    code, _, err = run(["split", corpus, flag, values], capsys)
    assert_one_error(code, err)
    assert "finite" in err


def test_split_sizes_and_ratios_together_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "lines.txt"
    corpus.write_text("\n".join(f"sentence {i}" for i in range(10)) + "\n")
    code, _, err = run(["split", corpus, "--sizes", "1,1,1", "--ratios", "8,1,1"],
                       capsys)
    assert_one_error(code, err)
    assert "--sizes or --ratios" in err


@pytest.mark.parametrize("sizes, message", [
    ("6,2,4", "sum to 12, but the corpus has 10 sentences"),
    ("2.5,2.5,5", "not whole numbers"),
])
def test_split_sizes_off_the_corpus_size_is_an_error(tmp_path, capsys, sizes, message):
    corpus = tmp_path / "lines.txt"
    corpus.write_text("\n".join(f"sentence {i}" for i in range(10)) + "\n")
    code, _, err = run(["split", corpus, "--sizes", sizes], capsys)
    assert_one_error(code, err)
    assert message in err


def _no_json(lines):
    return lines + ["not json"]


def _no_rng_state(lines):
    state = json.loads(lines[-1])
    del state["rng_state"]
    return lines[:-1] + [json.dumps(state)]


def _three_weights(lines):
    state = json.loads(lines[-1])
    state["weights"] = state["best_weights"] = [1.0, 2.0, 3.0]
    return lines[:-1] + [json.dumps(state)]


def _infinite_weight(lines):
    state = json.loads(lines[-1])
    state["weights"][0] = float("inf")
    return lines[:-1] + [json.dumps(state)]


def _nan_best_weight(lines):
    state = json.loads(lines[-1])
    state["best_weights"][-1] = float("nan")
    return lines[:-1] + [json.dumps(state)]


def _rng_state_of_the_wrong_size(lines):
    state = json.loads(lines[-1])
    state["rng_state"] = [3, [1, 2], None]
    return lines[:-1] + [json.dumps(state)]


def _attempts_a_string(lines):
    state = json.loads(lines[-1])
    state["attempts"] = str(state["attempts"])
    return lines[:-1] + [json.dumps(state)]


def _no_state(lines):
    return lines[:-1]


def _nested_too_deeply(lines):
    # valid JSON, nested deeper than the decoder's recursion limit
    return lines[:-1] + ['{"type": "state", "weights": ' + "[" * 3000 + "]" * 3000 + "}"]


def _heldout_last_a_string(lines):
    state = json.loads(lines[-1])
    state["heldout_last"] = "abc"
    return lines[:-1] + [json.dumps(state)]


def _best_heldout_null(lines):
    state = json.loads(lines[-1])
    state["best_heldout"] = None
    return lines[:-1] + [json.dumps(state)]


@pytest.mark.parametrize("mangle, message", [
    (_no_json, "line 6: not a JSON record"),
    (_no_rng_state, "line 5: malformed state record"),
    (_three_weights, "3 entries"),
    (_infinite_weight, "line 5: state record holds a weight that is not a finite"),
    (_nan_best_weight, "line 5: state record holds a weight that is not a finite"),
    (_rng_state_of_the_wrong_size, "line 5: malformed state record"),
    (_attempts_a_string, "line 5: malformed state record"),
    (_no_state, "no state record found in"),
    (_heldout_last_a_string, "line 5: malformed state record (ValueError: the objectives"),
    (_best_heldout_null, "line 5: malformed state record (ValueError: the objectives"),
    (_nested_too_deeply, "line 5: not a JSON record"),
], ids=["no_json", "no_rng_state", "three_weights", "infinite_weight",
        "nan_best_weight", "rng_state_of_the_wrong_size", "attempts_a_string",
        "no_state", "heldout_last_a_string", "best_heldout_null", "nested_too_deeply"])
def test_bad_resume_log_is_an_error(tmp_path, capsys, mangle, message):
    train = ["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
             "--gold", SAMPLE / "gold.brackets", "--ratios", "3,1,1",
             "--max-iterations", "3", "--weights-out", tmp_path / "w.tsv"]
    log = tmp_path / "train.log"
    code, _, _ = run([*train, "--log", log], capsys)
    assert code == 0
    bad = tmp_path / "bad.log"
    bad.write_text("\n".join(mangle(log.read_text().splitlines())) + "\n")
    code, _, err = run([*train, "--log", tmp_path / "again.log", "--resume", bad],
                       capsys)
    assert_one_error(code, err)
    assert message in err


@pytest.mark.parametrize("old, new", [
    ("prefix=Rel_Cl", "prefix="), ("prefix=Topic", "prefix=,"),
    ("prefix=Pred", "trees="), ("modifier=PP", "modifier="), ("sites=N,NP", "sites=,"),
])
def test_registry_list_with_no_items_is_an_error(tmp_path, capsys, old, new):
    lines = (SAMPLE / "registry.txt").read_text().splitlines()
    number = next(n for n, line in enumerate(lines, start=1) if old in line)
    registry = tmp_path / "registry.txt"
    registry.write_text("\n".join(lines).replace(old, new) + "\n")
    code, _, err = run(["rank", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--registry", registry], capsys)
    assert_one_error(code, err)
    assert f"line {number}: " in err and "has no values" in err


def test_grammar_path_that_is_a_directory_is_an_error(capsys):
    for argv in (["check", SAMPLE],
                 ["parse", "--grammar", SAMPLE, SAMPLE / "corpus.tagged"]):
        code, _, err = run(argv, capsys)
        assert_one_error(code, err)


def test_corpus_that_cannot_be_decoded_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "c.tagged"
    corpus.write_bytes(b"\xff\xfethe/D part/N\n")
    code, _, err = run(["parse", *SAMPLE_GRAMMAR, corpus], capsys)
    assert_one_error(code, err)


@pytest.mark.parametrize("which", ["corpus", "grammar", "gold"])
def test_file_that_cannot_be_decoded_is_named(tmp_path, capsys, which):
    bad = tmp_path / f"bad.{which}"
    bad.write_bytes(b"\xff\xfethe/D part/N\n")
    argv = {"corpus": ["parse", *SAMPLE_GRAMMAR, bad],
            "grammar": ["parse", "--grammar", bad, SAMPLE / "corpus.tagged"],
            "gold": ["eval", SAMPLE / "gold.brackets", "--gold", bad]}[which]
    code, _, err = run(argv, capsys)
    assert_one_error(code, err)
    assert str(bad) in err


def test_report_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    code, _, err = run(["parse", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--report", tmp_path], capsys)
    assert_one_error(code, err)


def test_check_names_every_validation_issue_on_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.ltag"
    bad.write_text("tree Broken_Aux : auxiliary (VP ADV@ NP*)\n"
                   "tree Two_Anchors : initial (NP D@ N@)\n")
    code, _, err = run(["check", bad], capsys)
    assert_one_error(code, err)
    assert "Broken_Aux" in err and "Two_Anchors" in err and "; " in err



# ---------------------------------------------------------------------------
# the sample registry is the stock registry

def test_rank_with_the_sample_registry_prints_the_golden_ranking(tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run([*GOLDEN_COMMANDS["rank"], "--registry", SAMPLE / "registry.txt"],
                       capsys)
    assert code == 0
    assert out == (GOLDEN / "rank.out").read_text()


# ---------------------------------------------------------------------------
# training runs

TRAIN = ["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
         "--gold", SAMPLE / "gold.brackets", "--seed", "9"]


def test_train_with_an_empty_test_split(tmp_path, capsys):
    code, out, _ = run([*TRAIN, "--ratios", "1,1,0", "--max-iterations", "20",
                        "--weights-out", tmp_path / "w.tsv", "--log", tmp_path / "log"],
                       capsys)
    assert code == 0
    groups = [line.split()[0] for line in out.splitlines()[1:] if line.strip()]
    assert groups.count("HELD-OUT") == 3 and "TEST" not in groups
    assert json.loads((tmp_path / "log").read_text().splitlines()[0])["sizes"] == [3, 2, 0]


@pytest.mark.parametrize("same_log", [True, False], ids=["same_log", "new_log"])
def test_resumed_run_keeps_the_earlier_attempts(tmp_path, capsys, same_log):
    train = [*TRAIN, "--ratios", "3,1,1", "--strike-limit", "1000"]
    code, _, _ = run([*train, "--max-iterations", "40", "--weights-out",
                      tmp_path / "full.tsv", "--log", tmp_path / "full.log"], capsys)
    assert code == 0
    half = tmp_path / "half.log"
    code, _, _ = run([*train, "--max-iterations", "20", "--weights-out",
                      tmp_path / "half.tsv", "--log", half], capsys)
    assert code == 0
    log = half if same_log else tmp_path / "resumed.log"
    code, _, _ = run([*train, "--max-iterations", "40", "--weights-out",
                      tmp_path / "resumed.tsv", "--log", log, "--resume", half], capsys)
    assert code == 0
    assert log.read_bytes() == (tmp_path / "full.log").read_bytes()
    assert (tmp_path / "resumed.tsv").read_bytes() == (tmp_path / "full.tsv").read_bytes()
    attempts = [json.loads(line) for line in log.read_text().splitlines()[1:-1]]
    assert [record["attempt"] for record in attempts] == list(range(1, 41))


def test_train_on_high_attachment_gold_accepts_a_step(tmp_path, capsys):
    # the gold parse of each of-PP sentence is the one that weights
    # preferring high PP attachment rank first, as the benchmark's hidden
    # weights do; the uniform start weights prefer low attachment, so the
    # trainer has a step to accept, unlike on sample/
    grammar = ltagrank.loads(OFPP_GRAMMAR)
    registry = default_registry()
    hidden = uniform_weights(registry)
    hidden[registry.names().index("pp_attachment_height")] = -1.0
    lines = ["the/D name/N is/V the/D part/N" + "".join(f" of/P the/D {noun}/N"
                                                      for noun in nouns)
             for pps in (1, 2)
             for nouns in itertools.product(("part", "name", "computer"), repeat=pps)]
    config = PipelineConfig(filter_k=None, adjunction_cap=3)
    gold = [analyze_sentence(grammar, tag(line), registry, hidden, config)
            .parses[0].derived.to_string() for line in lines]
    paths = {name: tmp_path / name for name in ("grammar.ltag", "corpus.tagged",
                                                "gold.brackets", "weights.tsv", "log")}
    paths["grammar.ltag"].write_text(OFPP_GRAMMAR)
    paths["corpus.tagged"].write_text("\n".join(lines) + "\n")
    paths["gold.brackets"].write_text("\n".join(gold) + "\n")
    code, out, _ = run(["train", "--grammar", paths["grammar.ltag"], paths["corpus.tagged"],
                        "--gold", paths["gold.brackets"], "--ratios", "2,1,1",
                        "--max-iterations", "30", "--weights-out", paths["weights.tsv"],
                        "--log", paths["log"]], capsys)
    assert code == 0
    records = [json.loads(line) for line in paths["log"].read_text().splitlines()]
    assert any(r["accepted"] for r in records if r["type"] == "attempt")
    assert records[-1]["type"] == "state"
    written = [float(line.split("\t")[1])
               for line in paths["weights.tsv"].read_text().splitlines()]
    assert written == records[-1]["best_weights"]
    assert written != uniform_weights(registry)


# ---------------------------------------------------------------------------
# more bad input: one error line, exit code 1

@pytest.mark.parametrize("text, message", [
    ("tree X initial (NP N@)\n", "malformed tree line (line 1)"),
    ("tree T : initial (NP N@)\nfamily F\n", "malformed family line (line 2)"),
    ("tree T : initial (NP N@)\nfamily F = T\nfamily F = T\n",
     "duplicate family 'F' (line 3)"),
    ("lex dog N\n", "malformed lexicon line (line 1)"),
    ("lex dog N -> ,\n", "empty name list (line 1)"),
    ("# frob\nfrob X\n", "unrecognized declaration 'frob' (line 2)"),
    ("tree X : initial (NP N@!)\n", "bad node token 'N@!' (line 1, column 22)"),
    ("tree A : auxiliary (NP D@ NP^)\n", "auxiliary tree 'A' must have exactly one foot,"
                                         " found 0"),
], ids=["tree_line", "family_line", "duplicate_family", "lex_line", "empty_names",
        "unrecognized", "bad_token", "no_foot"])
def test_grammar_file_errors(tmp_path, capsys, text, message):
    grammar = tmp_path / "g.ltag"
    grammar.write_text(text)
    code, _, err = run(["check", grammar], capsys)
    assert_one_error(code, err)
    assert message in err


def test_frequency_line_of_three_columns_is_an_error(tmp_path, capsys):
    freq = tmp_path / "freq.tsv"
    freq.write_text("# tree probability\n\nNoun_Phrase\t0.5\nDeterminer\t0.2\t0.1\n")
    code, _, err = run(["check", SAMPLE / "grammar.ltag", "--freq", freq], capsys)
    assert_one_error(code, err)
    assert "(line 4)" in err


def test_eval_candidate_of_the_wrong_length_is_an_error(tmp_path, capsys):
    parses, gold = tmp_path / "parses.txt", tmp_path / "gold.txt"
    parses.write_text("(X a b c)\n")
    gold.write_text("(X a b)\n")
    code, _, err = run(["eval", parses, "--gold", gold], capsys)
    assert_one_error(code, err)
    assert "sentence 0: candidate has 3 words, gold has 2" in err


@pytest.mark.parametrize("ratios, message", [
    ("1,x,1", "bad proportions '1,x,1'"),
    ("1,1", "exactly three"),
    ("0,0,0", "must not all be zero"),
], ids=["not_a_number", "two_numbers", "all_zero"])
def test_split_bad_ratios_is_an_error(tmp_path, capsys, ratios, message):
    corpus = tmp_path / "lines.txt"
    corpus.write_text("a\nb\nc\nd\n")
    code, _, err = run(["split", corpus, "--ratios", ratios], capsys)
    assert_one_error(code, err)
    assert message in err


def test_rank_prints_no_parse(tmp_path, capsys):
    corpus = tmp_path / "c.tagged"
    corpus.write_text("the/D part/N\n")
    code, out, _ = run(["rank", *SAMPLE_GRAMMAR, corpus], capsys)
    assert code == 0
    assert out.splitlines() == ["[0] the part", "  NO PARSE"]


@pytest.mark.parametrize("mode", ["standard", "paper_literal"])
def test_build_records_scores_each_bracketing_once(monkeypatch, mode):
    # the records equal a fresh scoring of every candidate, while no
    # candidate's bracketing is built and scored: parseval.evaluate_derivations
    # scores each substituted subtree once and each candidate's own part
    grammar = ltagrank.loads(OFPP_GRAMMAR)
    registry = ltagrank.default_registry()
    words = "the second part is the name".split() + ["of", "the", "part"] * 3
    sentence = [ltagrank.TaggedWord(w, tuple(sorted(grammar.pos_tags_for_word(w))))
                for w in words]
    analysis = ltagrank.analyze_sentence(
        grammar, sentence, registry, ltagrank.uniform_weights(registry),
        ltagrank.PipelineConfig(adjunction_cap=3))
    gold = ltagrank.read_bracketed(analysis.parses[-1].derived.to_string())
    flat = frozenset({"NP", "VP"})
    scored = []
    original = parseval.evaluate_parse

    def counted(candidate, gold, mode):
        scored.append(candidate)
        return original(candidate, gold, mode)

    monkeypatch.setattr(parseval, "evaluate_parse", counted)
    records = build_records([analysis], [gold], mode, flat, len(analysis.parses))
    default_records = build_records([analysis], [gold], mode, flat)
    gold_brackets = parseval.brackets_of(gold)
    expected = {0: SentenceRecord(0, [
        Candidate(rp.vector, original(parseval.brackets_of(rp.derived.root, flat),
                                      gold_brackets, mode))
        for rp in analysis.parses])}
    assert records == expected
    assert default_records == blank_unreachable(expected, TrainConfig.top_k)
    assert scored == [] and len(analysis.parses) > 1


def test_train_delta_scale_whose_perturbation_width_overflows_is_an_error(tmp_path, capsys):
    # at 1e308 every perturbation would be infinite, and the log would hold
    # an Infinity delta on every attempt line
    log = tmp_path / "log"
    code, _, err = run(["train", *SAMPLE_GRAMMAR, SAMPLE / "corpus.tagged",
                        "--gold", SAMPLE / "gold.brackets", "--delta-scale", "1e308",
                        "--max-iterations", "20", "--weights-out", tmp_path / "w.tsv",
                        "--log", log], capsys)
    assert_one_error(code, err)
    assert err == ("error: delta_scale 1e+308 is too large: the perturbation width inf"
                   " is not finite\n")
    assert not log.exists()


# ---------------------------------------------------------------------------
# the collector pause of build_records and of every command

def _ladder_analyses_and_golds():
    """The analyses of the 12- to 21-word of-PP ladder (cap 3), made as they
    are asked for, and as gold each one's last-ranked parse."""
    grammar = ltagrank.loads(OFPP_GRAMMAR)
    registry = ltagrank.default_registry()
    weights = ltagrank.uniform_weights(registry)
    config = PipelineConfig(adjunction_cap=3)
    sentences = [tag(_ladder(pps)) for pps in range(2, 6)]
    golds = [ltagrank.read_bracketed(analyze_sentence(
        grammar, sentence, registry, weights, config).parses[-1].derived.to_string())
        for sentence in sentences]
    analyses = (analyze_sentence(grammar, sentence, registry, weights, config)
                for sentence in sentences)
    return analyses, golds


def _marked_scoring(monkeypatch, events, fails=False):
    """Append "scored" to ``events`` at each evaluate_derivations call, or
    with ``fails`` raise MemoryError there instead."""
    original = parseval.evaluate_derivations

    def marked(*args):
        if fails:
            raise MemoryError
        events.append("scored")
        return original(*args)

    monkeypatch.setattr(parseval, "evaluate_derivations", marked)


@pytest.mark.parametrize("held", [True, False], ids=["held", "streamed"])
def test_build_records_runs_one_young_collection_at_its_end(monkeypatch, held):
    # held analyses (as the benchmark passes them) are traced by no
    # collection while the records are built, and streamed ones (as train
    # passes them) are freed without ever being traced: the only collection
    # is the young one after the last sentence is scored
    analyses, golds = _ladder_analyses_and_golds()
    if held:
        analyses = list(analyses)
    events = []
    _marked_scoring(monkeypatch, events)
    with _collector(True):
        with _recorded_collections(events):
            records = build_records(analyses, golds, "standard", frozenset({"NP", "VP"}))
        assert gc.isenabled()
    assert events == ["scored"] * 4 + [0]
    assert len(records) == 4


def test_build_records_leaves_a_paused_collector_alone(monkeypatch):
    class Cycle:
        pass

    analyses, golds = _ladder_analyses_and_golds()
    events = []
    _marked_scoring(monkeypatch, events)
    with _collector(False):
        cycle = Cycle()
        cycle.me = cycle
        alive = weakref.ref(cycle)
        del cycle
        with _recorded_collections(events):
            build_records(list(analyses), golds, "standard", frozenset())
        assert events == ["scored"] * 4
        assert not gc.isenabled()
        assert alive() is not None
        gc.collect()
        assert alive() is None


@pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
def test_build_records_restores_the_collector_when_a_sentence_raises(monkeypatch, on):
    analyses, golds = _ladder_analyses_and_golds()
    events = []
    _marked_scoring(monkeypatch, events, fails=True)
    with _collector(on):
        with _recorded_collections(events):
            with pytest.raises(cli.CliError, match="sentence 0: out of memory"):
                build_records(analyses, golds, "standard", frozenset())
        assert gc.isenabled() == on
    assert events == ([0] if on else [])


def test_dropped_records_leave_no_garbage_cycles(monkeypatch):
    # build_records pauses the collector, which is exact only while all
    # it builds is acyclic: with the collector off, dropped records and
    # analyses leave it nothing to find, on the error path too
    with _collector(False):
        analyses, golds = _ladder_analyses_and_golds()
        records = build_records(analyses, golds, "standard", frozenset({"NP", "VP"}))
        assert len(records) == 4
        del records, analyses
        assert gc.collect() == 0
        analyses, golds = _ladder_analyses_and_golds()
        _marked_scoring(monkeypatch, [], fails=True)
        with pytest.raises(cli.CliError):
            build_records(analyses, golds, "standard", frozenset())
        del analyses
        assert gc.collect() == 0


def _streaming_argv(command, tmp_path):
    """A ``parse --report``, ``rank`` or ``train`` run over sample/'s five
    sentences."""
    corpus = SAMPLE / "corpus.tagged"
    return {
        "parse": ["parse", *SAMPLE_GRAMMAR, corpus, "--report", tmp_path / "parse.jsonl"],
        "rank": ["rank", *SAMPLE_GRAMMAR, "--weights", SAMPLE / "weights.tsv", corpus],
        "train": ["train", *SAMPLE_GRAMMAR, corpus, "--gold", SAMPLE / "gold.brackets",
                  "--ratios", "3,1,1", "--max-iterations", "20",
                  "--weights-out", tmp_path / "w.tsv", "--log", tmp_path / "log"],
    }[command]


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "error"])
@pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("command", ["parse", "rank", "train"])
def test_a_command_runs_one_young_collection_at_its_end(tmp_path, capsys, monkeypatch,
                                                         command, on, fails):
    # a command is one pause: its analyses run no collection, and with the
    # collector on the run ends in one young collection; either way, after
    # an error: exit too, the collector is left as the command found it
    events = []

    def marked(*args):
        events.append("analyzed")
        if fails and events.count("analyzed") == 2:
            raise MemoryError
        return analyze_sentence(*args)

    monkeypatch.setattr(cli, "analyze_sentence", marked)
    with _collector(on):
        with _recorded_collections(events):
            code = main([str(a) for a in _streaming_argv(command, tmp_path)])
        assert gc.isenabled() == on
    err = capsys.readouterr().err
    if fails:
        assert_one_error(code, err)
        assert "sentence 1: out of memory" in err
    else:
        assert code == 0, err
    assert events == ["analyzed"] * (2 if fails else 5) + ([0] if on else [])


@pytest.mark.parametrize("command", ["check", "parse", "rank", "eval", "split", "train"])
def test_commands_leave_no_garbage_cycles(tmp_path, capsys, command):
    # every command runs paused, which is exact only while all it builds
    # is acyclic: with the collector off, a finished command leaves it
    # nothing to find.  The arguments are parsed first, since argparse's
    # own parser is cyclic
    argv = {
        "check": ["check", SAMPLE / "grammar.ltag"],
        "eval": ["eval", SAMPLE / "gold.brackets", "--gold", SAMPLE / "gold.brackets",
                 "--flatten", "NP,VP", "--report", tmp_path / "eval.jsonl"],
        "split": ["split", SAMPLE / "corpus.tagged", "--report", tmp_path / "split.jsonl"],
    }.get(command) or _streaming_argv(command, tmp_path)
    args = cli.make_parser().parse_args([str(a) for a in argv])
    with _collector(False):
        assert args.func(args) == 0
        assert gc.collect() == 0, command
    assert capsys.readouterr().out
