import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltagrank
from ltagrank.cli import main

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


@pytest.mark.parametrize("mangle, message", [
    (_no_json, "line 6: not a JSON record"),
    (_no_rng_state, "line 5: malformed state record"),
    (_three_weights, "3 entries"),
], ids=["no_json", "no_rng_state", "three_weights"])
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
