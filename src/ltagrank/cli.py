"""Command line interface: check, parse, rank, eval, split, train."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import grammar as gmod
from . import heuristics as hmod
from . import parseval, training
from .pipeline import CollectorPause, PipelineConfig, analyze_sentence
from .tagging import TaggedInputError, read_tagged_corpus


class CliError(Exception):
    pass


def _load_grammar(args) -> gmod.Grammar:
    return gmod.load_grammar(args.grammar, getattr(args, "freq", None))


def _load_registry(args) -> hmod.HeuristicRegistry:
    if getattr(args, "registry", None):
        return hmod.load_registry(args.registry)
    return hmod.default_registry()


def _load_weights(args, registry) -> list[float]:
    if getattr(args, "weights", None):
        return hmod.load_weights(args.weights, registry)
    return hmod.uniform_weights(registry)


def _require_at_least(flag, value, least) -> None:
    if value is not None and value < least:
        raise CliError(f"{flag} must be at least {least}, not {value}")


def _pipeline_config(args) -> PipelineConfig:
    _require_at_least("--top-k", args.top_k, 1)
    _require_at_least("--filter-k", args.filter_k, 0)
    _require_at_least("--adjunction-cap", args.adjunction_cap, 0)
    _require_at_least("--max-parses", args.max_parses, 1)
    return PipelineConfig(
        start=args.start,
        filter_k=None if args.filter_k == 0 else args.filter_k,
        adjunction_cap=None if args.adjunction_cap == 0 else args.adjunction_cap,
        check_features=args.check_features,
        open_class_fallback=args.open_class_fallback,
        max_parses=args.max_parses,
    )


def _write_report(path, lines) -> None:
    """Write the report's records, each one line of JSON text, to ``path``:
    a record kept as its text holds far less memory than as dicts."""
    if not path:
        return
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")


def _config_record(args) -> dict:
    config = {key: value if isinstance(value, (int, float, bool, str, type(None)))
              else str(value)
              for key, value in sorted(vars(args).items()) if not callable(value)}
    return {"type": "config", "command": args.command, **config}


def _table(headers, rows) -> str:
    text_rows = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*text_rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in text_rows)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


# ---------------------------------------------------------------------------
# commands

def cmd_check(args) -> int:
    grammar = _load_grammar(args)
    initial = sum(1 for t in grammar.trees.values() if t.kind == gmod.INITIAL)
    print(f"trees: {len(grammar.trees)} ({initial} initial,"
          f" {len(grammar.trees) - initial} auxiliary)")
    print(f"families: {len(grammar.families)}")
    print(f"lexicon entries: {len(grammar.lexicon)}")
    print(f"frequency entries: {len(grammar.freq.entries)}")
    return 0


def _for_sentence(index, work, *args):
    """``work(*args)``, a step of the work on sentence ``index``.  If it
    runs out of memory, nests deeper than Python's recursion limit (as
    the derivations of a long sentence can), or ranks a parse at a penalty
    that is not finite (``heuristics.rank``), a CliError names the
    sentence.  It is made once the frames that hold the sentence's
    analysis are dropped."""
    try:
        return work(*args)
    except MemoryError as exc:
        exc.__traceback__ = None
        raise CliError(f"sentence {index}: out of memory; --max-parses bounds"
                       f" the parses kept per sentence") from None
    except RecursionError as exc:
        exc.__traceback__ = None
        raise CliError(f"sentence {index}: nested too deeply to analyze"
                       f" (Python's recursion limit)") from None
    except OverflowError as exc:
        exc.__traceback__ = None
        raise CliError(f"sentence {index}: {exc}") from None


def _analyze_each(sentences, grammar, registry, weights, config):
    """``analyze_sentence`` of each sentence in turn, as the caller asks for
    it: ``parse``, ``rank`` and ``train`` each read and drop one analysis
    before they ask for the next, so none is held beyond the next one.  A
    sentence whose analysis runs out of memory or of stack is named in a
    CliError (``_for_sentence``)."""
    for index, sentence in enumerate(sentences):
        # yielded, not bound: a local would keep each analysis alive while
        # the next one is analyzed
        yield _for_sentence(index, analyze_sentence, grammar, sentence, registry, weights,
                            config)


def _analyze_corpus(args, grammar, registry, weights):
    """The analyses of the corpus, made as they are read; inputs are checked first."""
    sentences = read_tagged_corpus(args.corpus)
    config = _pipeline_config(args)
    return _analyze_each(sentences, grammar, registry, weights, config)


def cmd_parse(args) -> int:
    grammar = _load_grammar(args)
    registry = _load_registry(args)
    weights = _load_weights(args, registry)
    analyses = _analyze_corpus(args, grammar, registry, weights)

    # a sentence's record derives the trees of its top parses: only a
    # report reads it
    lines = [json.dumps(_config_record(args))]
    n = parsed = total = 0
    for index, analysis in enumerate(analyses):
        n += 1
        parsed += analysis.parsed
        total += analysis.derivation_count  # 0 when not parsed
        if args.report:
            lines.append(_for_sentence(index, _parse_record, index, analysis, args.top_k))
        status = f"{analysis.derivation_count} parses" if analysis.parsed else "NO PARSE"
        print(f"[{index}] {' '.join(analysis.words)} -> {status}")
    pct = 100.0 * parsed / n if n else 0.0
    avg = total / parsed if parsed else 0.0
    lines.append(json.dumps({"type": "summary", "n_sentences": n, "parsed_pct": pct,
                             "avg_parses": avg}))
    print()
    print(_table(["# of Sentences", "% Parsed", "Av. # of Parses/Sent"],
                 [[n, _fmt(pct), _fmt(avg)]]))
    _write_report(args.report, lines)
    return 0


def _parse_record(index, analysis, top_k) -> str:
    """The report line of sentence ``index``; it derives the trees of its
    top ``top_k`` parses."""
    return json.dumps({
        "type": "sentence", "index": index, "words": analysis.words,
        "n_parses": analysis.derivation_count,
        "filter": analysis.report.to_dict() if analysis.report else None,
        "parses": [{"penalty": rp.penalty, "vector": list(rp.vector),
                    "bracketing": rp.derived.to_string(),
                    "derivation": rp.derivation.to_dict()}
                   for rp in analysis.parses[:top_k]],
    })


def _top_parses(analysis, top_k) -> list[dict]:
    """The penalty and bracketing of each of the top ``top_k`` parses."""
    return [{"penalty": rp.penalty, "bracketing": rp.derived.to_string()}
            for rp in analysis.parses[:top_k]]


def cmd_rank(args) -> int:
    grammar = _load_grammar(args)
    registry = _load_registry(args)
    weights = _load_weights(args, registry)
    analyses = _analyze_corpus(args, grammar, registry, weights)
    lines = [json.dumps(_config_record(args))]
    for index, analysis in enumerate(analyses):
        top = _for_sentence(index, _top_parses, analysis, args.top_k)
        print(f"[{index}] {' '.join(analysis.words)}")
        for rank_no, parse in enumerate(top, start=1):
            print(f"  {rank_no}. penalty={parse['penalty']:g} {parse['bracketing']}")
        if not top:
            print("  NO PARSE")
        if args.report:
            lines.append(json.dumps({"type": "sentence", "index": index, "parses": top}))
    _write_report(args.report, lines)
    return 0


def _read_candidate_lines(path):
    with gmod.open_text(path) as handle:
        return [line.rstrip("\n") for line in handle]


def cmd_eval(args) -> int:
    _require_at_least("--top-k", args.top_k, 1)
    candidate_lines = _read_candidate_lines(args.parses)  # blank line = no parse
    gold_lines = [(number, line) for number, line in
                  enumerate(_read_candidate_lines(args.gold), start=1) if line.strip()]
    if len(candidate_lines) != len(gold_lines):
        raise CliError(f"{args.parses} has {len(candidate_lines)} sentences but"
                       f" {args.gold} has {len(gold_lines)}; first unmatched index"
                       f" {min(len(candidate_lines), len(gold_lines))}")
    if not gold_lines:
        raise CliError(f"{args.gold} has no sentences")
    flatten_cats = _flatten_categories(args)
    pairs = []
    for index, (cand_line, (gold_number, gold_line)) in enumerate(zip(candidate_lines,
                                                                       gold_lines)):
        gold = parseval.brackets_of(
            parseval.read_bracketed_line(args.gold, gold_number, gold_line))
        candidates, offset = [], 0  # offset: where the chunk starts in the line
        for chunk in cand_line.split("|||"):
            if chunk.strip():
                candidates.append(parseval.brackets_of(parseval.read_bracketed_line(
                    args.parses, index + 1, chunk, offset), flatten_cats))
            offset += len(chunk) + len("|||")
        for bracketing in candidates:
            if bracketing.length != gold.length:
                raise CliError(f"sentence {index}: candidate has {bracketing.length}"
                               f" words, gold has {gold.length}")
        pairs.append((candidates, gold))
    scores = parseval.score_corpus(pairs, top_k=args.top_k,
                                   aggregation=args.aggregation,
                                   mode=args.recall_mode)
    print(_table(
        ["# of sentences", "Zero Crossing Bracket %", "Crossing Bracket Average",
         "Recall %", "Precision %"],
        [[scores.n_sentences, _fmt(scores.zero_crossing_pct),
          _fmt(scores.crossing_avg), _fmt(scores.recall_pct),
          _fmt(scores.precision_pct)]]))
    if scores.coverage_failures:
        print(f"coverage failures: {scores.coverage_failures}")
    _write_report(args.report, map(json.dumps, [
        _config_record(args),
        {"type": "corpus", "n_sentences": scores.n_sentences,
         "coverage_failures": scores.coverage_failures,
         "zero_crossing_pct": scores.zero_crossing_pct,
         "crossing_avg": scores.crossing_avg, "recall_pct": scores.recall_pct,
         "precision_pct": scores.precision_pct}]))
    return 0


def cmd_split(args) -> int:
    with gmod.open_text(args.corpus) as handle:
        n = sum(1 for line in handle if line.strip())
    spec = training.split(range(n), _parse_proportions(args, n), args.seed)
    print(f"train: {len(spec.train_ids)}  heldout: {len(spec.heldout_ids)}"
          f"  test: {len(spec.test_ids)}")
    _write_report(args.report, map(json.dumps, [
        _config_record(args),
        {"type": "split", "seed": spec.seed, "train": list(spec.train_ids),
         "heldout": list(spec.heldout_ids), "test": list(spec.test_ids)}]))
    return 0


def _parse_proportions(args, n_sentences):
    """The three split proportions: ``--sizes``, whole numbers that sum to
    the corpus size, or ``--ratios``, never both; the paper's 626,205,100 as
    ratios by default.  ``training.split`` checks that they are finite."""
    if args.sizes and args.ratios:
        raise CliError("give --sizes or --ratios, not both")
    text = args.sizes or args.ratios or "626,205,100"
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"bad proportions {text!r}")
    if len(values) != 3:
        raise CliError("proportions need exactly three comma-separated numbers")
    if args.sizes and all(math.isfinite(v) for v in values):
        if not all(v.is_integer() for v in values):
            raise CliError(f"--sizes {text} are not whole numbers")
        if sum(values) != n_sentences:
            raise CliError(f"--sizes {text} sum to {sum(values):g}, but the corpus"
                           f" has {n_sentences} sentences")
    return values


def _flatten_categories(args):
    if not getattr(args, "flatten", None):
        return frozenset()
    return frozenset(c for c in args.flatten.split(",") if c)


def build_records(analyses, gold_trees, recall_mode, flatten_cats,
                  top_k: int = training.TrainConfig.top_k):
    """Cache each sentence's candidate vectors and gold metrics for training.

    ``analyses`` may be a generator: no analysis is kept, so each one can
    be freed while the next is analyzed.  Only the candidates that a
    ranking can put in a top ``top_k`` are scored against gold
    (``training.reachable``); every other candidate keeps its vector and
    its position, with ``scores`` None, which a trainer at this or a
    smaller top k never reads.
    ``parseval.evaluate_derivations`` scores a sentence's candidates
    together, off their derivations: no tree is derived, each substituted
    subtree the parses share is scored against the gold once, and each
    candidate costs only its own part.

    The records are built in one ``CollectorPause``, which covers the
    analyses a generator makes too: however many analyses the caller
    holds, no collection traces them while the records are built, and only
    the closing young one traces the records once.
    """
    records = {}
    with CollectorPause():
        # no enumerate over the zip: the tuples the two reuse would keep the
        # analysis before last alive while the next one is analyzed
        for analysis, gold in zip(analyses, gold_trees):
            index = len(records)
            parses = analysis.parses
            vectors = [rp.vector for rp in parses]
            scores = [None] * len(parses)
            kept = training.reachable(vectors, top_k)
            if kept:
                for position, score in zip(kept, _for_sentence(
                        index, parseval.evaluate_derivations, parses[0].deriver.grammar,
                        [parses[i].derivation for i in kept], parseval.brackets_of(gold),
                        flatten_cats, recall_mode)):
                    scores[position] = score
            records[index] = training.SentenceRecord(
                index, list(map(training.Candidate, vectors, scores)))
    return records


def cmd_train(args) -> int:
    grammar = _load_grammar(args)
    registry = _load_registry(args)
    initial = _load_weights(args, registry)
    sentences = read_tagged_corpus(args.corpus)
    config = _pipeline_config(args)
    gold_trees = parseval.read_bracketed_corpus(args.gold)
    # every input and argument is checked before any sentence is analyzed
    if len(gold_trees) != len(sentences):
        raise CliError(f"corpus has {len(sentences)} sentences but gold has"
                       f" {len(gold_trees)}; first unmatched index"
                       f" {min(len(sentences), len(gold_trees))}")
    for index, (sentence, gold) in enumerate(zip(sentences, gold_trees)):
        if gold.end != len(sentence):
            raise CliError(f"sentence {index}: corpus has {len(sentence)}"
                           f" words, gold has {gold.end}")
    spec = training.split(range(len(sentences)), _parse_proportions(args, len(sentences)),
                          args.split_seed if args.split_seed is not None else args.seed)
    train_config = training.TrainConfig(
        top_k=args.top_k, aggregation=args.aggregation,
        delta_scale=args.delta_scale, strike_limit=args.strike_limit,
        max_iterations=args.max_iterations, seed=args.seed,
        require_all_metrics=args.require_all_metrics)
    resume_state, earlier = training.read_log(args.resume) if args.resume else (None, [])

    # analyzed one at a time: each chart is freed soon after its record is built
    analyses = _analyze_each(sentences, grammar, registry, initial, config)
    records = build_records(analyses, gold_trees, args.recall_mode,
                            _flatten_categories(args), args.top_k)
    result = training.train(records, spec, train_config, initial,
                            heuristic_names=registry.names(),
                            resume_state=resume_state)

    hmod.save_weights(args.weights_out, registry, result.weights)
    training.write_log(args.log, result, train_config, spec, earlier)

    rows = []
    for group_name, ids in (("HELD-OUT", spec.heldout_ids), ("TEST", spec.test_ids)):
        group = [records[sid] for sid in ids]
        if not group:
            continue
        for label, weights in (
                ("No heuristics", hmod.zero_weights(registry)),
                ("No preference", hmod.uniform_weights(registry)),
                ("Preferences Trained", result.weights)):
            scores = training.evaluate_set(group, weights, train_config)
            rows.append([group_name, label, _fmt(scores.zero_crossing_pct),
                         _fmt(scores.crossing_avg), _fmt(scores.recall_pct),
                         _fmt(scores.precision_pct)])
    print(_table(["Sentence Group", "Experiment", "Zero Crossing Bracket %",
                  "Crossing Bracket Average", "Recall %", "Precision %"], rows))
    print(f"\naccepted {result.state.accepted} of {result.state.attempts} attempts;"
          f" weights written to {args.weights_out}, log to {args.log}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_grammar_flags(parser):
    parser.add_argument("--grammar", required=True, help="grammar file")
    parser.add_argument("--freq", default=None, help="tree frequency table")
    parser.add_argument("--registry", default=None, help="heuristic registry file")
    parser.add_argument("--weights", default=None, help="heuristic weights file")


def _add_pipeline_flags(parser):
    parser.add_argument("--top-k", type=int, default=6, dest="top_k")
    parser.add_argument("--filter-k", type=int, default=3, dest="filter_k",
                        help="frequency filter size; 0 disables filtering")
    parser.add_argument("--start", default="S", help="start category")
    parser.add_argument("--adjunction-cap", type=int, default=3, dest="adjunction_cap",
                        help="max stacked adjunctions along a spine; 0 removes the cap")
    parser.add_argument("--max-parses", type=int, default=None, dest="max_parses",
                        help="cap on enumerated parses per sentence")
    parser.add_argument("--check-features", action="store_true", dest="check_features",
                        help="drop parses whose features clash, checked on each"
                             " parse's derivation without building its tree")
    parser.add_argument("--open-class-fallback", action="store_true",
                        dest="open_class_fallback",
                        help="give unknown words every tree their tags anchor")


def _add_eval_flags(parser):
    parser.add_argument("--aggregation", choices=parseval.AGGREGATIONS,
                        default="mean_of_k")
    parser.add_argument("--recall-mode", choices=parseval.RECALL_MODES,
                        default="standard", dest="recall_mode")
    parser.add_argument("--flatten", default=None,
                        help="comma-separated categories to flatten before scoring")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltagrank",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a grammar file")
    p.add_argument("grammar")
    p.add_argument("--freq", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("parse", help="parse a tagged corpus")
    _add_grammar_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("corpus", help="tagged sentences, word/TAG tokens")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("rank", help="print ranked parses with scores")
    _add_grammar_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("corpus")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="score candidate parses against a gold treebank")
    p.add_argument("parses", help="one sentence per line; '|||' separates n-best parses")
    p.add_argument("--gold", required=True)
    p.add_argument("--top-k", type=int, default=6, dest="top_k")
    _add_eval_flags(p)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("split", help="random TRAIN/HELD-OUT/TEST partition")
    p.add_argument("corpus")
    p.add_argument("--sizes", default=None, help="exact sizes, e.g. 626,205,100")
    p.add_argument("--ratios", default=None, help="ratios, e.g. 6,2,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train heuristic weights against a gold treebank")
    _add_grammar_flags(p)
    _add_pipeline_flags(p)
    _add_eval_flags(p)
    p.add_argument("corpus")
    p.add_argument("--gold", required=True)
    p.add_argument("--sizes", default=None)
    p.add_argument("--ratios", default=None)
    p.add_argument("--seed", type=int, default=0, help="perturbation seed")
    p.add_argument("--split-seed", type=int, default=None, dest="split_seed")
    p.add_argument("--delta-scale", type=float, default=0.5, dest="delta_scale")
    p.add_argument("--strike-limit", type=int, default=3, dest="strike_limit")
    p.add_argument("--max-iterations", type=int, default=10000, dest="max_iterations")
    p.add_argument("--require-all-metrics", action="store_true",
                   dest="require_all_metrics",
                   help="accept a step only if all three metrics improve")
    p.add_argument("--weights-out", default="weights.tsv", dest="weights_out")
    p.add_argument("--log", default="train.log")
    p.add_argument("--resume", default=None, help="continue from a training log")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names; bad input gets one ``error:`` line
    and exit code 1.

    The whole run is one ``CollectorPause``, so the per-sentence pauses of
    ``analyze_sentence`` and ``build_records`` inside it do nothing: in
    ``parse``, ``rank`` and ``train`` reference counting frees each
    analysis without a collection ever tracing it, and the run ends in one
    young collection, which also frees the argument parser's own cycles.
    """
    with CollectorPause():
        args = make_parser().parse_args(argv)
        try:
            return args.func(args)
        except (CliError, gmod.GrammarError, gmod.BracketFormatError, hmod.RegistryError,
                training.TrainingError, TaggedInputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
