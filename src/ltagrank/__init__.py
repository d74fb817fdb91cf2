"""Parse disambiguation toolkit for lexicalized tree adjoining grammars."""

from .grammar import (ElementaryTree, FrequencyTable, Grammar, GrammarError,
                      GrammarFormatError, GrammarValidationError, TreeNode,
                      load_grammar, loads)
from .tagging import TaggedWord, TreeAssignment, parse_tagged_line, select_trees
from .filtering import (FilterReport, filter_with_fallback, frequency_filter,
                        structural_filter)
from .parser import (Attachment, DerivationNode, DerivedTree, Deriver, FeatureConflict,
                     DerivationError, ParseForest, derive, enumerate_derivations,
                     parse)
from .heuristics import (HeuristicRegistry, RankedParse, default_registry,
                         extract, load_registry, load_weights, rank,
                         save_weights, score, uniform_weights, zero_weights)
from .parseval import (Bracketing, CorpusScores, EvalScores, brackets_of,
                       evaluate_parse, flatten, read_bracketed, score_corpus)
from .training import SentenceRecord, SplitSpec, TrainConfig, split, step, train
from .pipeline import PipelineConfig, SentenceAnalysis, analyze_sentence

__version__ = "0.1.0"
