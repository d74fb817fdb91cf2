"""Hand-built toy grammars shared across the test suite.

Each corpus grammar keeps to a 10-word vocabulary so exhaustive checks stay
cheap.  Tree names follow the Determiner / Noun_with_Det / PP_Attaches_to_*
naming style used in the frequency-table fixtures.
"""

import ltagrank as lt

# clauses and determiners: a substitution determiner slot (Noun_with_Det)
# next to bare nouns, so every noun position is structurally ambiguous
CLAUSE_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Noun_with_Det : initial (NP D^ N@)
tree Det_alpha : initial D@
tree Indic_Intrans : initial (S NP^ (VP V@))
tree Indic_Transitive : initial (S NP^ (VP V@ NP^))
lex dogs N -> Noun_Phrase, Noun_with_Det
lex cats N -> Noun_Phrase, Noun_with_Det
lex the D -> Det_alpha
lex a D -> Det_alpha
lex bark V -> Indic_Intrans
lex sleep V -> Indic_Intrans
lex howl V -> Indic_Intrans
lex chase V -> Indic_Transitive
lex see V -> Indic_Transitive
lex watch V -> Indic_Transitive
"""

# prepositional attachment; determiners substitute so the classic
# "saw the man with the telescope" has exactly its two PP readings
PP_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Noun_with_Det : initial (NP D^ N@)
tree Det_alpha : initial D@
tree Indic_Intrans : initial (S NP^ (VP V@))
tree Indic_Transitive : initial (S NP^ (VP V@ NP^))
tree Imperative_Transitive : initial (S (VP V@ NP^))
tree PP_Attaches_to_NP : auxiliary (NP NP* (PP P@ NP^))
tree PP_Attaches_to_VP : auxiliary (VP VP* (PP P@ NP^))
lex man N -> Noun_Phrase, Noun_with_Det
lex telescope N -> Noun_Phrase, Noun_with_Det
lex park N -> Noun_Phrase, Noun_with_Det
lex the D -> Det_alpha
lex a D -> Det_alpha
lex saw V -> Indic_Transitive, Imperative_Transitive
lex ate V -> Indic_Transitive, Imperative_Transitive
lex barked V -> Indic_Intrans
lex with P -> PP_Attaches_to_NP, PP_Attaches_to_VP
lex of P -> PP_Attaches_to_NP, PP_Attaches_to_VP
"""

# adverb and adjective auxiliaries; nouns carry an internal N level so
# N-auxiliaries have a landing site distinct from the NP level
MODIFIER_GRAMMAR = """
tree Noun_Deep : initial (NP (N N@))
tree Adjective : auxiliary (N A@ N*)
tree Adjective_NP : auxiliary (NP A@ NP*)
tree Indic_Intrans : initial (S NP^ (VP V@))
tree Pre_VP_Adverb : auxiliary (VP ADV@ VP*)
tree Post_VP_Adverb : auxiliary (VP VP* ADV@)
lex dogs N -> Noun_Deep
lex cats N -> Noun_Deep
lex mice N -> Noun_Deep
lex foxes N -> Noun_Deep
lex big A -> Adjective, Adjective_NP
lex old A -> Adjective, Adjective_NP
lex bark V -> Indic_Intrans
lex sleep V -> Indic_Intrans
lex howl V -> Indic_Intrans
lex quickly ADV -> Pre_VP_Adverb, Post_VP_Adverb
"""

# of-PP ambiguity with adjoining determiners: "the X of the Y" style
# sentences get low-NP, high-NP and VP attachment readings
OFPP_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Determiner : auxiliary (NP D@ NP*)
tree Adjective_NP : auxiliary (NP A@ NP*)
tree Indic_Transitive : initial (S NP^ (VP V@ NP^))
tree PP_Attaches_to_NP : auxiliary (NP NP* (PP P@ NP^))
tree PP_Attaches_to_VP : auxiliary (VP VP* (PP P@ NP^))
lex part N -> Noun_Phrase
lex name N -> Noun_Phrase
lex computer N -> Noun_Phrase
lex the D -> Determiner
lex your D -> Determiner
lex second A -> Adjective_NP
lex personal A -> Adjective_NP
lex is V -> Indic_Transitive
lex of P -> PP_Attaches_to_NP, PP_Attaches_to_VP
"""

FREQ_TEXT = """Determiner\t0.175
Noun_with_Det\t0.174
Noun_Mods_Noun\t0.112
Aux_Verb\t0.095
Noun_Phrase\t0.073
Adjective\t0.044
PP_Attaches_to_VP\t0.041
Passive_Trans\t0.037
Indic_Transitive\t0.035
PP_Attaches_to_NP\t0.033
Imperative_Transitive\t0.015
PRO\t0.012
VP_Negation\t0.009
Indic_Intrans\t0.008
Post_VP_Adverb\t0.007
"""


def load(text, freq_text=None):
    return lt.loads(text, freq_text)


def tag(text):
    return lt.parse_tagged_line(text)


def parses_of(grammar, text, start="S", adjunction_cap=None):
    """The derived trees of a tagged sentence's parses, unfiltered."""
    sentence = tag(text)
    words = [w.surface for w in sentence]
    assignment = lt.select_trees(grammar, sentence)
    forest = lt.parse(grammar, sentence, assignment, start=start,
                      adjunction_cap=adjunction_cap)
    return [lt.derive(grammar, d, words) for d in lt.enumerate_derivations(forest)]


def bracketing(text):
    """The ``Bracketing`` of a bracket string, e.g. ``(X (X a b) c)``."""
    return lt.brackets_of(lt.read_bracketed(text))


def evaluate(candidate, gold, mode="standard"):
    """``evaluate_parse`` of two bracket strings."""
    return lt.evaluate_parse(bracketing(candidate), bracketing(gold), mode)


def rank_trees(grammar, parses, registry, weights):
    """``rank`` of one sentence's parses given as the derived trees of
    ``parses_of``."""
    return lt.rank(lt.Deriver(grammar, parses[0].root.leaves()), [p.derivation for p in parses],
                   registry, weights)
