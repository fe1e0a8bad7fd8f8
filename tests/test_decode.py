import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fewner.decode import (
    VERDICT_ACCEPT,
    VERDICT_REJECT,
    VERDICT_UNPARSEABLE,
    DecodeDiagnostics,
    DecodeResult,
    PredictionSet,
    apply_verification,
    decodable_prefix,
    decode_listing,
    decode_tagged,
    parse_verification,
)
from fewner.corpus import EntitySpan
from fewner.templates import ALT_TAGS, DEFAULT_TAGS, TagPair, fragments, tag_sentence
from reference_decoder import reference_decode_tagged


def starts_ends(result):
    return [(s.start, s.end) for s in result.spans]


def assert_span_invariants(result, original):
    previous_start = -1
    for s in result.spans:
        assert s.mention == original[s.start : s.end]
        assert 0 <= s.start < s.end <= len(original)
        assert s.start > previous_start
        previous_start = s.start


# --------------------------------------------------------------------------
# decodable_prefix

def test_prefix_stops_at_blank_line_and_input_label():
    assert decodable_prefix("a b\n\nInput: junk") == "a b"
    assert decodable_prefix("a b\nInput: junk\nc") == "a b"
    assert decodable_prefix("a\nc d\n  \ne") == "a\nc d"


def test_prefix_stops_at_the_input_label_of_every_language():
    assert decodable_prefix("@@fièvre##\nEntrée : il a une @@toux##") == "@@fièvre##"
    assert decodable_prefix("@@fiebre##\nEntrada: tiene @@tos##") == "@@fiebre##"
    assert decodable_prefix("Entrada: tiene @@tos##") == ""
    result = decode_tagged(
        "@@fièvre##\nEntrée : il a une @@toux##", "fièvre et toux", DEFAULT_TAGS, "DISO"
    )
    assert [s.mention for s in result.spans] == ["fièvre"]


def test_prefix_stops_at_a_later_dialogue_turn():
    completion = " He has @@fever##.\n- She has a rash.\n- She has a @@rash##."
    assert decodable_prefix(completion, dialogue=True) == "He has @@fever##."
    # Outside the dialogue layout a dash line may be a listed item.
    assert decodable_prefix(completion) == completion.lstrip()
    assert decodable_prefix("- a\nb\n- c", dialogue=True) == "- a\nb"
    result = decode_tagged(
        completion, "He has fever and rash.", DEFAULT_TAGS, "DISO", dialogue=True
    )
    assert [s.mention for s in result.spans] == ["fever"]
    listed = decode_listing("fever\n- rash", "fever and rash", "newline", "DISO", dialogue=True)
    assert [s.mention for s in listed.spans] == ["fever"]


def test_prefix_strips_leading_whitespace_first():
    assert decodable_prefix("\n\n  \nYes\nNo") == "Yes\nNo"
    assert decodable_prefix("   padded\nrest") == "padded\nrest"
    assert decodable_prefix("") == ""


# --------------------------------------------------------------------------
# decode_tagged pinned cases

def test_tagged_exact_echo():
    result = decode_tagged("He has @@diabetes##.", "He has diabetes.", DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(7, 15)]
    assert result.spans[0].mention == "diabetes"
    assert result.spans[0].type == "DISO"
    assert result.diagnostics.to_dict() == {
        "unbalanced_tags": 0,
        "unmatched_mentions": 0,
        "duplicate_mentions": 0,
        "unverified_kept": 0,
    }


def test_tagged_multiple_and_alt_tags():
    result = decode_tagged("<<fever>> then <<rash>>", "fever then rash", ALT_TAGS, "DISO")
    assert starts_ends(result) == [(0, 5), (11, 15)]


def test_tagged_repeated_surface_maps_to_successive_occurrences():
    original = "pain, more pain"
    result = decode_tagged("@@pain##, more @@pain##", original, DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(0, 4), (11, 15)]
    assert_span_invariants(result, original)


def test_tagged_later_occurrence_lands_on_first():
    # Surface matching cannot tell occurrences apart: a completion that does
    # not echo the sentence and tags only the later "pain" still resolves to
    # the earliest one.
    result = decode_tagged("more @@pain##", "pain, more pain", DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(0, 4)]


def test_tagged_echo_decodes_by_position():
    # A completion that is the sentence with tags added says which
    # occurrence it tags.
    result = decode_tagged("aspirin and @@aspirin##", "aspirin and aspirin", DEFAULT_TAGS, "CHEM")
    assert starts_ends(result) == [(12, 19)]
    result = decode_tagged("<<chest pain>> <<pain>>", "chest pain pain", ALT_TAGS, "DISO")
    assert starts_ends(result) == [(0, 10), (11, 15)]
    assert result.diagnostics == DecodeDiagnostics()
    # An empty tag pair in an echo is an unmatched mention.
    result = decode_tagged("pain @@##and @@pain##", "pain and pain", DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(9, 13)]
    assert result.diagnostics.unmatched_mentions == 1


@pytest.mark.parametrize(
    "completion, original, spans",
    [
        (" pain, more @@pain##", " pain, more pain", [(12, 16)]),
        ("pain, more @@pain##", " pain, more pain", [(12, 16)]),
        # A first tag that takes in the leading whitespace keeps it.
        ("@@ b## @@b##", " b b", [(0, 2), (3, 4)]),
        (" @@ b## @@b##", "  b b", [(1, 3), (4, 5)]),
    ],
)
def test_tagged_echo_of_an_indented_sentence_decodes_by_position(completion, original, spans):
    # The decodable prefix drops the whitespace before the first tag,
    # which may be all, some or none of the sentence's.
    result = decode_tagged(completion, original, DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == spans
    assert result.diagnostics == DecodeDiagnostics()
    assert reference_decode_tagged(completion, original, "@@", "##")["spans"] == spans


_INPUT_LABELS = tuple(frags["input_label"] for frags in fragments().values())


@settings(max_examples=300)
@given(
    st.text(st.characters(exclude_characters="\n@#<>"), min_size=1, max_size=40),
    st.sampled_from([DEFAULT_TAGS, ALT_TAGS]),
    st.data(),
)
def test_tagged_echo_decodes_back_to_its_spans(text, tags, data):
    # A single-line sentence that holds no tag string, tagged by
    # tag_sentence, decodes to the spans it was tagged with.
    assume(text.strip() and not text.lstrip().startswith(_INPUT_LABELS))
    cuts = sorted(data.draw(st.sets(st.integers(0, len(text)), min_size=2, max_size=8)))
    picks = data.draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    spans = [
        EntitySpan(start, end, "DISO", text[start:end])
        for (start, end), pick in zip(zip(cuts, cuts[1:]), picks)
        if pick and text[start:end].strip()
    ]
    result = decode_tagged(tag_sentence(text, spans, tags), text, tags, "DISO")
    assert list(result.spans) == spans
    assert result.diagnostics == DecodeDiagnostics()


def test_tagged_case_insensitive_localization_keeps_original_casing():
    result = decode_tagged("severe @@dyspnea## seen", "Severe Dyspnea seen", DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(7, 14)]
    assert result.spans[0].mention == "Dyspnea"


def test_case_insensitive_localization_survives_a_lowercase_that_changes_length():
    # "İ".lower() is two characters long, so offsets found in a lowercased
    # copy used to land one character late.
    result = decode_listing("aspirin", "İstanbul clinic gave ASPIRIN daily", "comma", "CHEM")
    assert starts_ends(result) == [(21, 28)]
    assert result.spans[0].mention == "ASPIRIN"


def test_case_insensitive_localization_uses_full_case_folding():
    result = decode_tagged("@@STRASSE##", "die Straße ist lang", DEFAULT_TAGS, "LOC")
    assert [s.mention for s in result.spans] == ["Straße"]
    # A match that would split a folded character ("ß" folds to "ss") is none.
    result = decode_tagged("@@s##", "ße", DEFAULT_TAGS, "LOC")
    assert result.spans == ()
    assert result.diagnostics.unmatched_mentions == 1


@settings(max_examples=300)
@given(st.text(min_size=1, max_size=40), st.data())
def test_case_variant_substring_decodes_to_a_casefold_equal_span(original, data):
    start = data.draw(st.integers(0, len(original) - 1))
    end = data.draw(st.integers(start + 1, len(original)))
    flips = data.draw(st.lists(st.booleans(), min_size=end - start, max_size=end - start))
    mention = "".join(
        c.upper() if flip else c.lower() for c, flip in zip(original[start:end], flips)
    )
    assume(mention.casefold() == original[start:end].casefold())
    assume(mention.strip() and "\n" not in mention and not set("@#") & set(mention))
    result = decode_tagged(f"@@{mention}##", original, DEFAULT_TAGS, "DISO")
    assert len(result.spans) == 1
    assert result.spans[0].mention.casefold() == mention.casefold()
    assert_span_invariants(result, original)


def test_tagged_whitespace_normalized_localization():
    original = "acute chest  pain"
    result = decode_tagged("acute @@chest pain##", original, DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(6, 17)]
    assert result.spans[0].mention == "chest  pain"


def test_tagged_hallucinated_mention_is_unmatched():
    result = decode_tagged("@@gout## and @@fever##", "only fever here", DEFAULT_TAGS, "DISO")
    assert [s.mention for s in result.spans] == ["fever"]
    assert result.diagnostics.unmatched_mentions == 1
    assert result.diagnostics.duplicate_mentions == 0


def test_tagged_relocated_duplicate_counts_as_duplicate():
    result = decode_tagged("@@pain## and @@pain##", "pain here", DEFAULT_TAGS, "DISO")
    assert starts_ends(result) == [(0, 4)]
    assert result.diagnostics.duplicate_mentions == 1
    assert result.diagnostics.unmatched_mentions == 0


def test_tagged_empty_mention_is_unmatched():
    result = decode_tagged("x @@## y", "x y", DEFAULT_TAGS, "DISO")
    assert result.spans == ()
    assert result.diagnostics.unmatched_mentions == 1


def test_tagged_trailing_open_is_unbalanced():
    result = decode_tagged("see @@fever", "see fever", DEFAULT_TAGS, "DISO")
    assert result.spans == ()
    assert result.diagnostics.unbalanced_tags == 1


def test_tagged_open_before_close_skips_first_open():
    result = decode_tagged("@@a @@b## c##", "a b c", DEFAULT_TAGS, "DISO")
    assert [s.mention for s in result.spans] == ["b"]
    assert result.diagnostics.unbalanced_tags == 1


def test_tagged_decodes_only_the_prefix():
    completion = "He has @@diabetes##.\n\nInput: more\nOutput: @@fever##"
    result = decode_tagged(completion, "He has diabetes. fever", DEFAULT_TAGS, "DISO")
    assert [s.mention for s in result.spans] == ["diabetes"]


# --------------------------------------------------------------------------
# decode_listing pinned cases

def test_listing_comma_with_trailing_period():
    result = decode_listing("fever, rash.", "fever and rash", "comma", "DISO")
    assert starts_ends(result) == [(0, 5), (10, 14)]


def test_listing_newline_strips_quotes_and_punctuation():
    result = decode_listing('"fever",\n- rash', "fever and rash", "newline", "DISO")
    assert [s.mention for s in result.spans] == ["fever", "rash"]


def test_listing_comma_keeps_items_separate_from_newline_mode():
    # Under newline separation an inner comma stays inside the mention.
    original = "chest pain, acute"
    result = decode_listing("chest pain, acute", original, "newline", "DISO")
    assert [s.mention for s in result.spans] == ["chest pain, acute"]


def test_listing_empty_completion_yields_nothing():
    result = decode_listing("", "fever", "comma", "DISO")
    assert result.spans == ()
    assert result.diagnostics.to_dict() == DecodeDiagnostics().to_dict()


def test_listing_unlocatable_item_is_unmatched():
    result = decode_listing("gout, fever", "fever only", "comma", "DISO")
    assert [s.mention for s in result.spans] == ["fever"]
    assert result.diagnostics.unmatched_mentions == 1


def test_listing_whitespace_only_items_dropped_silently():
    result = decode_listing(" , ,fever", "fever", "comma", "DISO")
    assert [s.mention for s in result.spans] == ["fever"]
    assert result.diagnostics.unmatched_mentions == 0


# --------------------------------------------------------------------------
# Verification parsing

@pytest.mark.parametrize(
    "completion,verdict",
    [
        ("Yes", VERDICT_ACCEPT),
        ("yes.", VERDICT_ACCEPT),
        ("YES", VERDICT_ACCEPT),
        ("No", VERDICT_REJECT),
        ("Oui", VERDICT_ACCEPT),
        ("Non", VERDICT_REJECT),
        ("Sí", VERDICT_ACCEPT),
        ("sí.", VERDICT_ACCEPT),
        ("diabetes is a disorder, yes.", VERDICT_ACCEPT),
        ("today is not a disorder, no.", VERDICT_REJECT),
        ("migraine est un problème médical, oui.", VERDICT_ACCEPT),
        ("hier n'est pas un problème médical, non.", VERDICT_REJECT),
        ("la anemia es un trastorno, sí.", VERDICT_ACCEPT),
        ("yes and no", VERDICT_UNPARSEABLE),
        ("maybe", VERDICT_UNPARSEABLE),
        ("", VERDICT_UNPARSEABLE),
        ("si", VERDICT_UNPARSEABLE),
    ],
)
def test_parse_verification_cases(completion, verdict):
    assert parse_verification(completion) == verdict


@pytest.mark.parametrize(
    "completion,mention,verdict",
    [
        ("non-Hodgkin lymphoma is a disorder, yes.", "non-Hodgkin lymphoma", VERDICT_ACCEPT),
        ("Yes-associated protein is not a chemical, no.", "Yes-associated protein",
         VERDICT_REJECT),
        ("lymphome non hodgkinien est un problème médical, oui.", "lymphome non hodgkinien",
         VERDICT_ACCEPT),
        ("linfoma no Hodgkin es un trastorno, sí.", "linfoma no Hodgkin", VERDICT_ACCEPT),
        ("linfoma no Hodgkin no es un trastorno, no.", "linfoma no Hodgkin", VERDICT_REJECT),
        # Only the first run of the mention is left out.
        ("no is not a disorder, no.", "no", VERDICT_REJECT),
        ("No, non-Hodgkin lymphoma is not a chemical.", "non-Hodgkin lymphoma", VERDICT_REJECT),
        # A short answer that is the mention itself still counts.
        ("No", "no", VERDICT_REJECT),
        ("Yes.", "yes", VERDICT_ACCEPT),
        ("yes and no", "fever", VERDICT_UNPARSEABLE),
        ("non-Hodgkin lymphoma is a disorder.", "non-Hodgkin lymphoma", VERDICT_UNPARSEABLE),
    ],
)
def test_parse_verification_leaves_out_the_restated_mention(completion, mention, verdict):
    assert parse_verification(completion, mention) == verdict


def test_parse_verification_reads_first_nonempty_line_only():
    assert parse_verification("\n\nYes\nNo") == VERDICT_ACCEPT
    assert parse_verification("  \nno\nyes") == VERDICT_REJECT


def test_apply_verification_filters_and_counts():
    base = decode_tagged("@@fever## and @@rash##", "fever and rash", DEFAULT_TAGS, "DISO")
    filtered = apply_verification(base, [VERDICT_ACCEPT, VERDICT_REJECT])
    assert [s.mention for s in filtered.spans] == ["fever"]
    kept = apply_verification(base, [VERDICT_UNPARSEABLE, VERDICT_ACCEPT])
    assert [s.mention for s in kept.spans] == ["fever", "rash"]
    assert kept.diagnostics.unverified_kept == 1
    # The input result must not be mutated by filtering.
    assert base.diagnostics.unverified_kept == 0
    assert len(base.spans) == 2


def test_apply_verification_rejects_misaligned_or_unknown_verdicts():
    base = decode_tagged("@@fever##", "fever", DEFAULT_TAGS, "DISO")
    with pytest.raises(ValueError, match="1 spans"):
        apply_verification(base, [])
    with pytest.raises(ValueError, match="unknown verdict"):
        apply_verification(base, ["hmm"])


def test_diagnostics_addition():
    a = DecodeDiagnostics(1, 2, 3, 4)
    b = DecodeDiagnostics(10, 20, 30, 40)
    assert (a + b).to_dict() == {
        "unbalanced_tags": 11,
        "unmatched_mentions": 22,
        "duplicate_mentions": 33,
        "unverified_kept": 44,
    }


# --------------------------------------------------------------------------
# PredictionSet

def _result(*mention_spans):
    spans = tuple(EntitySpan(s, e, t, m) for s, e, t, m in mention_spans)
    return DecodeResult(spans=spans, diagnostics=DecodeDiagnostics(unmatched_mentions=1))


def test_prediction_set_accumulates():
    preds = PredictionSet()
    preds.add("s2", "DISO", _result((0, 5, "DISO", "fever")))
    preds.add("s1", "CHEM", _result())
    assert sorted(preds.spans) == ["s1", "s2"]
    assert preds.total_spans() == 1
    assert preds.spans_for("s2", "DISO")[0].mention == "fever"
    assert preds.spans_for("s2", "CHEM") == ()
    assert preds.spans_for("missing", "DISO") == ()
    assert preds.diagnostics.unmatched_mentions == 2


def test_prediction_set_json_round_trip():
    preds = PredictionSet()
    preds.add("s1", "DISO", _result((0, 5, "DISO", "fever"), (10, 14, "DISO", "rash")))
    preds.add("s1", "CHEM", _result((6, 9, "CHEM", "and")))
    raw = preds.to_json()
    back = PredictionSet.from_dict(json.loads(raw))
    assert back == preds
    assert back.to_json() == raw


def test_prediction_set_json_is_insertion_order_independent():
    a = PredictionSet()
    a.add("s1", "DISO", _result((0, 5, "DISO", "fever")))
    a.add("s2", "DISO", _result())
    b = PredictionSet()
    b.add("s2", "DISO", _result())
    b.add("s1", "DISO", _result((0, 5, "DISO", "fever")))
    assert a.to_json() == b.to_json()


# --------------------------------------------------------------------------
# Fuzz against the reference decoder

_FUZZ_WORDS = ("fever", "Fever", "rash", "pain", "dyspnea", "the", "and", "chest pain")
_FUZZ_TAGS = (("@@", "##"), ("<<", ">>"), ("[", "]"))
_JUNK = ("zzz", "qqq", "hallucinated", "Input: next", "Output:", ".", ",", "@", "#", "<", ">")


def _mangle(rand, word):
    roll = rand.random()
    if roll < 0.4:
        return word.upper()
    if roll < 0.7:
        return word.lower()
    return " ".join(word.split()) if rand.random() < 0.5 else word.replace(" ", "  ")


def fuzz_case(rand):
    words = [rand.choice(_FUZZ_WORDS) for _ in range(rand.randint(1, 8))]
    original = (" " * rand.randint(1, 2)).join(words)
    tags = rand.choice(_FUZZ_TAGS)
    if rand.random() < 0.25:
        # Well-formed base: every word tagged, then optional junk appended.
        completion = " ".join(f"{tags[0]}{w}{tags[1]}" for w in words)
        if rand.random() < 0.5:
            completion += rand.choice(["\n\nInput: more", f" {tags[0]}", " zzz"])
        return completion, original, tags
    atoms = []
    for _ in range(rand.randint(0, 18)):
        roll = rand.random()
        if roll < 0.22:
            atoms.append(tags[0])
        elif roll < 0.44:
            atoms.append(tags[1])
        elif roll < 0.62:
            atoms.append(rand.choice(words))
        elif roll < 0.74:
            atoms.append(_mangle(rand, rand.choice(words)))
        elif roll < 0.86:
            atoms.append(rand.choice(_JUNK))
        else:
            atoms.append(rand.choice(["\n", "\n\n", " ", ""]))
    completion = rand.choice(["", " ", "\n"]) + " ".join(atoms)
    return completion, original, tags


def test_fuzz_matches_reference_decoder():
    rand = random.Random(0xFEE1)
    for i in range(2500):
        completion, original, tags = fuzz_case(rand)
        got = decode_tagged(completion, original, TagPair(*tags), "DISO")
        want = reference_decode_tagged(completion, original, *tags)
        context = f"case {i}: completion={completion!r} original={original!r} tags={tags}"
        assert starts_ends(got) == want["spans"], context
        assert got.diagnostics.unbalanced_tags == want["unbalanced"], context
        assert got.diagnostics.unmatched_mentions == want["unmatched"], context
        assert got.diagnostics.duplicate_mentions == want["duplicates"], context
        assert_span_invariants(got, original)


def test_fuzz_matches_reference_decoder_in_the_dialogue_layout():
    rand = random.Random(0xD1A1)
    for i in range(1000):
        completion, original, tags = fuzz_case(rand)
        word = rand.choice(original.split())
        if rand.random() < 0.5:
            completion += f"\n- {word}\n- {tags[0]}{word}{tags[1]}"
        got = decode_tagged(completion, original, TagPair(*tags), "DISO", dialogue=True)
        want = reference_decode_tagged(completion, original, *tags, dialogue=True)
        context = f"case {i}: completion={completion!r} original={original!r} tags={tags}"
        assert starts_ends(got) == want["spans"], context
        assert got.diagnostics.unbalanced_tags == want["unbalanced"], context
        assert got.diagnostics.unmatched_mentions == want["unmatched"], context
        assert got.diagnostics.duplicate_mentions == want["duplicates"], context


# --------------------------------------------------------------------------
# Hypothesis: decoding never raises and never violates span invariants

@settings(max_examples=300)
@given(st.text(max_size=80), st.text(max_size=50))
def test_tagged_never_raises_on_arbitrary_text(completion, original):
    result = decode_tagged(completion, original, DEFAULT_TAGS, "DISO")
    assert_span_invariants(result, original)


@settings(max_examples=300)
@given(st.text(max_size=80), st.text(max_size=50), st.sampled_from(["comma", "newline"]))
def test_listing_never_raises_on_arbitrary_text(completion, original, separator):
    result = decode_listing(completion, original, separator, "DISO")
    assert_span_invariants(result, original)


@given(st.text(max_size=40))
def test_parse_verification_total(completion):
    assert parse_verification(completion) in (
        VERDICT_ACCEPT,
        VERDICT_REJECT,
        VERDICT_UNPARSEABLE,
    )
