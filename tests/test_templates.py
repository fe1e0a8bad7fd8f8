import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sent, span
from fewner import rng
from fewner.errors import ConfigError
from fewner.templates import (
    ALT_TAGS,
    DEFAULT_TAGS,
    FEATURE_NAMES,
    PromptConfig,
    PromptParts,
    TagPair,
    _fill,
    estimate_tokens,
    fit_to_budget,
    outermost_spans,
    render_main_prompt,
    render_verification_prompt,
    stop_sequences_for,
    tag_sentence,
)

D1 = sent("d1", "He has diabetes.", [span(7, 15, "DISO", "diabetes")])
D2 = sent("d2", "No fever today.", [span(3, 8, "DISO", "fever")])
TEST_TEXT = "She reports nausea."


# --------------------------------------------------------------------------
# Tagging helpers

def test_tag_sentence_default_and_alt_tags():
    spans = [span(7, 15, "DISO", "diabetes")]
    assert tag_sentence("He has diabetes.", spans, DEFAULT_TAGS) == "He has @@diabetes##."
    assert tag_sentence("He has diabetes.", spans, ALT_TAGS) == "He has <<diabetes>>."


def test_tag_sentence_multiple_spans_left_to_right():
    text = "fever then rash"
    spans = [span(11, 15, "DISO", "rash"), span(0, 5, "DISO", "fever")]
    assert tag_sentence(text, spans, DEFAULT_TAGS) == "@@fever## then @@rash##"


def test_tag_pair_rejects_empty_or_equal():
    with pytest.raises(ConfigError):
        TagPair("", "##")
    with pytest.raises(ConfigError):
        TagPair("@@", "@@")


def test_outermost_spans_drops_nested_and_overlapping():
    outer = span(0, 10, "DISO", "ab cd efgh")
    nested = span(3, 5, "DISO", "cd")
    overlap = span(8, 12, "DISO", "gh i")
    later = span(11, 12, "DISO", "i")
    assert outermost_spans([nested, outer, overlap, later]) == (outer, later)


def test_outermost_spans_prefers_longest_at_same_start():
    short = span(0, 3, "DISO", "abc")
    long = span(0, 5, "DISO", "abcde")
    assert outermost_spans([short, long]) == (long,)


@given(st.lists(st.sampled_from(["fever", "rash", "calm", "well"]), min_size=1, max_size=8))
def test_tag_sentence_strips_back_to_original(words):
    text = " ".join(words)
    spans = []
    pos = 0
    for word in words:
        if word in ("fever", "rash"):
            spans.append(span(pos, pos + len(word), "DISO", word))
        pos += len(word) + 1
    tagged = tag_sentence(text, outermost_spans(spans), DEFAULT_TAGS)
    assert tagged.replace("@@", "").replace("##", "") == text


# --------------------------------------------------------------------------
# PromptConfig

def test_config_rejects_bad_mode_separator_and_count():
    with pytest.raises(ConfigError):
        PromptConfig(mode="spans")
    with pytest.raises(ConfigError):
        PromptConfig(listing_separator="tab")
    with pytest.raises(ConfigError):
        PromptConfig(base_demo_count=0)


@pytest.mark.parametrize(
    "fields",
    [{"alt_taggers": 1}, {"dialogue_template": "yes"}, {"base_demo_count": True},
     {"base_demo_count": "5"}, {"base_demo_count": 5.0}, {"mode": ["tagging"]}],
)
def test_config_rejects_values_of_the_wrong_type(fields):
    with pytest.raises(ConfigError, match="prompt"):
        PromptConfig(**fields)


def test_config_feature_accessors():
    config = PromptConfig(alt_taggers=True)
    assert config.feature("alt_taggers") is True
    assert config.feature("intro_sentence") is False
    with pytest.raises(ConfigError):
        config.feature("taggers")
    with pytest.raises(ConfigError):
        config.with_features(mode="listing")
    assert config.with_features(intro_sentence=True).enabled_features() == (
        "alt_taggers",
        "intro_sentence",
    )


def test_effective_demo_count_doubles():
    assert PromptConfig().effective_demo_count == 5
    assert PromptConfig(additional_sentences=True).effective_demo_count == 10
    assert PromptConfig(additional_sentences=True, base_demo_count=3).effective_demo_count == 6


def test_tag_pair_and_separator_accessors():
    assert PromptConfig().tag_pair == DEFAULT_TAGS
    assert PromptConfig(alt_taggers=True).tag_pair == ALT_TAGS
    assert PromptConfig().separator_string() == ", "
    assert PromptConfig(listing_separator="newline").separator_string() == "\n"


@given(st.integers(0, 511))
def test_bitmask_round_trip(mask):
    config = PromptConfig.from_bitmask(mask)
    assert config.bitmask == mask
    assert len(config.enabled_features()) == bin(mask).count("1")
    assert PromptConfig.from_dict(config.to_dict()) == config


def test_bitmask_bit_order_matches_feature_names():
    for i, name in enumerate(FEATURE_NAMES):
        config = PromptConfig.from_bitmask(1 << i)
        assert config.enabled_features() == (name,)


def test_from_bitmask_out_of_range():
    with pytest.raises(ConfigError):
        PromptConfig.from_bitmask(512)
    with pytest.raises(ConfigError):
        PromptConfig.from_bitmask(-1)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown prompt config keys"):
        PromptConfig.from_dict({"alt_tagger": True})


def test_estimate_tokens_counts_words_and_punctuation():
    assert estimate_tokens("He has @@diabetes##.") == 8
    assert estimate_tokens("") == 0


# --------------------------------------------------------------------------
# Main prompt rendering (frozen snapshots)

def test_main_prompt_baseline_en(diso):
    prompt = render_main_prompt(PromptConfig(), diso, [D1, D2], TEST_TEXT, "en")
    assert prompt.text == (
        "Identify all the mentions of disorders in the following sentences, "
        "by putting @@ in front and ## behind each of them. "
        "Here are some examples:\n"
        "Input: He has diabetes.\n"
        "Output: He has @@diabetes##.\n"
        "Input: No fever today.\n"
        "Output: No @@fever## today.\n"
        "Input: She reports nausea.\n"
        "Output:"
    )
    assert prompt.kind == "main"
    assert prompt.entity_type == "DISO"
    assert prompt.demonstrations == ("d1", "d2")
    assert prompt.stop_sequences == ("\nInput:",)
    assert prompt.estimated_tokens == estimate_tokens(prompt.text) == 70


def test_main_prompt_persona_definitions_intro_alt(diso):
    config = PromptConfig(
        specialist_persona=True,
        label_definitions=True,
        intro_sentence=True,
        alt_taggers=True,
    )
    prompt = render_main_prompt(config, diso, [D1], TEST_TEXT, "en")
    lines = prompt.text.split("\n")
    assert lines[0] == (
        "You are an excellent clinician. You can identify all the mentions of "
        "disorders in a sentence, by putting them in a specific format. "
        "Here are some examples you can handle:"
    )
    assert lines[1].startswith("These are words that refer to an alteration")
    assert lines[3] == "Output: He has <<diabetes>>."
    assert lines[4] == (
        "Identify all the mentions of disorders in the following sentence, "
        "by putting << in front and a >> behind each of them."
    )
    assert lines[5:] == ["Input: She reports nausea.", "Output:"]


def test_main_prompt_listing_fr(diso):
    f1 = sent("f1", "Le patient signale une migraine.", [span(23, 31, "DISO", "migraine")], "fr")
    f2 = sent("f2", "Examen stable.", [], "fr")
    config = PromptConfig(mode="listing", intro_sentence=True)
    prompt = render_main_prompt(config, diso, [f1, f2], "Il signale un vertige.", "fr")
    assert prompt.text == (
        "Liste toutes les mentions de problèmes médicaux dans les phrases "
        "suivantes, en les séparant par des virgules. Voici quelques exemples :\n"
        "Entrée : Le patient signale une migraine.\n"
        "Sortie : migraine\n"
        "Entrée : Examen stable.\n"
        "Sortie :\n"
        "Liste toutes les mentions de problèmes médicaux dans la phrase "
        "suivante, en les séparant par des virgules.\n"
        "Entrée : Il signale un vertige.\n"
        "Sortie :"
    )
    assert prompt.stop_sequences == ("\nEntrée :",)


def test_main_prompt_dialogue_es(diso):
    e1 = sent("e1", "El paciente refiere asma.", [span(20, 24, "DISO", "asma")], "es")
    e2 = sent("e2", "Examen estable.", [], "es")
    prompt = render_main_prompt(
        PromptConfig(dialogue_template=True), diso, [e1, e2], "Refiere anemia.", "es"
    )
    assert prompt.text == (
        "Identifica todas las menciones de trastornos en las siguientes "
        "oraciones, poniendo @@ delante y ## detrás de cada una de ellas. "
        "Aquí hay algunos ejemplos:\n"
        "- El paciente refiere asma.\n"
        "- El paciente refiere @@asma##.\n"
        "- Examen estable.\n"
        "- Examen estable.\n"
        "- Refiere anemia.\n"
        "-"
    )
    assert prompt.stop_sequences == ("\n-",)


def test_main_prompt_listing_empty_output_leaves_bare_label(diso):
    f2 = sent("f2", "Examen stable.", [], "fr")
    config = PromptConfig(mode="listing")
    prompt = render_main_prompt(config, diso, [f2], "Il va bien.", "fr")
    assert "\nSortie :\n" in prompt.text  # no trailing space on the empty slot


def test_main_prompt_shows_only_outermost_demo_spans(diso):
    nested = sent(
        "n1",
        "acute chest pain today",
        [span(0, 16, "DISO", "acute chest pain"), span(6, 16, "DISO", "chest pain")],
    )
    prompt = render_main_prompt(PromptConfig(), diso, [nested], TEST_TEXT, "en")
    assert "@@acute chest pain## today" in prompt.text
    assert "@@chest pain##" not in prompt.text


def test_main_prompt_requires_demos_unless_allowed(diso):
    with pytest.raises(ConfigError, match="empty demonstration set"):
        render_main_prompt(PromptConfig(), diso, [], TEST_TEXT, "en")
    prompt = render_main_prompt(PromptConfig(), diso, [], TEST_TEXT, "en", allow_empty_demos=True)
    assert prompt.demonstrations == ()
    assert prompt.text.endswith("Input: She reports nausea.\nOutput:")
    # The header line, then the test turn: no demo block, not an empty line.
    assert prompt.text.count("\n") == 2


def test_unknown_language_rejected(diso):
    with pytest.raises(ConfigError):
        render_main_prompt(PromptConfig(), diso, [D1], TEST_TEXT, "de")


def test_every_feature_flip_changes_an_observable(diso):
    base = PromptConfig()
    vdemos = [(D1, "diabetes", True), (D2, "today", False)]

    def main_text(config):
        return render_main_prompt(config, diso, [D1, D2], TEST_TEXT, "en").text

    for name in FEATURE_NAMES:
        flipped = base.with_features(**{name: True})
        if name == "prompt_language_native":
            # Render-language choice is made by the caller; the flag itself
            # must at least survive the round trip into the bitmask.
            assert flipped.bitmask != base.bitmask
        elif name == "additional_sentences":
            assert flipped.effective_demo_count == 2 * base.effective_demo_count
        elif name == "self_verification":
            with pytest.raises(ConfigError):
                render_verification_prompt(base, diso, "x", "x y", vdemos, "en")
            render_verification_prompt(flipped, diso, "x", "x y", vdemos, "en")
        elif name == "long_verification_answer":
            with_flag = flipped.with_features(self_verification=True)
            without = base.with_features(self_verification=True)
            long_text = render_verification_prompt(with_flag, diso, "x", "x y", vdemos, "en").text
            short_text = render_verification_prompt(without, diso, "x", "x y", vdemos, "en").text
            assert long_text != short_text
        else:
            assert main_text(flipped) != main_text(base)


# --------------------------------------------------------------------------
# Verification prompts (frozen snapshots)

def test_verification_prompt_short_answers(diso):
    config = PromptConfig(self_verification=True)
    prompt = render_verification_prompt(
        config, diso, "nausea", TEST_TEXT, [(D1, "diabetes", True), (D2, "today", False)], "en"
    )
    assert prompt.text == (
        "The task is to verify whether a given expression is a disorder. "
        "Here are some examples:\n"
        'Input: In the sentence "He has diabetes.", is "diabetes" a disorder?\n'
        "Output: Yes\n"
        'Input: In the sentence "No fever today.", is "today" a disorder?\n'
        "Output: No\n"
        'Input: In the sentence "She reports nausea.", is "nausea" a disorder?\n'
        "Output:"
    )
    assert prompt.kind == "self_verification"
    assert prompt.demonstrations == ("d1", "d2")


def test_verification_prompt_keeps_turns_of_one_sentence_apart(diso):
    config = PromptConfig(self_verification=True)
    vdemos = [(D2, "fever", True), (D2, "today", False), (D2, "fever", False)]
    prompt = render_verification_prompt(config, diso, "nausea", TEST_TEXT, vdemos, "en")
    assert prompt.text.split("\n")[1:7] == [
        'Input: In the sentence "No fever today.", is "fever" a disorder?',
        "Output: Yes",
        'Input: In the sentence "No fever today.", is "today" a disorder?',
        "Output: No",
        'Input: In the sentence "No fever today.", is "fever" a disorder?',
        "Output: No",
    ]


def test_verification_prompt_long_answers(diso):
    config = PromptConfig(self_verification=True, long_verification_answer=True)
    prompt = render_verification_prompt(
        config, diso, "nausea", TEST_TEXT, [(D1, "diabetes", True), (D2, "today", False)], "en"
    )
    assert "Output: diabetes is a disorder, yes.\n" in prompt.text
    assert "Output: today is not a disorder, no.\n" in prompt.text


def test_verification_prompt_fr_long_dialogue(diso):
    f1 = sent("f1", "Le patient signale une migraine.", [span(23, 31, "DISO", "migraine")], "fr")
    f2 = sent("f2", "Examen stable hier.", [], "fr")
    config = PromptConfig(
        self_verification=True, long_verification_answer=True, dialogue_template=True
    )
    prompt = render_verification_prompt(
        config, diso, "vertige", "Il signale un vertige.",
        [(f1, "migraine", True), (f2, "hier", False)], "fr",
    )
    assert prompt.text == (
        "La tâche est de vérifier si une expression donnée est un problème "
        "médical. Voici quelques exemples :\n"
        '- Dans la phrase "Le patient signale une migraine.", est-ce que '
        '"migraine" est un problème médical ?\n'
        "- migraine est un problème médical, oui.\n"
        '- Dans la phrase "Examen stable hier.", est-ce que "hier" est un '
        "problème médical ?\n"
        "- hier n'est pas un problème médical, non.\n"
        '- Dans la phrase "Il signale un vertige.", est-ce que "vertige" est '
        "un problème médical ?\n"
        "-"
    )


def test_verification_prompt_es_short(diso):
    e1 = sent("e1", "El paciente refiere asma.", [span(20, 24, "DISO", "asma")], "es")
    e2 = sent("e2", "Examen estable.", [], "es")
    prompt = render_verification_prompt(
        PromptConfig(self_verification=True), diso, "anemia", "Refiere anemia.",
        [(e1, "asma", True), (e2, "Examen", False)], "es",
    )
    assert 'Entrada: En la oración "El paciente refiere asma.", ¿es "asma" un trastorno?' in prompt.text
    assert "\nSalida: Sí\n" in prompt.text
    assert "\nSalida: No\n" in prompt.text


def test_verification_prompt_needs_flag_and_both_polarities(diso):
    config = PromptConfig(self_verification=True)
    with pytest.raises(ConfigError, match="self_verification"):
        render_verification_prompt(
            PromptConfig(), diso, "x", "x y", [(D1, "a", True), (D2, "b", False)], "en"
        )
    for demos in ([(D1, "a", True), (D2, "b", True)], [(D1, "a", False)]):
        with pytest.raises(ConfigError, match="positive and one negative"):
            render_verification_prompt(config, diso, "x", "x y", demos, "en")


# --------------------------------------------------------------------------
# Stop sequences and budget fitting

def test_stop_sequences_per_language_and_dialogue():
    assert stop_sequences_for(False, "en") == ("\nInput:",)
    assert stop_sequences_for(False, "fr") == ("\nEntrée :",)
    assert stop_sequences_for(False, "es") == ("\nEntrada:",)
    assert stop_sequences_for(True, "fr") == ("\n-",)


def test_a_shared_memo_renders_what_a_fresh_memo_renders(diso, chem):
    # One part store serves every mask, mode, separator, language, type,
    # test sentence and verified mention; each render must equal a render
    # that keeps nothing across calls.
    d3 = sent("d3", "Aspirin eased the fever and the rash.", [
        span(0, 7, "CHEM", "Aspirin"), span(18, 23, "DISO", "fever"), span(32, 36, "DISO", "rash"),
    ])
    vdemos = [(D1, "diabetes", True), (D2, "today", False), (d3, "rash", True)]
    test_texts = (TEST_TEXT, "He denies chest pain.", "Fièvre et toux.")
    # (context sentence, mention): each differs from another in one part.
    candidates = ((TEST_TEXT, "nausea"), (TEST_TEXT, "reports"), ("Nausea again.", "nausea"))
    parts = PromptParts()
    for mask in range(1 << len(FEATURE_NAMES)):
        for mode, separator in (("tagging", "comma"), ("listing", "comma"), ("listing", "newline")):
            config = PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator)
            for language in ("en", "fr", "es"):
                for entity_type in (diso, chem):
                    for test_text in test_texts:
                        args = (config, entity_type, [D1, D2, d3], test_text, language, 140, 7)
                        assert fit_to_budget(*args, parts=parts) == fit_to_budget(*args)
                    if not config.self_verification:
                        continue
                    for context, mention in candidates:
                        args = (config, entity_type, mention, context, vdemos, language)
                        assert render_verification_prompt(*args, parts=parts) == (
                            render_verification_prompt(*args)
                        )


def test_a_shared_memo_keeps_demo_blocks_of_other_orders_and_triples_apart(diso, chem):
    # A demo block is keyed by the ordered ids (or the verification
    # triples): reordering, dropping or changing one demo must render anew.
    d3 = sent("d3", "Aspirin eased the fever.", [
        span(0, 7, "CHEM", "Aspirin"), span(18, 23, "DISO", "fever"),
    ])
    orders = ([D1, D2, d3], [d3, D2, D1], [D2, D1, d3], [D1, D2], [D1], [d3, D1])
    triples = (
        [(D1, "diabetes", True), (D2, "today", False)],
        [(D2, "today", False), (D1, "diabetes", True)],
        [(D1, "diabetes", True), (D2, "fever", False)],
        [(D1, "diabetes", True), (D2, "today", False), (D2, "fever", True)],
        [(D1, "diabetes", True), (D2, "today", False), (D2, "fever", False)],
    )
    parts = PromptParts()
    for mask in (0, 4, 8, 132, 260, 511):
        for mode in ("tagging", "listing"):
            config = PromptConfig.from_bitmask(mask, mode=mode)
            for entity_type in (diso, chem):
                for demos in orders:
                    args = (config, entity_type, demos, TEST_TEXT, "en")
                    assert render_main_prompt(*args, parts=parts) == render_main_prompt(*args)
                if not config.self_verification:
                    continue
                for vdemos in triples:
                    args = (config, entity_type, "nausea", TEST_TEXT, vdemos, "en")
                    assert render_verification_prompt(*args, parts=parts) == (
                        render_verification_prompt(*args)
                    )


def test_a_shared_memo_renders_a_sentence_edited_under_its_id_anew(diso):
    # Sentences hash by id but compare by value, so a memo keyed by a
    # sentence never serves the parts of an older text of the same id.
    edited = sent("d1", "Her diabetes is worse.", [span(4, 12, "DISO", "diabetes")])
    parts = PromptParts()
    for mask in (0, 4, 260):
        config = PromptConfig.from_bitmask(mask)
        for d1 in (D1, edited, D1):
            args = (config, diso, [d1, D2], TEST_TEXT, "en")
            assert render_main_prompt(*args, parts=parts) == render_main_prompt(*args)
            assert fit_to_budget(*args, 500, 7, parts=parts) == fit_to_budget(*args, 500, 7)
            if config.self_verification:
                args = (config, diso, "nausea", TEST_TEXT, [(d1, "diabetes", True), (D2, "No", False)])
                assert render_verification_prompt(*args, "en", parts) == (
                    render_verification_prompt(*args, "en")
                )


def test_a_fragment_field_left_unfilled_raises(diso):
    # A part is built from exactly the values it is given; a fragment that
    # names a field its builder was not given fails instead of guessing.
    with pytest.raises(KeyError, match="open"):
        _fill("en", "task_tagging", diso)
    with pytest.raises(KeyError, match="separator"):
        _fill("en", "intro_listing", diso)
    assert "@@" in _fill("en", "task_tagging", diso, DEFAULT_TAGS)
    assert "commas" in _fill("en", "intro_listing", diso, "comma")


def test_fit_to_budget_keeps_all_when_roomy(diso):
    prompt = fit_to_budget(PromptConfig(), diso, [D1, D2], TEST_TEXT, "en", budget=500)
    assert prompt.dropped_demos == 0
    assert prompt.demonstrations == ("d1", "d2")


def test_fit_to_budget_drops_from_the_end(diso):
    config = PromptConfig()
    one_demo = render_main_prompt(config, diso, [D1], TEST_TEXT, "en")
    prompt = fit_to_budget(
        config, diso, [D1, D2], TEST_TEXT, "en", budget=one_demo.estimated_tokens
    )
    assert prompt.dropped_demos == 1
    assert prompt.demonstrations == ("d1",)
    assert prompt.text == one_demo.text


def test_fit_to_budget_can_drop_every_demo(diso, caplog):
    config = PromptConfig()
    scaffold = render_main_prompt(config, diso, [], TEST_TEXT, "en", allow_empty_demos=True)
    with caplog.at_level(logging.WARNING):
        prompt = fit_to_budget(
            config, diso, [D1, D2], TEST_TEXT, "en", budget=scaffold.estimated_tokens
        )
    assert prompt.demonstrations == ()
    assert prompt.dropped_demos == 2
    assert "no room for demonstrations" in caplog.text


def test_fit_to_budget_rejects_impossible_budgets(diso):
    with pytest.raises(ConfigError, match="too small even for"):
        fit_to_budget(PromptConfig(), diso, [D1], TEST_TEXT, "en", budget=3)
    with pytest.raises(ConfigError, match="must be positive"):
        fit_to_budget(PromptConfig(), diso, [D1], TEST_TEXT, "en", budget=0)


def test_fit_to_budget_shuffles_kept_demos_deterministically(diso):
    d3 = sent("d3", "Mild rash seen.", [span(5, 9, "DISO", "rash")])
    demos = [D1, D2, d3]
    first = fit_to_budget(
        PromptConfig(), diso, demos, TEST_TEXT, "en", budget=500, shuffle_seed=11
    )
    again = fit_to_budget(
        PromptConfig(), diso, demos, TEST_TEXT, "en", budget=500, shuffle_seed=11
    )
    assert first.text == again.text
    assert sorted(first.demonstrations) == ["d1", "d2", "d3"]
    expected = tuple(s.id for s in rng.shuffled(demos, 11))
    assert first.demonstrations == expected
