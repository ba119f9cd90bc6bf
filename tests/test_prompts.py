from __future__ import annotations

import pytest

from tandem.prompts import (
    PROMPT_KEYS,
    PROMPT_MARKERS,
    PromptLibrary,
    context_block,
)
from tandem.protocol import InputError, Observation


@pytest.fixture(scope="module")
def library() -> PromptLibrary:
    return PromptLibrary()


def test_all_prompt_keys_load_nonempty(library):
    for key in PROMPT_KEYS:
        text = library.get(key)
        assert text.strip(), key


def test_unknown_key_raises(library):
    with pytest.raises(KeyError):
        library.get("global/unknown")


@pytest.mark.parametrize("key", sorted(PROMPT_MARKERS))
def test_marker_phrase_sits_on_a_single_line(library, key):
    # Script files match on these phrases, so the phrase must survive in
    # the rendered prompt as a contiguous run of characters.
    marker = PROMPT_MARKERS[key]
    text = library.get(key)
    assert any(marker in line for line in text.splitlines()), (key, marker)


def test_markers_are_mutually_exclusive(library):
    # A marker must select exactly one prompt, otherwise scripted runs
    # would consume the wrong canned exchange.
    for key, marker in PROMPT_MARKERS.items():
        owners = [k for k in PROMPT_KEYS if marker in library.get(k)]
        assert owners == [key], (marker, owners)


def test_override_dir_takes_precedence(tmp_path):
    override = tmp_path / "global"
    override.mkdir()
    (override / "plan.txt").write_text("custom plan prompt\n", encoding="utf-8")
    library = PromptLibrary(override_dir=tmp_path)
    assert library.get("global/plan") == "custom plan prompt\n"
    # keys without an override still resolve to the packaged file
    assert "Judge whether the fault lies" in library.get("global/decide")


def test_only_formatted_prompts_are_checked_as_templates(tmp_path):
    (tmp_path / "global").mkdir()
    (tmp_path / "global" / "plan.txt").write_text("Plan {literally}\n", encoding="utf-8")
    assert PromptLibrary(override_dir=tmp_path).get("global/plan") == "Plan {literally}\n"
    assert PromptLibrary(override_dir=tmp_path).render("global/plan") == "Plan {literally}\n"
    (tmp_path / "global" / "decide.txt").write_text("Rule on {reasons:d}\n", encoding="utf-8")
    with pytest.raises(InputError, match="decide.txt: does not format: ValueError"):
        PromptLibrary(override_dir=tmp_path)


def test_render_takes_exactly_the_prompts_fields(library):
    assert library.render("local/revise", reasons="dead link") == library.get(
        "local/revise"
    ).replace("{reasons}", "dead link")
    for key, values in [
        ("local/revise", {}),
        ("local/revise", {"reasons": "x", "guidance": "y"}),
        ("local/plan", {"reasons": "x"}),
    ]:
        with pytest.raises(TypeError, match=f"prompt {key} takes fields"):
            library.render(key, **values)


def test_an_override_path_that_is_not_a_directory_is_an_input_error(tmp_path):
    (tmp_path / "file").write_text("", encoding="utf-8")
    for path in (tmp_path / "missing", tmp_path / "file"):
        with pytest.raises(InputError, match="not a directory"):
            PromptLibrary(override_dir=path)


def test_context_block_label_order():
    obs = Observation(
        axtree="[1] heading 'Home'",
        url="http://shop.local/",
        open_tabs=("http://shop.local/",),
        previous_action="None",
    )
    block = context_block(obs, "find the kettle price")
    labels = [line.split(":")[0] for line in block.splitlines() if ":" in line]
    for expected in ("OBSERVATION", "URL", "OPEN TABS", "OBJECTIVE", "PREVIOUS ACTION"):
        assert expected in labels
    assert labels.index("OBSERVATION") < labels.index("URL")
    assert labels.index("URL") < labels.index("OPEN TABS")
    assert labels.index("OPEN TABS") < labels.index("OBJECTIVE")
    assert labels.index("OBJECTIVE") < labels.index("PREVIOUS ACTION")
    assert "find the kettle price" in block
