from __future__ import annotations

import importlib.resources
import operator
import random
import sys
import threading

import pytest

from tandem import webenv
from tandem.harness import load_suite, run_suite
from tandem.protocol import ActionKind, Budgets, InputError, PageAction, load_yaml
from tandem.webenv import (
    ClearFilter,
    ERR_NOT_APPLICABLE,
    ERR_STOPPED,
    ERR_UNKNOWN_NODE,
    ERR_UNKNOWN_URL,
    EvaluatorSpec,
    FilterBy,
    SortBy,
    WebEnv,
    evaluate,
    load_fixture,
    normalize_answer,
    slugify,
)

from conftest import DATA, action, scenario_backend

SEED = 20260819


def click(env: WebEnv, node_id: int):
    return env.apply(action("click", target=node_id))


def goto(env: WebEnv, url: str):
    return env.apply(action("goto", target=url))


# ---------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------


def test_home_axtree_is_pinned(shop_env):
    assert shop_env.reset().axtree == (
        "[1] heading 'Shop Home'\n"
        "[2] textbox 'Search products'\n"
        "[3] link 'Shoes'\n"
        "[4] link 'Electronics'\n"
        "[5] link 'Kitchen'"
    )


def test_ids_are_dense_and_depth_indents(shop_env):
    shop_env.reset()
    goto(shop_env, "http://shop.local/category/kitchen")
    lines = shop_env.render_axtree().splitlines()
    for i, line in enumerate(lines, start=1):
        assert f"[{i}]" in line
    # listing items render one level below the list container
    assert "  [7] link 'Cast Iron Skillet" in shop_env.render_axtree()


def test_detail_page_shows_derived_fields(shop_env):
    shop_env.reset()
    goto(shop_env, "http://shop.local/product/copper-pour-over-kettle")
    tree = shop_env.render_axtree()
    assert "[4] statictext 'Price: $34.50'" in tree
    assert "[7] heading 'Customer reviews (2)'" in tree


def test_slugify():
    assert slugify("Copper Pour-Over Kettle") == "copper-pour-over-kettle"
    assert slugify("  Stellar 27-inch Monitor ") == "stellar-27-inch-monitor"


def test_money_renders_with_two_decimals():
    env = WebEnv(load_fixture("cms"))
    env.reset()
    goto(env, "http://cms.local/orders")
    tree = env.render_axtree()
    assert "$54.10" in tree  # not "$54.1"
    assert "$210.00" in tree  # not "$210.0"


def test_determinism_across_instances():
    fixture = load_fixture("shop")
    seen = []
    for _ in range(2):
        env = WebEnv(fixture)
        trace = [env.reset().axtree]
        for act in (
            action("click", target=5),
            action("click", target=4),  # sort price desc
            action("click", target=9),
            action("go_back"),
        ):
            env.apply(act)
            trace.append(env.render_axtree())
        seen.append(trace)
    assert seen[0] == seen[1]


MEMO_WALKS = {
    "shop": (
        action("type", target=2, text="mug"),  # search type
        action("go_back"),
        action("goto", target="http://shop.local/category/kitchen"),  # navigate
        action("click", target=4),  # sort by price, high to low
        action("click", target=5),  # sort by rating
        action("scroll", target="down"),
        action("click", target=2),  # navigate home
    ),
    "cms": (
        action("goto", target="http://cms.local/orders"),
        action("click", target=6),  # filter: pending
        action("click", target=7),  # filter: complete
        action("click", target=3),  # sort by date
        action("click", target=9),  # clear filter
        action("scroll", target="down"),
        action("go_back"),
    ),
}


@pytest.mark.parametrize("site", sorted(MEMO_WALKS))
def test_memoized_render_matches_a_fresh_render(site):
    env = WebEnv(load_fixture(site), window_nodes=4)
    env.reset()
    for act in MEMO_WALKS[site]:
        assert env.apply(act).ok, act
        assert env.render_nodes() == env._render_nodes(), act


KITCHEN = "http://shop.local/category/kitchen"


def test_envs_on_one_fixture_share_renders(shop_copy):
    fixture = load_fixture(shop_copy)
    first, second = WebEnv(fixture), WebEnv(fixture)
    for env in (first, second):
        env.reset()
        assert goto(env, KITCHEN).ok
    assert first.render_nodes() is second.render_nodes()


def test_a_sort_in_one_env_leaves_the_other_env_unsorted(shop_copy):
    fixture = load_fixture(shop_copy)
    sorted_env, plain_env = WebEnv(fixture), WebEnv(fixture)
    for env in (sorted_env, plain_env):
        env.reset()
        assert goto(env, KITCHEN).ok
    unsorted = plain_env.render_axtree()
    assert click(sorted_env, 4).ok  # sort by price, high to low
    assert sorted_env.render_axtree() != unsorted
    assert plain_env.render_axtree() == unsorted
    assert plain_env.render_nodes() == plain_env._render_nodes()


def test_shared_renders_stay_within_their_cap(shop_copy):
    fixture = load_fixture(shop_copy)
    env = WebEnv(fixture)
    for i in range(webenv.SHARED_RENDERS_CAP + 10):
        env.reset()
        assert env.apply(action("type", target=2, text=f"query {i}")).ok
        assert env.render_nodes() == env._render_nodes()
        assert len(fixture.renders) <= webenv.SHARED_RENDERS_CAP


def test_shared_renders_hold_under_threads(shop_copy, monkeypatch):
    # A small cap makes the threads clear the cache under each other.
    monkeypatch.setattr(webenv, "SHARED_RENDERS_CAP", 4)
    fixture = load_fixture(shop_copy)
    failures: list[str] = []

    def walk(seed: int) -> None:
        rng = random.Random(seed)
        env = WebEnv(fixture)
        for _ in range(60):
            env.reset()
            if rng.random() < 0.5:
                acts = [action("type", target=2, text=rng.choice(["mug", "pan", "kettle", "x"]))]
            else:
                acts = [action("goto", target=KITCHEN), action("click", target=rng.choice([4, 5]))]
            for act in acts:
                env.apply(act)
                if env.render_nodes() != env._render_nodes():
                    failures.append(f"{seed}: {act}")

    threads = [threading.Thread(target=walk, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # Racing inserts may each pass the size check before one clears.
    assert len(fixture.renders) <= 4 + len(threads) - 1


# ---------------------------------------------------------------------
# Windowing and scrolling
# ---------------------------------------------------------------------


def test_window_marker_and_scroll_clamping():
    env = WebEnv(load_fixture("shop"), window_nodes=3)
    obs = env.reset()
    lines = obs.axtree.splitlines()
    assert len(lines) == 4
    assert lines[-1] == "... 2 more nodes below (scroll down to reveal)"
    # scrolling up at the top is a clamped no-op
    assert env.apply(action("scroll", target="up")).ok
    assert env.render_axtree() == obs.axtree
    # scrolling down reveals the tail without a marker
    assert env.apply(action("scroll", target="down")).ok
    lines = env.render_axtree().splitlines()
    assert lines[0] == "[3] link 'Shoes'"
    assert "more nodes below" not in lines[-1]
    # scrolling down at the bottom is clamped too
    env.apply(action("scroll", target="down"))
    assert env.render_axtree().splitlines()[0] == "[3] link 'Shoes'"
    # and scroll up returns to the first window
    env.apply(action("scroll", target="up"))
    assert env.render_axtree() == obs.axtree


def test_window_rejects_nonpositive():
    with pytest.raises(ValueError):
        WebEnv(load_fixture("shop"), window_nodes=0)


def test_navigation_resets_scroll():
    env = WebEnv(load_fixture("shop"), window_nodes=2)
    env.reset()
    env.apply(action("scroll", target="down"))
    assert env.render_axtree().splitlines()[0].startswith("[3]")
    goto(env, "http://shop.local/category/shoes")
    assert env.render_axtree().splitlines()[0].startswith("[1]")


# ---------------------------------------------------------------------
# Action semantics and error strings
# ---------------------------------------------------------------------


def test_click_unknown_node(shop_env):
    shop_env.reset()
    out = click(shop_env, 99)
    assert not out.ok
    assert out.error == ERR_UNKNOWN_NODE


def test_click_inert_node(shop_env):
    shop_env.reset()
    out = click(shop_env, 1)  # heading
    assert (out.ok, out.error) == (False, ERR_NOT_APPLICABLE)


def test_click_on_search_box_is_not_applicable(shop_env):
    shop_env.reset()
    assert click(shop_env, 2).error == ERR_NOT_APPLICABLE


def test_goto_unknown_url(shop_env):
    shop_env.reset()
    out = goto(shop_env, "http://nowhere.local/")
    assert out.error == ERR_UNKNOWN_URL
    assert shop_env.current_url == "http://shop.local/"


def test_stop_absorbs_everything_after(shop_env):
    shop_env.reset()
    assert shop_env.apply(action("stop", target="the answer")).ok
    assert shop_env.stopped
    assert shop_env.stop_answer == "the answer"
    for attempt in (action("click", target=3), action("stop", target="other"), action("scroll", target="down")):
        out = shop_env.apply(attempt)
        assert (out.ok, out.error) == (False, ERR_STOPPED)
    assert shop_env.stop_answer == "the answer"


def test_stop_without_answer_gives_empty_string(shop_env):
    shop_env.reset()
    shop_env.apply(action("stop"))
    assert shop_env.stop_answer == ""


def test_type_navigates_to_encoded_search_url(shop_env):
    shop_env.reset()
    out = shop_env.apply(action("type", target=2, text="mug set"))
    assert out.ok
    assert shop_env.current_url == "http://shop.local/search?q=mug+set"
    tree = shop_env.render_axtree()
    assert "[1] heading 'Search results for 'mug set''" in tree
    assert "Ceramic Mug Set" in tree


def test_type_requires_a_search_box(shop_env):
    shop_env.reset()
    assert shop_env.apply(action("type", target=3, text="x")).error == ERR_NOT_APPLICABLE
    assert shop_env.apply(action("type", target=77, text="x")).error == ERR_UNKNOWN_NODE


def test_go_back_walks_history(shop_env):
    shop_env.reset()
    goto(shop_env, "http://shop.local/category/shoes")
    click(shop_env, 10)  # Trailblazer product page
    assert shop_env.current_url == "http://shop.local/product/trailblazer-running-shoes"
    shop_env.apply(action("go_back"))
    assert shop_env.current_url == "http://shop.local/category/shoes"
    shop_env.apply(action("go_back"))
    assert shop_env.current_url == "http://shop.local/"
    # empty history: no-op, still ok
    assert shop_env.apply(action("go_back")).ok
    assert shop_env.current_url == "http://shop.local/"


def test_previous_action_updates_only_on_success(shop_env):
    shop_env.reset()
    assert shop_env.observe().previous_action == "None"
    click(shop_env, 3)
    assert shop_env.observe().previous_action == "click [3]"
    click(shop_env, 99)
    assert shop_env.observe().previous_action == "click [3]"


def test_reset_restores_initial_state(shop_env):
    shop_env.reset()
    goto(shop_env, "http://shop.local/category/shoes")
    shop_env.apply(action("stop", target="x"))
    obs = shop_env.reset()
    assert obs.url == "http://shop.local/"
    assert not shop_env.stopped
    assert shop_env.stop_answer is None
    assert obs.previous_action == "None"


# ---------------------------------------------------------------------
# Fixture loading
# ---------------------------------------------------------------------


def test_load_fixture_rejects_unknown_name():
    with pytest.raises(InputError):
        load_fixture("no-such-site")


def test_load_fixture_file_rejects_wrong_format(tmp_path):
    path = tmp_path / "f.yaml"
    path.write_text("format: wrong\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_fixture(path)


def test_loader_rejects_bad_template(tmp_path):
    path = tmp_path / "f.yaml"
    path.write_text(
        """\
format: tandem-fixture
site_id: t
start_url: http://t.local/
entities:
  things:
    - {name: a}
pages:
  - url: http://t.local/
    title: Home
    listing:
      collection: things
      item: "{name} costs {price}"
""",
        encoding="utf-8",
    )
    with pytest.raises(InputError) as err:
        load_fixture(path)
    assert "template" in str(err.value)


def test_loader_rejects_unresolvable_navigate(tmp_path):
    path = tmp_path / "f.yaml"
    path.write_text(
        """\
format: tandem-fixture
site_id: t
start_url: http://t.local/
entities: {}
pages:
  - url: http://t.local/
    title: Home
    nodes:
      - {role: link, label: Away, navigate: http://t.local/missing}
""",
        encoding="utf-8",
    )
    with pytest.raises(InputError) as err:
        load_fixture(path)
    assert "http://t.local/missing" in str(err.value)


CHECKED_FIXTURE = """\
format: tandem-fixture
site_id: t
start_url: http://t.local/
entities:
  things:
    - {name: a, price: 1}
    - {name: b, price: 2}
pages:
  - url: http://t.local/
    title: Home
    nodes:
      - role: textbox
        label: Find
        search: {results_url: http://t.local/search, collection: things}
      - {role: button, label: Cheap, filter: {field: price, op: lt, value: 2}}
    listing:
      collection: things
      item: "{name}"
      where: {field: price, op: ge, value: 0}
      default_sort: {field: name}
  - url_template: "http://t.local/thing/{name}"
    for_each: things
    title: "Thing {name}"
"""

FIXTURE_REJECTIONS = [
    # text replaced in CHECKED_FIXTURE, its replacement, words the error must contain
    pytest.param("op: lt", "op: near", "unknown condition op 'near'", id="unknown-condition-op"),
    pytest.param(
        "op: lt, value: 2", "op: eq, value: [2]", "condition value [2] is not a scalar",
        id="condition-value-not-scalar",
    ),
    pytest.param(
        "label: Cheap,", "label: Cheap, navigate: http://t.local/,", "multiple behaviors",
        id="several-behaviors",
    ),
    pytest.param(
        "      - {role: button",
        "      - {role: listitem, label: x, for_each_item: tags}\n      - {role: button",
        "for_each_item only works inside page templates",
        id="for-each-item-outside-template",
    ),
    pytest.param("title: Home", "title: ''", "page needs a title", id="page-without-title"),
    pytest.param(
        "entities:\n", "entities:\n  extra: 5\n", "collection 'extra' must be a list",
        id="collection-not-a-list",
    ),
    pytest.param(
        "for_each: things", "for_each: widgets", "for_each references unknown collection",
        id="for-each-unknown-collection",
    ),
    pytest.param(
        "collection: things\n      item", "collection: widgets\n      item",
        "http://t.local/: unknown collection 'widgets'", id="listing-unknown-collection",
    ),
    pytest.param(
        "default_sort: {field: name}", "default_sort: {field: colour}", "no field 'colour'",
        id="unknown-sort-field",
    ),
    pytest.param(
        "where: {field: price", "where: {field: weight", "no field 'weight'",
        id="unknown-where-field",
    ),
    pytest.param(
        "collection: things}", "collection: widgets}", "search: unknown collection 'widgets'",
        id="search-unknown-collection",
    ),
]


@pytest.mark.parametrize("old, new, words", FIXTURE_REJECTIONS)
def test_loader_rejects_each_fixture_problem(tmp_path, old, new, words):
    valid = tmp_path / "valid.yaml"
    valid.write_text(CHECKED_FIXTURE, encoding="utf-8")
    assert load_fixture(valid).start_url == "http://t.local/"
    assert CHECKED_FIXTURE.count(old) == 1
    path = tmp_path / "f.yaml"
    path.write_text(CHECKED_FIXTURE.replace(old, new), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_fixture(path)
    assert str(err.value).startswith(f"{path}: ") and words in str(err.value)


def test_bundled_fixtures_all_load():
    for name in ("shop", "cms", "gitlab"):
        fixture = load_fixture(name)
        assert fixture.start_url in fixture.pages


# ---------------------------------------------------------------------
# Fixture cache
# ---------------------------------------------------------------------


@pytest.fixture()
def count_parses(monkeypatch):
    """Count the YAML documents the fixture loader decodes."""
    parses = []

    def counting_load_yaml(stream):
        parses.append(stream)
        return load_yaml(stream)

    monkeypatch.setattr(webenv, "load_yaml", counting_load_yaml)
    return parses


@pytest.fixture()
def shop_copy(tmp_path):
    path = tmp_path / "shop.yaml"
    path.write_text((DATA / "fixtures" / "shop.yaml").read_text(encoding="utf-8"), encoding="utf-8")
    return path


def test_fixture_cache_parses_a_file_once(shop_copy, count_parses):
    first = load_fixture(shop_copy)
    assert load_fixture(shop_copy) is first
    assert load_fixture(str(shop_copy)) is first
    assert len(count_parses) == 1


def test_fixture_cache_parses_an_edited_file_again(shop_copy, count_parses):
    before = load_fixture(shop_copy)
    text = shop_copy.read_text(encoding="utf-8")
    shop_copy.write_text(text.replace("title: Shop Home", "title: Shop Front"), encoding="utf-8")
    after = load_fixture(shop_copy)
    assert len(count_parses) == 2
    assert before.pages[before.start_url].title == "Shop Home"
    assert after.pages[after.start_url].title == "Shop Front"


def test_bundled_fixture_is_located_once(monkeypatch):
    first = load_fixture("shop")

    def no_lookup(*args):
        raise AssertionError("bundled fixture located again")

    monkeypatch.setattr(importlib.resources, "files", no_lookup)
    assert load_fixture("shop") is first


def test_fixture_file_is_located_once(shop_copy, monkeypatch):
    first = load_fixture(shop_copy)

    def no_resolve(self, strict=False):
        raise AssertionError("fixture file located again")

    monkeypatch.setattr(webenv.Path, "resolve", no_resolve)
    assert load_fixture(shop_copy) is first


def test_unknown_fixture_is_an_input_error_every_time(tmp_path):
    path = tmp_path / "later.yaml"
    for _ in range(2):
        with pytest.raises(InputError, match="unknown fixture"):
            load_fixture(path)
    path.write_text((DATA / "fixtures" / "cms.yaml").read_text(encoding="utf-8"), encoding="utf-8")
    assert load_fixture(path) == load_fixture("cms")


def test_fixture_cache_never_keeps_a_failed_load(tmp_path, count_parses):
    path = tmp_path / "f.yaml"
    path.write_text("format: tandem-fixture\npages: [{title: no url}]\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(InputError):
            load_fixture(path)
    assert len(count_parses) == 2


def test_runs_leave_the_cached_bundled_fixtures_unchanged():
    run_listing_oracle(SEED, 30)
    run_search_oracle(SEED + 1, 20)
    report = run_suite(load_suite("demo"), lambda task: scenario_backend(task.id), Budgets())
    assert report.n_success == report.n_tasks
    for name in ("shop", "cms", "gitlab"):
        path = (DATA / "fixtures" / f"{name}.yaml").resolve()
        fresh = webenv._parse_fixture.__wrapped__(path, path.read_text(encoding="utf-8"))
        assert load_fixture(name) == fresh


# ---------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------


def test_normalize_answer():
    assert normalize_answer("  The   Answer\nIs 42 ") == "the answer is 42"


def test_exact_match_accepts_any_alternative(shop_env):
    spec = EvaluatorSpec(kind="exact_match", expected=("$34.50", "34.50"))
    assert evaluate("  34.50 ", shop_env, spec)
    assert evaluate("$34.50", shop_env, spec)
    assert not evaluate("34.5", shop_env, spec)


def test_must_include_requires_all(shop_env):
    spec = EvaluatorSpec(kind="must_include", expected=("kettle", "34.50"))
    assert evaluate("The Kettle costs $34.50.", shop_env, spec)
    assert not evaluate("The kettle is lovely.", shop_env, spec)


def test_url_match_ignores_trailing_slash(shop_env):
    shop_env.reset()
    spec = EvaluatorSpec(kind="url_match", expected=("http://shop.local",))
    assert evaluate("anything", shop_env, spec)
    goto(shop_env, "http://shop.local/category/shoes")
    assert not evaluate("anything", shop_env, spec)
    spec2 = EvaluatorSpec(kind="url_match", expected=("http://shop.local/category/shoes/",))
    assert evaluate("", shop_env, spec2)


def test_unknown_evaluator_kind_raises(shop_env):
    with pytest.raises(ValueError):
        evaluate("x", shop_env, EvaluatorSpec(kind="regex", expected=("x",)))


# ---------------------------------------------------------------------
# Randomized listing oracle
#
# Random walks over every listing page: click a random run of sort and
# filter controls, then recompute the expected row order directly from
# the fixture's entity rows with plain sorted()/comprehensions and
# compare against the labels the environment renders.
# ---------------------------------------------------------------------

_ORACLE_OPS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "contains": lambda a, b: str(b).casefold() in str(a).casefold(),
}

LISTING_PAGES = (
    ("shop", "http://shop.local/category/shoes"),
    ("shop", "http://shop.local/category/electronics"),
    ("shop", "http://shop.local/category/kitchen"),
    ("cms", "http://cms.local/orders"),
    ("gitlab", "http://git.local/projects"),
)


def rendered_listing_labels(env: WebEnv) -> list[str]:
    labels = []
    in_list = False
    for node in env.render_nodes():
        if node.role == "list":
            in_list = True
            continue
        if in_list:
            if node.depth == 0:
                break
            labels.append(node.label)
    return labels


def expected_listing_labels(fixture, page_url, sort, filt) -> list[str]:
    listing = fixture.pages[page_url].listing
    rows = list(fixture.entities[listing.collection])
    if listing.where is not None:
        rows = [r for r in rows if _ORACLE_OPS[listing.where.op](r[listing.where.field], listing.where.value)]
    if filt is not None:
        rows = [r for r in rows if _ORACLE_OPS[filt.op](r[filt.field], filt.value)]
    order = sort or listing.default_sort
    if order is not None:
        rows = sorted(rows, key=lambda r: r[order.field], reverse=not order.ascending)
    return [listing.item_template.format_map(r) for r in rows]


def run_listing_oracle(seed: int, n_cases: int) -> int:
    rng = random.Random(seed)
    fixtures = {name: load_fixture(name) for name in ("shop", "cms", "gitlab")}
    checked = 0
    for _ in range(n_cases):
        site, page_url = rng.choice(LISTING_PAGES)
        fixture = fixtures[site]
        env = WebEnv(fixture)
        env.reset()
        assert goto(env, page_url).ok
        controls = [n for n in env.render_nodes() if isinstance(n.behavior, (SortBy, FilterBy, ClearFilter))]
        sort = filt = None
        for _ in range(rng.randint(0, 4)):
            control = rng.choice(controls)
            assert click(env, control.node_id).ok
            assert env.render_nodes() == env._render_nodes()
            if isinstance(control.behavior, SortBy):
                sort = control.behavior
            elif isinstance(control.behavior, FilterBy):
                filt = control.behavior
            else:
                filt = None
        expected = expected_listing_labels(fixture, page_url, sort, filt)
        assert rendered_listing_labels(env) == expected, (site, page_url, sort, filt)
        checked += 1
    return checked


def run_search_oracle(seed: int, n_cases: int) -> int:
    rng = random.Random(seed)
    fixture = load_fixture("shop")
    products = fixture.entities["product"]
    names = [str(r["name"]) for r in products]
    box = fixture.pages["http://shop.local/"].nodes[0].behavior
    checked = 0
    for _ in range(n_cases):
        if rng.random() < 0.2:
            query = rng.choice(["zzz", "", "Mug", "CAST iron", "  "])
        else:
            name = rng.choice(names)
            lo = rng.randrange(len(name))
            hi = rng.randrange(lo + 1, len(name) + 1)
            query = name[lo:hi]
        env = WebEnv(fixture)
        env.reset()
        assert env.apply(action("type", target=2, text=query)).ok
        expected = [
            box.item_template.format_map(r)
            for r in products
            if query.casefold() in str(r[box.match_field]).casefold()
        ]
        assert rendered_listing_labels(env) == expected, query
        checked += 1
    return checked


def test_listing_oracle_randomized():
    assert run_listing_oracle(SEED, 90) == 90


def test_search_oracle_randomized():
    assert run_search_oracle(SEED + 1, 40) == 40


def test_search_for_mug_pins_expected_row(shop_env):
    shop_env.reset()
    shop_env.apply(action("type", target=2, text="mug"))
    assert rendered_listing_labels(shop_env) == ["Ceramic Mug Set - $22.00 (rating 3.9)"]


def test_filter_then_clear_restores_default_order():
    env = WebEnv(load_fixture("cms"))
    env.reset()
    goto(env, "http://cms.local/orders")
    click(env, 6)  # show only pending
    pending = rendered_listing_labels(env)
    assert pending and all("pending" in row for row in pending)
    clear = next(
        n.node_id for n in env.render_nodes() if isinstance(n.behavior, ClearFilter)
    )
    click(env, clear)
    assert len(rendered_listing_labels(env)) == 10
