import builtins
import dataclasses
import errno
import io
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setn import errors as errors_module
from setn.data import (DEFAULT_TAXONOMY, GeneratorSpec, Taxonomy,
                       export_embeddings,
                       generate_synthetic, load_edges, load_embeddings,
                       load_nodes, load_themes, write_dataset)
from setn.errors import DataError, SetnError
from setn.text import Vocab
from setn.training import TrainConfig, build_model, save_model


# ---------------------------------------------------------------------------
# taxonomy


def test_default_taxonomy_has_17_sectors_and_33_industries():
    assert DEFAULT_TAXONOMY.n_sectors == 17
    assert DEFAULT_TAXONOMY.n_industries == 33
    assert set(DEFAULT_TAXONOMY.industry_to_sector) == set(range(33))


def test_taxonomy_lookup_and_mapping():
    tax = DEFAULT_TAXONOMY
    land = tax.industry_id("Land Transportation")
    assert tax.sectors[tax.sector_of(land)] == "TRANSPORTATION&LOGISTICS"
    assert tax.sector_id("RETAIL TRADE") == tax.sector_of(tax.industry_id("Retail Trade"))


def test_taxonomy_accepts_normalized_aliases():
    tax = DEFAULT_TAXONOMY
    assert tax.sector_id("PHARMACEUTICAL") == tax.sector_id("PHAMACEUTICAL")
    assert tax.sector_id("ELECTRIC POWER&GAS") == tax.sector_id("ELECTRIC POWERT&GAS")
    assert tax.sector_id("retail   trade") == tax.sector_id("RETAIL TRADE")


def test_taxonomy_rejects_unknown_label():
    with pytest.raises(DataError):
        DEFAULT_TAXONOMY.industry_id("Spacecraft")


def test_taxonomy_file_roundtrip(tmp_path):
    path = tmp_path / "taxonomy.json"
    DEFAULT_TAXONOMY.to_file(path)
    loaded = Taxonomy.from_file(path)
    assert loaded.sectors == DEFAULT_TAXONOMY.sectors
    assert loaded.industry_to_sector == DEFAULT_TAXONOMY.industry_to_sector


@pytest.mark.parametrize("content, expected", [
    ('{"sectors": [', "malformed taxonomy JSON"),
    ('["A"]', "expected a JSON object"),
    ('{"sectors": ["A"], "industries": ["X"]}', "'industry_to_sector' missing"),
    ('{"sectors": ["A"], "industries": "X", "industry_to_sector": {}}', "'industries' missing"),
    ('{"sectors": ["A"], "industries": ["X"], "industry_to_sector": {"NoSuchIndustry": "A"}}',
     "unknown industry 'NoSuchIndustry'"),
    ('{"sectors": ["A"], "industries": ["X"], "industry_to_sector": {"X": "B"}}',
     "unknown sector 'B'"),
    ('{"sectors": ["A"], "industries": ["X", "Y"], "industry_to_sector": {"X": "A"}}',
     "industries without a sector"),
    ('{"sectors": [1], "industries": ["X"], "industry_to_sector": {"X": "A"}}',
     "each name in 'sectors' must be a JSON string, got 1"),
    ('{"sectors": ["A"], "industries": [["x"]], "industry_to_sector": {}}',
     "each name in 'industries' must be a JSON string, got [\"x\"]"),
    ('{"sectors": ["A"], "industries": ["X"], "industry_to_sector": {"X": null}}',
     "each name in 'industry_to_sector' must be a JSON string, got null"),
])
def test_taxonomy_file_errors_name_the_path(tmp_path, content, expected):
    path = tmp_path / "taxonomy.json"
    path.write_text(content)
    with pytest.raises(DataError) as exc:
        Taxonomy.from_file(path)
    assert str(path) in str(exc.value)
    assert expected in str(exc.value)


# ---------------------------------------------------------------------------
# node loading


def _write_nodes(tmp_path, lines):
    path = tmp_path / "nodes.jsonl"
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    return path


def test_load_nodes_valid_file(tmp_path):
    path = _write_nodes(tmp_path, [
        {"ticker": "A", "text": "steel", "topix17": "BANKS", "topix33": "Banks"},
        {"ticker": "B", "text": "ships", "topix17": "RETAIL TRADE", "topix33": "Retail Trade"},
        {"ticker": "C", "text": "rails", "topix17": "TRANSPORTATION&LOGISTICS",
         "topix33": "Land Transportation"},
    ])
    records, id_map = load_nodes(path)
    assert len(records) == 3
    assert id_map == {"A": 0, "B": 1, "C": 2}


def test_load_nodes_derives_sector_from_industry(tmp_path):
    path = _write_nodes(tmp_path, [
        {"ticker": "A", "text": "rails", "topix33": "Land Transportation"},
        {"ticker": "B", "text": "rails", "topix17": None, "topix33": "Land Transportation"},
    ])
    records, _ = load_nodes(path)
    tax = DEFAULT_TAXONOMY
    for record in records:
        assert record.industry == tax.industry_id("Land Transportation")
        assert record.sector == tax.sector_id("TRANSPORTATION&LOGISTICS")


def test_load_nodes_duplicate_ticker(tmp_path):
    path = _write_nodes(tmp_path, [
        {"ticker": "A", "text": "x", "topix33": "Banks"},
        {"ticker": "A", "text": "y", "topix33": "Banks"},
    ])
    with pytest.raises(DataError) as exc:
        load_nodes(path)
    assert "'A'" in str(exc.value)


def test_load_nodes_reports_line_numbers(tmp_path):
    path = tmp_path / "nodes.jsonl"
    path.write_text('{"ticker": "A", "text": "x", "topix33": "Banks"}\n{broken\n')
    with pytest.raises(DataError) as exc:
        load_nodes(path)
    assert ":2" in str(exc.value)


def test_blank_lines_in_jsonl_files_are_skipped_and_keep_line_numbers(tmp_path):
    path = tmp_path / "nodes.jsonl"
    path.write_text('\n{"ticker": "A", "text": "x", "topix33": "Banks"}\n   \n\n'
                    '{"ticker": "B", "text": "y", "topix33": "Banks"}\n\n')
    records, id_map = load_nodes(path)
    assert id_map == {"A": 0, "B": 1} and [r.text for r in records] == ["x", "y"]
    path.write_text(path.read_text() + '{"ticker": "A", "text": "z", "topix33": "Banks"}\n')
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:7: "):
        load_nodes(path)
    themes = tmp_path / "themes.jsonl"
    themes.write_text('\n\n{"theme": "t", "members": ["A", "B"]}\n  \n')
    assert load_themes(themes, id_map, min_size=2) == {"t": (0, 1)}


def test_load_nodes_unknown_label(tmp_path):
    for line, message in (
            ({"ticker": "A", "text": "x", "topix33": "Warp Drives"},
             "unknown industry label 'Warp Drives'"),
            ({"ticker": "A", "text": "x", "topix17": "SPACE", "topix33": "Banks"},
             "unknown sector label 'SPACE'")):
        path = _write_nodes(tmp_path, [{"ticker": "Z", "text": "x", "topix33": "Banks"}, line])
        with pytest.raises(DataError) as exc:
            load_nodes(path)
        assert str(exc.value) == f"{path}:2: {message}"


def test_load_nodes_rejects_a_sector_that_contradicts_the_industry(tmp_path):
    path = _write_nodes(tmp_path, [
        {"ticker": "A", "text": "shops", "topix17": "RETAIL TRADE", "topix33": "Retail Trade"},
        {"ticker": "B", "text": "rails", "topix17": "RETAIL TRADE", "topix33": "Banks"},
    ])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: ") as exc:
        load_nodes(path)
    assert "'RETAIL TRADE'" in str(exc.value) and "'Banks'" in str(exc.value)


def test_load_nodes_compares_sector_ids_so_aliases_load(tmp_path):
    path = _write_nodes(tmp_path, [
        {"ticker": "A", "text": "pills", "topix17": "PHARMACEUTICAL", "topix33": "Pharmaceutical"},
        {"ticker": "B", "text": "power", "topix17": "Electric Power & Gas",
         "topix33": "Electric Power and Gas"},
    ])
    records, _ = load_nodes(path)
    assert [r.sector for r in records] == [DEFAULT_TAXONOMY.sector_of(r.industry) for r in records]


@pytest.mark.parametrize("key, value", [
    ("ticker", 7), ("ticker", None), ("text", None), ("text", ["rails"]),
    ("topix33", 5), ("topix17", 3), ("topix17", False),
])
def test_load_nodes_rejects_fields_that_are_not_strings(tmp_path, key, value):
    line = {"ticker": "A", "text": "rails", "topix17": "BANKS", "topix33": "Banks"}
    line[key] = value
    path = _write_nodes(tmp_path, [{"ticker": "Z", "text": "x", "topix33": "Banks"}, line])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: '{key}' must be a JSON string"):
        load_nodes(path)


def test_taxonomy_rejects_names_equal_up_to_case_and_spacing(tmp_path):
    # labels are looked up normalized, so "BANKS" would find the second sector
    with pytest.raises(DataError, match="^duplicate sector names 'BANKS' and 'Banks'$"):
        Taxonomy(["BANKS", "Banks"], ["Loans"], {0: 0})
    with pytest.raises(DataError, match="^duplicate industry names 'Retail  Trade' and 'retail trade'$"):
        Taxonomy(["A"], ["Retail  Trade", "retail trade"], {0: 0, 1: 0})
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps({"sectors": ["BANKS", " banks"], "industries": ["Loans"],
                                "industry_to_sector": {"Loans": "BANKS"}}))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: duplicate sector names"):
        Taxonomy.from_file(path)


@pytest.mark.parametrize("mapping, message", [
    # a sector past the list once built, and load_nodes then raised IndexError
    ({0: 5}, "the sector of industry 0 ('x') must be an integer in [0, 0], got 5"),
    # True was taken as sector 1
    ({0: True}, "the sector of industry 0 ('x') must be an integer in [0, 0], got True"),
    # industry 3 does not exist, yet was kept
    ({0: 0, 3: 0}, "industry_to_sector keys [3] are not industry indices in [0, 1)"),
    ({0: 0, 0.5: 0}, "industry_to_sector keys [0.5] are not industry indices in [0, 1)"),
])
def test_taxonomy_refuses_a_mapping_it_cannot_serve(mapping, message):
    with pytest.raises(DataError) as exc:
        Taxonomy(["A"], ["x"], mapping)
    assert str(exc.value) == message


@pytest.mark.parametrize("sectors, industries, message", [
    # each once ended in AttributeError from normalizing the name
    ([1], ["x"], "each name in 'sectors' must be a string, got 1"),
    (["A"], [2], "each name in 'industries' must be a string, got 2"),
])
def test_taxonomy_refuses_a_name_that_is_not_a_string_naming_the_field(sectors, industries,
                                                                       message):
    with pytest.raises(DataError) as exc:
        Taxonomy(sectors, industries, {0: 0})
    assert str(exc.value) == message


def test_taxonomy_stores_numpy_sector_indices_as_ints():
    taxonomy = Taxonomy(["A", "B"], ["x", "y"], {np.int64(1): np.int32(1), 0: np.int64(0)})
    assert taxonomy.industry_to_sector == {0: 0, 1: 1}
    assert {type(s) for s in taxonomy.industry_to_sector.values()} == {int}


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reader", ["nodes", "themes", "taxonomy"])
def test_json_nested_too_deeply_is_a_data_error_naming_the_file(tmp_path, reader):
    # deeper than the interpreter's recursion limit, where json raises RecursionError
    path = tmp_path / "deep.json"
    if reader == "taxonomy":
        path.write_text(_DEEP_JSON)
        load, where = Taxonomy.from_file, f"{path}: taxonomy JSON"
    else:
        first = ({"ticker": "A", "text": "x", "topix33": "Banks"} if reader == "nodes"
                 else {"theme": "chips", "members": []})
        path.write_text(json.dumps(first) + "\n" + _DEEP_JSON + "\n")
        load = load_nodes if reader == "nodes" else (lambda p: load_themes(p, {}))
        where = f"{path}:2: JSON"
    with pytest.raises(DataError, match=f"^{re.escape(where)} nested too deeply$"):
        load(path)


# ---------------------------------------------------------------------------
# arbitrary content in the input files: a SetnError or a result, nothing else

_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


def _names(*names):
    """Mostly the given names, sometimes any JSON, so the deeper checks run."""
    return st.sampled_from(names) | _ANY_JSON


_TAXONOMY_NAMES = _names("A", "B", "X", "Y")
_TAXONOMY_JSON = _ANY_JSON | st.fixed_dictionaries({}, optional={
    "sectors": st.lists(_TAXONOMY_NAMES, max_size=3) | _ANY_JSON,
    "industries": st.lists(_TAXONOMY_NAMES, max_size=3) | _ANY_JSON,
    "industry_to_sector": st.dictionaries(st.sampled_from(["A", "X", "Y", ""]), _TAXONOMY_NAMES,
                                          max_size=3) | _ANY_JSON,
})
_NODE_JSON = _ANY_JSON | st.fixed_dictionaries({}, optional={
    "ticker": _names("A", "B"),
    "text": _names("steel", ""),
    "topix33": _names("Banks", "Retail Trade", "Warp Drives"),
    "topix17": _names("BANKS", "RETAIL TRADE", "SPACE", None),
})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(obj=_TAXONOMY_JSON)
def test_taxonomy_file_with_any_json_raises_only_setn_errors(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("taxonomy") / "taxonomy.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    try:
        Taxonomy.from_file(path)
    except SetnError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines=st.lists(_NODE_JSON, min_size=1, max_size=4))
def test_nodes_file_with_any_json_raises_only_setn_errors(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("nodes") / "nodes.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    try:
        load_nodes(path)
    except SetnError:
        pass


def _any_lines(*lines):
    """File bytes: lines of the given kinds or any text, or any bytes at all."""
    line = st.sampled_from(lines) | st.text(max_size=8)
    return (st.lists(line, max_size=5).map(lambda ls: "".join(x + "\n" for x in ls).encode("utf-8"))
            | st.binary(max_size=16))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(content=_any_lines("0\t1", "1\t0", "1\t1", "2\t-1", "0 1", "x\t1", "0\t1\t2"),
       n_nodes=st.integers(0, 3))
def test_edges_file_with_any_lines_raises_only_setn_errors(tmp_path_factory, content, n_nodes):
    path = tmp_path_factory.mktemp("edges") / "edges.tsv"
    path.write_bytes(content)
    try:
        load_edges(path, n_nodes)
    except SetnError:
        pass


@settings(max_examples=100, deadline=None, derandomize=True)
@given(content=_any_lines("a", "b", "", " a"))
def test_vocab_file_with_any_lines_raises_only_setn_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    path.write_bytes(content)
    try:
        Vocab.from_file(path)
    except SetnError:
        pass


_THEME_JSON = _ANY_JSON | st.fixed_dictionaries({}, optional={
    "theme": _names("chips", "autos"),
    "members": st.lists(_names("A", "B", "C", "Z"), max_size=4) | _ANY_JSON,
})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lines=st.lists(_THEME_JSON, min_size=1, max_size=4), min_size=st.integers(0, 3),
       universe=st.none() | st.lists(st.integers(0, 3), max_size=3))
def test_themes_file_with_any_json_raises_only_setn_errors(tmp_path_factory, lines, min_size,
                                                          universe):
    path = tmp_path_factory.mktemp("themes") / "themes.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    try:
        load_themes(path, {"A": 0, "B": 1, "C": 2}, universe, min_size)
    except SetnError:
        pass


# ---------------------------------------------------------------------------
# edges and themes


def test_load_edges_parses_and_cleans(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n1\t2\n1\t2\n2\t2\n")
    g = load_edges(path, 3)
    assert set(g.edges) == {(0, 1), (1, 2)}


def test_load_edges_rejects_bad_lines(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\tx\n")
    with pytest.raises(DataError):
        load_edges(path, 3)
    path.write_text("0\t9\n")
    with pytest.raises(DataError):
        load_edges(path, 3)


@pytest.mark.parametrize("line", ["1_0\t2", "+3\t4", "1 \t2", "1\t\u0662",
                                  pytest.param("1" * 5000 + "\t2", id="past-the-digit-limit")])
def test_load_edges_reads_a_node_id_only_as_ascii_digits_after_an_optional_minus(tmp_path, line):
    path = tmp_path / "edges.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_edges(path, 20)
    assert str(exc.value) == f"{path}:1: non-integer node id in {line!r}"


@pytest.mark.parametrize("kind", ["nodes", "themes", "taxonomy"])
def test_a_json_object_that_repeats_a_key_is_a_data_error_naming_the_key(tmp_path, kind):
    path = tmp_path / kind
    if kind == "nodes":
        path.write_text('{"ticker": "A", "ticker": "B", "text": "t", "topix33": "Banks"}\n')
        load, message = load_nodes, f"{path}:1: JSON repeats the key 'ticker'"
    elif kind == "themes":
        path.write_text('{"theme": "t", "members": ["A"], "theme": "u"}\n')
        load, message = (lambda p: load_themes(p, {"A": 0})), f"{path}:1: JSON repeats the key 'theme'"
    else:
        path.write_text('{"sectors": ["S"], "industries": ["I"], '
                        '"industry_to_sector": {"I": "S", "I": "S"}}')
        load, message = Taxonomy.from_file, f"{path}: taxonomy JSON repeats the key 'I'"
    with pytest.raises(DataError) as exc:
        load(path)
    assert str(exc.value) == message


def _write_themes(tmp_path, themes):
    path = tmp_path / "themes.jsonl"
    path.write_text("\n".join(json.dumps({"theme": n, "members": m})
                              for n, m in themes) + "\n")
    return path


def test_load_themes_filters_to_universe_and_min_size(tmp_path):
    id_map = {f"T{i}": i for i in range(30)}
    big = [f"T{i}" for i in range(20)] + ["UNLISTED"]
    small = [f"T{i}" for i in range(14)]
    path = _write_themes(tmp_path, [("big", big), ("small", small)])
    universe = range(16)  # only T0..T15 in the evaluation universe
    themes = load_themes(path, id_map, universe=universe, min_size=15)
    assert set(themes) == {"big"}
    assert len(themes["big"]) == 16


def test_load_themes_drops_below_min_size(tmp_path):
    id_map = {f"T{i}": i for i in range(20)}
    path = _write_themes(tmp_path, [("small", [f"T{i}" for i in range(14)])])
    themes = load_themes(path, id_map, min_size=15)
    assert len(themes) == 0


def test_load_themes_empty_file(tmp_path):
    path = tmp_path / "themes.jsonl"
    path.write_text("")
    assert len(load_themes(path, {}, min_size=2)) == 0


def test_load_themes_rejects_a_repeated_theme_name_naming_the_line(tmp_path):
    id_map = {f"T{i}": i for i in range(4)}
    path = _write_themes(tmp_path, [("a", ["T0", "T1"]), ("b", ["T2", "T3"]), ("a", ["T2", "T3"])])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: duplicate theme 'a'$"):
        load_themes(path, id_map, min_size=2)


@pytest.mark.parametrize("members", [5, "T0", {"T0": 1}, None])
def test_load_themes_rejects_members_that_are_not_a_list(tmp_path, members):
    id_map = {f"T{i}": i for i in range(20)}
    path = _write_themes(tmp_path, [("ok", ["T0", "T1"]), ("bad", members)])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: theme 'members' must be a JSON list"):
        load_themes(path, id_map, min_size=2)


@pytest.mark.parametrize("theme, member, expected", [
    (None, "T2", "'theme' must be a JSON string, got null"),
    (7, "T2", "'theme' must be a JSON string, got 7"),
    ("bad", 7, "each of 'members' must be a JSON string, got 7"),
    ("bad", ["T2"], 'each of \'members\' must be a JSON string, got ["T2"]'),
])
def test_load_themes_rejects_names_and_members_that_are_not_strings(tmp_path, theme, member,
                                                                     expected):
    id_map = {**{f"T{i}": i for i in range(20)}, "7": 7, "['T2']": 2}
    path = _write_themes(tmp_path, [("ok", ["T0", "T1"]), (theme, ["T3", "T4", member])])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: ") as exc:
        load_themes(path, id_map, min_size=2)
    assert expected in str(exc.value)


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_is_deterministic_per_seed(tmp_path):
    spec = GeneratorSpec(n=40, sectors=3, industries=5, vocab_size=80,
                         tokens_per_doc=8, theme_count=4, seed=9)
    d1 = generate_synthetic(spec)
    d2 = generate_synthetic(spec)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    write_dataset(d1, out1)
    write_dataset(d2, out2)
    for name in ("nodes.jsonl", "edges.tsv", "themes.jsonl", "vocab.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_generator_rejects_infeasible_specs():
    with pytest.raises(DataError):
        generate_synthetic(GeneratorSpec(n=4, industries=10, sectors=2))
    with pytest.raises(DataError):
        generate_synthetic(GeneratorSpec(sectors=5, industries=3))


@pytest.mark.parametrize("name", ["seed", "tokens_per_doc", "avg_degree", "theme_count"])
def test_generator_rejects_negative_counts_naming_the_field(name):
    with pytest.raises(DataError, match=rf"^{name} must be an integer of at least 0, got -1$"):
        generate_synthetic(dataclasses.replace(GeneratorSpec(n=40), **{name: -1}))


@pytest.mark.parametrize("name", ["graph_signal", "direction_signal", "text_signal"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -3.0, 1.5, None, True])
def test_generator_rejects_a_signal_that_is_not_a_probability_naming_the_field(name, value):
    with pytest.raises(DataError, match=rf"^{name} must be a number in \[0, 1\], got {value!r}$"):
        generate_synthetic(dataclasses.replace(GeneratorSpec(n=40), **{name: value}))


_INTEGER_FIELDS = ["n", "sectors", "industries", "vocab_size", "tokens_per_doc",
                   "min_tokens_per_doc", "avg_degree", "theme_count", "seed"]


@pytest.mark.parametrize("name", _INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.0, 1.5, True, "3"])
def test_generator_refuses_an_integer_field_that_is_not_an_int_naming_it(name, value):
    with pytest.raises(DataError, match=rf"^{name} must be an integer of at least \d, "
                                        rf"got {re.escape(repr(value))}$"):
        generate_synthetic(dataclasses.replace(GeneratorSpec(n=40), **{name: value}))


def test_generator_takes_numpy_integers_as_ints():
    spec = GeneratorSpec(n=40, sectors=3, industries=5, vocab_size=80, theme_count=2, seed=2)
    numpy_spec = dataclasses.replace(spec, n=np.int64(40), seed=np.int32(2))
    assert generate_synthetic(numpy_spec).records == generate_synthetic(spec).records


def test_generator_varied_lengths_truncate_the_fixed_length_universe():
    base = GeneratorSpec(n=60, sectors=3, industries=5, vocab_size=80,
                         tokens_per_doc=20, theme_count=4, seed=3)
    fixed = generate_synthetic(base)
    varied = generate_synthetic(dataclasses.replace(base, min_tokens_per_doc=4))
    lengths = [len(r.text.split()) for r in varied.records]
    assert min(lengths) >= 4 and max(lengths) <= 20 and len(set(lengths)) > 5
    for a, b in zip(fixed.records, varied.records):
        assert a.text.split()[:len(b.text.split())] == b.text.split()
        assert (a.sector, a.industry) == (b.sector, b.industry)
    assert fixed.graph.edges == varied.graph.edges
    assert fixed.themes == varied.themes
    for bad in (21, -1):
        with pytest.raises(DataError, match="min_tokens_per_doc"):
            generate_synthetic(dataclasses.replace(base, min_tokens_per_doc=bad))


def test_pure_text_signal_supports_centroid_classifier():
    spec = GeneratorSpec(n=120, sectors=4, industries=6, vocab_size=200,
                         tokens_per_doc=16, text_signal=1.0, graph_signal=0.0,
                         direction_signal=0.0, seed=5)
    ds = generate_synthetic(spec)
    vocab = sorted({w for r in ds.records for w in r.text.split()})
    index = {w: i for i, w in enumerate(vocab)}
    counts = np.zeros((len(ds.records), len(vocab)))
    for r in ds.records:
        for w in r.text.split():
            counts[r.stock_id, index[w]] += 1
    labels = np.array([r.industry for r in ds.records])
    centroids = np.stack([counts[labels == c].mean(axis=0) for c in range(6)])
    predicted = np.argmin(
        ((counts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
    accuracy = (predicted == labels).mean()
    assert accuracy > 0.9


def _node_weighted_mi(pairs_by_node, n_classes):
    """MI between a node's label and its neighbor labels, nodes equally weighted."""
    joint = np.zeros((n_classes, n_classes))
    for label, neigh_labels in pairs_by_node:
        if not neigh_labels:
            continue
        w = 1.0 / len(neigh_labels)
        for nl in neigh_labels:
            joint[label, nl] += w
    total = joint.sum()
    if total == 0:
        return 0.0
    joint /= total
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log(joint[mask] / (px @ py)[mask])).sum())


def test_direction_signal_concentrates_information_on_in_edges():
    spec = GeneratorSpec(n=200, sectors=4, industries=6, vocab_size=200,
                         tokens_per_doc=8, graph_signal=0.9,
                         direction_signal=1.0, seed=2)
    ds = generate_synthetic(spec)
    labels = {r.stock_id: r.industry for r in ds.records}
    in_pairs = [(labels[v], [labels[u] for u, d in ds.graph.edges if d == v])
                for v in range(spec.n)]
    out_pairs = [(labels[v], [labels[d] for u, d in ds.graph.edges if u == v])
                 for v in range(spec.n)]
    mi_in = _node_weighted_mi(in_pairs, spec.industries)
    mi_out = _node_weighted_mi(out_pairs, spec.industries)
    assert mi_in > mi_out


def test_generated_labels_respect_taxonomy():
    ds = generate_synthetic(GeneratorSpec(n=50, sectors=4, industries=7, seed=3))
    assert all(r.sector == ds.taxonomy.sector_of(r.industry) for r in ds.records)


def test_dataset_roundtrip_through_files(tmp_path):
    spec = GeneratorSpec(n=30, sectors=3, industries=5, vocab_size=60,
                         tokens_per_doc=6, theme_count=2, seed=11)
    ds = generate_synthetic(spec)
    write_dataset(ds, tmp_path)
    records, id_map = load_nodes(tmp_path / "nodes.jsonl", ds.taxonomy)
    graph = load_edges(tmp_path / "edges.tsv", len(records))
    assert [(r.ticker, r.sector, r.industry) for r in records] == \
           [(r.ticker, r.sector, r.industry) for r in ds.records]
    assert set(graph.edges) == set(ds.graph.edges)
    themes = load_themes(tmp_path / "themes.jsonl", id_map, min_size=2)
    assert themes == ds.themes


# ---------------------------------------------------------------------------
# embedding export / import


def test_export_tsv_shape(tmp_path):
    path = tmp_path / "emb.tsv"
    export_embeddings(["A", "B"], np.arange(6.0).reshape(2, 3) + 1.0, path, "tsv")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "id\tdim=3"


def test_tsv_roundtrip_ids_and_values(tmp_path):
    path = tmp_path / "emb.tsv"
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(5, 4))
    export_embeddings([10, 2, 33, 4, 5], vectors, path, "tsv")
    ids, loaded = load_embeddings(path)
    assert ids == [10, 2, 33, 4, 5]
    assert np.max(np.abs(loaded - vectors)) < 1e-8


def test_binary_roundtrip_within_float32(tmp_path):
    path = tmp_path / "emb.bin"
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(4, 6))
    export_embeddings(["S1", "S2", "S3", "S4"], vectors, path, "binary")
    ids, loaded = load_embeddings(path)
    assert ids == ["S1", "S2", "S3", "S4"]
    assert np.max(np.abs(loaded - vectors)) < 1e-6  # float32 rounding


def test_binary_truncated_anywhere_is_data_error(tmp_path):
    path = tmp_path / "emb.bin"
    export_embeddings(["S1", "S22"], np.ones((2, 3)), path, "binary")
    blob = path.read_bytes()
    # cut inside the shape, the vectors, an id length and an id's bytes
    for cut in (6, 20, len(blob) - 6, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated"):
            load_embeddings(path)


def test_binary_header_claiming_more_than_the_file_is_data_error(tmp_path):
    path = tmp_path / "emb.bin"
    export_embeddings(["S1", "S22"], np.ones((2, 3)), path, "binary")
    blob = bytearray(path.read_bytes())
    # 2**32 - 1 vectors of 2**24 values: 2**58 bytes, far more than any
    # address space, so nothing can allocate the block before the check
    blob[4:12] = struct.pack("<II", 2**32 - 1, 2**24)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="truncated binary embedding block") as exc:
        load_embeddings(path)
    assert str(path) in str(exc.value)
    blob[4:12] = struct.pack("<II", 3, 3)  # one row more than the file holds
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="truncated binary embedding block"):
        load_embeddings(path)


def test_non_numeric_tsv_value_is_data_error_naming_path_and_line(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("id\tdim=2\nA\t1.0\t2.0\n\nB\t0.5\tx\n", encoding="utf-8")
    with pytest.raises(DataError, match="could not convert") as exc:
        load_embeddings(path)
    assert f"{path}:4:" in str(exc.value)


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
def test_non_utf8_embedding_id_is_data_error(tmp_path, fmt):
    path = tmp_path / "emb"
    export_embeddings(["S1", "S2"], np.ones((2, 3)), path, fmt)
    path.write_bytes(path.read_bytes().replace(b"S2", b"S\xe9"))  # a Latin-1 byte
    with pytest.raises(DataError, match="not UTF-8") as exc:
        load_embeddings(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
def test_ids_load_back_as_written(tmp_path, fmt):
    path = tmp_path / "emb"
    ids = ["0123", "1_000", "-0", "+5", " 7", "x", 0, -3, 1000]
    export_embeddings(ids, np.ones((len(ids), 2)), path, fmt)
    assert load_embeddings(path)[0] == ids


def test_empty_embedding_file_is_data_error_naming_the_path(tmp_path):
    tsv, binary = tmp_path / "emb.tsv", tmp_path / "emb.bin"
    tsv.write_text("id\tdim=3\n\n", encoding="utf-8")
    binary.write_bytes(b"SETE" + struct.pack("<II", 0, 3))
    for path in (tsv, binary):
        with pytest.raises(DataError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}: no embedding rows"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_tsv_value_is_data_error_naming_path_and_line(tmp_path, value):
    path = tmp_path / "emb.tsv"
    path.write_text(f"id\tdim=2\n0\t1\t2\n1\t3\t{value}\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-finite") as exc:
        load_embeddings(path)
    assert str(exc.value).startswith(f"{path}:3: ")


def test_non_finite_binary_value_is_data_error_naming_the_path(tmp_path):
    path = tmp_path / "emb.bin"
    # export refuses a non-finite row, so the last value is made a NaN afterwards
    export_embeddings(["A", "B"], np.array([[1.0, 2.0], [3.0, 4.0]]), path, "binary")
    path.write_bytes(path.read_bytes().replace(np.float32(4.0).tobytes(),
                                               np.float32(np.nan).tobytes()))
    with pytest.raises(DataError, match="vector 1 holds a non-finite value") as exc:
        load_embeddings(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
def test_repeated_embedding_id_is_data_error_naming_the_path(tmp_path, fmt):
    path = tmp_path / "emb"
    # export refuses a repeated id, so the third id is made a repeat afterwards
    export_embeddings([7, "x", 8], np.ones((3, 2)), path, fmt)
    path.write_bytes(path.read_bytes().replace(b"8", b"7"))
    with pytest.raises(DataError, match="repeated id 7") as exc:
        load_embeddings(path)
    assert str(exc.value).startswith(f"{path}:4: " if fmt == "tsv" else f"{path}: ")


def test_zero_dimension_embeddings_are_data_errors_naming_the_path(tmp_path):
    tsv, binary = tmp_path / "emb.tsv", tmp_path / "emb.bin"
    tsv.write_text("id\tdim=0\nA\nB\n", encoding="utf-8")
    binary.write_bytes(b"SETE" + struct.pack("<II", 2, 0) + (struct.pack("<I", 1) + b"A") * 2)
    for path, where in ((tsv, f"{tsv}:1"), (binary, str(binary))):
        with pytest.raises(DataError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{where}: embedding dimension must be at least 1, got 0"


def test_binary_id_length_past_the_file_is_truncation_not_an_allocation(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"SETE" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0)
                     + struct.pack("<I", 2**32 - 1) + b"A")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated id table at id 0 of 1"):
            load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_binary_embeddings_with_a_byte_appended_are_data_error_naming_the_path(tmp_path):
    path = tmp_path / "emb.bin"
    export_embeddings(["A", "B"], np.ones((2, 3)), path, "binary")
    assert load_embeddings(path)[0] == ["A", "B"]
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="unexpected bytes after the id table") as exc:
        load_embeddings(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_binary_embeddings_cut_inside_an_id_length_prefix_are_data_error(tmp_path):
    path = tmp_path / "emb.bin"
    export_embeddings(["LONGID", "B"], np.ones((2, 3)), path, "binary")
    blob = path.read_bytes()
    # the vectors and id 0 whole, then 2 of id 1's 4 length bytes: as many
    # bytes as the smallest id table needs, so only the prefix read sees the cut
    path.write_bytes(blob[:12 + 2 * 3 * 4 + 4 + 6 + 2])
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: truncated id table at id 1 of 2$"):
        load_embeddings(path)


@pytest.mark.parametrize("sid", ["a\tb", "a\nb", "a\rb", "\t", "ab\r\n"])
def test_tsv_export_of_an_id_with_a_tab_or_line_break_is_data_error_before_any_write(
        tmp_path, sid):
    path = tmp_path / "emb.tsv"
    ids = ["A", sid, "C"]
    with pytest.raises(DataError, match="--format binary") as exc:
        export_embeddings(ids, np.ones((3, 2)), path, "tsv")
    assert repr(sid) in str(exc.value)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old")
    with pytest.raises(DataError):
        export_embeddings(ids, np.ones((3, 2)), path, "tsv")
    assert path.read_bytes() == b"old" and list(tmp_path.iterdir()) == [path]
    export_embeddings(ids, np.ones((3, 2)), path, "binary")
    assert load_embeddings(path)[0] == ids


@pytest.mark.parametrize("fmt", ["tsv", "binary"])
def test_export_of_two_ids_written_alike_is_a_data_error_before_any_write(tmp_path, fmt):
    path = tmp_path / "emb"
    with pytest.raises(DataError) as exc:
        export_embeddings([1, "x", "1"], np.ones((3, 2)), path, fmt)
    assert str(exc.value) == ("ids 1 and '1' are both written as '1', "
                              "which would load as one repeated id")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, value, holds", [
    # a NaN row once exported, then loaded as "...:2: non-finite value"
    ("tsv", np.nan, "a non-finite value, which no format can load"),
    ("binary", np.nan, "a non-finite value, which no format can load"),
    ("binary", -np.inf, "a non-finite value, which no format can load"),
    # 1e300 overflowed float32 with a RuntimeWarning, then loaded as non-finite
    ("binary", 1e300, "a value beyond the 32-bit float range; write the TSV format"),
    ("binary", -3.5e38, "a value beyond the 32-bit float range; write the TSV format"),
])
def test_export_refuses_a_row_that_would_not_load_before_any_file_is_opened(
        tmp_path, monkeypatch, fmt, value, holds):
    def no_open(*args, **kwargs):
        raise AssertionError("export opened a file")

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(builtins, "open", no_open)
        with pytest.raises(DataError) as exc:
            export_embeddings(["A", "B"], np.array([[1.0, 2.0], [3.0, value]]),
                              tmp_path / "emb", fmt)
    assert str(exc.value).startswith(f"the embedding of id 'B' holds {holds}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, value", [("tsv", 1e300), ("binary", 3.4028235e38)])
def test_export_round_trips_a_value_at_the_edge_of_what_its_format_holds(tmp_path, fmt, value):
    path = tmp_path / "emb"
    vectors = np.array([[1.0, 2.0], [3.0, value]])
    export_embeddings(["A", "B"], vectors, path, fmt)
    ids, back = load_embeddings(path)
    assert ids == ["A", "B"]
    assert np.allclose(back, vectors, rtol=1e-7)


def _open_failing_on_the_second_write(*args, **kwargs):
    """``open`` whose file raises ENOSPC on its second write, as a full disk would."""
    fh = builtins.open(*args, **kwargs)
    write, count = fh.write, [0]

    def failing_write(data):
        count[0] += 1
        if count[0] > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(data)

    fh.write = failing_write
    return fh


def _write_output(path, writer, seed):
    if writer == "checkpoint":
        config = TrainConfig(hidden_dim=4, encoder_depth=1, max_tokens=4, seed=seed)
        save_model(build_model(config, Vocab.build(["a b"]), 2, 3), path, config)
    elif writer == "vocab":
        Vocab.build([f"a{seed} b"]).to_file(path)
    elif writer == "taxonomy":
        Taxonomy([f"S{seed}"], ["I0", "I1"], {0: 0, 1: 0}).to_file(path)
    elif writer == "dataset":
        write_dataset(generate_synthetic(GeneratorSpec(n=30, sectors=3, industries=5,
                                                       vocab_size=60, seed=seed)), path)
    else:
        export_embeddings([f"A{seed}", "B"], np.full((2, 3), seed), path, writer)


def _files(root):
    """Every file under ``root``: its path relative to ``root`` -> its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("writer", ["tsv", "binary", "checkpoint", "vocab", "taxonomy", "dataset"])
def test_a_write_that_fails_midway_leaves_the_old_file_byte_identical_and_no_temporary(
        tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    _write_output(path, writer, 0)
    old = _files(tmp_path)
    monkeypatch.setattr(errors_module, "open", _open_failing_on_the_second_write, raising=False)
    with pytest.raises(OSError, match="No space left"):
        _write_output(path, writer, 1)
    assert _files(tmp_path) == old
    monkeypatch.undo()
    _write_output(path, writer, 1)
    new = _files(tmp_path)
    assert new.keys() == old.keys() and new != old


@pytest.mark.parametrize("failing", ["themes.jsonl", "vocab.txt", "taxonomy.json"])
def test_a_dataset_write_that_fails_on_a_later_file_replaces_none_of_the_five(
        tmp_path, monkeypatch, failing):
    def dataset(seed):
        return generate_synthetic(GeneratorSpec(n=30, sectors=3, industries=5,
                                                vocab_size=60, seed=seed))

    write_dataset(dataset(0), tmp_path)
    old = _files(tmp_path)
    assert len(old) == 5

    def open_on_a_full_disk(file, *args, **kwargs):
        fh = builtins.open(file, *args, **kwargs)
        if str(file).startswith(str(tmp_path / failing) + "."):
            def full(_data):
                raise OSError(errno.ENOSPC, "No space left on device")
            fh.write = full
        return fh

    monkeypatch.setattr(errors_module, "open", open_on_a_full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_dataset(dataset(1), tmp_path)
    assert _files(tmp_path) == old  # every old file, and no temporary one
    monkeypatch.undo()
    write_dataset(dataset(1), tmp_path)
    assert sum(_files(tmp_path)[name] != old[name] for name in old) >= 3


class _FullDisk(io.FileIO):
    """A file on a full disk: a write that reaches it raises ENOSPC."""

    def write(self, _data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["nodes.jsonl", "themes.jsonl", "vocab.txt"])
def test_a_dataset_write_whose_full_disk_shows_only_at_flush_replaces_none_of_the_five(
        tmp_path, monkeypatch, failing):
    # each of these files fits in its buffer, so the disk refuses it only when
    # the buffer is flushed, which must come before any file is replaced
    write_dataset(generate_synthetic(GeneratorSpec(n=30, sectors=3, industries=5,
                                                   vocab_size=60, seed=0)), tmp_path)
    old = _files(tmp_path)

    def open_on_a_full_disk(file, mode, encoding=None):
        if not str(file).startswith(str(tmp_path / failing) + "."):
            return builtins.open(file, mode, encoding=encoding)
        return io.TextIOWrapper(io.BufferedWriter(_FullDisk(file, mode)), encoding=encoding)

    monkeypatch.setattr(errors_module, "open", open_on_a_full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_dataset(generate_synthetic(GeneratorSpec(n=30, sectors=3, industries=5,
                                                       vocab_size=60, seed=1)), tmp_path)
    assert _files(tmp_path) == old


def test_a_dataset_write_over_a_directory_refuses_before_replacing_any_file(tmp_path):
    write_dataset(generate_synthetic(GeneratorSpec(n=30, sectors=3, industries=5,
                                                   vocab_size=60, seed=0)), tmp_path)
    (tmp_path / "vocab.txt").unlink()
    (tmp_path / "vocab.txt").mkdir()
    old = _files(tmp_path)
    assert len(old) == 4
    with pytest.raises(DataError, match="vocab.txt") as exc:
        write_dataset(generate_synthetic(GeneratorSpec(n=30, sectors=3, industries=5,
                                                       vocab_size=60, seed=1)), tmp_path)
    assert str(tmp_path / "vocab.txt") in str(exc.value)
    assert _files(tmp_path) == old  # the four old files, and no temporary one
    assert (tmp_path / "vocab.txt").is_dir()


def test_export_into_a_missing_directory_names_the_path_asked_for(tmp_path):
    path = tmp_path / "missing" / "emb.tsv"
    with pytest.raises(FileNotFoundError) as exc:
        export_embeddings(["A"], np.ones((1, 2)), path, "tsv")
    assert exc.value.filename == str(path)


def _loads_valid_embeddings_or_setn_error(path):
    try:
        ids, vectors = load_embeddings(path)
    except SetnError:
        return
    assert vectors.dtype == np.float64 and vectors.ndim == 2
    assert vectors.shape[0] == len(ids) >= 1 and vectors.shape[1] >= 1
    assert np.isfinite(vectors).all()
    assert len(set(ids)) == len(ids)


_EMBEDDING_IDS = st.sampled_from(["1", "01", "a", "", "é"]) | st.text(max_size=3)


@st.composite
def _binary_embedding_files(draw):
    """A binary embedding file of up to 3 vectors of up to 3 values of any
    float32, with ids that may repeat, then cut short or trailed by any bytes."""
    n, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    values = draw(st.lists(st.floats(width=32), min_size=n * d, max_size=n * d))
    blob = b"SETE" + struct.pack(f"<II{n * d}f", n, d, *values)
    for sid in draw(st.lists(_EMBEDDING_IDS, min_size=n, max_size=n)):
        encoded = sid.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob)))]
    return blob + draw(st.binary(max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(content=_binary_embedding_files() | st.binary(max_size=32).map(lambda b: b"SETE" + b)
       | st.binary(max_size=32))
def test_binary_embeddings_with_any_bytes_load_valid_or_raise_setn_errors(tmp_path_factory,
                                                                          content):
    path = tmp_path_factory.mktemp("emb") / "emb.bin"
    path.write_bytes(content)
    _loads_valid_embeddings_or_setn_error(path)


_TSV_VALUE = st.sampled_from(["1", "-0.5", "0", "nan", "inf", "-inf", "1e400", "x", ""])
_TSV_ROW = st.builds(lambda sid, values: "\t".join([sid, *values]), _EMBEDDING_IDS,
                     st.lists(_TSV_VALUE | st.floats().map(repr), max_size=3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(header=st.sampled_from(["id\tdim=0", "id\tdim=1", "id\tdim=2", "id\tdim=x", "dim=2"])
       | st.text(max_size=8),
       rows=st.lists(_TSV_ROW | st.text(max_size=8), max_size=4), tail=st.binary(max_size=4))
def test_tsv_embeddings_with_any_lines_load_valid_or_raise_setn_errors(tmp_path_factory,
                                                                       header, rows, tail):
    path = tmp_path_factory.mktemp("emb") / "emb.tsv"
    path.write_bytes("".join(line + "\n" for line in [header, *rows]).encode("utf-8") + tail)
    _loads_valid_embeddings_or_setn_error(path)


def test_reimported_tsv_preserves_knn_ranking(tmp_path):
    from setn.evaluation import EmbeddingMatrix, cosine_knn
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(12, 5))
    ids = list(range(12))
    path = tmp_path / "emb.tsv"
    export_embeddings(ids, vectors, path, "tsv")
    loaded_ids, loaded = load_embeddings(path)
    original = EmbeddingMatrix(ids, vectors)
    reloaded = EmbeddingMatrix(loaded_ids, loaded)
    for q in ids:
        assert cosine_knn(original, q, 5) == cosine_knn(reloaded, q, 5)


def test_export_load_export_is_stable(tmp_path):
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(3, 4))
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    export_embeddings(["X", "Y", "Z"], vectors, first, "tsv")
    ids, loaded = load_embeddings(first)
    export_embeddings(ids, loaded, second, "tsv")
    assert first.read_bytes() == second.read_bytes()


def test_export_rejects_bad_input(tmp_path):
    with pytest.raises(DataError):
        export_embeddings(["A"], np.zeros((0, 3)), tmp_path / "x.tsv")
    with pytest.raises(DataError):
        export_embeddings(["A", "B"], np.zeros((1, 3)), tmp_path / "x.tsv")


# ---------------------------------------------------------------------------
# zero-signal universes are uninformative for training (slow-ish, kept small)


def test_zero_signal_training_matches_random_baseline():
    from setn.evaluation import EmbeddingMatrix, embed_universe, map_at_k
    from setn.text import Vocab
    from setn.training import TrainConfig, build_model, prepare_graph, split_dataset, train

    trained_scores, random_scores = [], []
    for seed in range(5):
        spec = GeneratorSpec(n=150, sectors=3, industries=4, vocab_size=100,
                             tokens_per_doc=8, avg_degree=4, graph_signal=0.0,
                             direction_signal=0.0, text_signal=0.0, seed=seed)
        ds = generate_synthetic(spec)
        cfg = TrainConfig(epochs=2, hidden_dim=8, encoder_depth=1, seed=seed,
                          max_tokens=16)
        vocab = Vocab.build(r.text for r in ds.records)
        ids = [r.stock_id for r in ds.records]
        split = split_dataset(ids, cfg.proportions, cfg.seed)
        model = build_model(cfg, vocab, n_sectors=3, n_industries=4)
        train(model, ds.graph, ds.records, split, cfg)
        g = prepare_graph(ds.graph, cfg)
        labels = {r.stock_id: r.sector for r in ds.records}
        emb = embed_universe(model, g, ds.records, split.test)
        trained_scores.append(map_at_k(emb, labels, ks=(5,))[5])
        # the uninformative baseline, averaged over many draws to pin it down
        rng = np.random.default_rng(seed + 100)
        random_scores.append(np.mean([
            map_at_k(EmbeddingMatrix(split.test, rng.normal(size=emb.vectors.shape)),
                     labels, ks=(5,))[5]
            for _ in range(10)
        ]))
    assert abs(np.mean(trained_scores) - np.mean(random_scores)) <= 0.05
