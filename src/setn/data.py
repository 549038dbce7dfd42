"""Input formats, the built-in sector/industry taxonomy, synthetic data, and
embedding import/export.

File formats (all bit-exact):
  nodes.jsonl   one {"ticker", "text", "topix17", "topix33"} object per line
  edges.tsv     one "src<TAB>dst" integer pair per line, direction cause -> effect
  themes.jsonl  one {"theme", "members": [tickers]} object per line
  vocab.txt     one token, free of whitespace, per line; empty lines are
                skipped, and the k-th token (from 0) has id k + 3
  embeddings    .tsv (header "id\\tdim=<d>") or binary ("SETE", n, d, float32 LE)
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import struct
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (DataError, is_finite_number, is_int_type, open_text, replacing,
                     require_int)
from .graph import StockGraph
from .text import Vocab

logger = logging.getLogger(__name__)

# Tokyo Stock Exchange sector/industry hierarchy. Names are transcribed
# verbatim from the published table, including its two misspellings
# ("PHAMACEUTICAL", "ELECTRIC POWERT&GAS"); corrected spellings are
# accepted as aliases on load.
_INDUSTRY_SECTOR_PAIRS: tuple[tuple[str, str], ...] = (
    ("Fishery, Agriculture & Forestry", "FOODS"),
    ("Foods", "FOODS"),
    ("Mining", "ENERGY RESOURCES"),
    ("Oil and Coal Products", "ENERGY RESOURCES"),
    ("Construction", "CONSTRUCTION&MATERIALS"),
    ("Metal Products", "CONSTRUCTION&MATERIALS"),
    ("Glass and Ceramics Products", "CONSTRUCTION&MATERIALS"),
    ("Textiles and Apparels", "RAW MATERIALS&CHEMICALS"),
    ("Pulp and Paper", "RAW MATERIALS&CHEMICALS"),
    ("Chemicals", "RAW MATERIALS&CHEMICALS"),
    ("Pharmaceutical", "PHAMACEUTICAL"),
    ("Rubber Products", "AUTOMOBILES&TRANSPORTATION EQUIPMENT"),
    ("Transportation Equipment", "AUTOMOBILES&TRANSPORTATION EQUIPMENT"),
    ("Iron and Steel", "STEEL&NONFERROUS METALS"),
    ("Nonferrous Metals", "STEEL&NONFERROUS METALS"),
    ("Machinery", "MACHINERY"),
    ("Electric Appliances", "ELECTRIC APPLIANCES&PRECISION INSTRUMENTS"),
    ("Precision Instruments", "ELECTRIC APPLIANCES&PRECISION INSTRUMENTS"),
    ("Other Products", "IT&SERVICES, OTHERS"),
    ("Information & Communication", "IT&SERVICES, OTHERS"),
    ("Services", "IT&SERVICES, OTHERS"),
    ("Electric Power and Gas", "ELECTRIC POWERT&GAS"),
    ("Land Transportation", "TRANSPORTATION&LOGISTICS"),
    ("Marine Transportation", "TRANSPORTATION&LOGISTICS"),
    ("Air Transportation", "TRANSPORTATION&LOGISTICS"),
    ("Warehousing and Harbor Transportation", "TRANSPORTATION&LOGISTICS"),
    ("Wholesale Trade", "COMMERCIAL&WHOLESALE TRADE"),
    ("Retail Trade", "RETAIL TRADE"),
    ("Banks", "BANKS"),
    ("Securities and Commodities Futures", "FINANCIAL(EXCEPT BANKS)"),
    ("Insurance", "FINANCIAL(EXCEPT BANKS)"),
    ("Other Financing Business", "FINANCIAL(EXCEPT BANKS)"),
    ("Real Estate", "REAL ESTATE"),
)

_SECTOR_ALIASES = {
    "PHARMACEUTICAL": "PHAMACEUTICAL",
    "ELECTRIC POWER&GAS": "ELECTRIC POWERT&GAS",
}


def _norm_label(name: str) -> str:
    collapsed = " ".join(name.split())
    return re.sub(r"\s*&\s*", "&", collapsed).casefold()


@dataclass
class StockRecord:
    """One stock: identifier, description text, and its two taxonomy labels."""

    stock_id: int
    ticker: str
    text: str
    sector: int     # 17-level class id
    industry: int   # 33-level class id


@dataclass
class Taxonomy:
    """Two-level label hierarchy; every industry maps to exactly one sector:
    ``industry_to_sector`` maps each industry index, and nothing else, to a
    sector index."""

    sectors: list[str]
    industries: list[str]
    industry_to_sector: dict[int, int]

    def __post_init__(self):
        for field in ("sectors", "industries"):
            for name in getattr(self, field):
                if not isinstance(name, str):
                    raise DataError(f"each name in {field!r} must be a string, got {name!r}")
        indices = range(len(self.industries))
        extra = [key for key in self.industry_to_sector
                 if not (is_int_type(type(key)) and key in indices)]
        if extra:
            raise DataError(f"industry_to_sector keys {extra} are not industry indices "
                            f"in [0, {len(indices)})")
        missing = set(indices) - set(self.industry_to_sector)
        if missing:
            raise DataError(f"industries without a sector: {sorted(missing)}")
        self.industry_to_sector = {
            i: require_int(self.industry_to_sector[i], f"the sector of industry {i} ({name!r})",
                           0, len(self.sectors) - 1)
            for i, name in enumerate(self.industries)}
        self._sector_ids = self._label_ids("sector", self.sectors)
        self._industry_ids = self._label_ids("industry", self.industries)
        for alias, canonical in _SECTOR_ALIASES.items():
            key = _norm_label(canonical)
            if key in self._sector_ids:
                self._sector_ids.setdefault(_norm_label(alias), self._sector_ids[key])

    @staticmethod
    def _label_ids(kind: str, names: list[str]) -> dict[str, int]:
        """Normalized label -> index; labels are looked up normalized, so two
        names equal after normalization are duplicates."""
        ids: dict[str, int] = {}
        for i, name in enumerate(names):
            first = ids.setdefault(_norm_label(name), i)
            if first != i:
                raise DataError(f"duplicate {kind} names {names[first]!r} and {name!r}")
        return ids

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    @property
    def n_industries(self) -> int:
        return len(self.industries)

    def sector_id(self, name: str) -> int:
        key = _norm_label(name)
        if key not in self._sector_ids:
            raise DataError(f"unknown sector label {name!r}")
        return self._sector_ids[key]

    def industry_id(self, name: str) -> int:
        key = _norm_label(name)
        if key not in self._industry_ids:
            raise DataError(f"unknown industry label {name!r}")
        return self._industry_ids[key]

    def sector_of(self, industry: int) -> int:
        return self.industry_to_sector[industry]

    @classmethod
    def default(cls) -> "Taxonomy":
        sectors: list[str] = []
        industries: list[str] = []
        mapping: dict[int, int] = {}
        for industry, sector in _INDUSTRY_SECTOR_PAIRS:
            if sector not in sectors:
                sectors.append(sector)
            mapping[len(industries)] = sectors.index(sector)
            industries.append(industry)
        return cls(sectors, industries, mapping)

    @classmethod
    def from_file(cls, path) -> "Taxonomy":
        """JSON with "sectors", "industries" and "industry_to_sector"
        (industry name to sector name)."""
        with open_text(path) as fh:
            obj = _parse_json(fh.read(), path, "taxonomy JSON")
        if not isinstance(obj, dict):
            raise DataError(f"{path}: expected a JSON object")
        for key, kind in (("sectors", list), ("industries", list), ("industry_to_sector", dict)):
            names = obj.get(key)
            if not isinstance(names, kind):
                raise DataError(f"{path}: key {key!r} missing or not a JSON {kind.__name__}")
            for name in names.values() if kind is dict else names:
                if not isinstance(name, str):
                    raise DataError(f"{path}: each name in {key!r} must be a JSON string, "
                                    f"got {json.dumps(name)}")
        sectors, industries = obj["sectors"], obj["industries"]
        mapping = {}
        for ind_name, sec_name in obj["industry_to_sector"].items():
            if ind_name not in industries:
                raise DataError(f"{path}: unknown industry {ind_name!r} in industry_to_sector")
            if sec_name not in sectors:
                raise DataError(f"{path}: unknown sector {sec_name!r} for industry {ind_name!r}")
            mapping[industries.index(ind_name)] = sectors.index(sec_name)
        try:
            return cls(sectors, industries, mapping)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def to_file(self, path) -> None:
        with replacing(path, "w") as fh:
            self.write(fh)

    def write(self, fh) -> None:
        """The JSON that ``from_file`` reads, industry_to_sector by name."""
        json.dump({
            "sectors": self.sectors,
            "industries": self.industries,
            "industry_to_sector": {self.industries[i]: self.sectors[s]
                                   for i, s in sorted(self.industry_to_sector.items())},
        }, fh, sort_keys=True, indent=2)
        fh.write("\n")


DEFAULT_TAXONOMY = Taxonomy.default()


# ---------------------------------------------------------------------------
# loaders


def _parse_json(text: str, where, what: str):
    """``json.loads(text)`` of text in which no object repeats a key; a
    failure is a DataError at ``where`` naming ``what``."""
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DataError(f"{where}: {what} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: malformed {what} ({exc.msg})") from exc
    except DataError:  # a repeated key, which is a ValueError too
        raise
    except ValueError as exc:  # the only other ValueError: an integer past int's digit limit
        raise DataError(f"{where}: {what} holds an integer of more than "
                        f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise DataError(f"{where}: {what} nested too deeply") from exc


def _iter_jsonl(path):
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            obj = _parse_json(line, f"{path}:{lineno}", "JSON")
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def _require_str(value, what: str, path, lineno: int) -> str:
    """``value`` when it is a JSON string; otherwise a DataError at
    ``path:lineno`` naming ``what``."""
    if not isinstance(value, str):
        raise DataError(f"{path}:{lineno}: {what} must be a JSON string, got {json.dumps(value)}")
    return value


def load_nodes(path, taxonomy: Optional[Taxonomy] = None) -> tuple[list[StockRecord], dict[str, int]]:
    """Parse nodes.jsonl into records with dense ids; also return ticker -> id.

    The industry label (topix33) is required; the sector label (topix17) is
    optional and implied by the taxonomy when absent or null. A given sector
    must be the one the taxonomy assigns to the industry.
    """
    taxonomy = taxonomy or DEFAULT_TAXONOMY
    records: list[StockRecord] = []
    id_map: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(path):
        for key in ("ticker", "text", "topix33"):
            if key not in obj:
                raise DataError(f"{path}:{lineno}: missing key {key!r}")
        ticker, text, topix33 = (_require_str(obj[key], repr(key), path, lineno)
                                 for key in ("ticker", "text", "topix33"))
        if ticker in id_map:
            raise DataError(f"{path}:{lineno}: duplicate ticker {ticker!r}")
        topix17 = obj.get("topix17")
        if topix17 is not None:
            _require_str(topix17, "'topix17'", path, lineno)
        try:
            industry = taxonomy.industry_id(topix33)
            sector = taxonomy.sector_of(industry)
            contradicts = topix17 is not None and taxonomy.sector_id(topix17) != sector
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if contradicts:
            raise DataError(f"{path}:{lineno}: topix17 {topix17!r} contradicts topix33 "
                            f"{topix33!r}, whose sector is {taxonomy.sectors[sector]!r}")
        stock_id = len(records)
        id_map[ticker] = stock_id
        records.append(StockRecord(stock_id, ticker, text, sector, industry))
    return records, id_map


def load_edges(path, n_nodes: int) -> StockGraph:
    """Parse edges.tsv into a directed graph. Self-loops and duplicates are
    dropped with a warning."""
    edges: list[tuple[int, int]] = []
    seen = set()
    dropped = 0
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'src<TAB>dst', got {line!r}")
            if not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):  # not "+1" or "1_0"
                raise DataError(f"{path}:{lineno}: non-integer node id in {line!r}")
            try:
                s, d = int(parts[0]), int(parts[1])
            except ValueError as exc:  # an id past int's digit limit
                raise DataError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc
            if not (0 <= s < n_nodes and 0 <= d < n_nodes):
                raise DataError(f"{path}:{lineno}: edge ({s}, {d}) outside node range [0, {n_nodes})")
            if s == d or (s, d) in seen:
                dropped += 1
                continue
            seen.add((s, d))
            edges.append((s, d))
    if dropped:
        logger.warning("%s: dropped %d self-loop/duplicate edges", path, dropped)
    return StockGraph(n_nodes, tuple(edges))


def load_themes(path, id_map: Mapping[str, int],
                universe: Optional[Iterable[int]] = None,
                min_size: int = 16) -> dict[str, tuple[int, ...]]:
    """Parse themes.jsonl, mapping member tickers to ids.

    Members outside ``id_map`` (or outside ``universe`` when given) are
    removed; themes that end up below ``min_size`` members are dropped.
    """
    allowed = set(universe) if universe is not None else None
    themes: dict[str, tuple[int, ...]] = {}
    dropped = 0
    for lineno, obj in _iter_jsonl(path):
        if "theme" not in obj or "members" not in obj:
            raise DataError(f"{path}:{lineno}: theme line needs 'theme' and 'members'")
        name = _require_str(obj["theme"], "'theme'", path, lineno)
        if name in themes:
            raise DataError(f"{path}:{lineno}: duplicate theme {name!r}")
        tickers = obj["members"]
        if not isinstance(tickers, list):
            raise DataError(f"{path}:{lineno}: theme 'members' must be a JSON list, "
                            f"got {type(tickers).__name__}")
        members = []
        for ticker in tickers:
            sid = id_map.get(_require_str(ticker, "each of 'members'", path, lineno))
            if sid is None:
                continue
            if allowed is not None and sid not in allowed:
                continue
            if sid not in members:
                members.append(sid)
        if len(members) < max(min_size, 2):
            dropped += 1
            continue
        themes[name] = tuple(members)
    if dropped:
        logger.warning("%s: dropped %d themes below %d in-universe members", path, dropped, min_size)
    return themes


# ---------------------------------------------------------------------------
# synthetic universes


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for the synthetic universe generator.

    ``graph_signal`` is the within-class preference of incoming edges,
    ``direction_signal`` routes the uninformative outgoing edges onto a few
    hub nodes, so at 1.0 only the cause side of an edge carries label
    information. ``text_signal`` is the share of class-specific tokens.

    Every text has ``tokens_per_doc`` words unless ``min_tokens_per_doc`` is
    set. Then each length is drawn uniformly from [``min_tokens_per_doc``,
    ``tokens_per_doc``] on a stream of its own, so labels, graph and themes
    are those of the fixed-length universe and each text is a prefix of its
    fixed-length one.
    """

    n: int = 300
    sectors: int = 17
    industries: int = 33
    vocab_size: int = 400
    tokens_per_doc: int = 24
    min_tokens_per_doc: int = 0
    avg_degree: int = 6
    graph_signal: float = 0.6
    direction_signal: float = 0.0
    text_signal: float = 0.6
    theme_count: int = 8
    seed: int = 0


@dataclass
class Dataset:
    records: list[StockRecord]
    graph: StockGraph
    themes: dict[str, tuple[int, ...]]
    taxonomy: Taxonomy


def generate_synthetic(spec: GeneratorSpec) -> Dataset:
    """Deterministic synthetic universe: labels first, then class-conditional
    texts, preferential edges, and themes."""
    for name, least in (("n", 2), ("sectors", 1), ("industries", 1), ("vocab_size", 1),
                        ("tokens_per_doc", 0), ("min_tokens_per_doc", 0), ("avg_degree", 0),
                        ("theme_count", 0), ("seed", 0)):
        require_int(getattr(spec, name), name, least)
    for name in ("graph_signal", "direction_signal", "text_signal"):
        value = getattr(spec, name)
        if not (is_finite_number(value) and 0 <= value <= 1):
            raise DataError(f"{name} must be a number in [0, 1], got {value!r}")
    if spec.industries < spec.sectors:
        raise DataError("need at least as many industries as sectors")
    if spec.industries > spec.n:
        raise DataError(f"{spec.industries} industries exceed {spec.n} stocks")
    shared_vocab = max(2, spec.vocab_size // 3)
    per_class = (spec.vocab_size - shared_vocab) // spec.industries
    if per_class < 1:
        raise DataError(f"vocab size {spec.vocab_size} too small for {spec.industries} industries")

    if spec.min_tokens_per_doc and not 1 <= spec.min_tokens_per_doc <= spec.tokens_per_doc:
        raise DataError(f"min_tokens_per_doc {spec.min_tokens_per_doc} outside "
                        f"[1, tokens_per_doc={spec.tokens_per_doc}]")
    rng = np.random.default_rng(spec.seed)
    lengths = [spec.tokens_per_doc] * spec.n
    if spec.min_tokens_per_doc:
        lengths = np.random.default_rng([spec.seed, 1]).integers(
            spec.min_tokens_per_doc, spec.tokens_per_doc + 1, size=spec.n).tolist()

    # surjective industry -> sector map
    sector_of = [i if i < spec.sectors else int(rng.integers(spec.sectors))
                 for i in range(spec.industries)]
    taxonomy = Taxonomy(
        sectors=[f"SECTOR{i:02d}" for i in range(spec.sectors)],
        industries=[f"Industry {i:02d}" for i in range(spec.industries)],
        industry_to_sector=dict(enumerate(sector_of)),
    )

    # balanced industry labels
    labels = np.array([i % spec.industries for i in range(spec.n)])
    rng.shuffle(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(spec.industries)]

    # class-conditional token pools over a shared background vocabulary
    words = [f"w{j:04d}" for j in range(spec.vocab_size)]
    shared = words[:shared_vocab]
    pools = [words[shared_vocab + c * per_class: shared_vocab + (c + 1) * per_class]
             for c in range(spec.industries)]

    records = []
    for i in range(spec.n):
        pool_c = pools[labels[i]]
        toks = []
        for _ in range(spec.tokens_per_doc):
            if rng.random() < spec.text_signal:
                toks.append(pool_c[int(rng.integers(len(pool_c)))])
            else:
                toks.append(shared[int(rng.integers(len(shared)))])
        records.append(StockRecord(i, f"S{i:04d}", " ".join(toks[:lengths[i]]),
                                   sector_of[labels[i]], int(labels[i])))

    # informative in-edges plus noise out-edges; at direction_signal 1 the
    # noise lands on hub nodes, leaving in-neighborhoods clean
    hubs = np.sort(rng.choice(spec.n, size=max(2, spec.n // 40), replace=False))
    edges: set[tuple[int, int]] = set()

    def _other(v: int) -> int:
        u = int(rng.integers(spec.n - 1))
        return u if u < v else u + 1

    for v in range(spec.n):
        mates = by_class[labels[v]]
        for _ in range(spec.avg_degree):
            if rng.random() < spec.graph_signal and len(mates) > 1:
                u = v
                while u == v:
                    u = int(mates[rng.integers(len(mates))])
            else:
                u = _other(v)
            edges.add((u, v))
        for _ in range(max(1, spec.avg_degree // 2)):
            if rng.random() < spec.direction_signal:
                w = int(hubs[rng.integers(len(hubs))])
                if w == v:
                    continue
            else:
                w = _other(v)
            edges.add((v, w))

    # half label-correlated themes, half label-orthogonal
    themes: dict[str, tuple[int, ...]] = {}
    for t in range(spec.theme_count):
        size = int(rng.integers(12, 21))
        if t % 2 == 0:
            c = int(rng.integers(spec.industries))
            members = by_class[c]
            size = min(size, len(members))
            chosen = rng.choice(members, size=size, replace=False)
        else:
            chosen = rng.choice(spec.n, size=min(size, spec.n), replace=False)
        if len(chosen) >= 2:
            themes[f"theme{t:02d}"] = tuple(int(m) for m in np.sort(chosen))

    graph = StockGraph(spec.n, tuple(sorted(edges)))
    return Dataset(records, graph, themes, taxonomy)


def write_dataset(dataset: Dataset, out_dir) -> list[str]:
    """Write nodes.jsonl, edges.tsv, themes.jsonl, vocab.txt and
    taxonomy.json; returns their paths. A target that is a directory is a
    DataError before any file is opened. No file replaces its old version
    until all five are written and flushed, so a write that fails until then
    leaves the old dataset as it was. The five replacements are separate
    renames: one that fails after another has completed leaves a mix of new
    and old files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tax = dataset.taxonomy
    paths = [out / name for name in
             ("nodes.jsonl", "edges.tsv", "themes.jsonl", "vocab.txt", "taxonomy.json")]
    taken = [str(path) for path in paths if path.is_dir()]
    if taken:
        raise DataError(f"cannot write the dataset over directories: {', '.join(taken)}")
    with ExitStack() as stack:
        files = [stack.enter_context(replacing(path, "w")) for path in paths]
        nodes, edges, themes, vocab, taxonomy = files
        for r in dataset.records:
            nodes.write(json.dumps({
                "ticker": r.ticker,
                "text": r.text,
                "topix17": tax.sectors[r.sector],
                "topix33": tax.industries[r.industry],
            }, sort_keys=True) + "\n")
        for s, d in dataset.graph.edges:
            edges.write(f"{s}\t{d}\n")
        ticker_of = {r.stock_id: r.ticker for r in dataset.records}
        for name, members in dataset.themes.items():
            themes.write(json.dumps({"theme": name, "members": [ticker_of[m] for m in members]},
                                sort_keys=True) + "\n")
        Vocab.build(r.text for r in dataset.records).write(vocab)
        tax.write(taxonomy)
        # a full disk often shows only when the buffer reaches the file;
        # that must happen before the stack replaces the first target
        for fh in files:
            fh.flush()
    return [str(path) for path in paths]


# ---------------------------------------------------------------------------
# embedding import/export

_EMB_MAGIC = b"SETE"


def export_embeddings(ids: Sequence, vectors: np.ndarray, path, fmt: str = "tsv") -> None:
    """Write embeddings as TSV (9 significant digits) or 32-bit binary,
    through a new file that replaces ``path`` only once it is complete."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DataError(f"expected a non-empty [n, d] matrix, got shape {vectors.shape}")
    if len(ids) != vectors.shape[0]:
        raise DataError(f"{len(ids)} ids for {vectors.shape[0]} embedding rows")
    n, d = vectors.shape
    names: dict[str, int] = {}  # each id as written -> its index
    for i, sid in enumerate(ids):
        first = names.setdefault(str(sid), i)
        if first != i:
            raise DataError(f"ids {ids[first]!r} and {sid!r} are both written as {str(sid)!r}, "
                            "which would load as one repeated id")
    _require_finite_rows(ids, vectors, "a non-finite value, which no format can load")
    if fmt == "tsv":
        for name in names:
            if re.search("[\t\n\r]", name):
                raise DataError(f"id {name!r} holds a tab or a line break, which a TSV row "
                                "cannot hold; write the binary format (--format binary)")
        with replacing(path, "w") as fh:
            fh.write(f"id\tdim={d}\n")
            for name, row in zip(names, vectors):
                fh.write(name + "\t" + "\t".join(f"{v:.9g}" for v in row) + "\n")
    elif fmt == "binary":
        with np.errstate(over="ignore"):
            single = vectors.astype("<f4")
        _require_finite_rows(ids, single, "a value beyond the 32-bit float range; "
                                          "write the TSV format (--format tsv)")
        with replacing(path, "wb") as fh:
            fh.write(_EMB_MAGIC)
            fh.write(struct.pack("<II", n, d))
            fh.write(single.tobytes())
            for name in names:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
    else:
        raise DataError(f"unknown embedding format {fmt!r}")


def _require_finite_rows(ids: Sequence, vectors: np.ndarray, holds: str) -> None:
    """A DataError naming the id of the first row that is not all finite."""
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise DataError(f"the embedding of id {ids[bad[0]]!r} holds {holds}")


def _parse_id(token: str):
    """The int that ``str`` writes as ``token``, else ``token``: "0123" stays a string."""
    try:
        return int(token) if str(int(token)) == token else token
    except ValueError:
        return token


def load_embeddings(path) -> tuple[list, np.ndarray]:
    """Read embeddings written by ``export_embeddings`` (either format)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _EMB_MAGIC:
            shape = fh.read(8)
            if len(shape) != 8:
                raise DataError(f"{path}: truncated binary embedding header")
            n, d = struct.unpack("<II", shape)
            if n == 0:
                raise DataError(f"{path}: no embedding rows")
            if d == 0:
                raise DataError(f"{path}: embedding dimension must be at least 1, got 0")
            # every row takes 4 bytes per value and at least a 4-byte id
            # length; check that against the file before reading the block
            need, left = n * (d + 1) * 4, os.fstat(fh.fileno()).st_size - fh.tell()
            if need > left:
                raise DataError(f"{path}: truncated binary embedding block: the header claims "
                                f"{n} vectors of {d} values, {need} bytes or more, "
                                f"but {left} bytes follow")
            raw = fh.read(n * d * 4)
            with np.errstate(invalid="ignore"):  # a signalling NaN; the check below names it
                vectors = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, d)
            bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
            if bad.size:
                raise DataError(f"{path}: vector {bad[0]} holds a non-finite value")
            ids, seen = [], set()
            for i in range(n):
                prefix = fh.read(4)
                if len(prefix) != 4:
                    raise DataError(f"{path}: truncated id table at id {i} of {n}")
                (length,) = struct.unpack("<I", prefix)
                # checked before reading, so a huge claimed length allocates nothing
                if length > left - n * d * 4:
                    raise DataError(f"{path}: truncated id table at id {i} of {n}")
                token = fh.read(length)
                if len(token) != length:
                    raise DataError(f"{path}: truncated id table at id {i} of {n}")
                try:
                    sid = _parse_id(token.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}: id {i} is not UTF-8 ({exc.reason})") from exc
                if sid in seen:
                    raise DataError(f"{path}: repeated id {sid!r} at id {i} of {n}")
                seen.add(sid)
                ids.append(sid)
            if fh.read(1):
                raise DataError(f"{path}: unexpected bytes after the id table")
            return ids, vectors
    with open_text(path) as fh:
        header = fh.readline().strip()
        # at most 18 ASCII digits, which ``int`` reads without its digit limit
        m = re.fullmatch(r"id\tdim=([0-9]{1,18})", header)
        if not m:
            raise DataError(f"{path}: missing embedding TSV header")
        d = int(m.group(1))
        if d == 0:
            raise DataError(f"{path}:1: embedding dimension must be at least 1, got 0")
        ids, rows, seen = [], [], set()
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != d + 1:
                raise DataError(f"{path}:{lineno}: expected {d + 1} columns, got {len(parts)}")
            sid = _parse_id(parts[0])
            if sid in seen:
                raise DataError(f"{path}:{lineno}: repeated id {sid!r}")
            seen.add(sid)
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}:{lineno}: non-finite value (NaN, inf or out of range)")
            ids.append(sid)
            rows.append(row)
    if not ids:
        raise DataError(f"{path}: no embedding rows")
    return ids, np.asarray(rows, dtype=np.float64)
