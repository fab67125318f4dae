"""Flat key=value run configuration.

One assignment per line; a ``#`` at the start of a line or after whitespace
starts a comment, so a ``#`` inside a value such as a path is kept. Values are
plain text so the format can be written and diffed from any tooling.

Every key a run config may hold is a row of ``RUN_KEYS``, and every key of a
generator config a row of ``GENERATOR_KEYS``. One loop reads a config through
its table, each value by its row's parser, and refuses a key that no row
lists. ``RunConfig`` and ``generator_config_from`` turn the parsed settings
into the typed objects the library modules expect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .classifiers import KIND_PARAMS, KINDS, ClassifierSpec
from .evaluation import POINT_MODES
from .features import CANONICAL_TIME_FEATURES, TIME_FEATURES
from .records import IngestConfig
from .rng import check_seed
from .splits import SplitApproach
from .synthgen import GeneratorConfig, RegimeChange
from .terms import DEFAULT_TERMS_PER_YEAR, Term, parse_term


class ConfigError(ValueError):
    """Config file is malformed or inconsistent."""


def load_kv(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value file, ignoring blanks and # comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# Value parsers take (text, terms per year) and raise a ValueError whose
# message _parse_settings prefixes with the key, or the flag, the text came from.


def _number(cast: Callable[[str], object], expected: str) -> Callable[[str, int], object]:
    def parse(text: str, tpy: int) -> object:
        try:
            return cast(text)
        except ValueError:
            raise ConfigError(f"expected {expected}, got {text!r}") from None

    return parse


_int = _number(int, "integer")
_float = _number(float, "number")
_max_depth = _number(lambda text: None if text.lower() == "none" else int(text), "integer or 'none'")
_feature_subsample = _number(lambda text: text if text in ("sqrt", "log2") else int(text), "'sqrt', 'log2' or integer")


def _positive(text: str, tpy: int) -> int:
    if _int(text, tpy) < 1:
        raise ConfigError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _seed(text: str, tpy: int) -> int:
    return check_seed(_int(text, tpy))


def _one_of(choices: tuple[str, ...]) -> Callable[[str, int], str]:
    def parse(text: str, tpy: int) -> str:
        if text not in choices:
            raise ConfigError(f"expected one of {','.join(choices)}, got {text!r}")
        return text

    return parse


def _names(text: str, tpy: int = DEFAULT_TERMS_PER_YEAR) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _approaches(text: str, tpy: int) -> list[SplitApproach]:
    out = []
    for token in _names(text):
        try:
            out.append(SplitApproach(token))
        except ValueError:
            valid = ",".join(a.value for a in SplitApproach)
            raise ConfigError(f"unknown approach {token!r}, expected one of {valid}") from None
    if not out:
        raise ConfigError("no approaches given")
    return out


def _approach(text: str, tpy: int) -> SplitApproach:
    approaches = _approaches(text, tpy)
    if len(approaches) != 1:
        raise ConfigError(f"expected one approach, got {text!r}")
    return approaches[0]


def _term_index(text: str, tpy: int) -> int:
    index = _int(text, tpy)
    if not 1 <= index <= tpy:
        raise ConfigError(f"term index {index} outside 1..{tpy}")
    return index


def _time_features(text: str, tpy: int) -> tuple[str, ...]:
    names = tuple(_names(text)) or CANONICAL_TIME_FEATURES
    unknown = [name for name in names if name not in TIME_FEATURES]
    if unknown:
        raise ConfigError(f"unknown time-based features: {unknown}")
    return names


class Row(NamedTuple):
    """How one config key, or one key pattern such as map.<tag>, is read."""

    parse: Callable[[str, int], object] = lambda text, tpy: text  # (text, terms per year) -> value
    default: str | None = None  # text read when the key is absent; None leaves it unset
    required: bool = False
    ingest: bool = False  # read beside students/courses files, refused beside generator_config


# terms_per_year comes first: the term keys after it are read in its calendar.
# ClassifierSpec applies the <name>.<param> defaults, and a test holds them equal.
RUN_KEYS: dict[str, Row] = {
    "terms_per_year": Row(_positive, "2"),
    "generator_config": Row(),
    "students": Row(required=True, ingest=True),
    "courses": Row(required=True, ingest=True),
    "range_start": Row(parse_term, required=True, ingest=True),
    "range_end": Row(parse_term, required=True, ingest=True),
    "map.<tag>": Row(_term_index, ingest=True),
    "attr_codes": Row(ingest=True),
    "t_start": Row(parse_term),
    "t_end": Row(parse_term),
    "approaches": Row(_approaches, ",".join(a.value for a in SplitApproach)),
    "classifiers": Row(_names, ",".join(KINDS)),
    "<name>.kind": Row(_one_of(KINDS), "<name>"),
    "<name>.max_depth": Row(_max_depth, "none"),
    "<name>.min_samples_split": Row(_int, "2"),
    "<name>.n_trees": Row(_int, "50"),
    "<name>.feature_subsample": Row(_feature_subsample, "sqrt"),
    "<name>.seed": Row(_seed, "0"),
    "<name>.k": Row(_int, "5"),
    "<name>.variance_floor": Row(_float, "1e-09"),
    "split_seed": Row(_seed, "0"),
    "points_mode": Row(_one_of(POINT_MODES), "pairs"),
    "final_approach": Row(_approach, "B4T"),
    "confusion_terms": Row(lambda text, tpy: [parse_term(token, tpy) for token in text.split(",") if token.strip()], ""),
    "time_features": Row(_time_features, ",".join(CANONICAL_TIME_FEATURES)),
}

# A key left out keeps GeneratorConfig's default.
GENERATOR_KEYS: dict[str, Row] = {
    "terms_per_year": Row(_positive, "2"),
    "seed": Row(_seed),
    "range_start": Row(parse_term, required=True),
    "range_end": Row(parse_term, required=True),
    "regime_change_term": Row(lambda text, tpy: parse_term(text, tpy) if text else None),
    "regime_change_shift": Row(_float, "0.0"),
    **dict.fromkeys(
        ("intake_per_term", "degree_length_terms", "courses_min", "courses_max", "early_terms", "degree_count"),
        Row(_int),
    ),
    **dict.fromkeys(
        ("ability_mean", "ability_std", "score_base", "score_ability_gain", "score_noise_std", "attendance_base",
         "attendance_ability_gain", "attendance_noise_std", "pass_score", "hazard_baseline",
         "hazard_ability_weight", "hazard_fail_weight", "hazard_early_multiplier"),
        Row(_float),
    ),
}


def _parsed(name: str, parse: Callable[[str, int], object], text: str, tpy: int) -> object:
    try:
        return parse(text, tpy)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_flag(flag: str, key: str, text: str, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> object:
    """A command-line value, or one key of a file read outside a run config,
    read by the row of key; an error names flag, the flag or the file's key."""
    return _parsed(flag, RUN_KEYS[key].parse, text, terms_per_year)


def _parse_settings(
    kv: dict[str, str], table: dict[str, Row], what: str, flags: dict[str, str | None] | None = None
) -> dict[str, object]:
    """kv read through table. A key no row lists is an error that names it,
    and so is an ingest key beside generator_config. A literal row gives its
    key's value, else its default; a pattern row gives a dict of the keys it
    matches, keyed by the part in angle brackets. A non-empty flags[key]
    replaces kv[key], and an error in it names the flag, not the key."""
    patterns = {key: re.compile(re.sub("<[a-z]+>", "(.+)", re.escape(key))) for key in table}
    generated = "generator_config" in kv
    owner = {key: next((p for p, regex in patterns.items() if regex.fullmatch(key)), None) for key in kv}
    for key, pattern in owner.items():
        if pattern is None:
            raise ConfigError(f"unknown {what} key {key!r}")
        if table[pattern].ingest and generated:
            raise ConfigError(f"key {key!r} is not read when generator_config is set")
    settings: dict[str, object] = {}
    for key, row in table.items():
        tpy = settings.get("terms_per_year", DEFAULT_TERMS_PER_YEAR)
        if row.ingest and generated:
            continue
        if "<" in key:
            matched = (k for k, pattern in owner.items() if pattern == key)
            settings[key] = {patterns[key].fullmatch(k)[1]: _parsed(f"key {k!r}", row.parse, kv[k], tpy) for k in matched}
        elif flags and flags.get(key):
            settings[key] = _parsed("--" + key.replace("_", "-"), row.parse, flags[key], tpy)
        elif key in kv or row.default is not None:
            settings[key] = _parsed(f"key {key!r}", row.parse, kv.get(key, row.default), tpy)
        elif row.required:
            raise ConfigError(f"missing required key {key!r}")
    return settings


def generator_config_from(kv: dict[str, str]) -> GeneratorConfig:
    settings = _parse_settings(kv, GENERATOR_KEYS, "generator config")
    term, shift = settings.pop("regime_change_term", None), settings.pop("regime_change_shift")
    if term is None and "regime_change_shift" in kv:
        raise ConfigError("key 'regime_change_shift' needs a regime_change_term")
    return GeneratorConfig(regime_change=None if term is None else RegimeChange(term, shift), **settings)


def _specs(settings: dict[str, object]) -> list[ClassifierSpec]:
    """One spec per name in `classifiers=`, with its `<name>.<param>=` keys. A
    parameter the kind does not read names its key, and so does a value the
    spec refuses: a spec checks each parameter on its own."""
    names = settings["classifiers"]
    if not names:
        raise ConfigError("key 'classifiers': no classifiers configured")
    params: dict[str, dict[str, object]] = {name: {} for name in names}
    if len(params) < len(names):
        raise ConfigError(f"key 'classifiers': a name is listed twice in {','.join(names)}")
    for pattern, values in settings.items():
        if pattern.startswith("<name>."):
            param = pattern.removeprefix("<name>.")
            for name, value in values.items():
                if name not in params:
                    raise ConfigError(f"key '{name}.{param}': {name!r} is not in classifiers={','.join(names)}")
                params[name][param] = value
    specs = []
    for name, p in params.items():
        kind = p.pop("kind", name)
        if kind not in KINDS:
            raise ConfigError(f"classifier {name!r}: set {name}.kind to one of {KINDS} when the name is not a kind")
        for param, value in p.items():
            key, reads = f"key '{name}.{param}'", KIND_PARAMS[kind]
            if param not in reads:
                raise ConfigError(f"{key}: classifier kind {kind!r} does not read {param}, only {','.join(reads)}")
            try:
                ClassifierSpec(kind, **{param: value})
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        specs.append(ClassifierSpec(kind, label=name, **p))
    return specs


@dataclass
class RunConfig:
    """Every setting of one run config, parsed through RUN_KEYS. The fields
    from terms_per_year to time_features are the settings of their keys."""

    raw: dict[str, str]
    specs: list[ClassifierSpec]
    terms_per_year: int
    approaches: list[SplitApproach]
    t_start: Term | None  # split and predict run without the walk's range
    t_end: Term | None
    split_seed: int
    points_mode: str
    final_approach: SplitApproach
    confusion_terms: list[Term]
    time_features: tuple[str, ...]
    ingest: IngestConfig | None = None
    students_path: Path | None = None
    courses_path: Path | None = None
    generator: GeneratorConfig | None = None

    @staticmethod
    def load(path: str | Path, flags: dict[str, str | None] | None = None) -> "RunConfig":
        """The config at path, with flags (by key) in place of its values
        where given. Relative paths in it resolve against its directory."""
        path = Path(path)
        kv = load_kv(path)
        base = path.parent
        if not {"students", "courses", "generator_config"} & kv.keys():
            raise ConfigError("config needs either students/courses paths or generator_config")
        s = _parse_settings(kv, RUN_KEYS, "run config", flags)
        keyed = {f.name: s.get(f.name) for f in fields(RunConfig) if f.name in RUN_KEYS}
        cfg = RunConfig(raw=kv, specs=_specs(s), **keyed)

        def source(key: str) -> str:
            return "--" + key.replace("_", "-") if flags and flags.get(key) else f"key {key!r}"

        if None not in (cfg.t_start, cfg.t_end) and cfg.t_end < cfg.t_start:
            raise ConfigError(f"{source('t_end')}: {cfg.t_end} is before t_start {cfg.t_start}")
        tpy = cfg.terms_per_year
        if "generator_config" in s:
            cfg.generator = generator_config_from(load_kv(_resolve(base, s["generator_config"])))
            if cfg.generator.terms_per_year != tpy:
                raise ConfigError(f"key 'terms_per_year': {tpy} here, {cfg.generator.terms_per_year} in the generator config")
        else:
            cfg.students_path = _resolve(base, s["students"])
            cfg.courses_path = _resolve(base, s["courses"])
            attr_codes = _read_attr_codes(_resolve(base, s["attr_codes"])) if s.get("attr_codes") else None
            cfg.ingest = IngestConfig(s["range_start"], s["range_end"], tpy, s["map.<tag>"], attr_codes)
        for key in ("t_start", "t_end"):  # the walk must lie in the cohort's range
            if (t := getattr(cfg, key)) is not None:
                cfg.check_in_range(source(key), t)
        return cfg

    def check_in_range(self, source: str, t: Term) -> None:
        """Raise unless t lies in the cohort's range; the error names source,
        a key or a flag."""
        cohort = self.generator or self.ingest
        lo, hi = cohort.range_start, cohort.range_end
        if not lo <= t <= hi:
            raise ConfigError(f"{source}: {t} is outside the cohort range {lo}..{hi}")


def _resolve(base: Path, text: str) -> Path:
    p = Path(text)
    return p if p.is_absolute() else base / p


def _read_attr_codes(path: str) -> dict[str, dict[str, int]]:
    """Read an attribute,value,code CSV. A missing column, an extra cell, a
    code that is not an integer or a repeated (attribute, value) pair raises,
    naming the file and the row (the header is row 1)."""
    import csv

    out: dict[str, dict[str, int]] = {}
    first_row: dict[tuple[str, str], int] = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for column in ("attribute", "value", "code"):
            if column not in (reader.fieldnames or ()):
                raise ConfigError(f"{path}: row 1: missing column {column!r}")
        for rownum, row in enumerate(reader, start=2):
            if None in row:  # DictReader files cells past the header under None
                raise ConfigError(f"{path}: row {rownum}: more cells than the header's {len(reader.fieldnames)}")
            try:
                code = int(row["code"])
            except (TypeError, ValueError):  # TypeError: the row has no code cell
                raise ConfigError(f"{path}: row {rownum}: column 'code' has non-integer value {row['code']!r}") from None
            pair = (row["attribute"], row["value"])
            if pair in first_row:
                raise ConfigError(f"{path}: row {rownum}: attribute {pair[0]!r} value {pair[1]!r} already coded on row {first_row[pair]}")
            first_row[pair] = rownum
            out.setdefault(pair[0], {})[pair[1]] = code
    return out


def write_attr_codes(codes: dict[str, dict[str, int]], path: str | Path) -> None:
    lines = ["attribute,value,code"]
    for attr in sorted(codes):
        for value, code in sorted(codes[attr].items(), key=lambda kv: kv[1]):
            lines.append(f"{attr},{value},{code}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
