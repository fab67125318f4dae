"""Flat key=value run configuration.

One assignment per line; a ``#`` at the start of a line or after whitespace
starts a comment, so a ``#`` inside a value such as a path is kept. Values are
plain text so the format can be written and diffed from any tooling. This
module also turns config mappings into the typed objects the library modules
expect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .classifiers import KINDS, ClassifierSpec
from .records import IngestConfig
from .rng import check_seed
from .splits import SplitApproach
from .synthgen import GeneratorConfig, RegimeChange
from .terms import Term, parse_term


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


def _get_int(kv: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer, got {kv[key]!r}") from None


def _get_seed(kv: dict[str, str], key: str, default: int | None = None) -> int:
    seed = _get_int(kv, key, default)
    try:
        return check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _get_float(kv: dict[str, str], key: str, default: float) -> float:
    if key not in kv:
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected number, got {kv[key]!r}") from None


def _get_term(kv: dict[str, str], key: str, terms_per_year: int) -> Term:
    if key not in kv:
        raise ConfigError(f"missing required key {key!r}")
    return parse_term(kv[key], terms_per_year)


def ingest_config_from(kv: dict[str, str]) -> IngestConfig:
    tpy = _get_int(kv, "terms_per_year", 2)
    miniterm = {}
    for key in kv:
        if key.startswith("map."):
            index = _get_int(kv, key)
            if not 1 <= index <= tpy:
                raise ConfigError(f"key {key!r}: term index {index} outside 1..{tpy}")
            miniterm[key.split(".", 1)[1]] = index
    attr_codes = None
    if "attr_codes" in kv and kv["attr_codes"]:
        attr_codes = _read_attr_codes(kv["attr_codes"])
    return IngestConfig(
        range_start=_get_term(kv, "range_start", tpy),
        range_end=_get_term(kv, "range_end", tpy),
        terms_per_year=tpy,
        miniterm_map=miniterm,
        attr_codes=attr_codes,
    )


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


# The GeneratorConfig fields a generator config file may set, besides seed,
# terms_per_year, the range and the regime change.
_GENERATOR_INTS = ("intake_per_term", "degree_length_terms", "courses_min", "courses_max", "early_terms", "degree_count")
_GENERATOR_FLOATS = (
    "ability_mean",
    "ability_std",
    "score_base",
    "score_ability_gain",
    "score_noise_std",
    "attendance_base",
    "attendance_ability_gain",
    "attendance_noise_std",
    "pass_score",
    "hazard_baseline",
    "hazard_ability_weight",
    "hazard_fail_weight",
    "hazard_early_multiplier",
)
_GENERATOR_KEYS = {"seed", "terms_per_year", "range_start", "range_end", "regime_change_term", "regime_change_shift"}
_GENERATOR_KEYS.update(_GENERATOR_INTS + _GENERATOR_FLOATS)


def generator_config_from(kv: dict[str, str]) -> GeneratorConfig:
    unknown = [key for key in kv if key not in _GENERATOR_KEYS]
    if unknown:
        raise ConfigError(f"unknown generator config key {unknown[0]!r}")
    if "regime_change_shift" in kv and not kv.get("regime_change_term"):
        raise ConfigError("key 'regime_change_shift' needs a regime_change_term")
    tpy = _get_int(kv, "terms_per_year", 2)
    regime = None
    if kv.get("regime_change_term"):
        regime = RegimeChange(
            term=parse_term(kv["regime_change_term"], tpy),
            hazard_shift=_get_float(kv, "regime_change_shift", 0.0),
        )
    defaults = GeneratorConfig()
    return GeneratorConfig(
        seed=_get_seed(kv, "seed", defaults.seed),
        terms_per_year=tpy,
        range_start=_get_term(kv, "range_start", tpy),
        range_end=_get_term(kv, "range_end", tpy),
        regime_change=regime,
        **{name: _get_int(kv, name, getattr(defaults, name)) for name in _GENERATOR_INTS},
        **{name: _get_float(kv, name, getattr(defaults, name)) for name in _GENERATOR_FLOATS},
    )


_SPEC_FIELDS = {
    "max_depth": int,
    "min_samples_split": int,
    "n_trees": int,
    "feature_subsample": str,
    "seed": int,
    "k": int,
    "variance_floor": float,
    "kind": str,
}


# What a classifier parameter that does not parse should have been, where the
# parameter takes more than numbers.
_EXPECTED = {"max_depth": "integer or 'none'", "feature_subsample": "'sqrt', 'log2' or integer"}


def classifier_specs_from(kv: dict[str, str]) -> list[ClassifierSpec]:
    """Build specs from `classifiers=` plus per-name `<name>.<param>=` keys."""
    names = [n.strip() for n in kv.get("classifiers", ",".join(KINDS)).split(",") if n.strip()]
    specs = []
    for name in names:
        params: dict = {"kind": name, "label": name}
        for key, value in kv.items():
            if not key.startswith(name + "."):
                continue
            param = key.split(".", 1)[1]
            if param not in _SPEC_FIELDS:
                raise ConfigError(f"unknown classifier parameter {key!r}")
            caster = _SPEC_FIELDS[param]
            if param == "seed":
                params[param] = _get_seed(kv, key)
                continue
            try:
                if param == "feature_subsample" and value not in ("sqrt", "log2"):
                    params[param] = int(value)
                elif param == "max_depth" and value.lower() == "none":
                    params[param] = None
                else:
                    params[param] = caster(value)
            except ValueError:
                expected = _EXPECTED.get(param, "integer" if caster is int else "number")
                raise ConfigError(f"key {key!r}: expected {expected}, got {value!r}") from None
        if params.get("kind") not in KINDS:
            raise ConfigError(
                f"classifier {name!r}: set {name}.kind to one of {KINDS} when the name is not a kind"
            )
        try:
            specs.append(ClassifierSpec(**params))
        except ValueError as exc:
            raise ConfigError(f"classifier {name!r}: {exc}") from None
    if not specs:
        raise ConfigError("no classifiers configured")
    return specs


def split_seed_from(kv: dict[str, str]) -> int:
    """The `split_seed=` integer (default 0) that seeds approach A's pooling."""
    return _get_seed(kv, "split_seed", 0)


def approaches_from(text: str) -> list[SplitApproach]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(SplitApproach(token))
        except ValueError:
            valid = ",".join(a.value for a in SplitApproach)
            raise ConfigError(f"unknown approach {token!r}, expected one of {valid}") from None
    if not out:
        raise ConfigError("no approaches given")
    return out


@dataclass
class RunConfig:
    """Everything one evaluation run needs, resolved from a kv file + CLI flags."""

    raw: dict[str, str]
    base_dir: Path
    terms_per_year: int
    ingest: IngestConfig | None = None
    students_path: Path | None = None
    courses_path: Path | None = None
    generator: GeneratorConfig | None = None

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        path = Path(path)
        kv = load_kv(path)
        base = path.parent
        tpy = _get_int(kv, "terms_per_year", 2)
        cfg = RunConfig(raw=kv, base_dir=base, terms_per_year=tpy)
        if "students" in kv or "courses" in kv:
            if not ("students" in kv and "courses" in kv):
                raise ConfigError("both 'students' and 'courses' paths are required")
            cfg.students_path = _resolve(base, kv["students"])
            cfg.courses_path = _resolve(base, kv["courses"])
            cfg.ingest = ingest_config_from(kv)
        elif "generator_config" in kv:
            gen_kv = load_kv(_resolve(base, kv["generator_config"]))
            cfg.generator = generator_config_from(gen_kv)
        else:
            raise ConfigError("config needs either students/courses paths or generator_config")
        return cfg


def _resolve(base: Path, text: str) -> Path:
    p = Path(text)
    return p if p.is_absolute() else base / p
