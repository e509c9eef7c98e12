"""Run parameters: ``RunConfig``, its ``ProviderSpec`` and the config file's parsers.

A config file is a JSON object over ``RunConfig``'s fields; absent keys
take the reference defaults. Each value is checked once, here, and every
error names its key. ``RunConfig.to_payload`` is what a ledger's
config.json records, and ``from_payload`` reads it back equal.
"""

from __future__ import annotations

import math
from typing import NamedTuple
from urllib.parse import urlsplit

from .errors import ConfigInvalid
from .genome import Variant

# Largest accepted value of each RunConfig count. Every bound is far above a
# useful run, and low enough that a slipped digit is rejected at load instead
# of starting a run that cannot finish.
COUNT_LIMITS = {
    "g2": 1_000,
    "g3": 100,
    "f1": 1_000,
    "f2": 10_000,
    "f3": 10_000,
    "e1": 1_000,
    "keyword_pool_size": 10_000,
}


def _parse_int(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    return value


def _parse_float(name: str, value: object) -> float:
    """A JSON number as a finite float, or ConfigInvalid naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {value!r}")
    try:
        parsed = float(value)
    except OverflowError:
        raise ConfigInvalid(f"{name} must be finite, got an integer beyond float range") from None
    if not math.isfinite(parsed):
        raise ConfigInvalid(f"{name} must be finite, got {parsed!r}")
    return parsed


def _instance_of(kind: type | tuple[type, ...], noun: str):
    """A parser that passes instances of ``kind`` through as they are."""

    def parse(name: str, value: object):
        if not isinstance(value, kind):
            raise ConfigInvalid(f"{name} must be {noun}, got {value!r}")
        return value

    return parse


def _parse_variant(name: str, value: object) -> Variant:
    try:
        return Variant(value)
    except ValueError:
        raise ConfigInvalid(f"{name} must be lemma or quoted, got {value!r}") from None


def _from_payload(cls, payload: object, what: str):
    """Build ``cls`` from a JSON object; absent keys take defaults.

    Each value is parsed by its field's annotation in ``cls``'s NamedTuple base
    (see ``_FIELD_PARSERS``); range checks are left to ``cls.__new__``.
    """
    if not isinstance(payload, dict):
        raise ConfigInvalid(f"{what} must be a JSON object")
    annotations = cls.__bases__[0].__annotations__
    parsers = {name: _FIELD_PARSERS[annotations[name].__forward_arg__] for name in cls._fields}
    unknown = set(payload) - set(parsers)
    if unknown:
        raise ConfigInvalid(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**{name: parsers[name](name, value) for name, value in payload.items()})


def _is_http_url(text: str) -> bool:
    try:
        parts = urlsplit(text)
    except ValueError:  # e.g. an unclosed "[" in the host
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _floats_made_float(fields: tuple) -> list:
    """The values of ``fields``, a NamedTuple, with each ``float`` field's value
    made a float, so that a payload writes 1 as 1.0."""
    kinds = type(fields).__annotations__.values()
    return [float(v) if k.__forward_arg__ == "float" else v for v, k in zip(fields, kinds)]


class _ProviderFields(NamedTuple):
    kind: str = "offline"  # "offline" | "http"
    endpoint: str | None = None
    api_key_header: str | None = None
    rate_limit_rps: float = 1.0
    full_body_snippets: bool = False


class ProviderSpec(_ProviderFields):
    """Which engine a run talks to and how; every instance has passed its checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ProviderSpec:
        self = super().__new__(cls, *_floats_made_float(_ProviderFields(*args, **kwargs)))
        if self.kind not in ("offline", "http"):
            raise ConfigInvalid(f"provider kind must be offline or http, got {self.kind!r}")
        if self.kind == "http" and not self.endpoint:
            raise ConfigInvalid("provider kind http needs an endpoint")
        if self.kind == "http" and not _is_http_url(self.endpoint):
            raise ConfigInvalid(
                f"endpoint must be an http or https URL with a host, got {self.endpoint!r}"
            )
        if not self.rate_limit_rps > 0:
            raise ConfigInvalid("rate_limit_rps must be positive")
        return self

    def to_payload(self) -> dict:
        return self._asdict()

    @classmethod
    def from_payload(cls, payload: object) -> ProviderSpec:
        return _from_payload(cls, payload, "provider")


class _RunConfigFields(NamedTuple):
    g2: int = 8
    g3: int = 6
    f1: int = 20
    f2: int = 20
    f3: int = 20
    f4: float = 0.75
    f5: float = 0.33
    f6: float = 0.33
    f7: float = 0.34
    m1: float = 1.0
    e1: int = 10
    a_factor: float = 1.0
    rng_seed: int = 0
    variant: Variant = Variant.LEMMA
    keyword_pool_size: int = 50
    freeze_reference: bool = False
    stop_words_path: str | None = None
    provider: ProviderSpec = ProviderSpec()


class RunConfig(_RunConfigFields):
    """Run parameters; the zero-argument form is the reference setup.

    g2: population size; g3: terms per query; f1/f2/f3: per-query,
    per-population and run-wide result caps; f4: same-host damping;
    f5/f6/f7: rank/crossquery/semantic component weights; m1: mutation
    probability; e1: generation count. These short names are the config
    file's vocabulary; each count is bounded by ``COUNT_LIMITS``. Every
    instance has passed its checks, which ``_replace`` skips.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *_floats_made_float(_RunConfigFields(*args, **kwargs)))
        for name, limit in COUNT_LIMITS.items():
            value = getattr(self, name)
            if not 1 <= value <= limit:
                # str() refuses integers of more than 4300 digits
                shown = value if value.bit_length() <= 64 else f"a {value.bit_length()}-bit integer"
                raise ConfigInvalid(f"{name} must be in 1..{limit}, got {shown}")
        if self.keyword_pool_size < self.min_pool_size:
            raise ConfigInvalid(
                f"keyword_pool_size must be at least {self.min_pool_size} for "
                f"g3={self.g3} and e1={self.e1}, got {self.keyword_pool_size}"
            )
        if not (0.0 <= self.m1 <= 1.0):
            raise ConfigInvalid(f"m1 must be a probability, got {self.m1!r}")
        if not (0.0 <= self.a_factor <= 1.0):
            raise ConfigInvalid(f"a_factor must be in [0, 1], got {self.a_factor!r}")
        if not (0.0 < self.f4 <= 1.0):
            raise ConfigInvalid(f"f4 must be in (0, 1], got {self.f4!r}")
        for name in ("f5", "f6", "f7"):
            if not getattr(self, name) >= 0:
                raise ConfigInvalid(f"{name} must be non-negative, got {getattr(self, name)!r}")
        total = self.f5 + self.f6 + self.f7
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigInvalid(f"f5 + f6 + f7 must sum to 1 within 1e-9, got {total!r}")
        return self

    @property
    def min_pool_size(self) -> int:
        """Keywords a run needs: g3 distinct terms per genome, plus one outside
        each genome to mutate it with when there is a second generation."""
        return self.g3 + (1 if self.e1 > 1 else 0)

    def to_payload(self) -> dict:
        return {**self._asdict(), "provider": self.provider.to_payload()}

    @classmethod
    def from_payload(cls, payload: object) -> RunConfig:
        """Build a config from a plain dict; absent keys take defaults."""
        return _from_payload(cls, payload, "config")


# Field annotation -> parser of a JSON value, naming its key in any ConfigInvalid.
# Keys are annotations as written: under ``from __future__ import annotations``
# NamedTuple keeps each field's type as a ForwardRef of that text.
# ``to_payload`` reads back equal: each float field holds a float, and Variant is a str.
_FIELD_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _instance_of(bool, "a boolean"),
    "str": _instance_of(str, "a string"),
    "str | None": _instance_of((str, type(None)), "a string or null"),
    "Variant": _parse_variant,
    "ProviderSpec": lambda name, value: ProviderSpec.from_payload(value),
}
