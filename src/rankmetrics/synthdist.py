"""Seeded generation of lognormal citation series and grid ensembles.

A series simulates the papers of one unit (country or institution) in a
field: each value stands for the citation count of one paper.  Ensembles
are grids of series over equally spaced location parameters, one series
per (mu, size) cell, with labels assigned in grid order (aa, ab, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, read_text
from .table import write_table

SYNTHETIC = "synthetic"
REAL = "real"

_CONFIG_KEYS = ("mu_start", "mu_end", "mu_count", "sizes", "seed")


DEFAULT_SIGMA = 1.1


class GridError(DataError):
    """Inconsistent ensemble grid parameters."""


class ConfigError(DataError):
    """Malformed ensemble configuration file."""


def series_label(index: int) -> str:
    """Label for grid position `index`: aa..zz, then aaa..zzz, and so on."""
    if index < 0:
        raise ValueError("label index must be >= 0")
    width, capacity = 2, 26 * 26
    while index >= capacity:
        index -= capacity
        width += 1
        capacity *= 26
    letters = []
    for _ in range(width):
        index, r = divmod(index, 26)
        letters.append(chr(ord("a") + r))
    return "".join(reversed(letters))


@dataclass(frozen=True)
class LognormalSpec:
    """Parameters of one synthetic series: values are exp(mu + sigma*z)."""

    label: str
    mu: float
    sigma: float
    n: int

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.n < 1:
            raise ValueError(f"series size must be >= 1, got {self.n}")


@dataclass(eq=False)
class CitationSeries:
    """A labeled list of citation values.

    Synthetic values are strictly positive reals; real values are
    non-negative integers.
    """

    label: str
    values: np.ndarray
    origin: str = SYNTHETIC

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")
        if self.origin not in (SYNTHETIC, REAL):
            raise ValueError(f"unknown origin {self.origin!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("citation values must be finite")
        if self.origin == SYNTHETIC:
            if values.size and not np.all(values > 0):
                raise ValueError("synthetic citation values must be > 0")
        else:
            if values.size and (np.any(values < 0) or np.any(values != np.floor(values))):
                raise ValueError("real citation counts must be integers >= 0")
        values.flags.writeable = False
        self.values = values

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class EnsembleConfig:
    """Grid of series: `mu_count` equally spaced mu values, one series per
    (mu, size) pair, sampled from streams derived from `seed`."""

    mu_start: float
    mu_end: float
    mu_count: int
    sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        for name in ("mu_start", "mu_end"):
            if not math.isfinite(getattr(self, name)):
                raise GridError(f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.mu_end - self.mu_start):
            raise GridError(
                f"mu range {self.mu_start} to {self.mu_end} is too wide: its span overflows a float"
            )
        if self.mu_count < 1:
            raise GridError(f"mu_count must be >= 1, got {self.mu_count}")
        if not self.sizes:
            raise GridError("sizes must be non-empty")
        if any(s < 1 for s in self.sizes):
            raise GridError(f"every size must be >= 1, got {self.sizes}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise GridError("seed must be an unsigned 64-bit integer")

    @property
    def total_papers(self) -> int:
        return self.mu_count * sum(self.sizes)

    @property
    def series_count(self) -> int:
        return self.mu_count * len(self.sizes)

    def mu_values(self) -> np.ndarray:
        if self.mu_count == 1:
            if self.mu_start != self.mu_end:
                raise GridError("mu_count=1 requires mu_start == mu_end")
            return np.array([self.mu_start])
        return np.linspace(self.mu_start, self.mu_end, self.mu_count)

    def to_dict(self) -> dict:
        return {
            "mu_start": self.mu_start,
            "mu_end": self.mu_end,
            "mu_count": self.mu_count,
            "sizes": list(self.sizes),
            "seed": self.seed,
        }


def load_config(path) -> EnsembleConfig:
    """Read an EnsembleConfig from a plain key/value text file.

    Lines look like ``mu_start = 4.0``; `sizes` is comma-separated;
    ``#`` starts a comment.
    """
    raw = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    try:
        return EnsembleConfig(
            mu_start=float(raw["mu_start"]),
            mu_end=float(raw["mu_end"]),
            mu_count=int(raw["mu_count"]),
            sizes=tuple(int(s) for s in raw["sizes"].split(",") if s.strip()),
            seed=int(raw["seed"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_grid(config: EnsembleConfig) -> list[LognormalSpec]:
    """Expand a config into specs, mu-major then size order, labels aa, ab, ...

    The default study grid (mu 4.0 -> 2.0 over 200 values, sizes
    800/400/200) yields 600 series totaling 280,000 papers.
    """
    specs = []
    for i, mu in enumerate(config.mu_values()):
        for j, n in enumerate(config.sizes):
            label = series_label(i * len(config.sizes) + j)
            specs.append(LognormalSpec(label=label, mu=float(mu), sigma=DEFAULT_SIGMA, n=n))
    return specs


def sample_series(spec: LognormalSpec, seed: int, stream_id: int) -> CitationSeries:
    """Draw `spec.n` values exp(mu + sigma*z) from the stream (seed, stream_id).

    Streams are independent and order-free: sampling series in any order
    reproduces the same values for the same arguments.
    """
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    if stream_id < 0:
        raise ValueError("stream_id must be >= 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))
    z = rng.standard_normal(spec.n)
    with np.errstate(over="ignore"):  # an overflow gives inf, which CitationSeries refuses
        values = np.exp(spec.mu + spec.sigma * z)
    try:
        return CitationSeries(spec.label, values, origin=SYNTHETIC)
    except ValueError as exc:
        raise GridError(
            f"series {spec.label}: mu = {spec.mu} puts values outside float range ({exc})"
        ) from None


def combine_series(parts: list[CitationSeries], new_label: str) -> CitationSeries:
    """Concatenate several series into one under a new label."""
    if not parts:
        raise ValueError("cannot combine an empty list of series")
    origins = {p.origin for p in parts}
    if len(origins) > 1:
        raise ValueError(f"cannot combine series of mixed origin {sorted(origins)}")
    values = np.concatenate([p.values for p in parts])
    return CitationSeries(new_label, values, origin=parts[0].origin)


@dataclass(frozen=True)
class Ensemble:
    """A generated grid: specs and their sampled series, index-aligned."""

    config: EnsembleConfig
    specs: tuple[LognormalSpec, ...]
    series: tuple[CitationSeries, ...]
    spec_by_label: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        lookup = {spec.label: spec for spec in self.specs}
        object.__setattr__(self, "spec_by_label", lookup)

    @property
    def labels(self) -> list[str]:
        return [spec.label for spec in self.specs]


def generate_ensemble(config: EnsembleConfig) -> Ensemble:
    """Build and sample the whole grid; stream id = grid index of the spec."""
    specs = build_grid(config)
    series = [sample_series(spec, config.seed, i) for i, spec in enumerate(specs)]
    return Ensemble(config=config, specs=tuple(specs), series=tuple(series))


def write_specs_csv(specs, fileobj) -> None:
    """Spec table: label,mu,sigma,n."""
    fields = ("label", "mu", "sigma", "n")
    write_table(fileobj, fields, [[[getattr(spec, f) for spec in specs] for f in fields]])


def write_values_csv(series_list, fileobj) -> None:
    """Long-format value table: label,value (one row per paper), written
    one series at a time."""
    chunks = ((np.full(series.n, series.label), series.values) for series in series_list)
    write_table(fileobj, ("label", "value"), chunks)
