"""Seeded generation of lognormal citation series and grid ensembles.

A series simulates the papers of one unit (country or institution) in a
field: each value stands for the citation count of one paper.  Ensembles
are grids of series over equally spaced location parameters, one series
per (mu, size) cell, with labels assigned in grid order (aa, ab, ...).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, read_text
from .table import write_table

SYNTHETIC = "synthetic"
REAL = "real"

_CONFIG_KEYS = ("mu_start", "mu_end", "mu_count", "sizes", "seed")


DEFAULT_SIGMA = 1.1


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

    @classmethod
    def _checked(cls, label: str, values: np.ndarray) -> CitationSeries:
        """A synthetic series over a read-only array its caller has already
        checked finite and > 0: no copy, no second validation."""
        series = object.__new__(cls)
        series.label, series.values, series.origin = label, values, SYNTHETIC
        return series

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
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.mu_end - self.mu_start):
            raise DataError(
                f"mu range {self.mu_start} to {self.mu_end} is too wide: its span overflows a float"
            )
        if self.mu_count < 1:
            raise DataError(f"mu_count must be >= 1, got {self.mu_count}")
        if not self.sizes:
            raise DataError("sizes must be non-empty")
        if any(s < 1 for s in self.sizes):
            raise DataError(f"every size must be >= 1, got {self.sizes}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DataError("seed must be an unsigned 64-bit integer")
        if self.mu_count == 1 and self.mu_start != self.mu_end:
            raise DataError("mu_count=1 requires mu_start == mu_end")

    @property
    def total_papers(self) -> int:
        return self.mu_count * sum(self.sizes)

    def mu_values(self) -> np.ndarray:
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
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    try:
        return EnsembleConfig(
            mu_start=float(raw["mu_start"]),
            mu_end=float(raw["mu_end"]),
            mu_count=int(raw["mu_count"]),
            sizes=tuple(int(s) for s in raw["sizes"].split(",") if s.strip()),
            seed=int(raw["seed"]),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def build_grid(config: EnsembleConfig) -> list[LognormalSpec]:
    """Expand a config into specs, mu-major then size order, labels aa, ab, ...

    The default study grid (mu 4.0 -> 2.0 over 200 values, sizes
    800/400/200) yields 600 series totaling 280,000 papers.  The config
    has checked every size >= 1 and the sigma is `DEFAULT_SIGMA`, so the
    specs are built without `LognormalSpec`'s checks.  A grid too large
    to sample is refused before its mu values or labels are built.
    """
    _paper_buffer(config)
    cells = itertools.product(config.mu_values().tolist(), config.sizes)
    specs = []
    for label, (mu, n) in zip(_grid_labels(len(config.sizes) * config.mu_count), cells):
        spec = object.__new__(LognormalSpec)
        spec.__dict__.update(label=label, mu=mu, sigma=DEFAULT_SIGMA, n=n)
        specs.append(spec)
    return specs


def _paper_buffer(config: EnsembleConfig) -> np.ndarray:
    """An uninitialised float64 buffer for every paper of the grid."""
    try:
        return np.empty(config.total_papers)
    except (MemoryError, ValueError):  # ValueError: the byte count overflows
        raise DataError(
            f"a grid of {config.total_papers} papers is too large to allocate"
        ) from None


@functools.cache
def _grid_labels(count: int) -> tuple[str, ...]:
    """`series_label(i)` for i < count: every 2-letter label in order, then
    every 3-letter one, and so on."""
    words = itertools.chain.from_iterable(
        itertools.product(string.ascii_lowercase, repeat=width) for width in itertools.count(2)
    )
    return tuple(map("".join, itertools.islice(words, count)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word pool,
# `hashmix` constants A, `mix` multipliers, and output-hash constants B
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> list:
    """`count` + 1 successive hash constants: init, init*mult, ... (mod 2**32)."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return [np.uint32(c) for c in constants]


def _uint32_words(n: int) -> list[int]:
    """`n` >= 0 as SeedSequence reads it: little-endian 32-bit words, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _stream_states(seed: int, stream_ids) -> np.ndarray:
    """Row r is `SeedSequence((seed, stream_ids[r])).generate_state(4, np.uint64)`,
    for a seed and stream ids below 2**64: numpy's hash, run for every stream
    at once in uint32 arithmetic."""
    ids = np.asarray(stream_ids, dtype=np.uint64)
    # the seed's words, then each id as two words: at most 4 words, the pool's
    # size, and SeedSequence fills the pool past a shorter entropy with 0 words,
    # so an id below 2**32 reads the same as its two words
    entropy = [np.full(ids.size, w, np.uint32) for w in _uint32_words(seed)]
    entropy += [(ids & _MASK32).astype(np.uint32), (ids >> 32).astype(np.uint32)]
    entropy += [np.zeros(ids.size, np.uint32)] * (_POOL_SIZE - len(entropy))
    # 4 fills, then 12 cross-mixes
    hash_a = itertools.pairwise(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE))

    def hashmix(value):
        xor, mult = next(hash_a)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((ids.size, 8), np.uint32)
    hash_b = itertools.pairwise(_hash_constants(_INIT_B, _MULT_B, 8))
    for i, (xor, mult) in enumerate(hash_b):
        value = (pool[i % _POOL_SIZE] ^ xor) * mult
        state[:, i] = value ^ (value >> _XSHIFT)
    # SeedSequence pairs its uint32 words into uint64s in little-endian order
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _preset_seed_class():
    """A seed sequence that hands PCG64 four precomputed words, so PCG64's
    own seeding still runs.  Built on first use: importing the package
    does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeedSequence(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a preset seed sequence holds exactly 4 uint64 words")
            return self.words

    return PresetSeedSequence


def _stream_generators(seed: int, stream_ids):
    """The generators of the streams (seed, i) for i in `stream_ids`, in order:
    each draws what `Generator(PCG64(SeedSequence((seed, i))))` draws."""
    preset = _preset_seed_class()
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    return (Generator(PCG64(preset(words))) for words in _stream_states(seed, stream_ids))


def sample_series(spec: LognormalSpec, seed: int, stream_id: int) -> CitationSeries:
    """Draw `spec.n` values exp(mu + sigma*z) from the stream (seed, stream_id).

    Streams are independent and order-free: sampling series in any order
    reproduces the same values for the same arguments.
    """
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    stream_id = operator.index(stream_id)
    if stream_id < 0:
        raise ValueError("stream_id must be >= 0")
    values = np.empty(spec.n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))
    rng.standard_normal(out=values)
    values *= spec.sigma
    values += spec.mu
    with np.errstate(over="ignore"):  # an overflow gives inf, which CitationSeries refuses
        np.exp(values, out=values)
    try:
        return CitationSeries(spec.label, values, origin=SYNTHETIC)
    except ValueError as exc:
        raise DataError(
            f"series {spec.label}: mu = {spec.mu} puts values outside float range ({exc})"
        ) from None


def _positive_finite(values: np.ndarray) -> bool:
    # NaN fails both comparisons
    return bool(values.min() > 0 and values.max() < math.inf)


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
    """Build and sample the whole grid; stream id = grid index of the spec.

    All streams are seeded in one pass, and each draws its series' normals
    into its slice of one buffer.  The buffer then takes sigma, each mu
    block's mu, one exp and one range check, rounding as `sample_series`
    does per series; each series is a read-only view of it.
    """
    specs = build_grid(config)
    values = _paper_buffer(config)
    ends = itertools.accumulate(spec.n for spec in specs)
    spans = [slice(end - spec.n, end) for spec, end in zip(specs, ends)]
    rngs = _stream_generators(config.seed, range(len(specs)))
    for rng, span in zip(rngs, spans):
        rng.standard_normal(out=values[span])
    values *= DEFAULT_SIGMA
    # grid order is mu-major: row i holds every series of the i-th mu
    mu_blocks = values.reshape(config.mu_count, -1)
    mu_blocks += config.mu_values()[:, np.newaxis]
    with np.errstate(over="ignore"):  # an overflow gives inf, refused below
        np.exp(values, out=values)
    if not _positive_finite(values):
        for i, (spec, span) in enumerate(zip(specs, spans)):
            if not _positive_finite(values[span]):
                sample_series(spec, config.seed, i)  # raises this series' DataError
    values.flags.writeable = False  # and so is every view taken from here on
    series = tuple(
        CitationSeries._checked(spec.label, values[span]) for spec, span in zip(specs, spans)
    )
    return Ensemble(config=config, specs=tuple(specs), series=series)


def write_specs_csv(specs, fileobj) -> None:
    """Spec table: label,mu,sigma,n."""
    fields = ("label", "mu", "sigma", "n")
    write_table(fileobj, fields, [[[getattr(spec, f) for spec in specs] for f in fields]])


def write_values_csv(series_list, fileobj) -> None:
    """Long-format value table: label,value (one row per paper), written
    one series at a time."""
    chunks = ((np.full(series.n, series.label), series.values) for series in series_list)
    write_table(fileobj, ("label", "value"), chunks)
