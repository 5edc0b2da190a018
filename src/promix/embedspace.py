"""Embedding data model, deterministic synthetic domains, and file I/O.

Embeddings stand in for frozen-encoder outputs: unit-norm float64 vectors
with integer class labels. Everything downstream operates on similarities
only, so a static embedding set carries all the information the rest of
the library needs.

On-disk format (``EMB1``, little-endian throughout)::

    magic   4 bytes  b"EMB1"
    dim     u32
    count   u32      number of samples
    classes u32      number of class names
    names   classes x (u16 length + UTF-8 bytes)
    samples count x (u32 label + dim x f32)

Values are stored as float32. ``read_embedding_file`` returns the stored
values verbatim (promoted to float64) so that read -> write reproduces a
file byte for byte; vectors whose norm deviates from 1 by more than
NORM_TOLERANCE are rejected.

``read_embedding_header`` reads the header alone: the dimension, the
sample count and the class names, after the format checks and a check that
the file holds exactly ``count`` samples. Samples move CHUNK_ROWS at a time
through one reused record buffer. ``iter_embedding_chunks`` streams a file
as (vectors, labels) chunks that the next chunk overwrites, and
``read_embedding_file`` fills its float64 result through the same reader.
``write_embedding_blocks`` writes samples given as blocks of any size, so a
split can be written while it is drawn; ``write_embedding_file`` writes a
set through it. A write goes to a temporary file renamed into place, so a
failed write leaves any existing file as it was.

Synthetic splits are drawn in class order straight into their
destination: the stacked arrays of a set, or the chunk buffer of a stream.
``synthetic_parts`` leaves a synthetic domain's test split undrawn, to be
drawn chunk by chunk as it is streamed; ``generate_synthetic`` draws it
into one set.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

UNIT_ATOL = 1e-9
NORM_TOLERANCE = 1e-6
MAGIC = b"EMB1"
# samples per read or write step of an EMB1 payload
CHUNK_ROWS = 1024
# rows squared at a time when norms are taken through a scratch buffer
SCRATCH_ROWS = 64


class EmbeddingFileError(Exception):
    """Base class for embedding-file format errors."""


class BadMagicError(EmbeddingFileError):
    """File does not start with the EMB1 magic bytes."""


class BadHeaderError(EmbeddingFileError):
    """Header fields are inconsistent (zero dim, absurd counts, ...)."""


class TruncatedFileError(EmbeddingFileError):
    """File ends before the payload promised by the header."""


class NonFiniteError(EmbeddingFileError):
    """Payload contains NaN or infinite values."""


class NormError(EmbeddingFileError):
    """Stored vector norm deviates from 1 beyond NORM_TOLERANCE."""


class FieldError(ValueError):
    """A config dataclass field out of its range. ``field`` names it as a
    path below the dataclass: ``tau``, or ``seeds/1`` for one entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


def unit_normalize(v: np.ndarray) -> np.ndarray:
    """Scale vectors to unit Euclidean norm (rows of a 2-d array, or 1-d)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return v / n
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / norms


def check_unit(v: np.ndarray, atol: float = UNIT_ATOL) -> None:
    """Raise ValueError unless every row of ``v`` has norm 1 within atol."""
    norms = np.linalg.norm(np.atleast_2d(np.asarray(v, dtype=np.float64)), axis=1)
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if worst > atol:
        raise ValueError(f"embedding norm deviates from 1 by {worst:.3e} (> {atol:.0e})")


@dataclass(frozen=True)
class EmbeddingSet:
    """Ordered collection of labeled embeddings with a shared class list.

    ``vectors`` is an (N, D) float64 array; ``labels`` an (N,) int64 array
    indexing into ``class_names``. Instances are immutable; mutating
    methods return new sets.
    """

    vectors: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        vectors = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if labels.shape != (vectors.shape[0],):
            raise ValueError("labels must be one per sample")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise ValueError("label out of range of class_names")
        vectors.setflags(write=False)
        labels.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def subset(self, mask: np.ndarray) -> "EmbeddingSet":
        """Rows selected by a boolean mask or index array, order preserved."""
        return EmbeddingSet(self.vectors[mask], self.labels[mask], self.class_names)

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The samples in order as (vectors, labels) views of at most
        CHUNK_ROWS rows."""
        for start in range(0, len(self), CHUNK_ROWS):
            yield self.vectors[start : start + CHUNK_ROWS], self.labels[start : start + CHUNK_ROWS]

    def with_labels_in(self, classes: Sequence[int]) -> "EmbeddingSet":
        """Samples whose label lies in ``classes`` (global labels kept); the
        set itself when it holds no other samples."""
        mask = np.isin(self.labels, np.asarray(list(classes), dtype=np.int64))
        return self if mask.all() else self.subset(mask)


@dataclass(frozen=True)
class DomainPartition:
    """Disjoint class subsets Y_0..Y_K.

    ``subsets[0]`` is the domain of the generalized (untuned) head; the
    remaining subsets each belong to one specialized head.
    """

    subsets: tuple[np.ndarray, ...]

    def __post_init__(self):
        subsets = tuple(
            np.ascontiguousarray(np.sort(np.asarray(s, dtype=np.int64))) for s in self.subsets
        )
        object.__setattr__(self, "subsets", subsets)
        all_classes = np.concatenate(subsets) if subsets else np.empty(0, dtype=np.int64)
        if len(np.unique(all_classes)) != len(all_classes):
            raise ValueError("subsets overlap")
        expected = np.arange(self.num_classes, dtype=np.int64)
        if not np.array_equal(np.sort(all_classes), expected):
            raise ValueError("subsets do not cover the class range exactly")
        for s in subsets:
            s.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return int(sum(len(s) for s in self.subsets))

    @property
    def num_specialized(self) -> int:
        """K: the number of subsets owned by specialized heads."""
        return len(self.subsets) - 1

    def owner_of(self) -> np.ndarray:
        """Map class index -> owning subset index, as an int array."""
        owners = np.empty(self.num_classes, dtype=np.int64)
        for i, s in enumerate(self.subsets):
            owners[s] = i
        return owners


def partition_classes(
    class_count: int,
    kind: str = "base_new_even_split",
    seed: int = 0,
    base_size: int | None = None,
    way: int | None = None,
    sets: Sequence[Sequence[int]] | None = None,
) -> DomainPartition:
    """Build a class partition for one of the supported protocols.

    ``base_new_even_split``
        Seeded shuffle; the first ceil(n/2) classes form Y_1 (the tuning
        domain), the rest Y_0.
    ``session_schedule``
        Seeded shuffle; Y_1 holds ``base_size`` classes, then fixed-width
        ``way``-class sessions Y_2..Y_K. Y_0 is empty. The remainder after
        the base must divide evenly by ``way``.
    ``explicit``
        ``sets`` passed through (first entry is Y_0) after validation.
    """
    if class_count <= 0:
        raise ValueError("class_count must be positive")
    if kind == "base_new_even_split":
        rng = np.random.default_rng(seed)
        order = rng.permutation(class_count)
        half = (class_count + 1) // 2
        subsets = [order[half:], order[:half]]
    elif kind == "session_schedule":
        if base_size is None or way is None:
            raise ValueError("session_schedule requires base_size and way")
        rest = class_count - base_size
        if base_size <= 0 or way <= 0 or rest < 0 or rest % way != 0:
            raise ValueError(
                f"schedule {base_size}+k*{way} does not fit {class_count} classes"
            )
        rng = np.random.default_rng(seed)
        order = rng.permutation(class_count)
        subsets = [np.empty(0, dtype=np.int64), order[:base_size]]
        for start in range(base_size, class_count, way):
            subsets.append(order[start : start + way])
    elif kind == "explicit":
        if not sets:
            raise ValueError("explicit partition requires sets")
        subsets = [np.asarray(list(s), dtype=np.int64) for s in sets]
        merged = np.concatenate(subsets) if subsets else np.empty(0, dtype=np.int64)
        if len(np.unique(merged)) != len(merged):
            raise ValueError("explicit sets overlap")
        if not np.array_equal(np.sort(merged), np.arange(class_count, dtype=np.int64)):
            raise ValueError(f"explicit sets do not cover all {class_count} classes")
    else:
        raise ValueError(f"unknown partition kind: {kind!r}")
    return DomainPartition(tuple(subsets))


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the deterministic synthetic embedding domain.

    ``intra_noise`` spreads samples around their class prototype;
    ``proto_noise`` misaligns the generalized head's anchors from the true
    prototypes; ``confusion_pairs`` forces that many prototype pairs to a
    cosine of at least 0.9.
    """

    dim: int = 48
    num_classes: int = 32
    shots: int = 16
    test_per_class: int = 100
    intra_noise: float = 0.10
    proto_noise: float = 0.22
    confusion_pairs: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "num_classes", "shots", "test_per_class"):
            if getattr(self, name) <= 0:
                raise FieldError(name, "must be positive")
        for name in ("intra_noise", "proto_noise"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "must be finite and non-negative")
        if not 0 <= self.confusion_pairs <= self.num_classes // 2:
            raise FieldError("confusion_pairs", "must lie in [0, num_classes/2]")


@dataclass(frozen=True)
class SyntheticDomain:
    """Everything generate_synthetic produces for one seed."""

    train: EmbeddingSet
    test: EmbeddingSet
    generalized_prototypes: np.ndarray
    true_prototypes: np.ndarray


def _row_norms(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)`` bit for bit, with the squares written
    ``len(scratch)`` rows at a time into ``scratch`` instead of a new array."""
    sums = np.empty(len(rows))
    for i in range(0, len(rows), len(scratch)):
        block = rows[i : i + len(scratch)]
        squares = np.multiply(block, block, out=scratch[: len(block)])
        np.add.reduce(squares, axis=1, out=sums[i : i + len(block)])
    return np.sqrt(sums, out=sums)


class _ClassRows:
    """A split in class order, ``per_class`` rows per prototype, each a
    renormalized Gaussian perturbation of it with spread ``sigma`` (a copy
    when ``sigma`` is 0, which draws nothing). Rows are drawn in order
    straight into the caller's buffers, one ``standard_normal`` call per
    buffer, and normalized in place class run by class run through one
    scratch of at most SCRATCH_ROWS rows. Drawing in pieces gives the rows
    of one draw per class: the generator yields the same values in order."""

    def __init__(self, rng: np.random.Generator, protos: np.ndarray, per_class: int, sigma: float):
        self.rng, self.protos, self.per_class, self.sigma = rng, protos, per_class, sigma
        self.row = 0  # the next row of the split to draw

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        """Allocated at the first draw, so an undrawn split holds no memory."""
        return np.empty((min(self.per_class, SCRATCH_ROWS), self.protos.shape[1]))

    def fill(self, vectors: np.ndarray, labels: np.ndarray) -> None:
        """Draw the next ``len(labels)`` rows into ``vectors`` and ``labels``."""
        if self.sigma != 0.0:
            self.rng.standard_normal(out=vectors)
            vectors *= self.sigma
        at = 0
        while at < len(labels):
            c, offset = divmod(self.row + at, self.per_class)
            n = min(self.per_class - offset, len(labels) - at)
            rows = vectors[at : at + n]
            labels[at : at + n] = c
            if self.sigma == 0.0:
                rows[...] = self.protos[c]
            else:
                rows += self.protos[c]
                norms = _row_norms(rows, self.scratch)
                if np.any(norms == 0.0):
                    raise ValueError("cannot normalize a zero vector")
                rows /= norms[:, None]
            at += n
        self.row += len(labels)

    def stacked(self, names: tuple[str, ...], keep: np.ndarray) -> EmbeddingSet:
        """The rows of the classes where ``keep`` holds, as one set: each run
        of kept classes is drawn into place, each run of others dropped."""
        vectors = np.empty((int(keep.sum()) * self.per_class, self.protos.shape[1]))
        labels = np.empty(len(vectors), dtype=np.int64)
        at = 0
        for kept, run in itertools.groupby(keep):
            rows = sum(1 for _ in run) * self.per_class
            if kept:
                self.fill(vectors[at : at + rows], labels[at : at + rows])
                at += rows
                continue
            # drawn into the scratch and dropped
            for start in range(0, rows if self.sigma != 0.0 else 0, len(self.scratch)):
                self.rng.standard_normal(out=self.scratch[: rows - start])
            self.row += rows
        return EmbeddingSet(vectors, labels, names)

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every row as (vectors, labels) chunks of at most CHUNK_ROWS rows,
        each drawn into two buffers that the next chunk overwrites."""
        count = self.protos.shape[0] * self.per_class
        vectors = np.empty((min(count, CHUNK_ROWS), self.protos.shape[1]))
        labels = np.empty(len(vectors), dtype=np.int64)
        for start in range(0, count, CHUNK_ROWS):
            n = min(CHUNK_ROWS, count - start)
            self.fill(vectors[:n], labels[:n])
            yield vectors[:n], labels[:n]


class SyntheticParts(NamedTuple):
    """A synthetic domain whose test split is drawn only by ``test_chunks()``
    or ``test_set()``, once."""

    train: EmbeddingSet
    generalized_prototypes: np.ndarray
    true_prototypes: np.ndarray
    test_rows: _ClassRows

    def test_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The test split as the chunks :meth:`EmbeddingSet.chunks` gives on it
        stacked, each a view of two buffers that the next chunk overwrites and
        drawn only once the chunks before it are consumed. The stream does not
        hold these parts, so the train split can go first."""
        return self.test_rows.chunks()

    def test_set(self) -> EmbeddingSet:
        """The test split drawn into one set."""
        every = np.ones(len(self.true_prototypes), dtype=bool)
        return self.test_rows.stacked(self.train.class_names, every)


def synthetic_parts(config: SyntheticConfig, classes: Sequence[int] | None = None) -> SyntheticParts:
    """Deterministically generate a labeled embedding domain.

    Class prototypes are uniform on the unit sphere except for the
    configured confusion pairs, whose second member is placed at a cosine
    drawn from [0.9, 0.975] of the first. Train/test samples are
    renormalized Gaussian perturbations of the true prototypes; the
    generalized anchors are perturbations controlled by ``proto_noise``.
    Identical seeds give bit-identical output.

    The test split is drawn last, from the same generator, so it can be
    left undrawn without changing anything else. ``train`` holds the rows
    of ``classes`` only (default: all), bitwise ``with_labels_in(classes)``
    of the full split: every class is still drawn in order, and the rows of
    the others are dropped as they come.
    """
    rng = np.random.default_rng(config.seed)
    d, n = config.dim, config.num_classes

    protos = unit_normalize(rng.standard_normal((n, d)))
    for k in range(config.confusion_pairs):
        a, b = 2 * k, 2 * k + 1
        target = rng.uniform(0.9, 0.975)
        g = rng.standard_normal(d)
        g -= (g @ protos[a]) * protos[a]
        g = unit_normalize(g)
        protos[b] = target * protos[a] + np.sqrt(1.0 - target * target) * g
    protos.setflags(write=False)

    if config.proto_noise == 0.0:
        anchors = protos.copy()
    else:
        anchors = unit_normalize(
            protos + config.proto_noise * rng.standard_normal((n, d))
        )
    anchors.setflags(write=False)

    names = tuple(f"class_{i:03d}" for i in range(n))
    keep = np.zeros(n, dtype=bool)
    keep[np.arange(n) if classes is None else np.asarray(list(classes), dtype=np.int64)] = True
    train = _ClassRows(rng, protos, config.shots, config.intra_noise).stacked(names, keep)
    test_rows = _ClassRows(rng, protos, config.test_per_class, config.intra_noise)
    return SyntheticParts(train, anchors, protos, test_rows)


def generate_synthetic(config: SyntheticConfig) -> SyntheticDomain:
    """The domain of :func:`synthetic_parts` with its test split drawn into
    one set."""
    parts = synthetic_parts(config)
    return SyntheticDomain(
        parts.train, parts.test_set(), parts.generalized_prototypes, parts.true_prototypes
    )


def prototype_set(prototypes: np.ndarray, class_names: Sequence[str]) -> EmbeddingSet:
    """Wrap a (C, D) prototype array as a one-sample-per-class set."""
    protos = np.asarray(prototypes, dtype=np.float64)
    return EmbeddingSet(protos, np.arange(protos.shape[0], dtype=np.int64), tuple(class_names))


def _record_dtype(dim: int) -> np.dtype:
    """One EMB1 sample: a u32 label followed by ``dim`` float32 values."""
    return np.dtype([("label", "<u4"), ("vec", "<f4", (dim,))])


def write_embedding_blocks(
    dim: int,
    count: int,
    class_names: Sequence[str],
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    path,
) -> None:
    """Serialize ``count`` samples, given in order as (vectors, labels)
    blocks of any size, in the EMB1 layout (float32 payload).

    Each block is cast CHUNK_ROWS rows at a time into one reused record
    buffer and written. The file is written beside ``path`` under a
    temporary name and renamed over ``path`` once complete. On any error,
    such as a ``NonFiniteError`` or blocks holding other than ``count``
    samples, the temporary file is removed and ``path`` is left as it was.
    """
    parts = [MAGIC, struct.pack("<III", dim, count, len(class_names))]
    for name in class_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"class name too long: {name!r}")
        parts.append(struct.pack("<H", len(raw)) + raw)
    buf = np.empty(min(count, CHUNK_ROWS), dtype=_record_dtype(dim))
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
            written = 0
            for vectors, labels in blocks:
                if written + len(labels) > count:
                    raise ValueError(f"blocks hold more than the {count} samples declared")
                for start in range(0, len(labels), CHUNK_ROWS):
                    rows = buf[: min(CHUNK_ROWS, len(labels) - start)]
                    rows["label"] = labels[start : start + len(rows)]
                    rows["vec"] = vectors[start : start + len(rows)]
                    if not np.isfinite(rows["vec"]).all():
                        raise NonFiniteError("set contains non-finite values")
                    rows.tofile(fh)
                written += len(labels)
            if written != count:
                raise ValueError(f"blocks hold {written} samples, {count} declared")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_embedding_file(emb_set: EmbeddingSet, path) -> None:
    """Serialize a set in the EMB1 layout (float32 payload) through
    :func:`write_embedding_blocks`, so a failed write leaves any existing
    file as it was."""
    write_embedding_blocks(
        emb_set.dim, len(emb_set), emb_set.class_names,
        [(emb_set.vectors, emb_set.labels)], path,
    )


class EmbeddingHeader(NamedTuple):
    """What an EMB1 header declares about the samples that follow it."""

    dim: int
    count: int
    class_names: tuple[str, ...]


def _read_header(fh, path) -> EmbeddingHeader:
    """Parse the header at the start of ``fh``, leaving ``fh`` at the first
    sample, and check that the file size matches ``count`` records."""
    head = fh.read(16)
    if len(head) < 4 or head[:4] != MAGIC:
        raise BadMagicError(f"{path}: not an EMB1 file")
    if len(head) < 16:
        raise TruncatedFileError(f"{path}: header truncated")
    dim, count, n_classes = struct.unpack_from("<III", head, 4)
    if dim == 0:
        raise BadHeaderError(f"{path}: zero dimension")
    try:
        record = _record_dtype(dim)
    except ValueError as exc:
        raise BadHeaderError(f"{path}: dimension {dim} too large for a sample record") from exc
    names = []
    for _ in range(n_classes):
        raw = fh.read(2)
        if len(raw) < 2:
            raise TruncatedFileError(f"{path}: class-name block truncated")
        (length,) = struct.unpack("<H", raw)
        raw = fh.read(length)
        if len(raw) < length:
            raise TruncatedFileError(f"{path}: class-name block truncated")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadHeaderError(f"{path}: class name is not UTF-8") from exc
    if fh.tell() + count * record.itemsize != os.fstat(fh.fileno()).st_size:
        raise TruncatedFileError(
            f"{path}: expected {count} samples of {record.itemsize} bytes after names"
        )
    return EmbeddingHeader(dim, count, tuple(names))


def read_embedding_header(path) -> EmbeddingHeader:
    """Read and check an EMB1 header without reading any sample.

    Runs every check of :func:`read_embedding_file` that needs no sample
    values: magic, dimension, UTF-8 class names, and a file size equal to
    the header's ``count`` records.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _read_samples(fh, path, header: EmbeddingHeader, check_norms: bool, vectors, labels):
    """Read the samples after the header into ``vectors`` and ``labels``,
    yielding each chunk as (vectors, labels) views once it is checked.

    The outputs hold either every sample, filled in place, or one chunk,
    overwritten by the next. A non-finite value stops the read at once;
    after the last chunk, a norm deviation wins over a label beyond the
    class count.
    """
    dim, count, names = header
    buf = np.empty(min(count, CHUNK_ROWS), dtype=_record_dtype(dim))
    reuse = len(labels) < count
    squares = np.empty((min(count, SCRATCH_ROWS), dim)) if check_norms else None
    worst = 0.0
    label_over = False
    for start in range(0, count, CHUNK_ROWS):
        rows = buf[: min(CHUNK_ROWS, count - start)]
        if fh.readinto(rows.view(np.uint8)) != rows.nbytes:
            raise TruncatedFileError(f"{path}: payload ended early")
        if not np.isfinite(rows["vec"]).all():
            raise NonFiniteError(f"{path}: non-finite embedding values")
        at = 0 if reuse else start
        out = vectors[at : at + len(rows)]
        out[...] = rows["vec"]
        labels[at : at + len(rows)] = rows["label"]
        if check_norms:
            norms = _row_norms(out, squares)
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        label_over = label_over or bool(np.any(rows["label"] >= max(len(names), 1)))
        yield out, labels[at : at + len(rows)]
    if worst > NORM_TOLERANCE:
        raise NormError(f"{path}: vector norm off by {worst:.3e} (> {NORM_TOLERANCE:.0e})")
    if label_over:
        raise BadHeaderError(f"{path}: sample label exceeds class count")


def iter_embedding_chunks(path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream an EMB1 file's samples as float64 (vectors, labels) chunks of
    at most CHUNK_ROWS rows.

    Each chunk is a view of two buffers that the next chunk overwrites, so
    a consumer must be done with it before asking for the next. The checks
    of :func:`read_embedding_file` run in the same order: a
    ``NonFiniteError`` before the chunk holding the value is yielded, and
    after the last chunk a ``NormError``, then a ``BadHeaderError`` for a
    label beyond the class count. The file is opened when iteration starts.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        rows = min(header.count, CHUNK_ROWS)
        yield from _read_samples(
            fh, path, header, True, np.empty((rows, header.dim)), np.empty(rows, dtype=np.int64)
        )


def read_embedding_file(path, check_norms: bool = True) -> EmbeddingSet:
    """Parse an EMB1 file, validating format, finiteness, and norms.

    Stored float32 values are returned verbatim (as float64), so writing
    the result back yields a byte-identical file. ``check_norms=False``
    skips the unit-norm validation; head checkpoints use the same layout
    for context vectors, which are unconstrained.

    Samples are read CHUNK_ROWS at a time through one record buffer into
    the preallocated outputs. A non-finite value anywhere wins over a norm
    deviation, which wins over a label beyond the class count.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        vectors = np.empty((header.count, header.dim), dtype=np.float64)
        labels = np.empty(header.count, dtype=np.int64)
        for _ in _read_samples(fh, path, header, check_norms, vectors, labels):
            pass
    return EmbeddingSet(vectors, labels, header.class_names)
