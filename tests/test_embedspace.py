"""Embedding model, synthetic generation, partitions, and file format."""

import fractions
import itertools
import struct
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import _per_class_draw, _traced_peak, masses_from, quantized, samples
from promix import embedspace
from promix.embedspace import (
    CHUNK_ROWS,
    MAGIC,
    BadHeaderError,
    BadMagicError,
    DomainPartition,
    EmbeddingFileError,
    EmbeddingSet,
    NonFiniteError,
    NormError,
    SyntheticConfig,
    TruncatedFileError,
    cosine_similarity,
    generate_synthetic,
    iter_embedding_chunks,
    partition_classes,
    prototype_set,
    read_embedding_file,
    read_embedding_header,
    synthetic_parts,
    unit_normalize,
    write_embedding_blocks,
    write_embedding_file,
)


class TestCosineSimilarity:
    def test_self_similarity(self):
        e = unit_normalize(np.array([1.0, 2.0, 3.0]))
        assert cosine_similarity(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self):
        e = unit_normalize(np.array([0.3, -0.4, 0.5]))
        assert cosine_similarity(e, -e) == pytest.approx(-1.0, abs=1e-12)

    def test_against_exact_rational_oracle(self):
        # unit vectors with exactly representable components: 3-4-5 style
        a = np.array([0.6, 0.8, 0.0])
        b = np.array([0.0, 0.6, 0.8])
        expected = fractions.Fraction(6, 10) * 0 + fractions.Fraction(8, 10) * fractions.Fraction(6, 10)
        assert cosine_similarity(a, b) == pytest.approx(float(expected), abs=1e-15)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = unit_normalize(rng.standard_normal(8))
            b = unit_normalize(rng.standard_normal(8))
            assert cosine_similarity(a, b) == cosine_similarity(b, a)
            assert abs(cosine_similarity(a, b)) <= 1 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="norm"):
            cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestGenerateSynthetic:
    def test_zero_intra_noise_collapses_to_prototypes(self):
        cfg = SyntheticConfig(dim=8, num_classes=4, shots=3, test_per_class=2,
                              intra_noise=0.0, proto_noise=0.1, confusion_pairs=0, seed=1)
        dom = generate_synthetic(cfg)
        for vec, label in samples(dom.train):
            assert np.array_equal(vec, dom.true_prototypes[label])

    def test_zero_proto_noise_gives_perfect_zero_shot(self):
        cfg = SyntheticConfig(dim=8, num_classes=5, shots=2, test_per_class=4,
                              intra_noise=0.0, proto_noise=0.0, confusion_pairs=0, seed=2)
        dom = generate_synthetic(cfg)
        assert np.array_equal(dom.generalized_prototypes, dom.true_prototypes)
        sims = dom.test.vectors @ dom.generalized_prototypes.T
        assert np.all(np.argmax(sims, axis=1) == dom.test.labels)

    def test_seed_determinism_is_bitwise(self):
        cfg = SyntheticConfig(seed=77)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        assert np.array_equal(a.train.vectors, b.train.vectors)
        assert np.array_equal(a.test.vectors, b.test.vectors)
        assert np.array_equal(a.generalized_prototypes, b.generalized_prototypes)

    def test_confusion_pairs_have_high_cosine(self):
        cfg = SyntheticConfig(dim=16, num_classes=10, shots=1, test_per_class=1,
                              confusion_pairs=4, seed=3)
        dom = generate_synthetic(cfg)
        cosines = [
            float(dom.true_prototypes[2 * k] @ dom.true_prototypes[2 * k + 1])
            for k in range(4)
        ]
        assert all(c >= 0.9 for c in cosines)

    def test_all_outputs_unit_norm(self):
        dom = generate_synthetic(SyntheticConfig(seed=5))
        for arr in (dom.train.vectors, dom.test.vectors,
                    dom.generalized_prototypes, dom.true_prototypes):
            np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-9)

    def test_parts_draw_the_test_split_as_class_blocks_last(self, monkeypatch):
        cfg = SyntheticConfig(dim=6, num_classes=5, shots=3, test_per_class=4,
                              confusion_pairs=1, seed=7)
        dom, parts = generate_synthetic(cfg), synthetic_parts(cfg)
        assert np.array_equal(parts.train.vectors, dom.train.vectors)
        assert np.array_equal(parts.train.labels, dom.train.labels)
        assert np.array_equal(parts.generalized_prototypes, dom.generalized_prototypes)
        assert np.array_equal(parts.true_prototypes, dom.true_prototypes)
        # one chunk per class block
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", cfg.test_per_class)
        blocks = [(v.copy(), labels.copy()) for v, labels in parts.test_chunks()]
        assert [set(labels.tolist()) for _, labels in blocks] == [{c} for c in range(5)]
        assert np.array_equal(np.concatenate([v for v, _ in blocks]), dom.test.vectors)
        assert np.array_equal(np.concatenate([l for _, l in blocks]), dom.test.labels)

    @pytest.mark.parametrize("rows", [2, 7])
    @pytest.mark.parametrize("per_class", [3, 17])
    def test_test_chunks_are_the_stacked_split_chunks(self, monkeypatch, rows, per_class):
        # per_class divides neither chunk size and neither divides it, so
        # chunks both straddle class blocks and cut through them
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", rows)
        cfg = SyntheticConfig(dim=6, num_classes=5, shots=3, test_per_class=per_class,
                              confusion_pairs=1, seed=7)
        stream = synthetic_parts(cfg).test_chunks()
        pairs = itertools.zip_longest(stream, generate_synthetic(cfg).test.chunks())
        count = 0
        for (vectors, labels), (want_vectors, want_labels) in pairs:
            assert vectors.tobytes() == want_vectors.tobytes()
            assert labels.tobytes() == want_labels.tobytes()
            count += 1
        assert count == -(-5 * per_class // rows)

    def test_test_chunks_outlive_the_train_split(self, monkeypatch):
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", 7)
        cfg = SyntheticConfig(dim=6, num_classes=5, shots=3, test_per_class=4,
                              confusion_pairs=1, seed=7)
        parts = synthetic_parts(cfg)
        train = weakref.ref(parts.train)
        base = parts.train.with_labels_in([1, 3])
        stream = parts.test_chunks()
        del parts
        assert train() is None and len(base) == 6
        pairs = itertools.zip_longest(stream, generate_synthetic(cfg).test.chunks())
        for (vectors, labels), (want_vectors, want_labels) in pairs:
            assert vectors.tobytes() == want_vectors.tobytes()
            assert labels.tobytes() == want_labels.tobytes()

    @pytest.mark.parametrize("classes", [None, [1, 3], [4, 0, 2], []])
    @pytest.mark.parametrize("per_class", [3, 17])
    @pytest.mark.parametrize("rows", [2, 7])
    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_fill_path_equals_the_per_class_draw(self, monkeypatch, sigma, rows, per_class, classes):
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", rows)
        cfg = SyntheticConfig(dim=6, num_classes=5, shots=per_class, test_per_class=per_class,
                              intra_noise=sigma, confusion_pairs=1, seed=7)
        dom = generate_synthetic(cfg)
        train_v, train_y, test_v, test_y = _per_class_draw(cfg, dom.true_prototypes)
        assert dom.train.vectors.tobytes() == train_v.tobytes()
        assert dom.train.labels.tobytes() == train_y.tobytes()
        assert dom.test.vectors.tobytes() == test_v.tobytes()
        assert dom.test.labels.tobytes() == test_y.tobytes()
        parts = synthetic_parts(cfg, classes)
        train_v, train_y, _, _ = _per_class_draw(cfg, dom.true_prototypes, classes)
        assert parts.train.vectors.tobytes() == train_v.tobytes()
        assert parts.train.labels.tobytes() == train_y.tobytes()
        stream = [(v.tobytes(), y.tobytes()) for v, y in parts.test_chunks()]
        assert b"".join(v for v, _ in stream) == test_v.tobytes()
        assert b"".join(y for _, y in stream) == test_y.tobytes()

    @pytest.mark.parametrize("classes", [[1, 3], [4, 0, 2], [], range(5)])
    def test_parts_keep_the_train_rows_of_the_given_classes(self, classes):
        cfg = SyntheticConfig(dim=6, num_classes=5, shots=3, test_per_class=4,
                              confusion_pairs=1, seed=7)
        dom, parts = generate_synthetic(cfg), synthetic_parts(cfg, classes)
        want = dom.train.with_labels_in(classes)
        assert parts.train.vectors.tobytes() == want.vectors.tobytes()
        assert parts.train.labels.tobytes() == want.labels.tobytes()
        assert parts.train.class_names == dom.train.class_names
        assert parts.train.with_labels_in(classes) is parts.train  # nothing to drop, no copy
        assert parts.generalized_prototypes.tobytes() == dom.generalized_prototypes.tobytes()
        pairs = itertools.zip_longest(parts.test_chunks(), dom.test.chunks())
        for (vectors, labels), (want_vectors, want_labels) in pairs:
            assert vectors.tobytes() == want_vectors.tobytes()
            assert labels.tobytes() == want_labels.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=0)
        with pytest.raises(ValueError):
            SyntheticConfig(intra_noise=-0.1)
        with pytest.raises(ValueError, match="intra_noise"):
            SyntheticConfig(intra_noise=float("nan"))
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=6, confusion_pairs=4)


class TestPartitionClasses:
    def test_even_split_sizes(self):
        p = partition_classes(10, "base_new_even_split", seed=0)
        assert len(p.subsets[1]) == 5 and len(p.subsets[0]) == 5
        assert not set(p.subsets[0]) & set(p.subsets[1])

    def test_cifar_style_schedule_gives_nine_sessions(self):
        p = partition_classes(100, "session_schedule", seed=0, base_size=60, way=5)
        sessions = p.subsets[1:]
        assert len(sessions) == 9
        assert len(p.subsets[0]) == 0
        assert len(sessions[0]) == 60
        assert all(len(s) == 5 for s in sessions[1:])

    def test_explicit_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            partition_classes(3, "explicit", sets=[[0, 1], [1, 2]])

    def test_explicit_incomplete_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            partition_classes(4, "explicit", sets=[[0, 1], [2]])

    def test_random_specs_satisfy_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            kind = ["base_new_even_split", "session_schedule"][int(rng.integers(0, 2))]
            if kind == "session_schedule":
                base = int(rng.integers(1, n + 1))
                rest = n - base
                way = int(rng.integers(1, rest + 1)) if rest else 1
                if rest % way != 0:
                    continue
                p = partition_classes(n, kind, seed=int(rng.integers(0, 100)),
                                      base_size=base, way=way)
            else:
                p = partition_classes(n, kind, seed=int(rng.integers(0, 100)))
            merged = np.concatenate(p.subsets)
            assert sorted(merged) == list(range(n))
            assert p.masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p.masses >= 0)

    def test_masses_from_labels(self):
        p = partition_classes(4, "explicit", sets=[[0], [1, 2], [3]])
        masses = masses_from(p, np.array([0, 1, 1, 2, 3, 3, 3, 3]))
        np.testing.assert_allclose(masses, [1 / 8, 3 / 8, 4 / 8])

    def test_schedule_must_divide(self):
        with pytest.raises(ValueError, match="does not fit"):
            partition_classes(100, "session_schedule", base_size=60, way=7)


def _random_set(rng, n=6, d=5, c=3):
    vecs = unit_normalize(rng.standard_normal((n, d)))
    labels = rng.integers(0, c, n).astype(np.int64)
    return EmbeddingSet(vecs, labels, tuple(f"class_{i}" for i in range(c)))


class TestEmbeddingFile:
    def test_file_level_round_trip_is_byte_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(100):
            s = _random_set(rng, n=int(rng.integers(0, 8)) or 1)
            p1, p2 = tmp_path / f"a{i}.emb", tmp_path / f"b{i}.emb"
            write_embedding_file(s, p1)
            write_embedding_file(read_embedding_file(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_quantized_set_round_trips_exactly(self, tmp_path):
        s = quantized(_random_set(np.random.default_rng(1)))
        path = tmp_path / "q.emb"
        write_embedding_file(s, path)
        back = read_embedding_file(path)
        assert np.array_equal(back.vectors, s.vectors)
        assert np.array_equal(back.labels, s.labels)
        assert back.class_names == s.class_names

    def test_empty_set_round_trips(self, tmp_path):
        s = EmbeddingSet(np.empty((0, 4)), np.empty(0, dtype=np.int64), ("a", "b"))
        path = tmp_path / "empty.emb"
        write_embedding_file(s, path)
        back = read_embedding_file(path)
        assert len(back) == 0 and back.dim == 4 and back.class_names == ("a", "b")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            read_embedding_file(path)

    def test_truncated_payload(self, tmp_path):
        s = _random_set(np.random.default_rng(2))
        path = tmp_path / "t.emb"
        write_embedding_file(s, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedFileError):
            read_embedding_file(path)

    def test_non_finite_rejected(self, tmp_path):
        s = _random_set(np.random.default_rng(3))
        vecs = s.vectors.copy()
        vecs[0, 0] = np.nan
        bad = EmbeddingSet.__new__(EmbeddingSet)
        object.__setattr__(bad, "vectors", vecs)
        object.__setattr__(bad, "labels", s.labels)
        object.__setattr__(bad, "class_names", s.class_names)
        with pytest.raises(NonFiniteError):
            write_embedding_file(bad, tmp_path / "nan.emb")

    def test_norm_violation_rejected(self, tmp_path):
        vecs = np.array([[1.0, 0.0], [2.0, 0.0]])
        bad = EmbeddingSet.__new__(EmbeddingSet)
        object.__setattr__(bad, "vectors", vecs)
        object.__setattr__(bad, "labels", np.array([0, 1], dtype=np.int64))
        object.__setattr__(bad, "class_names", ("a", "b"))
        path = tmp_path / "norm.emb"
        write_embedding_file(bad, path)
        with pytest.raises(NormError):
            read_embedding_file(path)

    @pytest.mark.parametrize("dim", [2**31, 2**32 - 1])
    def test_dimension_beyond_a_sample_record_is_a_bad_header(self, tmp_path, dim):
        # an empty set under a dimension no sample record can hold
        path = tmp_path / "wide.emb"
        path.write_bytes(MAGIC + struct.pack("<IIIH", dim, 0, 1, 1) + b"a")
        with pytest.raises(BadHeaderError):
            read_embedding_file(path)

    def test_prototype_file_layout(self, tmp_path):
        dom = generate_synthetic(SyntheticConfig(dim=6, num_classes=3, shots=1,
                                                 test_per_class=1, confusion_pairs=0, seed=4))
        protos = prototype_set(dom.true_prototypes, dom.train.class_names)
        path = tmp_path / "protos.emb"
        write_embedding_file(protos, path)
        back = read_embedding_file(path)
        assert len(back) == 3
        assert list(back.labels) == [0, 1, 2]


def _unchecked_set(vectors, labels, class_names):
    """An EmbeddingSet built without validation, to reach the writer's checks."""
    bad = EmbeddingSet.__new__(EmbeddingSet)
    object.__setattr__(bad, "vectors", vectors)
    object.__setattr__(bad, "labels", labels)
    object.__setattr__(bad, "class_names", class_names)
    return bad


def _poke(path, row, *, value=None, label=None):
    """Overwrite sample ``row``'s first float32 value or its label in place."""
    dim, count, _ = read_embedding_header(path)
    record = 4 + 4 * dim
    data = bytearray(path.read_bytes())
    at = len(data) - count * record + row * record
    if value is not None:
        struct.pack_into("<f", data, at + 4, value)
    if label is not None:
        struct.pack_into("<I", data, at, label)
    path.write_bytes(bytes(data))


class TestChunkedEmbeddingFile:
    """Samples are read and written CHUNK_ROWS at a time; results and error
    classes must not depend on where the chunk boundaries fall."""

    # 8191..16387 sit next to multiples of 8192, which is a multiple of any
    # power-of-two CHUNK_ROWS up to 8192; the relative counts follow CHUNK_ROWS
    @pytest.mark.parametrize(
        "count",
        [0, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3,
         8191, 8192, 8193, 16387],
    )
    def test_round_trip_is_exact_at_chunk_boundaries(self, tmp_path, count):
        s = quantized(_random_set(np.random.default_rng(count), n=count, d=3, c=5))
        path, copy = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embedding_file(s, path)
        back = read_embedding_file(path)
        assert np.array_equal(back.vectors, s.vectors)
        assert np.array_equal(back.labels, s.labels)
        assert back.class_names == s.class_names
        write_embedding_file(back, copy)
        assert copy.read_bytes() == path.read_bytes()

    def test_header_reader_reads_no_sample(self, tmp_path):
        s = _random_set(np.random.default_rng(5), n=7, d=4, c=3)
        path = tmp_path / "h.emb"
        write_embedding_file(s, path)
        _poke(path, 0, value=np.nan)
        assert read_embedding_header(path) == (4, 7, s.class_names)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFileError):
            read_embedding_header(path)

    def test_non_finite_in_a_later_chunk_wins_over_an_earlier_norm_error(self, tmp_path):
        s = _random_set(np.random.default_rng(6), n=2 * CHUNK_ROWS + 3, d=2, c=3)
        path = tmp_path / "nan.emb"
        write_embedding_file(s, path)
        _poke(path, 0, value=3.0)
        _poke(path, CHUNK_ROWS + 1, value=np.nan)
        with pytest.raises(NonFiniteError):
            read_embedding_file(path)

    def test_norm_error_in_a_later_chunk_wins_over_an_earlier_label_error(self, tmp_path):
        s = _random_set(np.random.default_rng(7), n=2 * CHUNK_ROWS + 3, d=2, c=3)
        path = tmp_path / "norm.emb"
        write_embedding_file(s, path)
        _poke(path, 1, label=3)
        _poke(path, 2 * CHUNK_ROWS + 2, value=3.0)
        with pytest.raises(NormError, match="off by"):
            read_embedding_file(path)
        _poke(path, 2 * CHUNK_ROWS + 2, value=float(s.vectors[2 * CHUNK_ROWS + 2, 0]))
        with pytest.raises(BadHeaderError, match="label"):
            read_embedding_file(path)

    def test_non_finite_in_the_last_chunk_of_a_write_creates_no_file(self, tmp_path):
        s = _random_set(np.random.default_rng(8), n=2 * CHUNK_ROWS + 3, d=2, c=3)
        vecs = s.vectors.copy()
        vecs[-1, 1] = np.inf
        path = tmp_path / "inf.emb"
        with pytest.raises(NonFiniteError):
            write_embedding_file(_unchecked_set(vecs, s.labels, s.class_names), path)
        assert not path.exists()


class TestEmbeddingStream:
    """iter_embedding_chunks and write_embedding_blocks: a file moves as
    chunks or blocks; bytes, values and errors match the whole-set calls."""

    @pytest.mark.parametrize("count", [0, CHUNK_ROWS, 2 * CHUNK_ROWS + 3])
    def test_chunks_concatenate_to_the_read_set(self, tmp_path, count):
        s = _random_set(np.random.default_rng(count), n=count, d=3, c=5)
        path = tmp_path / "s.emb"
        write_embedding_file(s, path)
        chunks = [(v.copy(), l.copy()) for v, l in iter_embedding_chunks(path)]
        assert all(0 < len(l) <= CHUNK_ROWS for _, l in chunks)
        assert len(chunks) == -(-count // CHUNK_ROWS)
        whole = read_embedding_file(path)
        vectors = np.concatenate([v for v, _ in chunks]) if chunks else np.empty((0, 3))
        labels = np.concatenate([l for _, l in chunks]) if chunks else np.empty(0)
        assert np.array_equal(vectors, whole.vectors)
        assert np.array_equal(labels, whole.labels)

    def test_stream_checks_values_in_the_read_order(self, tmp_path):
        s = _random_set(np.random.default_rng(10), n=2 * CHUNK_ROWS + 3, d=2, c=3)
        path = tmp_path / "bad.emb"
        write_embedding_file(s, path)
        _poke(path, 0, value=3.0)
        _poke(path, 1, label=3)
        seen = []
        # a norm deviation surfaces after the last chunk, ahead of the label
        with pytest.raises(NormError, match="off by"):
            for _, labels in iter_embedding_chunks(path):
                seen.append(len(labels))
        assert sum(seen) == len(s)
        _poke(path, 0, value=float(s.vectors[0, 0]))
        with pytest.raises(BadHeaderError, match="label"):
            list(iter_embedding_chunks(path))
        _poke(path, 2 * CHUNK_ROWS + 2, value=np.nan)
        seen.clear()
        # a non-finite value stops the stream before its chunk is yielded
        with pytest.raises(NonFiniteError):
            for _, labels in iter_embedding_chunks(path):
                seen.append(len(labels))
        assert seen == [CHUNK_ROWS, CHUNK_ROWS]

    def test_blocks_of_any_size_write_the_set_bytes(self, tmp_path):
        s = _random_set(np.random.default_rng(11), n=2 * CHUNK_ROWS + 3, d=4, c=3)
        write_embedding_file(s, tmp_path / "whole.emb")
        cuts = [0, 1, CHUNK_ROWS + 2, len(s)]
        blocks = [(s.vectors[a:b], s.labels[a:b]) for a, b in zip(cuts, cuts[1:])]
        write_embedding_blocks(s.dim, len(s), s.class_names, blocks, tmp_path / "blocks.emb")
        assert (tmp_path / "blocks.emb").read_bytes() == (tmp_path / "whole.emb").read_bytes()

    @pytest.mark.parametrize("fault", ["non_finite", "too_few", "too_many"])
    def test_failed_write_leaves_the_existing_file(self, tmp_path, fault):
        s = _random_set(np.random.default_rng(12), n=2 * CHUNK_ROWS + 3, d=2, c=3)
        path = tmp_path / "kept.emb"
        write_embedding_file(s, path)
        before = path.read_bytes()
        vecs = s.vectors.copy()
        if fault == "non_finite":
            vecs[-1, 1] = np.inf
            with pytest.raises(NonFiniteError):
                write_embedding_file(_unchecked_set(vecs, s.labels, s.class_names), path)
        else:
            count = len(s) + (1 if fault == "too_few" else -1)
            with pytest.raises(ValueError, match="declared"):
                write_embedding_blocks(2, count, s.class_names, [(vecs, s.labels)], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.emb"]


class TestEmbeddingMemory:
    """Traced allocations (numpy reports its buffers to tracemalloc): EMB1
    I/O holds one copy of the data plus chunk-sized buffers, and generation
    builds each split in place."""

    DIM = 16
    COUNT = 4 * CHUNK_ROWS + 5
    # float64 rows of one chunk
    CHUNK_BYTES = CHUNK_ROWS * DIM * 8

    def _written(self, tmp_path):
        s = _random_set(np.random.default_rng(9), n=self.COUNT, d=self.DIM, c=4)
        path = tmp_path / "big.emb"
        write_embedding_file(s, path)
        return s, path

    def test_read_holds_its_output_and_chunk_buffers(self, tmp_path):
        _, path = self._written(tmp_path)
        peak, back = _traced_peak(read_embedding_file, path)
        assert peak < back.vectors.nbytes + back.labels.nbytes + 2 * self.CHUNK_BYTES

    def test_write_holds_chunk_buffers(self, tmp_path):
        s, _ = self._written(tmp_path)
        peak, _ = _traced_peak(write_embedding_file, s, tmp_path / "again.emb")
        assert peak < 2 * self.CHUNK_BYTES

    def test_stream_holds_chunk_buffers(self, tmp_path):
        _, path = self._written(tmp_path)
        peak, _ = _traced_peak(lambda: sum(len(l) for _, l in iter_embedding_chunks(path)))
        assert peak < 3 * self.CHUNK_BYTES

    def test_generation_fills_each_split_in_place(self):
        config = SyntheticConfig(dim=32, num_classes=20, shots=4, test_per_class=500, seed=0)
        peak, dom = _traced_peak(generate_synthetic, config)
        output = sum(
            a.nbytes
            for a in (dom.train.vectors, dom.train.labels, dom.test.vectors, dom.test.labels,
                      dom.generalized_prototypes, dom.true_prototypes)
        )
        # a class's noisy copies: the draw, its scaled sum and the normalized rows
        one_class = 3 * config.test_per_class * config.dim * 8
        assert peak < 1.1 * output + one_class

    @pytest.mark.parametrize("scratch_rows", [1, 3, 64])
    def test_scratch_norms_are_the_linalg_norms(self, scratch_rows):
        rows = np.random.default_rng(4).standard_normal((100, 37))
        norms = embedspace._row_norms(rows, np.empty((scratch_rows, 37)))
        assert norms.tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    def test_test_stream_holds_its_chunk_and_scratch(self, tmp_path):
        # gen's test.emb: the test split streamed into the block writer
        config = SyntheticConfig(dim=32, num_classes=20, shots=4, test_per_class=500, seed=0)
        parts = synthetic_parts(config)
        count = config.num_classes * config.test_per_class
        peak, _ = _traced_peak(
            write_embedding_blocks, config.dim, count, parts.train.class_names,
            parts.test_chunks(), tmp_path / "test.emb",
        )
        record = CHUNK_ROWS * (4 + 4 * config.dim)
        # the destination block: the chunk's vector and label buffers
        chunk = CHUNK_ROWS * (config.dim + 1) * 8
        # drawing a class as its own block held two or three of them at once
        one_class = config.test_per_class * config.dim * 8
        assert peak < record + chunk + one_class


@st.composite
def _embedding_sets(draw, min_size=0):
    """Small unit-norm sets with arbitrary (UTF-8 encodable) class names."""
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
    n = draw(st.integers(min_size, 6))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = unit_normalize(rng.standard_normal((n, dim)) + 1e-3)
    labels = rng.integers(0, len(names), n)
    return EmbeddingSet(vectors, labels, tuple(names))


_file_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestEmbeddingFileProperties:
    """EMB1 under generated sets: exact round trip, and every damaged file
    rejected with a format error. A two-row chunk makes most generated
    files span several chunks."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", 2)

    @_file_settings
    @given(emb=_embedding_sets())
    def test_quantized_round_trip_is_exact(self, tmp_path, emb):
        path = tmp_path / "q.emb"
        q = quantized(emb)
        write_embedding_file(q, path)
        back = read_embedding_file(path)
        assert np.array_equal(back.vectors, q.vectors)
        assert np.array_equal(back.labels, q.labels)
        assert back.class_names == q.class_names

    @_file_settings
    @given(emb=_embedding_sets())
    def test_truncation_at_every_offset_is_rejected(self, tmp_path, emb):
        path = tmp_path / "t.emb"
        write_embedding_file(emb, path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises((TruncatedFileError, BadMagicError)):
                read_embedding_file(path)

    @_file_settings
    @given(emb=_embedding_sets(min_size=1))
    def test_every_flipped_header_bit_is_rejected(self, tmp_path, emb):
        # fields: magic, dim, count, classes (four little-endian u32 words); a
        # non-empty set, since an empty one reads back under any dimension
        path = tmp_path / "h.emb"
        write_embedding_file(emb, path)
        data = path.read_bytes()
        for field in range(4):
            (word,) = struct.unpack_from("<I", data, 4 * field)
            for bit in range(32):
                flipped = bytearray(data)
                struct.pack_into("<I", flipped, 4 * field, word ^ (1 << bit))
                path.write_bytes(bytes(flipped))
                with pytest.raises(EmbeddingFileError):
                    read_embedding_file(path)


class TestDomainPartitionType:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DomainPartition((np.array([0]), np.array([1])), np.array([0.5, 0.4]))

    def test_subset_and_label_helpers(self):
        p = partition_classes(6, "explicit", sets=[[5, 0], [1, 2], [3, 4]])
        owners = p.owner_of()
        assert owners[0] == 0 and owners[2] == 1 and owners[4] == 2
        assert p.num_specialized == 2
