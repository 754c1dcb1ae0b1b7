"""ColumnarRecordStore: RecordStore semantics over memory-mapped files.

The headline property — checked with hypothesis across interleaved
insert/extend/delete/query streams — is indistinguishability: a colstore and
the in-memory :class:`RecordStore` fed the same operations expose identical
ids, matrices, liveness and snapshots at every step.  The rest covers what
only a file-backed store has: persistence across re-open, read-only
attachment, generation retirement, and manifest schema validation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.colstore import ColumnarRecordStore, attach_columns, read_manifest
from repro.colstore.store import write_manifest
from repro.dynamic.store import RecordStore
from repro.exceptions import InvalidDatasetError, StorageError

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def small_values(n=6, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestRecordStoreContract:
    def test_matches_in_memory_store_on_basics(self, tmp_path):
        values = small_values()
        reference = RecordStore(values)
        store = ColumnarRecordStore(values, directory=tmp_path)
        assert store.dimensionality == reference.dimensionality
        assert len(store) == len(reference)
        np.testing.assert_array_equal(store.matrix, reference.matrix)
        new_id = store.insert([0.5, 0.6, 0.7])
        assert new_id == reference.insert([0.5, 0.6, 0.7])
        np.testing.assert_array_equal(
            store.delete(2), reference.delete(2)
        )
        np.testing.assert_array_equal(store.active_ids(), reference.active_ids())
        ids, snapshot = store.snapshot()
        ref_ids, ref_snapshot = reference.snapshot()
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(snapshot, ref_snapshot)

    def test_columns_are_contiguous_views(self, tmp_path):
        values = small_values()
        store = ColumnarRecordStore(values, directory=tmp_path)
        for axis in range(3):
            column = store.column(axis)
            assert column.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(column, values[:, axis])
        with pytest.raises(IndexError):
            store.column(3)

    def test_growth_bumps_generation_and_retires_files(self, tmp_path):
        store = ColumnarRecordStore(small_values(4), directory=tmp_path, capacity=4)
        assert store.generation == 0
        store.extend(small_values(30, seed=1))  # outgrows MIN_CAPACITY
        assert store.generation >= 1
        binaries = sorted(p.name for p in tmp_path.glob("*.bin"))
        assert binaries == [
            f"active.g{store.generation}.bin",
            f"columns.g{store.generation}.bin",
        ]

    def test_rejects_bad_rows(self, tmp_path):
        store = ColumnarRecordStore(small_values(), directory=tmp_path)
        with pytest.raises(InvalidDatasetError):
            store.insert([0.1, 0.2])
        with pytest.raises(InvalidDatasetError):
            store.extend(np.full((2, 3), np.nan))


class TestPersistence:
    def test_round_trips_through_close_and_open(self, tmp_path):
        values = small_values(8)
        store = ColumnarRecordStore(values, directory=tmp_path)
        store.delete(3)
        inserted = store.insert([0.9, 0.8, 0.7])
        store.close()

        reopened = ColumnarRecordStore.open(tmp_path)
        assert reopened.high_water == 9
        assert len(reopened) == 8
        assert not reopened.is_active(3)
        np.testing.assert_array_equal(reopened.row(inserted), [0.9, 0.8, 0.7])
        np.testing.assert_array_equal(reopened.matrix[:8], values)
        reopened.insert([0.1, 0.2, 0.3])  # still writable
        reopened.close()

    def test_read_only_mode_blocks_mutation(self, tmp_path):
        ColumnarRecordStore(small_values(), directory=tmp_path).close()
        store = ColumnarRecordStore.open(tmp_path, mode="r")
        np.testing.assert_array_equal(store.matrix, small_values())
        for mutate in (
            lambda: store.insert([0.1, 0.2, 0.3]),
            lambda: store.extend(small_values(2)),
            lambda: store.delete(0),
        ):
            with pytest.raises(StorageError, match="read-only"):
                mutate()

    def test_from_chunks_equals_concatenation(self, tmp_path):
        chunks = [small_values(5, seed=s) for s in range(4)]
        store = ColumnarRecordStore.from_chunks(iter(chunks), tmp_path / "s")
        np.testing.assert_array_equal(store.matrix, np.concatenate(chunks))
        assert len(store) == 20

    def test_from_chunks_rejects_empty_iterator(self, tmp_path):
        with pytest.raises(StorageError, match="at least one chunk"):
            ColumnarRecordStore.from_chunks(iter([]), tmp_path / "s")

    def test_manifest_schema_is_validated(self, tmp_path):
        store = ColumnarRecordStore(small_values(), directory=tmp_path)
        store.close()
        manifest = read_manifest(tmp_path)
        manifest["schema"] = 99
        write_manifest(tmp_path, manifest)
        with pytest.raises(StorageError, match="schema"):
            ColumnarRecordStore.open(tmp_path)

    def test_non_colstore_directory_is_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            ColumnarRecordStore.open(tmp_path)


class TestWorkerAttachment:
    def test_attach_columns_maps_read_only(self, tmp_path):
        values = small_values()
        store = ColumnarRecordStore(values, directory=tmp_path)
        attached = attach_columns(store.mmap_location(), store.high_water)
        np.testing.assert_array_equal(attached, values)
        with pytest.raises(ValueError):
            attached[0, 0] = 1.0  # read-only mapping

    def test_stale_descriptor_raises_file_not_found(self, tmp_path):
        store = ColumnarRecordStore(small_values(4), directory=tmp_path, capacity=4)
        stale = store.mmap_location()
        store.extend(small_values(30, seed=1))  # grows, retires generation 0
        with pytest.raises(FileNotFoundError):
            attach_columns(stale, 4)


class TestInterleavedEquivalence:
    """Hypothesis: op-stream indistinguishability from the in-memory store."""

    @common_settings
    @given(
        seed=st.integers(0, 10_000),
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "extend", "delete"]),
                      st.integers(0, 10_000)),
            min_size=1, max_size=30,
        ),
    )
    def test_matches_in_memory_store(self, tmp_path_factory, seed, ops):
        rng = np.random.default_rng(seed)
        values = rng.random((4, 3))
        directory = tmp_path_factory.mktemp("colstore")
        reference = RecordStore(values)
        store = ColumnarRecordStore(values, directory=directory, capacity=4)
        try:
            for op, draw in ops:
                if op == "insert":
                    row = np.random.default_rng(draw).random(3)
                    assert store.insert(row) == reference.insert(row)
                elif op == "extend":
                    rows = np.random.default_rng(draw).random((1 + draw % 5, 3))
                    np.testing.assert_array_equal(
                        store.extend(rows), reference.extend(rows)
                    )
                else:
                    active = reference.active_ids()
                    if active.size == 0:
                        continue
                    victim = int(active[draw % active.size])
                    np.testing.assert_array_equal(
                        store.delete(victim), reference.delete(victim)
                    )
                # Every intermediate state must be indistinguishable.
                assert len(store) == len(reference)
                assert store.high_water == reference.high_water
                np.testing.assert_array_equal(store.matrix, reference.matrix)
                np.testing.assert_array_equal(
                    store.active_mask(), reference.active_mask()
                )
        finally:
            store.close()
