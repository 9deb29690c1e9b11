"""``repro migrate``: v1 directories upgrade in place (ISSUE 9 sat. 1).

The v1 layout (``arrays.npz`` + ``partitions.pkl``) is synthesized by a
faithful copy of the v1 writer, so the tests prove the real contract:
the v2 loaders reject the old directory with a pointer at ``repro
migrate``, migration rewrites it atomically, and the migrated index
answers bit-identically to one built fresh from the same trajectories.
"""

import json
import pickle

import numpy as np
import pytest

from repro import (
    FixedInterval,
    PeriodicInterval,
    ShardedSNTIndex,
    SNTIndex,
    StrictPathQuery,
    generate_dataset,
    get_travel_times,
)
from repro.errors import IndexFormatError, PersistenceError
from repro.sntindex.migrate import migrate_index_dir
from repro.sntindex.persistence import load_index
from repro.sntindex.sharded import _entry_manifest, load_sharded_index

PARTITION_DAYS = 7
_V1_COLUMNS = ("t", "isa", "d", "tt", "a", "seq", "w")


def write_v1_payload(index, target, extra=None):
    """The PR-1/PR-2 on-disk writer, verbatim (npz + pickle + meta v1)."""
    target.mkdir(parents=True, exist_ok=True)
    edges = sorted(index.forest.edges())
    chunks = {name: [] for name in _V1_COLUMNS}
    offsets = np.zeros(len(edges) + 1, dtype=np.int64)
    for i, edge in enumerate(edges):
        columns = index.forest.get(edge).columns
        offsets[i + 1] = offsets[i] + len(columns)
        for name in _V1_COLUMNS:
            chunks[name].append(getattr(columns, name))
    arrays = {
        "users": index.users,
        "edge_ids": np.asarray(edges, dtype=np.int64),
        "edge_offsets": offsets,
    }
    for name in _V1_COLUMNS:
        arrays[f"col_{name}"] = (
            np.concatenate(chunks[name]) if chunks[name] else np.empty(0)
        )
    tod_keys, tod_counts = index.tod_store.as_arrays()
    arrays["tod_keys"] = tod_keys
    arrays["tod_counts"] = tod_counts
    np.savez_compressed(target / "arrays.npz", **arrays)
    with open(target / "partitions.pkl", "wb") as handle:
        pickle.dump(
            list(index.partitions), handle, protocol=pickle.HIGHEST_PROTOCOL
        )
    stats = index.build_stats
    meta = {
        "format": "snt-index",
        "format_version": 1,
        "kind": index.kind,
        "partition_days": index.partition_days,
        "t_min": index.t_min,
        "t_max": index.t_max,
        "alphabet_size": index.alphabet_size,
        "tod_bucket_s": index.tod_store.bucket_width_s,
        "build_stats": {
            "setup_seconds": stats.setup_seconds,
            "n_partitions": stats.n_partitions,
            "n_trajectories": stats.n_trajectories,
            "n_traversals": stats.n_traversals,
        },
        "extra": dict(extra or {}),
    }
    (target / "meta.json").write_text(json.dumps(meta, indent=2))


def write_v1_sharded(sharded, target, extra=None):
    """The PR-3-era sharded tree: v1 shard dirs + format_version 1."""
    target.mkdir(parents=True, exist_ok=True)
    shard_dirs = []
    for i, entry in enumerate(sharded._sealed):
        directory = f"shard_{i:04d}"
        write_v1_payload(entry.index, target / directory)
        shard_dirs.append(_entry_manifest(entry, directory))
    staging_manifest = None
    if sharded._staging is not None:
        write_v1_payload(sharded._staging.index, target / "staging")
        staging_manifest = _entry_manifest(sharded._staging, "staging")
        with open(target / "staging_trajectories.pkl", "wb") as handle:
            pickle.dump(sharded._staged, handle)
    manifest = {
        "format": "snt-sharded-index",
        "format_version": 1,
        "alphabet_size": sharded.alphabet_size,
        "kind": sharded.kind,
        "partition_days": sharded.partition_days,
        "t_min": sharded.t_min,
        "t_max": sharded.t_max,
        "tod_bucket_s": sharded.tod_bucket_s,
        "epoch": sharded.epoch,
        "epoch_token": sharded.epoch_token,
        "shards": shard_dirs,
        "staging": staging_manifest,
        "extra": dict(extra or {}),
    }
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2))


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset("tiny", seed=0)
    mono = SNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        partition_days=PARTITION_DAYS,
    )
    sharded = ShardedSNTIndex.build(
        dataset.trajectories,
        dataset.network.alphabet_size,
        n_shards=3,
        partition_days=PARTITION_DAYS,
    )
    trips = [tr for tr in dataset.trajectories if len(tr) >= 3]
    return dataset, mono, sharded, trips


def _assert_answers_match(mono, loaded, trips):
    interval = FixedInterval(mono.t_min, mono.t_min + 14 * 86_400)
    for trip in trips[:15]:
        for iv in (interval, PeriodicInterval.around(trip.start_time, 900)):
            query = StrictPathQuery(path=trip.path[:3], interval=iv)
            expected = get_travel_times(mono, query)
            actual = get_travel_times(loaded, query)
            assert np.array_equal(
                np.asarray(expected.values), np.asarray(actual.values)
            )
            assert expected.n_matched == actual.n_matched


class TestMonolithicMigration:
    def test_v2_loader_rejects_v1_with_migrate_hint(self, world, tmp_path):
        _, mono, _, _ = world
        write_v1_payload(mono, tmp_path / "v1")
        with pytest.raises(IndexFormatError, match="repro migrate"):
            load_index(tmp_path / "v1")

    def test_migrates_and_answers_identically(self, world, tmp_path):
        _, mono, _, trips = world
        target = tmp_path / "v1"
        write_v1_payload(mono, target, extra={"origin": "v1-test"})
        report = migrate_index_dir(target)
        assert report.changed
        assert report.layout == "monolithic"
        assert (report.from_version, report.to_version) == (1, 2)
        # v1 payload files are gone, v2 layout is in place.
        assert not (target / "arrays.npz").exists()
        assert (target / "payload").is_dir()
        meta = json.loads((target / "meta.json").read_text())
        assert meta["format_version"] == 2
        assert meta["extra"] == {"origin": "v1-test"}  # provenance kept
        _assert_answers_match(mono, load_index(target), trips)

    def test_idempotent(self, world, tmp_path):
        _, mono, _, _ = world
        target = tmp_path / "v1"
        write_v1_payload(mono, target)
        assert migrate_index_dir(target).changed
        second = migrate_index_dir(target)
        assert not second.changed
        assert second.from_version == second.to_version == 2

    def test_current_directory_untouched(self, world, tmp_path):
        _, mono, _, _ = world
        target = mono.save(tmp_path / "current")
        before = (target / "meta.json").read_bytes()
        report = migrate_index_dir(target)
        assert not report.changed
        assert (target / "meta.json").read_bytes() == before


class TestShardedMigration:
    def test_migrates_sealed_and_staging(self, world, tmp_path):
        dataset, mono, sharded, trips = world
        target = tmp_path / "v1-sharded"
        write_v1_sharded(sharded, target, extra={"origin": "v1-sharded"})
        report = migrate_index_dir(target)
        assert report.changed
        assert report.layout == "sharded"
        assert report.shard_dirs_migrated == [
            f"shard_{i:04d}" for i in range(3)
        ]
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        assert manifest["extra"] == {"origin": "v1-sharded"}
        loaded = load_sharded_index(target)
        assert loaded.n_shards == 3
        _assert_answers_match(mono, loaded, trips)

    def test_idempotent(self, world, tmp_path):
        _, _, sharded, _ = world
        target = tmp_path / "v1-sharded"
        write_v1_sharded(sharded, target)
        assert migrate_index_dir(target).changed
        assert not migrate_index_dir(target).changed


class TestErrors:
    def test_not_an_index(self, tmp_path):
        (tmp_path / "stray.txt").write_text("hello")
        with pytest.raises(PersistenceError, match="not a saved"):
            migrate_index_dir(tmp_path)

    def test_future_version_rejected(self, world, tmp_path):
        _, mono, _, _ = world
        write_v1_payload(mono, tmp_path / "future")
        meta_path = tmp_path / "future" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PersistenceError, match="newer"):
            migrate_index_dir(tmp_path / "future")
