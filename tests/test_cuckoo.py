"""Cuckoo filter + seen-shard unit tests (no Ray)."""

import numpy as np

from spatula_ray.engine.cuckoo import CuckooFilter, SeenFilterShard
from spatula_ray.engine.keys import hash64


def test_cuckoo_no_false_negatives():
    f = CuckooFilter(capacity=4096)
    hashes = [hash64(f"url-{i}") for i in range(3000)]
    for h in hashes:
        if not f.contains(h):
            f.insert(h)
    assert all(f.contains(h) for h in hashes)
    mask = f.contains_many(np.array(hashes, dtype=np.uint64))
    assert mask.all()


def test_cuckoo_low_false_positive_rate():
    f = CuckooFilter(capacity=1 << 16)
    for i in range(20000):
        f.insert(hash64(f"in-{i}"))
    probe = np.array([hash64(f"out-{i}") for i in range(20000)], dtype=np.uint64)
    fp = f.contains_many(probe).sum() / len(probe)
    assert fp < 0.01, f"false positive rate too high: {fp}"


def test_cuckoo_overflow_goes_to_stash():
    f = CuckooFilter(capacity=64)
    hashes = [hash64(f"x-{i}") for i in range(1000)]
    for h in hashes:
        f.insert(h)
    assert all(f.contains(h) for h in hashes)  # stash guarantees no FN
    assert f.count == 1000


def test_cuckoo_snapshot_roundtrip():
    f = CuckooFilter(capacity=1024)
    hashes = [hash64(f"s-{i}") for i in range(500)]
    for h in hashes:
        f.insert(h)
    g = CuckooFilter.restore(f.snapshot())
    assert all(g.contains(h) for h in hashes)
    assert g.count == f.count


def _assert_same_filter(g, f):
    assert g.table.dtype == f.table.dtype
    assert g.table.shape == f.table.shape
    assert np.array_equal(g.table, f.table)
    assert g.stash == f.stash
    assert g.count == f.count


def test_cuckoo_sparse_snapshot_is_bit_identical():
    empty = CuckooFilter(capacity=4096)
    half = CuckooFilter(capacity=4096)
    for i in range(2048):
        half.insert(hash64(f"h-{i}"))
    tiny = CuckooFilter(capacity=16)
    for i in range(200):
        tiny.insert(hash64(f"t-{i}"))
    assert tiny.stash, "the tiny filter never overflowed into its stash"
    for f in (empty, half, tiny):
        _assert_same_filter(CuckooFilter.restore(f.snapshot()), f)


def test_cuckoo_snapshot_size_follows_contents():
    f = CuckooFilter(capacity=1 << 21)
    for i in range(1000):
        f.insert(hash64(f"k-{i}"))
    assert f.table.nbytes >= 8 << 20
    assert len(f.snapshot()) < 64 << 10


def _wave(shard, cands):
    """cands: list of (hash, order_bytes); returns surviving pairs."""
    shard.begin_wave()
    shard.offer([h for h, _ in cands], [o for _, o in cands])
    shard.commit()
    mask = shard.query([h for h, _ in cands], [o for _, o in cands])
    return [c for c, keep in zip(cands, mask) if keep]


def test_shard_deterministic_min_order_winner():
    for mode in ("exact", "cuckoo"):
        s = SeenFilterShard(mode=mode, capacity=4096)
        h = hash64("dup")
        kept = _wave(s, [(h, b"\x02"), (h, b"\x01"), (h, b"\x03")])
        assert kept == [(h, b"\x01")]  # lineage-smallest wins
        # next wave: already seen
        kept2 = _wave(s, [(h, b"\x00")])
        assert kept2 == []


def test_shard_cross_wave_dedup_and_stats():
    s = SeenFilterShard(mode="exact")
    h1, h2 = hash64("a"), hash64("b")
    assert _wave(s, [(h1, b"\x01")]) == [(h1, b"\x01")]
    assert _wave(s, [(h1, b"\x00"), (h2, b"\x05")]) == [(h2, b"\x05")]
    st = s.stats()
    assert st["inserted"] == 2
    assert st["seen_dropped"] == 1


def test_shard_snapshot_roundtrip():
    s = SeenFilterShard(mode="cuckoo", capacity=4096)
    _wave(s, [(hash64(f"u{i}"), bytes([i])) for i in range(100)])
    snap = s.snapshot()
    s2 = SeenFilterShard(mode="exact")
    s2.restore(snap)
    assert s2.mode == "cuckoo"
    assert _wave(s2, [(hash64("u5"), b"\x00")]) == []
    assert s2.stats()["inserted"] == 100


def test_hostgate_quota_and_robots():
    from spatula_ray.engine.hostgate import HostGate

    g = HostGate(robots={"a.test": {"disallow": ["/private"]}},
                 per_host_wave_quota=2)
    codes = g.admit(["a.test"] * 4 + ["b.test"], ["/x", "/private/p", "/y", "/z", "/w"])
    assert codes == [0, 2, 0, 1, 0]  # allow, denied, allow, defer(quota), allow
    g.begin_wave()
    assert g.admit(["a.test"], ["/again"]) == [0]
    st = g.stats()
    assert st["robots_denied"] == 1
    assert st["deferred"] == 1
