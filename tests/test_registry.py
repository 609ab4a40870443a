"""Kernel registry: pre-generation caching (the Gkeyll build-step analogue)."""

import sys
import threading
import time

from repro.kernels import four_sided_kernels, get_vlasov_kernels, registry, registry_stats


def test_registry_returns_same_object():
    a = get_vlasov_kernels(1, 1, 1, "serendipity")
    b = get_vlasov_kernels(1, 1, 1, "serendipity")
    assert a is b


def test_registry_distinguishes_configs():
    a = get_vlasov_kernels(1, 1, 1, "serendipity")
    b = get_vlasov_kernels(1, 1, 1, "tensor")
    c = get_vlasov_kernels(1, 1, 2, "serendipity")
    assert a is not b and a is not c
    assert a.num_basis != c.num_basis


def _count_builds(monkeypatch, delay=0.0):
    """Empty registry whose ``build_vlasov_kernels`` calls are recorded."""
    calls = []
    real_build = registry.build_vlasov_kernels

    def counting_build(*key):
        calls.append(key)
        time.sleep(delay)  # widen the window in which a second caller can miss
        return real_build(*key)

    monkeypatch.setattr(registry, "_CACHE", {})
    monkeypatch.setattr(registry, "build_vlasov_kernels", counting_build)
    return calls


def test_cached_fetch_does_not_regenerate(monkeypatch):
    calls = _count_builds(monkeypatch)
    first = get_vlasov_kernels(1, 2, 1, "serendipity")
    for _ in range(100):
        assert get_vlasov_kernels(1, 2, 1, "serendipity") is first
    assert calls == [(1, 2, 1, "serendipity")]


def test_concurrent_callers_share_one_build(monkeypatch):
    calls = _count_builds(monkeypatch, delay=0.05)
    nthreads = 4
    start = threading.Barrier(nthreads)
    got = []

    def fetch():
        start.wait(timeout=30)
        got.append(get_vlasov_kernels(1, 1, 1, "serendipity"))

    threads = [threading.Thread(target=fetch) for _ in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [(1, 1, 1, "serendipity")]
    assert len(got) == nthreads and all(b is got[0] for b in got)


def test_registry_stats_structure():
    get_vlasov_kernels(1, 1, 1, "serendipity")
    stats = registry_stats()
    assert stats["bundles"] >= 1
    assert stats["total_nnz"] > 0


def test_bundle_contents_complete():
    k = get_vlasov_kernels(2, 2, 1, "serendipity")
    assert len(k.vol_stream) == 2
    assert len(k.vol_accel) == 2
    assert len(k.face_stream) == 2 and len(k.face_accel) == 2
    assert {"M0", "M1x", "M1y", "M2"} <= set(k.moments)
    assert k.termsets()  # non-empty accounting list
    # the four-sided form is generated on demand
    stream, accel = four_sided_kernels(k)
    assert len(stream) == 2 and len(accel) == 2
    for sides in stream + accel:
        assert set(sides) == {("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")}
