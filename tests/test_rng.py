import numpy as np

from irrlangevin.rng import NormalStream, splitmix64


def test_same_key_same_stream():
    a = NormalStream(123, 4).normals(1000)
    b = NormalStream(123, 4).normals(1000)
    np.testing.assert_array_equal(a, b)


def test_chunked_draws_match_bulk():
    whole = NormalStream(9, 0).normals(1024)
    stream = NormalStream(9, 0)
    parts = np.concatenate([stream.normals(100), stream.normals(924)])
    np.testing.assert_array_equal(whole, parts)


def test_distinct_streams_differ():
    a = NormalStream(123, 0).normals(100)
    b = NormalStream(123, 1).normals(100)
    c = NormalStream(124, 0).normals(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_independence_correlation():
    n = 20_000
    a = NormalStream(7, 0).normals(n)
    b = NormalStream(7, 1).normals(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_normal_moments():
    x = NormalStream(42, 0).normals(1_000_000)
    assert abs(x.mean()) < 5e-3
    assert abs(x.var() - 1.0) < 5e-3
    assert abs(np.mean(x**3)) < 2e-2  # symmetry


def test_negative_seed_folds_into_key_space():
    a = NormalStream(-1, 0).normals(10)
    b = NormalStream(2**64 - 1, 0).normals(10)
    np.testing.assert_array_equal(a, b)


def test_splitmix64_deterministic_and_spread():
    assert splitmix64(1, 2) == splitmix64(1, 2)
    values = {splitmix64(i, j) for i in range(10) for j in range(10)}
    assert len(values) == 100
    assert all(0 <= v < 2**64 for v in values)


def test_splitmix64_pinned_values():
    # stream ids key every CSV row, so the mix must never change
    assert splitmix64(0, 0) == 15462708232189986426
    assert splitmix64(1, 2) == 11447148704459481933
    assert splitmix64(-1) == 7948447886118322456
    assert splitmix64(2**64 - 1, 7) == 2137863590607498676
