"""Counter-based SplitMix64 against the published reference outputs."""

from symgrowth.prng import splitmix64

from conftest import CounterStream

MASK = 0xFFFFFFFFFFFFFFFF


def reference_stream(seed, count):
    # Transcribed from the standard splitmix64 definition: advance the state
    # by the golden-gamma increment, then apply the two-round mixer.
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_seed_zero_golden_values():
    # First outputs for seed 0, widely used as the splitmix64 test vector.
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F
    assert splitmix64(0, 3) == 0xF88BB8A8724C81EC


def test_matches_sequential_reference():
    for seed in (0, 1, 42, 2**64 - 1, 0x123456789ABCDEF):
        want = reference_stream(seed, 16)
        got = [splitmix64(seed, i) for i in range(16)]
        assert got == want


def test_counter_access_is_random_access():
    # Index i must not depend on having generated indices < i.
    assert splitmix64(7, 100) == reference_stream(7, 101)[100]


def test_outputs_are_64_bit():
    for i in range(50):
        v = splitmix64(0xDEAD, i)
        assert 0 <= v <= MASK


def test_counter_stream_tracks_indices():
    cs = CounterStream(42)
    assert [cs.next() for _ in range(4)] == [splitmix64(42, i) for i in range(4)]


def test_below_range_and_determinism():
    cs1 = CounterStream(9)
    cs2 = CounterStream(9)
    draws1 = [cs1.below(13) for _ in range(200)]
    draws2 = [cs2.below(13) for _ in range(200)]
    assert draws1 == draws2
    assert all(0 <= d < 13 for d in draws1)
    # All residues show up over 200 draws; a biased mapping would miss some.
    assert set(draws1) == set(range(13))
