from fractions import Fraction

import pytest

from saii import DEFAULT_K
from saii.costmodel import HardwareParams, emit_scaling_table, predict_cycles
from saii.errors import InvalidParams, InvalidSamplingRate

DEFAULTS = HardwareParams()


def test_headline_cycle_count():
    report = predict_cycles(DEFAULTS, 131_072)
    assert report.cycles_prefetch == 2048 * (64 * 3 + (64 * 65 // 2) // 2)
    assert report.cycles_prefetch == 2_523_136
    assert report.wall_time_ms == pytest.approx(21.026, abs=0.001)


def test_single_chunk():
    k = DEFAULTS.k
    report = predict_cycles(DEFAULTS, k)
    assert sum(report.per_chunk) == k * (3 + Fraction(1, 2))
    assert report.cycles_prefetch == k * 3 + k // 2


def test_baseline_doubles_refresh_only():
    report = predict_cycles(DEFAULTS, 131_072)
    assert report.cycles_baseline == 2048 * (2 * 1040 + 192)
    assert Fraction(report.cycles_baseline, report.cycles_prefetch) == Fraction(2272, 1232)


def test_prefetch_ratio_monotone_to_two():
    prev = 0.0
    for chunks in (1, 2, 4, 16, 64, 1024, 32768):
        n = chunks * DEFAULTS.k
        r = predict_cycles(DEFAULTS, n)
        ratio = r.cycles_baseline / r.cycles_prefetch
        assert ratio > prev
        assert ratio < 2.0
        prev = ratio
    assert prev > 1.999


def test_exact_rational_totals():
    # rounding is a final ceiling; per-chunk contributions sum exactly
    params = HardwareParams(m=1, k=3)
    report = predict_cycles(params, 7)
    assert report.cycles_prefetch == -(-sum(report.per_chunk) // 1)
    total = sum(report.per_chunk)
    assert report.cycles_prefetch - 1 < total <= report.cycles_prefetch


def test_partial_final_chunk_pro_rata():
    k, m = DEFAULTS.k, DEFAULTS.m
    n = k + 100
    report = predict_cycles(DEFAULTS, n)
    expected = k * (m + Fraction(1, 2)) + 100 * (m + Fraction(2, 2))
    assert report.cycles_prefetch == expected
    assert report.per_chunk == [k * (m + Fraction(1, 2)), 100 * (m + Fraction(2, 2))]


def test_quadratic_growth():
    prev = None
    for n in (16_384, 32_768, 65_536, 131_072, 262_144, 524_288):
        cycles = predict_cycles(DEFAULTS, n).cycles_prefetch
        if prev is not None:
            assert prev < cycles
            assert cycles / prev < 4.0
        prev = cycles
    big = predict_cycles(DEFAULTS, 2**26).cycles_prefetch
    bigger = predict_cycles(DEFAULTS, 2**27).cycles_prefetch
    assert bigger / big == pytest.approx(4.0, abs=0.01)


def test_invalid_params():
    with pytest.raises(InvalidParams):
        predict_cycles(HardwareParams(m=0), 100)
    with pytest.raises(InvalidParams):
        predict_cycles(HardwareParams(k=0), 100)
    with pytest.raises(InvalidParams):
        predict_cycles(DEFAULTS, 0)
    with pytest.raises(InvalidParams):
        emit_scaling_table(DEFAULTS, [])


def test_params_check_themselves():
    # a bad value fails where it is made, before any model call; k takes
    # the index's own rule and message, as no index of k >= 2^32 can be
    # built, stored in the file's u32 field or loaded
    for bad in ({"m": 0}, {"clock_hz": 0}, {"clock_hz": -1}):
        with pytest.raises(InvalidParams, match="bad hardware parameters"):
            HardwareParams(**bad)
    for k in (0, -1, 1 << 32, 1 << 40):
        with pytest.raises(InvalidSamplingRate, match=r"^sampling rate must be >= 1 and < 2\^32, the index file's u32 k field, got "):
            HardwareParams(k=k)
    assert issubclass(InvalidSamplingRate, InvalidParams)
    assert predict_cycles(HardwareParams(k=(1 << 32) - 1), 100).n == 100
    assert HardwareParams().k == DEFAULT_K


def test_prediction_pinned_values():
    report = predict_cycles(DEFAULTS, 4096)
    assert report.cycles_prefetch == 15_360
    assert report.cycles_baseline == 4096 * 3 + 2048 * 1 + 2048 * 2 == 18_432
    # off the chunk grid, against a per-iteration sum
    params = HardwareParams(k=256)
    report = predict_cycles(params, 777)
    pre = sum(3 + Fraction(j // 256 + 1, 2) for j in range(777))
    base = sum(3 + Fraction(2 * (j // 256 + 1), 2) for j in range(777))
    assert sum(report.per_chunk) == pre
    assert report.cycles_prefetch == -(-pre // 1)
    assert report.cycles_baseline == -(-base // 1)


def test_scaling_table_format():
    csv = emit_scaling_table(DEFAULTS, [131_072, 16_384, 32_768, 65_536])
    lines = csv.strip().split("\n")
    assert lines[0] == "n,cycles_prefetch,cycles_baseline,wall_ms"
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [16_384, 32_768, 65_536, 131_072]
    cycles = [int(line.split(",")[1]) for line in lines[1:]]
    assert cycles[-1] == 2_523_136
    assert all(a < b for a, b in zip(cycles, cycles[1:]))
    ratios = [b / a for a, b in zip(cycles, cycles[1:])]
    # per-doubling growth climbs toward the quadratic limit of 4
    assert all(a < b < 4.0 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 3.4
    assert lines[-1].endswith("21.026")
