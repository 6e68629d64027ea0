"""The compiled kernels and their pure-Python twins must agree bit-for-bit."""

import os
import random
import subprocess
import sys

import pytest

from coverscope import _speedups_py

_speedups = pytest.importorskip(
    "coverscope._speedups", reason="compiled extension not built"
)

# largest prime below 2**64, and 2**64 - 1 (composite: a product of the
# factors of the first six Fermat numbers)
P_MAX_U64 = 2**64 - 59
C_MAX_U64 = 2**64 - 1


def test_is_prime_u64_small_range():
    for n in range(5000):
        assert _speedups.is_prime_u64(n) == _speedups_py.is_prime_u64(n)


def test_is_prime_u64_word_boundary():
    assert _speedups.is_prime_u64(P_MAX_U64)
    assert _speedups_py.is_prime_u64(P_MAX_U64)
    assert not _speedups.is_prime_u64(C_MAX_U64)
    assert not _speedups_py.is_prime_u64(C_MAX_U64)
    assert _speedups.is_prime_u64(2**61 - 1)  # Mersenne prime


def test_is_prime_u64_random_words():
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.randrange(2**63, 2**64)
        assert _speedups.is_prime_u64(n) == _speedups_py.is_prime_u64(n), n


def test_mod_pow_u64_agreement():
    rng = random.Random(99)
    for _ in range(3000):
        m = rng.randrange(2, 2**64)
        b = rng.randrange(0, 2**64)
        e = rng.randrange(0, 2**64)
        assert _speedups.mod_pow_u64(b, e, m) == _speedups_py.mod_pow_u64(b, e, m)
    assert _speedups.mod_pow_u64(7, 0, 1) == 0  # 1 % 1


def test_order_scan_agreement():
    rng = random.Random(5)
    for _ in range(500):
        d = rng.randrange(3, 50000) | 1
        for base in (2, 3, rng.randrange(2, d)):
            got_c = _speedups.order_scan_u64(base, d, d - 1)
            got_py = _speedups_py.order_scan_u64(base, d, d - 1)
            assert got_c == got_py, (base, d)


def test_offset_scan_agreement():
    rng = random.Random(6)
    for _ in range(2000):
        d = rng.randrange(3, 10**6) | 1
        b = rng.randrange(1, 200)
        k = rng.randrange(1, 2**64) | 1
        for sign in (1, -1):
            got_c = _speedups.offset_scan_u64(k % d, sign, d, b)
            got_py = _speedups_py.offset_scan_u64(k % d, sign, d, b)
            assert got_c == got_py, (k, sign, d, b)


def test_pure_python_env_forces_fallback():
    code = "import coverscope; print(coverscope.BACKEND)"
    env = {"COVERSCOPE_PURE_PYTHON": "1", "PATH": "/usr/bin:/bin"}
    if "PYTHONPATH" in os.environ:  # finds coverscope when it is not installed
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"
