"""The CSV writer's numpy %.17g pass against Python's ``'%.17g' % v``.

Draws N seeded values, formats them with ``_tables.format_rows`` (the
pass that writes ``trajectory.csv``) and with Python, and exits 1 at
the first value whose text differs, printing it.  The values are, in
equal parts: random bit patterns (every double is as likely as any
other, so subnormals, inf and nan occur), log-uniform magnitudes from
1e-8 to 1e18 (across both edges of the pass's range, 1e-4 and 1e17),
exact ties (a 17-digit rounding half way between two neighbours), the
grid k * 1e-3 of a log's time column, and short decimals; then the
range edges themselves.  Tier-1 runs it on 100k values; CI on 2M:

    python tools/format_oracle.py N [--seed S]
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from slidingesc._tables import format_rows  # noqa: E402

# the edges of the range the pass formats, and the values on either
# side of them
EDGES = np.array([1e-4, 9.999999999999999e-05, 1e16, 99999999999999999.0,
                  1e17, 0.0, -0.0, 1.0, 0.9999999999999999, 5e-324,
                  np.inf, -np.inf, np.nan])
CHUNK = 100_000  # values formatted in one call


def ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """Doubles whose decimal expansion has 18 significant digits, the
    last a 5: M / 2**(17 - e) for an odd M < 2**53 with the value in the
    decade e, -4 <= e <= 14."""
    e = rng.integers(-4, 15, n)
    low = np.ceil(10.0 ** e * 2.0 ** (17 - e))
    high = np.floor(10.0 ** (e + 1) * 2.0 ** (17 - e))
    odd = (low + np.floor(rng.random(n) * (high - low))) // 2 * 2 + 1
    return odd / 2.0 ** (17 - e)


def draw(n: int, seed: int) -> np.ndarray:
    """At least ``n`` values (and at least the edges) of the five kinds
    above, each with a random sign."""
    rng = np.random.default_rng(seed)
    part = -(-max(n - EDGES.size, 0) // 5)
    bits = rng.integers(0, 2 ** 64, part, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        10.0 ** rng.uniform(-8.0, 18.0, part),
        ties(rng, part),
        np.arange(part) * 1e-3,
        rng.integers(1, 10 ** 6, part) * 10.0 ** rng.integers(-8, 12, part),
    ])
    values *= rng.choice([-1.0, 1.0], values.size)
    return np.concatenate([bits, values, EDGES])


def first_mismatch(values: np.ndarray):
    """(value, ours, Python's) of the first value whose text differs,
    or None."""
    for lo in range(0, values.size, CHUNK):
        chunk = values[lo:lo + CHUNK]
        ours = format_rows(chunk[None]).decode()
        for value, text in zip(chunk.tolist(), ours.split("\n")[1:]):
            if text != "%.17g" % value:
                return value, text, "%.17g" % value
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of values")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    values = draw(args.n, args.seed)
    mismatch = first_mismatch(values)
    if mismatch is not None:
        value, ours, python = mismatch
        print(f"mismatch at {value!r}: {ours!r}, Python {python!r}")
        return 1
    print(f"{values.size} values match '%.17g' (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
