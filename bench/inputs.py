"""Seeded benchmark inputs and the independent arithmetic that vouches for them.

Nothing here imports ``bcf``: the constants, their isolating intervals, the
decimal truncations and the reference digit sequences are all computed with
plain integers and ``Fraction`` so that the checker does not trust the code
it measures.

Each workload is a set of strata.  A stratum is a finite *pool* of jobs of
one class and one size, built without the seed; the seed only chooses which
pool entries run and in what order.  A finite pool is what lets
``reference.json`` hold one recorded digest per job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# -- integer polynomials (ascending coefficients) -----------------------------


def peval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b):
    a = [Fraction(c) for c in _trim(a)]
    b = _trim(b)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, c in enumerate(b):
            a[shift + j] -= f * c
        a = _trim(a)
    return a


def sturm_roots(coeffs, lo, hi) -> int:
    """Number of distinct real roots of the polynomial in (lo, hi]."""
    seq = [list(coeffs), [k * c for k, c in enumerate(coeffs)][1:]]
    while True:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])

    def variations(x):
        signs = [s for s in ((peval(p, x) > 0) - (peval(p, x) < 0) for p in seq) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(Fraction(lo)) - variations(Fraction(hi))


# -- the constants -------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """A tuple of elements of Q(theta), theta the root of ``poly`` in (lo, hi).

    ``elems`` holds one power-basis coordinate tuple per component.
    ``closed`` names the digits the exact expansion must have, when the
    closed form fixes them: ("p1", a, b) or ("ones", m); otherwise None.
    A constant with a polynomial is validated when it is made; one without
    (``poly == ()``) only carries ``closed`` for a digit-spec job.
    """

    name: str
    poly: tuple[int, ...]
    lo: int
    hi: int
    elems: tuple[tuple[int, ...], ...]
    closed: tuple | None = None

    def __post_init__(self):
        if self.poly:
            self.validate()

    @property
    def order(self) -> int:
        return len(self.elems)

    def specs(self) -> list[str]:
        poly = ",".join(map(str, self.poly))
        return [
            f"alg:poly={poly};elem={','.join(map(str, e))};lo={self.lo};hi={self.hi}"
            for e in self.elems
        ]

    def validate(self):
        """The interval must isolate exactly one simple sign change."""
        p = self.poly
        if p[-1] != 1 or len(p) < 3:
            raise ValueError(f"{self.name}: modulus must be monic of degree >= 2")
        if peval(p, self.lo) * peval(p, self.hi) >= 0:
            raise ValueError(f"{self.name}: no sign change on [{self.lo}, {self.hi}]")
        n = sturm_roots(p, self.lo, self.hi)
        if n != 1:
            raise ValueError(f"{self.name}: {n} roots in ({self.lo}, {self.hi}], not 1")

    def expected_digit(self, k: int):
        """The digit of component k at every step, fixed by the closed form, or None."""
        if self.closed is None:
            return None
        if self.closed[0] == "p1":
            return self.closed[1 + k]
        return 1


def _iroot(n: int, k: int) -> int:
    r = round(n ** (1 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def period1_pair(a: int, b: int) -> Constant:
    # alpha is the root of x^3 - a x^2 - b x - 1 and 1/alpha = alpha^2 - a alpha - b,
    # so beta = b + 1/alpha = alpha^2 - a alpha.  Digits are (a, b) iff b <= a.
    return Constant(f"p1-{a}-{b}", (-1, -b, -a, 1), a, a + 1,
                    ((0, 1), (0, -a, 1)), ("p1", a, b))


def all_ones(m: int) -> Constant:
    # Fixed point of the all-ones step: x_1 = theta, x_(k+1) = theta (x_k - 1).
    poly = (-1,) * (m + 1) + (1,)
    elems = [(0, 1)]
    for _ in range(m - 1):
        shifted = [c - (1 if i == 0 else 0) for i, c in enumerate(elems[-1])]
        elems.append(_mul_theta(shifted, poly))
    return Constant(f"ones-{m}", poly, 1, 2, tuple(_pad(e, m + 1) for e in elems),
                    ("ones", m))


def _mul_theta(coords, poly):
    d = len(poly) - 1
    out = [0] + list(coords) + [0] * (d - len(coords))
    top = out[d]
    return [c - top * poly[i] for i, c in enumerate(out[:d])]


def _pad(e, d):
    e = list(e)[:d]
    while len(e) > 1 and e[-1] == 0:
        e.pop()
    return tuple(e)


def cube_root_pair(n: int) -> Constant:
    r = _iroot(n, 3)
    return Constant(f"cbrt2-{n}", (-n, 0, 0, 1), r, r + 1, ((0, 1), (0, 0, 1)))


def quartic_triple(n: int) -> Constant:
    r = _iroot(n, 4)
    return Constant(f"quart-{n}", (-n, 0, 0, 0, 1), r, r + 1,
                    ((0, 1), (0, 0, 1), (0, 0, 0, 1)))


def cube_root(n: int) -> Constant:
    r = _iroot(n, 3)
    return Constant(f"cbrt1-{n}", (-n, 0, 0, 1), r, r + 1, ((0, 1),))


P1_PAIRS = [(a, b) for a in range(1, 7) for b in range(0, a + 1)]
NON_CUBES = [n for n in range(2, 31) if _iroot(n, 3) ** 3 != n]
# x^4 - n factors as (x^2 - s)(x^2 + s) when n = s^2, so squares are left out.
NON_SQUARES = [n for n in range(2, 21) if _iroot(n, 2) ** 2 != n]


# -- decimal truncations -------------------------------------------------------


def theta_bracket(const: Constant, bits: int) -> int:
    """X with theta in (X, X + 1) / 2**bits, by integer Newton then a sign check."""
    p = const.poly
    dp = [k * c for k, c in enumerate(p)][1:]
    x = (const.lo + const.hi) << (bits - 1)
    for _ in range(bits.bit_length() + 8):
        step = _scaled(p, x, bits) // max(_scaled(dp, x, bits), 1)
        x = min(max(x - step, const.lo << bits), (const.hi << bits) - 1)
        if step == 0:
            break
    # The interval isolates one root, so a sign change pins it; bisect if needed.
    lo, hi = x - 2, x + 2
    s_lo = _sign(_scaled(p, const.lo << bits, bits))
    if not (_sign(_scaled(p, lo, bits)) == s_lo != _sign(_scaled(p, hi, bits))):
        lo, hi = const.lo << bits, const.hi << bits
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if _sign(_scaled(p, mid, bits)) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo


def _scaled(p, x: int, bits: int) -> int:
    """2**(bits*d) * p(x / 2**bits), d = len(p) - 1."""
    acc = 0
    for i, c in enumerate(reversed(p)):
        acc = acc * x + (c << (bits * i))
    return acc


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def truncate(const: Constant, k: int, places: int) -> int:
    """floor(10**places * component k), exactly."""
    bits = places * 4 + 32
    while True:
        x = theta_bracket(const, bits)
        # theta in [x, x + 1] / 2**bits and theta > 0, so each power is monotone.
        lo_v = hi_v = Fraction(0)
        for i, c in enumerate(const.elems[k]):
            a, b = Fraction(x, 1 << bits) ** i, Fraction(x + 1, 1 << bits) ** i
            lo_v += c * (a if c >= 0 else b)
            hi_v += c * (b if c >= 0 else a)
        scale = 10**places
        f_lo, f_hi = (lo_v * scale).__floor__(), (hi_v * scale).__floor__()
        if f_lo == f_hi:
            return f_lo
        bits += 64


def dec_spec(mantissa: int, places: int, guard: int) -> str:
    digits = str(mantissa).rjust(places + 1, "0")
    return f"dec:{digits[:-places]}.{digits[-places:]},guard={guard}"


# -- independent reference computations -----------------------------------------


def euclid(p: int, q: int) -> list[int]:
    out = []
    while True:
        d, r = divmod(p, q)
        out.append(d)
        if r == 0:
            return out
        p, q = q, r


def kbonacci_ratio(k: int, n: int) -> Fraction:
    """t(n+k)/t(n+k-1) for the order-k sequence 0, ..., 0, 1, ..."""
    t = [0] * (k - 1) + [1]
    while len(t) < n + k + 1:
        t.append(sum(t[-k:]))
    return Fraction(t[n + k], t[n + k - 1])


def convergents(heads, cycles, upto: int) -> list[tuple[Fraction, ...]]:
    """Convergent tuples at depths 0..upto by the backward recurrence."""
    m = len(heads)
    rows = []
    for k in range(m):
        seq = list(heads[k])
        while len(seq) <= upto:
            seq.extend(cycles[k])
        rows.append(seq)
    out = []
    for n in range(upto + 1):
        x = [Fraction(rows[k][n]) for k in range(m)]
        for i in range(n - 1, -1, -1):
            x = [rows[k][i] + (x[k + 1] if k + 1 < m else 1) / x[0] for k in range(m)]
        out.append(tuple(x))
    return out


def parse_inline(text: str):
    """(heads, cycles) of inline digit notation 'h0 h1 (c0 c1)/...'."""
    heads, cycles = [], []
    for part in text.split("/"):
        head, _, cyc = part.partition("(")
        heads.append([int(t) for t in head.split()])
        cycles.append([int(t) for t in cyc.rstrip(")").split()])
    return heads, cycles


def parse_digit_file(text: str) -> dict:
    """head/cycle rows of a ``bcf-digits v1`` document, by key."""
    rows = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep and (key.startswith("head[") or key.startswith("cycle[")):
            rows[key] = [int(t) for t in rest.split()]
    return rows


# -- job pools -------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``key`` identifies it in ``reference.json``."""

    key: str
    cls: str
    kind: str
    args: tuple
    const: Constant | None = None


def _cli(cls, key, argv, const=None):
    return Job(f"{cls}/{key}", cls, "cli", tuple(argv), const)


def field_period_pool() -> dict[str, list[Job]]:
    # Pairs with a <= 3: larger digits grow the field coefficients and would
    # triple the spread of cost inside a stratum.
    pairs = [period1_pair(a, b) for a, b in P1_PAIRS if a <= 3]
    pools: dict[str, list[Job]] = {}
    for d in (50, 100):
        pools[f"p1-expand-d{d}"] = [
            _cli("p1-expand", f"{c.name}-d{d}",
                 ["expand", *c.specs(), "--depth", str(d), "--period", "--format", "json"], c)
            for c in pairs
        ]
    pools["p1-period"] = [
        _cli("p1-period", f"{c.name}-d80", ["period", *c.specs(), "--depth", "80", "--format",
                                            "json"], c)
        for c in pairs
    ]
    # Depths give the three orders about the same cost.
    pools["ones"] = [
        _cli("ones", f"{c.name}-d{d}", ["expand", *c.specs(), "--depth", str(d), "--period"], c)
        for c, d in ((all_ones(1), 300), (all_ones(2), 90), (all_ones(3), 50))
    ]
    pools["cbrt-pair"] = [
        _cli("cbrt-pair", c.name, ["period", *c.specs(), "--depth", "60", "--format", "json"], c)
        for c in map(cube_root_pair, NON_CUBES)
    ]
    pools["quartic"] = [
        _cli("quartic", c.name,
             ["expand", *c.specs(), "--depth", "30", "--period", "--format", "json"], c)
        for c in map(quartic_triple, NON_SQUARES)
    ]
    pools["cbrt1"] = [
        _cli("cbrt1", c.name, ["expand", *c.specs(), "--depth", "120", "--period"], c)
        for c in map(cube_root, NON_CUBES)
    ]
    return pools


def _digit_spec(rng, order, cycle_len, head_len, top):
    # First-sequence digits must be >= 1 past index 0; the others may be 0.
    heads, cycles = [], []
    for k in range(order):
        low = 0 if k else 1
        heads.append([rng.randint(low, top) for _ in range(head_len)])
        cycles.append([rng.randint(low, top) for _ in range(cycle_len)])
    return heads, cycles


def inline_text(heads, cycles) -> str:
    parts = []
    for h, c in zip(heads, cycles):
        head = " ".join(map(str, h))
        parts.append((head + " " if head else "") + "(" + " ".join(map(str, c)) + ")")
    return "/".join(parts)


def digit_probe_pool() -> dict[str, list[Job]]:
    rng = random.Random("digit-probe-pool")
    pools: dict[str, list[Job]] = {}
    pools["conv-unit"] = [
        _cli("conv-unit", f"m{m}-u{u}",
             ["convergents", "--inline", "/".join(["(1)"] * m), "--upto", str(u),
              "--format", "json"])
        for m, u in ((2, 100), (3, 80))
    ]
    for order, depths in ((2, (120,)), (3, (50, 100))):
        for u in depths:
            pools[f"conv-o{order}-u{u}"] = [
                _cli(f"conv-o{order}", f"{i}-u{u}",
                     ["convergents", "--inline",
                      inline_text(*_digit_spec(rng, order, rng.randint(1, 3), rng.randint(0, 2), 4)),
                      "--upto", str(u), "--format", "json"])
                for i in range(24)
            ]
    pools["probe-p1"] = [
        Job(f"probe-p1/{a}-{b}", "probe-p1", "probe", (inline_text([[], []], [[a], [b]]),),
            Constant(f"p1spec-{a}-{b}", (), 0, 0, (), ("p1", a, b)))
        for a in range(1, 6) for b in range(0, 6)
    ]
    for order in (2, 3):
        pools[f"probe-o{order}"] = [
            Job(f"probe-o{order}/{i}", f"probe-o{order}", "probe",
                (inline_text(*_digit_spec(rng, order, rng.randint(2 if order == 2 else 1, 3),
                                          rng.randint(0, 1), 3)),))
            for i in range(24)
        ]
    return pools


def theta_alone(const: Constant) -> Constant:
    """Order-1 constant: theta of ``const`` on its own."""
    return Constant(f"{const.name}-theta", const.poly, const.lo, const.hi, ((0, 1),))


def theta_digits(const: Constant, n: int) -> list[int]:
    """First n classical continued-fraction digits of theta.

    Both ends of a tight dyadic bracket share every digit but the last few;
    the bracket is widened until they share n.
    """
    bits = 4 * n + 64
    while True:
        x = theta_bracket(const, bits)
        lo, hi = euclid(x, 1 << bits), euclid(x + 1, 1 << bits)
        same = 0
        while same < min(len(lo), len(hi)) - 1 and lo[same] == hi[same]:
            same += 1
        if same >= n:
            return lo[:n]
        bits *= 2


def decimal_expand_pool() -> dict[str, list[Job]]:
    rng = random.Random("decimal-expand-pool")
    pools: dict[str, list[Job]] = {}
    rats = []
    for i in range(30):
        # One denominator size: exact expansions keep every state, so the
        # largest rational drawn would otherwise set peak_rss_mb.  At this
        # size the rationals cost between the 200- and 300-digit literals,
        # so the median job falls in their narrow stratum.
        q = rng.randint(10**2199, 10**2200 - 1)
        p = rng.randint(1, 3 * q)
        rats.append(Job(f"rat/{i}", "rat", "rat", (f"rat:{p}/{q}",)))
    pools["rat"] = rats

    def dec_jobs(cls, consts, trusted, guard=2):
        return [
            Job(f"{cls}/{c.name}-t{t}", cls, "dec",
                tuple(dec_spec(truncate(c, k, t + guard), t + guard, guard)
                      for k in range(c.order)), c)
            for c in consts for t in trusted
        ]

    # The golden ratio is left out here: it needs 2.4 digits per decimal,
    # and would make its stratum bimodal.
    thetas = [theta_alone(c) for c in (
        [period1_pair(a, b) for a, b in P1_PAIRS[::3]] + [all_ones(2), all_ones(3)]
        + [cube_root(n) for n in NON_CUBES[::4]] + [quartic_triple(n) for n in NON_SQUARES[::4]]
    )]
    for t in (200, 300, 400):
        pools[f"dec1-t{t}"] = dec_jobs("dec1", thetas, (t,))
    # Order >= 2 literals stay short: the guarded bounds roughly double in
    # bit size per step at these orders (see README.md).
    pools["dec-tuple"] = dec_jobs(
        "dec-tuple", [period1_pair(a, b) for a, b in P1_PAIRS[::2]] + [all_ones(2), all_ones(3)],
        (3, 4, 5))
    return pools


POOLS = {
    "field-period": field_period_pool,
    "digit-probe": digit_probe_pool,
    "decimal-expand": decimal_expand_pool,
}
WORKLOADS = tuple(POOLS)


def setup_job(workload: str, seed: int) -> Job:
    """The smallest job of a workload, run in a fresh interpreter for setup_s."""
    rng = random.Random(f"setup-{workload}-{seed}")
    if workload == "field-period":
        c = period1_pair(*rng.choice(P1_PAIRS))
        return _cli("setup", c.name,
                    ["expand", *c.specs(), "--depth", "8", "--period", "--format", "json"], c)
    if workload == "digit-probe":
        heads, cycles = _digit_spec(rng, 2, rng.randint(1, 3), 1, 4)
        return _cli("setup", "conv", ["convergents", "--inline", inline_text(heads, cycles),
                                      "--upto", "8", "--format", "json"])
    q = rng.randint(10**19, 10**20 - 1)
    p = rng.randint(1, 3 * q)
    return Job("setup/rat", "setup", "cli", ("expand", f"rat:{p}/{q}", "--depth", "100"))


def rounds(workload: str, seed: int, pools: dict[str, list[Job]]):
    """Endless seeded rounds, each holding one job of every stratum in shuffled order.

    A stratum is one pool: jobs of one class and one size, differing only in
    their parameters, so every round costs about the same whatever the seed.
    """
    # Each stratum deals its pool in a seeded shuffled order and reshuffles
    # when it runs out, so a run samples a pool without replacement.
    rng = random.Random(f"{workload}-{seed}")
    decks = {s: [] for s in sorted(pools)}
    while True:
        batch = []
        for s, deck in decks.items():
            if not deck:
                deck.extend(rng.sample(pools[s], len(pools[s])))
            batch.append(deck.pop())
        rng.shuffle(batch)
        yield batch
