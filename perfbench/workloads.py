"""Seeded request lists for the four workloads.

A request is (mode, args) for `child.py`: ("cli", argv) is one
`fockspectra ARGV` call, ("api", (d, ell)) one library call pair.  The
same seed always gives the same list.  Each list is one *pass*; run.py repeats
passes for the run's duration.

Seeds change inputs, not the amount of work, so that figures from different
seeds are comparable.  Cold ladders are fixed sets of components; the seed
orders them, and for `spectrum` picks the output format of each request, a
variant of equal cost.  The seed does not pick between components of similar
dimension: their measured cold costs differed by up to 27%, so the load would
follow the seed.  `cli_session` shuffles a fixed multiset of component
requests and draws only cheap parameters.
"""

from __future__ import annotations

import hashlib
import random

# Marks the report a worker (child.py) writes to its stderr for run.py.
REPORT_PREFIX = "\x1ePERFBENCH "

# The paper's flagship component and its spectrum, pinned as a literal.
FLAGSHIP = ((12, 4), (1, 3, 3, 5, 6, 7, 7, 10, 10, 10, 13, 15, 17, 19, 30))

# spectrum_cold: dimensions 26, 38, 49 and 71.  Cold CPU time of
# `fockspectra spectrum D ELL --json` on a 2-vCPU VM, Python 3.11:
# ~0.4 s, ~0.8 s, ~1.9 s and ~4.8 s.
SPECTRUM_LADDER = ((15, 6), (17, 7), (18, 7), (19, 6))
SPECTRUM_FORMATS = (("--json",), (), ("--csv",))

# eigen_cold: dimensions 15 (the flagship), 18, 20, 22 and 23.  Cold
# orthogonal_eigenbasis + char_poly_check: ~0.5 s, ~1.0 s, ~1.4 s, ~1.7 s
# and ~2.3 s.
EIGEN_LADDER = (FLAGSHIP[0], (13, 5), (14, 6), (16, 8), (14, 5))

VERIFY_MAX_D = 12

# cli_session: every component of dimension 5-15 with d <= 12; each appears
# the same number of times per request kind, so only the order is seeded.
# `--eigenvectors` (a null space per eigenvalue, not cached) is asked for
# only on the components of dimension 5, so that linalg stays a small share of
# this workload.
SESSION_PER_COMPONENT = (
    (("spectrum", "{d}", "{ell}", "--json"), 6),
    (("spectrum", "{d}", "{ell}"), 4),
    (("spectrum", "{d}", "{ell}", "--csv"), 2),
    (("basis", "{d}", "{ell}", "--json"), 4),
    (("basis", "{d}", "{ell}"), 2),
    (("tmatrix", "{d}", "{ell}", "--json"), 4),
    (("tmatrix", "{d}", "{ell}", "--basis", "monomial", "--json"), 4),
    (("tmatrix", "{d}", "{ell}", "--basis", "monomial", "--csv"), 2),
)
SESSION_GPOLY = 150
SESSION_STRAIGHTEN = 100
SESSION_HOOKS = 150


def _dimension(d: int, ell: int) -> int:
    """Partitions of d into exactly ell parts, counted independently of the program."""
    table = [[0] * (ell + 1) for _ in range(d + 1)]
    table[0][0] = 1
    for n in range(1, d + 1):
        for k in range(1, min(n, ell) + 1):
            table[n][k] = table[n - 1][k - 1] + table[n - k][k]
    return table[d][ell]


def _partitions(n: int, cap: int):
    if n == 0:
        yield ()
    for p in range(min(n, cap), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


SESSION_COMPONENTS = tuple(
    (d, ell) for d in range(1, 13) for ell in range(1, d + 1) if 5 <= _dimension(d, ell) <= 15
)
# The seeded draws of cli_session come from these finite sets.
SESSION_GPOLY_ARGV = tuple(
    ("gpoly", str(d), str(ell)) + fmt for d, ell in SESSION_COMPONENTS for fmt in ((), ("--json",))
)
SESSION_STRAIGHTEN_ARGV = tuple(
    ("straighten", str(d1), str(l1), str(d - d1), str(ell - l1), "--json")
    for d, ell in SESSION_COMPONENTS
    for d1 in range(1, d)
    for l1 in range(1, ell)
    if d1 >= l1 and d - d1 >= ell - l1
)
SESSION_HOOKS_ARGV = tuple(
    ("hooks", ",".join(map(str, parts)), "--json") for n in range(1, 13) for parts in _partitions(n, n)
)


def spectrum_cold(rng: random.Random) -> list:
    reqs = [("cli", ("spectrum", str(d), str(ell)) + rng.choice(SPECTRUM_FORMATS)) for d, ell in SPECTRUM_LADDER]
    rng.shuffle(reqs)
    return reqs


def eigen_cold(rng: random.Random) -> list:
    reqs = [("api", (str(d), str(ell))) for d, ell in EIGEN_LADDER]
    rng.shuffle(reqs)
    return reqs


def verify_sweep(rng: random.Random) -> list:
    # `verify` takes one integer; its input does not vary with the seed
    return [("cli", ("verify", "--max-d", str(VERIFY_MAX_D), "--json"))]


def _session_fixed() -> list:
    flagship = tuple(map(str, FLAGSHIP[0]))
    return [
        tuple(a.format(d=d, ell=ell) for a in template)
        for d, ell in SESSION_COMPONENTS
        for template, count in SESSION_PER_COMPONENT
        for _ in range(count)
    ] + [
        ("spectrum", str(d), str(ell), "--eigenvectors", "--json")
        for d, ell in SESSION_COMPONENTS
        if _dimension(d, ell) == 5
    ] + [("spectrum", *flagship, "--json")]


def cli_session(rng: random.Random) -> list:
    argvs = _session_fixed()
    argvs += [rng.choice(SESSION_GPOLY_ARGV) for _ in range(SESSION_GPOLY)]
    argvs += [rng.choice(SESSION_STRAIGHTEN_ARGV) for _ in range(SESSION_STRAIGHTEN)]
    argvs += [rng.choice(SESSION_HOOKS_ARGV) for _ in range(SESSION_HOOKS)]
    rng.shuffle(argvs)
    return [("cli", argv) for argv in argvs]


# Tiny inputs for the self-test, one list per workload.
TINY = {
    "spectrum_cold": [("cli", ("spectrum", "10", "4", "--json")), ("cli", ("spectrum", "12", "4", "--json"))],
    "eigen_cold": [("api", ("12", "4")), ("api", ("10", "3"))],
    "verify_sweep": [("cli", ("verify", "--max-d", "5", "--json"))],
    "cli_session": [("cli", argv) for argv in _session_fixed()[::12] + _session_fixed()[-2:]],
}

WORKLOADS = {
    "spectrum_cold": spectrum_cold,
    "eigen_cold": eigen_cold,
    "verify_sweep": verify_sweep,
    "cli_session": cli_session,
}


def requests(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))


def all_requests() -> set:
    """Every request any seed can generate."""
    out = {("cli", ("spectrum", str(d), str(ell)) + f) for d, ell in SPECTRUM_LADDER for f in SPECTRUM_FORMATS}
    out |= {("api", (str(d), str(ell))) for d, ell in EIGEN_LADDER}
    out |= set(verify_sweep(random.Random(0)))
    out |= {r for tiny in TINY.values() for r in tiny}
    session = _session_fixed() + list(SESSION_GPOLY_ARGV + SESSION_STRAIGHTEN_ARGV + SESSION_HOOKS_ARGV)
    return out | {("cli", argv) for argv in session}


def key(request) -> str:
    """The reference-digest key of a request."""
    mode, args = request
    return " ".join((mode,) + tuple(args))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
