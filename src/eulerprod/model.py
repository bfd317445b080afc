"""Weight families and exception sets for restricted Euler products.

Everything downstream works with the formal product

    prod_{m in S} (1 - q^m)^(-f_ell(m)),

where S is the set of allowed part sizes and f_ell is a family of
positive integer weights indexed by ell >= 1.  This module holds the
finite descriptions of both ingredients: ExceptionSet encodes the
forbidden complement E (so S is everything else, and 1 is always
allowed), and WeightFamily holds the exponents of f_ell(n) = n^e
with its growth envelope exponents phi(ell) <= psi(ell), as plain data
that hashes and pickles.  The built-in families are presets of the
schema that custom JSON weight files use.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n."""
    if n < 1:
        raise ValueError(f"divisors undefined for {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class PowersOf:
    """The family base, base^2, base^3, ..."""

    base: int

    def __post_init__(self) -> None:
        # base 1 would put 1 into E, which is never allowed
        if self.base < 2:
            raise ValueError(f"powers base must be >= 2, got {self.base}")

    def member(self, n: int) -> bool:
        m = self.base
        while m < n:
            m *= self.base
        return m == n

    def members_up_to(self, limit: int) -> Iterator[int]:
        m = self.base
        while m <= limit:
            yield m
            m *= self.base


@dataclass(frozen=True)
class MultiplesOf:
    """The family step, 2*step, 3*step, ..."""

    step: int

    def __post_init__(self) -> None:
        if self.step < 2:
            raise ValueError(f"multiples step must be >= 2, got {self.step}")

    def member(self, n: int) -> bool:
        return n % self.step == 0

    def members_up_to(self, limit: int) -> Iterator[int]:
        return iter(range(self.step, limit + 1, self.step))


@dataclass(frozen=True)
class SupportComplement:
    """Everything outside a finite support set; pins S exactly.

    Encodes cofinite exception sets such as the one with S = {1, 3}:
    every positive integer not listed in `support` is excluded.
    """

    support: frozenset[int]

    def __post_init__(self) -> None:
        if 1 not in self.support:
            raise ValueError("support must contain 1")
        if any(s < 1 for s in self.support):
            raise ValueError("support elements must be positive")

    def member(self, n: int) -> bool:
        return n not in self.support

    def members_up_to(self, limit: int) -> Iterator[int]:
        return (n for n in range(1, limit + 1) if n not in self.support)


Family = PowersOf | MultiplesOf | SupportComplement


@dataclass(frozen=True)
class ExceptionSet:
    """Finitely described set E of forbidden part sizes; 1 is never in E."""

    atoms: frozenset[int] = frozenset()
    families: tuple[Family, ...] = ()

    def __post_init__(self) -> None:
        bad = [a for a in self.atoms if a < 2]
        if bad:
            raise ValueError(f"atoms must be >= 2 (1 always stays allowed), got {sorted(bad)}")

    @property
    def spec_text(self) -> str:
        """Canonical grammar form of this set, usable as a CLI argument."""
        pieces: list[str] = []
        if self.atoms:
            pieces.append(",".join(str(a) for a in sorted(self.atoms)))
        for fam in self.families:
            if isinstance(fam, PowersOf):
                pieces.append(f"powers:{fam.base}")
            elif isinstance(fam, MultiplesOf):
                pieces.append(f"multiples:{fam.step}")
            else:
                pieces.append("support:" + ",".join(str(s) for s in sorted(fam.support)))
        return " + ".join(pieces) if pieces else "none"


def member(E: ExceptionSet, n: int) -> bool:
    """True iff n is an exception (a forbidden part size)."""
    if n < 1:
        raise ValueError(f"part sizes are positive, got {n}")
    if n in E.atoms:
        return True
    return any(fam.member(n) for fam in E.families)


# room for one verify all, the most varied caller: a pass makes 741 calls over 87 distinct
# (E, horizon), horizons up to 158; a grid-tall pass makes 120 calls on 1 key, grid-wide 50
# on 2 run serially and a classify pass 18 to 22 on 7 to 11, by seed
@lru_cache(maxsize=128)
def support_view(E: ExceptionSet, horizon: int) -> tuple[int, ...]:
    """The allowed parts in [1, horizon], ascending (always starts at 1)."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    excluded = set(E.atoms)
    for fam in E.families:
        excluded.update(fam.members_up_to(horizon))
    return tuple(n for n in range(1, horizon + 1) if n not in excluded)


# room for one verify all: a pass makes 1,923 calls over 42 distinct (E, m); a classify pass
# makes 4 calls on 4 keys, grid-wide 1 and grid-tall none
@lru_cache(maxsize=64)
def next_allowed(E: ExceptionSet, m: int) -> int | None:
    """The least allowed part above m, or None past the last part of a finite support set.

    Only a support family makes S finite; any other set allows infinitely
    many parts, so the scan stops.
    """
    for fam in E.families:
        if isinstance(fam, SupportComplement):
            return next((k for k in sorted(fam.support) if k > m and not member(E, k)), None)
    k = max(m, 0) + 1
    while member(E, k):
        k += 1
    return k


# room for every lookup of the one caller, check_g_bounds: the oracles suite (and so verify
# all) asks for 1,000 distinct (E, n), 10 battery sets x n 1..100, each read 8 times (once
# at each of 8 ells); no other subcommand or perfbench workload checks the g-envelope
@lru_cache(maxsize=1024)
def _allowed_divisors(E: ExceptionSet, n: int) -> tuple[int, ...]:
    """Ascending divisors of n that are allowed parts; one scan per (E, n), since the
    g-envelope check asks for the same n at every ell."""
    return tuple(d for d in divisors(n) if not member(E, d))


# ASCII decimal digits only, as in override keys and exponent formulas; int() alone would also
# read '1_0' and other scripts' digits (U+FF12, fullwidth 2).  The CLI's probe range reads its
# bounds here too
_TOKEN = re.compile(r"[0-9]+")


def _parse_positive(token: str, context: str) -> int:
    token = token.strip()
    if not _TOKEN.fullmatch(token):
        raise ValueError(f"bad token {token!r} in {context!r}")
    return int(token)


def exceptions_from_spec(text: str) -> ExceptionSet:
    """Parse an exception-set description.

    Grammar: atoms and family tokens joined by '+', e.g. '2,4',
    'powers:2', '3 + powers:5', 'multiples:3', 'support:1,3'.
    A support token fixes S outright and cannot be combined with
    anything else.  '', 'none' and 'empty' all mean no exceptions.
    """
    text = text.strip()
    if text in ("", "none", "empty"):
        return ExceptionSet()
    atoms: set[int] = set()
    families: list[Family] = []
    pieces = [piece.strip() for piece in text.split("+")]
    for piece in pieces:
        if piece.startswith("powers:"):
            families.append(PowersOf(_parse_positive(piece[len("powers:"):], piece)))
        elif piece.startswith("multiples:"):
            families.append(MultiplesOf(_parse_positive(piece[len("multiples:"):], piece)))
        elif piece.startswith("support:"):
            if len(pieces) > 1:
                raise ValueError(f"support token {piece!r} cannot be combined with other tokens")
            kept = frozenset(_parse_positive(tok, piece) for tok in piece[len("support:"):].split(","))
            families.append(SupportComplement(kept))
        elif piece:
            for tok in piece.split(","):
                atoms.add(_parse_positive(tok, piece))
        else:
            raise ValueError(f"empty token in exception spec {text!r}")
    return ExceptionSet(frozenset(atoms), tuple(families))


# far above the largest weight the suites and benchmark use (about 2.4k bits);
# it stops a runaway exponent before the power is built
MAX_WEIGHT_BITS = 1 << 20


@dataclass(frozen=True)
class WeightFamily:
    """Weights f_ell(n) = n^e with f_ell(1) = 1, inside a growth envelope that is checked when built.

    e is ell + base, except at each n listed in overrides as (n, b, c),
    where e = ell + b + c*(-1)^ell.  phi(ell) and psi(ell) are the
    envelope exponents with n^phi(ell) <= f_ell(n) <= n^psi(ell), and
    envelope_gap bounds psi(ell) - phi(ell) uniformly in ell.
    """

    id: str
    base: int
    overrides: tuple[tuple[int, int, int], ...]
    phi_offset: int
    psi_offset: int
    envelope_gap: int

    def __post_init__(self) -> None:
        phi, psi = self.phi_offset, self.psi_offset
        for name, b, c in (("base", self.base, 0), *((f"part {n}", b, c) for n, b, c in self.overrides)):
            if b - abs(c) < phi or b + abs(c) > psi:
                bound = f"below phi(ell) = {_text(phi, 0)}" if b - abs(c) < phi else f"above psi(ell) = {_text(psi, 0)}"
                raise ValueError(f"weight family {self.id!r}: {name} has exponent {_text(b, c)}, {bound}")
        if self.envelope_gap < psi - phi:
            raise ValueError(f"weight family {self.id!r}: B = {self.envelope_gap} is below psi - phi = {psi - phi}")

    def offsets(self, n: int) -> tuple[int, int]:
        """(even, odd): the o with exponent(ell, n) = ell + o for even and for odd ell, n >= 2."""
        for m, b, c in self.overrides:
            if m == n:
                return b + c, b - c
        return self.base, self.base

    def exponent(self, ell: int, n: int) -> int:
        """The e with f_ell(n) = n^e for n >= 2; ValueError if e < 0 or n^e may exceed MAX_WEIGHT_BITS bits."""
        exponent = ell + self.offsets(n)[ell % 2]
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent} for f_{ell}({n}); weights must be positive integers")
        if exponent * n.bit_length() > MAX_WEIGHT_BITS:
            raise ValueError(f"f_{ell}({n}) = {n}^{exponent} may exceed the weight ceiling of {MAX_WEIGHT_BITS} bits")
        return exponent

    def eval(self, ell: int, n: int) -> int:
        if n == 1:
            return 1
        return n ** self.exponent(ell, n)

    def phi(self, ell: int) -> int:
        return ell + self.phi_offset

    def psi(self, ell: int) -> int:
        return ell + self.psi_offset


def _text(b: int, c: int) -> str:
    """ell + b + c*(-1)^ell in the formula grammar, alt standing for (-1)^ell."""
    return "ell" + (f"{b:+d}" if b else "") + {0: "", 1: "+alt", -1: "-alt"}.get(c, f"{c:+d}*alt")


_TERM = "(?:ell|alt|[0-9]+)"
_FORMULA = re.compile(rf" *[+-]? *{_TERM}(?: *[+-] *{_TERM})* *")
_SIGNED_TERM = re.compile(rf"([+-]?)({_TERM})")


def _linear_form(formula: object, context: str) -> tuple[int, int, int]:
    """Compile a +/- sum of 'ell', 'alt' = (-1)^ell and integers to (a, b, c): a*ell + b + c*alt."""
    if not isinstance(formula, str) or not _FORMULA.fullmatch(formula):
        raise ValueError(f"bad exponent formula {formula!r} in {context}")
    a = b = c = 0
    for sign, term in _SIGNED_TERM.findall(formula.replace(" ", "")):
        k = -1 if sign == "-" else 1
        if term == "ell":
            a += k
        elif term == "alt":
            c += k
        else:
            b += k * int(term)
    return a, b, c


def _from_schema(family_id: str, raw: object, context: str) -> WeightFamily:
    """Validate one weight description and build its family."""
    if not isinstance(raw, dict):
        raise ValueError(f"{context} must hold a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {"base", "phi", "psi", "B", "overrides"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {context}")
    for key in ("base", "phi", "psi", "B"):
        if key not in raw:
            raise ValueError(f"{context} is missing {key!r}")
        if type(raw[key]) is not int:
            raise ValueError(f"{key!r} must be an integer in {context}, got {raw[key]!r}")
    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ValueError(f"'overrides' must be an object in {context}")
    forms: dict[int, tuple[int, int]] = {}
    for key, formula in overrides.items():
        # canonical decimals only, so no two keys name the same n
        if not re.fullmatch("[1-9][0-9]*", key) or int(key) < 2:
            raise ValueError(f"override key {key!r} in {context} is not an integer >= 2 without leading zeros")
        a, b, c = _linear_form(formula, f"override {key} in {context}")
        if a != 1:
            raise ValueError(f"override {key} in {context}: exponent {formula!r} grows by {a} per step of ell, "
                             "where the envelope needs exactly 1")
        forms[int(key)] = b, c
    return WeightFamily(family_id, raw["base"], tuple((n, *forms[n]) for n in sorted(forms)),
                        raw["phi"], raw["psi"], raw["B"])


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """json object hook: a key given twice is an error, not a silent overwrite."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"a key is given twice in the JSON object {{{', '.join(keys)}}}")
    return dict(pairs)


def _custom_weights(path: str) -> WeightFamily:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"custom weight file {path!r} nests too deeply") from None
    return _from_schema(f"custom:{path}", raw, f"custom weight file {path!r}")


PRESETS = {name: _from_schema(name, schema, f"preset {name!r}") for name, schema in {
    "power": {"base": -1, "phi": -1, "psi": -1, "B": 0},
    "example1": {"base": -1, "overrides": {"2": "ell"}, "phi": -1, "psi": 0, "B": 1},
    "example2": {"base": 0, "overrides": {"2": "ell+alt", "4": "ell-alt"}, "phi": -1, "psi": 1, "B": 2},
}.items()}


def weight_from_spec(spec: str) -> WeightFamily:
    """Build a weight family from its grammar form.

    'power' is n^(ell-1); 'example1' is the same except f_ell(2) = 2^ell;
    'example2' is n^ell except f_ell(2) = 2^(ell+(-1)^ell) and
    f_ell(4) = 4^(ell-(-1)^ell).  All three are PRESETS of the schema
    that 'custom:<path>' reads from a JSON object: integers base, phi,
    psi, B, and optional overrides from n >= 2 to exponent formulas.
    """
    name = spec.strip()
    if name in PRESETS:
        return PRESETS[name]
    if name.startswith("custom:"):
        return _custom_weights(name[len("custom:"):])
    raise ValueError(f"unknown weight family {spec!r}")
