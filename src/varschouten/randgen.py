"""Seeded random densities and multivectors for the verification batteries.

Generation is deterministic in (config, degree, salt): the RNG is keyed by a
string so replaying a failure needs only the config seed and the case index.
Returned multivector classes are nonzero; trivial draws are re-drawn a
bounded number of times with is_exact as the triviality oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BKIND,
    QKIND,
    DiffPolynomial,
    DomainError,
    Geometry,
    JetVariable,
    midx,
    monomial,
)
from .multivector import Multivector
from .variational import Functional, is_exact

_MAX_REDRAWS = 32
_COEFF_BOUND = 5


@dataclass(frozen=True)
class GeneratorConfig:
    geometry: Geometry = Geometry(1, 1, 4)
    seed: int = 0
    max_degree: int = 3
    max_order: int = 3
    max_terms: int = 4


def _random_index(cfg: GeneratorConfig, rng: random.Random):
    order = rng.randint(0, cfg.max_order)
    return midx(*(rng.randint(1, cfg.geometry.n) for _ in range(order)))


def _random_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(1, _COEFF_BOUND) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, _COEFF_BOUND))


def _random_odd_word(cfg: GeneratorConfig, rng: random.Random, degree: int):
    """Distinct odd letters; a repeated letter would kill the monomial."""
    word = []
    seen = set()
    attempts = 0
    while len(word) < degree:
        v = JetVariable(BKIND, rng.randint(1, cfg.geometry.m), _random_index(cfg, rng))
        if v in seen:
            attempts += 1
            if attempts > 64:
                raise DomainError("odd-letter pool exhausted; raise max_order")
            continue
        seen.add(v)
        word.append(v)
    return word


def random_density(
    cfg: GeneratorConfig, degree: int, rng: random.Random
) -> DiffPolynomial:
    """A b-homogeneous density of the given degree within the config bounds."""
    g = cfg.geometry
    out = DiffPolynomial.zero(g)
    for _ in range(rng.randint(1, cfg.max_terms)):
        base = []
        if rng.random() < 0.5:
            base.append((rng.randint(1, g.n), rng.randint(1, 3)))
        even = [
            JetVariable(QKIND, rng.randint(1, g.m), _random_index(cfg, rng))
            for _ in range(rng.randint(0, 2))
        ]
        out = out + monomial(
            g,
            _random_coeff(rng),
            base=base,
            even=even,
            odd=_random_odd_word(cfg, rng, degree),
        )
    return out


def random_multivector(
    cfg: GeneratorConfig, degree: int, salt: str = ""
) -> Multivector:
    """Deterministic in (cfg, degree, salt); the returned class is nonzero."""
    if degree > cfg.max_degree:
        raise DomainError(f"degree {degree} exceeds max_degree {cfg.max_degree}")
    rng = random.Random(f"{cfg.seed}:mv:{degree}:{salt}")
    for _ in range(_MAX_REDRAWS):
        f = random_density(cfg, degree, rng)
        if not is_exact(f):
            return Multivector(Functional(f), degree)
    raise DomainError(
        f"no nonzero degree-{degree} class in {_MAX_REDRAWS} draws (seed {cfg.seed})"
    )


def random_exact(cfg: GeneratorConfig, degree: int, salt: str = "") -> DiffPolynomial:
    """A nonzero total divergence, b-homogeneous of the given degree."""
    rng = random.Random(f"{cfg.seed}:exact:{degree}:{salt}")
    for _ in range(_MAX_REDRAWS):
        f = random_density(cfg, degree, rng)
        shifted = f.total_derivative(rng.randint(1, cfg.geometry.n))
        if not shifted.is_zero:
            return shifted
    raise DomainError(f"no nonzero divergence in {_MAX_REDRAWS} draws (seed {cfg.seed})")
