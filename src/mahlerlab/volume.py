"""Volumes and volume products.

Exact rational volumes for polytopes (a cone from the centroid over a
pulling triangulation of the facets, see ``exactgeom.ExactHull``), closed
forms for l_p balls, and seeded hit-or-miss Monte Carlo for
everything else.  The Monte Carlo sampler draws each block of samples from
its own counter-based Philox stream keyed by (seed, block index), so a
parallel scheduler would reproduce the sequential results bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import (
    BodyError,
    ConvexBody,
    DiagonalImageBody,
    LagrangianProductBody,
    LpBallBody,
    PolytopeBody,
    hyperplane_projection,
)

MC_BLOCK = 1 << 16
# rows per membership test: keeps the test's temporaries (a few arrays of
# rows x facets or rows x fiber steps) small enough to be reused from the
# heap instead of being mapped and unmapped for every call
MC_ROWS = 1 << 13
Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class VolumeResult:
    value: float
    method: str  # "exact" | "closed-form" | "monte-carlo"
    ci_halfwidth: float = 0.0
    samples: int = 0
    seed: int | None = None
    exact: Fraction | None = None
    exact_sqrt: tuple[Fraction, Fraction] | None = None  # value = r * sqrt(d)

    def __post_init__(self):
        if self.method == "exact" and self.ci_halfwidth != 0.0:
            raise ValueError("exact volumes carry no confidence interval")
        if self.method == "monte-carlo" and self.samples <= 0:
            raise ValueError("monte-carlo volumes need a positive sample count")

    def as_dict(self) -> dict:
        d = {
            "value": self.value,
            "method": self.method,
            "ci_halfwidth": self.ci_halfwidth,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.exact is not None:
            d["exact"] = str(self.exact)
        if self.exact_sqrt is not None:
            d["exact_sqrt"] = [str(self.exact_sqrt[0]), str(self.exact_sqrt[1])]
        return d


@dataclass(frozen=True)
class MahlerReport:
    vol_body: VolumeResult
    vol_polar: VolumeResult
    product: float
    bound: float
    ratio: float
    dim: int
    exact_product: Fraction | None = None
    exact_ratio: Fraction | None = None
    ci_halfwidth: float = 0.0  # half-width on the product, MC runs only

    def as_dict(self) -> dict:
        d = {
            "dim": self.dim,
            "vol_body": self.vol_body.as_dict(),
            "vol_polar": self.vol_polar.as_dict(),
            "product": self.product,
            "bound": self.bound,
            "ratio": self.ratio,
            "product_ci_halfwidth": self.ci_halfwidth,
        }
        if self.exact_product is not None:
            d["exact_product"] = str(self.exact_product)
            d["exact_ratio"] = str(self.exact_ratio)
        return d


def mahler_bound(n: int) -> Fraction:
    return Fraction(4**n, math.factorial(n))


# ---------------------------------------------------------------------------
# exact and closed-form volumes


def exact_polytope_volume(body: ConvexBody) -> VolumeResult:
    """Exact volume of a rational polytope (dim <= 8).

    ``DiagonalImageBody`` values (hyperplane sections/projections of rational
    polytopes) come out as r*sqrt(d) with rational r, d, reported numerically
    together with the exact pair.
    """
    if isinstance(body, LagrangianProductBody) and body.factors_polytopal():
        body = body.as_polytope()
    if isinstance(body, DiagonalImageBody):
        if body.dim > 8:
            raise BodyError("exact volume limited to dimension <= 8")
        if body.is_degenerate:
            return VolumeResult(0.0, "exact", exact=Fraction(0))
        core_vol = body.core.volume_exact()
        s2 = body.volume_scale2()
        value = float(core_vol) * math.sqrt(float(s2))
        if _is_perfect_square(s2):
            r = core_vol * _sqrt_fraction(s2)
            return VolumeResult(float(r), "exact", exact=r)
        return VolumeResult(value, "exact", exact_sqrt=(core_vol, s2))
    if not isinstance(body, PolytopeBody):
        raise BodyError(f"{type(body).__name__} is not an exact polytope")
    if body.dim > 8:
        raise BodyError("exact volume limited to dimension <= 8")
    if body.is_degenerate:
        return VolumeResult(0.0, "exact", exact=Fraction(0))
    v = body.volume_exact()
    return VolumeResult(float(v), "exact", exact=v)


def _is_perfect_square(f: Fraction) -> bool:
    return (
        math.isqrt(f.numerator) ** 2 == f.numerator
        and math.isqrt(f.denominator) ** 2 == f.denominator
    )


def _sqrt_fraction(f: Fraction) -> Fraction:
    return Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator))


def lp_ball_volume(p: float, n: int) -> VolumeResult:
    """vol of the unit l_p ball: 2^n Gamma(1+1/p)^n / Gamma(1+n/p)."""
    if n < 1:
        raise BodyError("dimension must be >= 1")
    if isinstance(p, str):
        p = math.inf if p == "inf" else float(Fraction(p))
    p = float(p)
    if p < 1:
        raise BodyError("p must be >= 1")
    if math.isinf(p):
        return VolumeResult(float(2**n), "closed-form", exact=Fraction(2**n))
    if p == 1.0:
        ex = Fraction(2**n, math.factorial(n))
        return VolumeResult(float(ex), "closed-form", exact=ex)
    logv = n * math.log(2.0) + n * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + n / p)
    return VolumeResult(math.exp(logv), "closed-form")


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_volume(body: ConvexBody, samples: int, seed: int) -> VolumeResult:
    """Hit-or-miss estimate over the support bounding box, binomial CI.

    Deterministic in (seed, samples): block b of 2^16 points is drawn from
    Philox(key=(seed, b)), independent of any scheduling.
    """
    if samples <= 0:
        raise BodyError("need a positive number of samples")
    half = body.bounding_halfwidths()
    if not np.all(np.isfinite(half)) or np.any(half <= 0):
        raise BodyError("body has an invalid bounding box")
    box_vol = float(np.prod(2.0 * half))
    hits = 0
    done = 0
    block_idx = 0
    while done < samples:
        m = min(MC_BLOCK, samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), block_idx]))
        pts = rng.uniform(-1.0, 1.0, size=(m, body.dim)) * half
        for lo in range(0, m, MC_ROWS):
            hits += int(np.count_nonzero(body.contains_batch(pts[lo:lo + MC_ROWS])))
        done += m
        block_idx += 1
    phat = hits / samples
    value = phat * box_vol
    ci = Z95 * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples) * box_vol
    return VolumeResult(value, "monte-carlo", ci_halfwidth=ci, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# volume dispatch and the Mahler product


def _product_halfwidth(a: VolumeResult, b: VolumeResult) -> float:
    """Half-width on a.value * b.value from the factors' half-widths."""
    return abs(a.value) * b.ci_halfwidth + abs(b.value) * a.ci_halfwidth \
        + a.ci_halfwidth * b.ci_halfwidth


def volume_of(body: ConvexBody, samples: int = 10**5, seed: int = 0) -> VolumeResult:
    """Best available volume: exact for polytopes, closed form for l_p balls,
    Monte Carlo otherwise."""
    if isinstance(body, (PolytopeBody, DiagonalImageBody)):
        return exact_polytope_volume(body)
    if isinstance(body, LagrangianProductBody):
        if body.factors_polytopal():
            return exact_polytope_volume(body.as_polytope())
        a = volume_of(body.base, samples, seed)
        b = volume_of(body.dual, samples, seed + 1)
        value = a.value * b.value
        ci = _product_halfwidth(a, b)
        method = "exact" if (a.method == b.method == "exact") else (
            "closed-form" if "monte-carlo" not in (a.method, b.method) else "monte-carlo"
        )
        n_samp = max(a.samples, b.samples)
        exact = a.exact * b.exact if (a.exact is not None and b.exact is not None) else None
        return VolumeResult(value, method, ci_halfwidth=ci,
                            samples=n_samp if method == "monte-carlo" else 0,
                            seed=seed if method == "monte-carlo" else None, exact=exact)
    if isinstance(body, LpBallBody):
        return lp_ball_volume(body.p, body.dim)
    return mc_volume(body, samples, seed)


def mahler_product(body: ConvexBody, samples: int = 10**5, seed: int = 0) -> MahlerReport:
    """vol(K) * vol(K°) against the bound 4^n / n!.

    The polar is taken after the body's volume, so an exact polar starts
    from both representations the body holds by then: the vertices double
    description found for a section are the polar's facets.
    """
    exact_product = None
    exact_ratio = None
    if isinstance(body, DiagonalImageBody):
        # per-axis scales cancel in the product; stay fully rational
        v1 = exact_polytope_volume(body)
        pol = body.polar()
        v2 = exact_polytope_volume(pol)
        exact_product = body.core.volume_exact() * pol.core.volume_exact()
        product = float(exact_product)
        ci = 0.0
    else:
        v1 = volume_of(body, samples, seed)
        v2 = volume_of(body.polar(), samples, seed + 10**6)
        product = v1.value * v2.value
        ci = _product_halfwidth(v1, v2)
        if v1.exact is not None and v2.exact is not None:
            exact_product = v1.exact * v2.exact
    bound = mahler_bound(body.dim)
    if exact_product is not None:
        exact_ratio = exact_product / bound
    return MahlerReport(
        vol_body=v1,
        vol_polar=v2,
        product=product,
        bound=float(bound),
        ratio=product / float(bound),
        dim=body.dim,
        exact_product=exact_product,
        exact_ratio=exact_ratio,
        ci_halfwidth=ci,
    )


# ---------------------------------------------------------------------------
# reduction volume bound


@dataclass(frozen=True)
class ReductionVolumeReport:
    lhs: float
    rhs: float
    holds: bool
    lhs_exact: Fraction | None = None
    rhs_exact: Fraction | None = None
    equality: bool = False


def reduction_volume_bound(body: PolytopeBody, u, action_bound=Fraction(4)) -> ReductionVolumeReport:
    """Check vol(S') >= (n / A) vol(S) for S = K x K° and one reduction step.

    S' = (K/L) x (K° ∩ L^perp) with L = span(u).  Both sides are exact
    rationals: per-axis frame scales cancel between the projected and the
    sectioned factor.  K° ∩ L^perp is the polar of K/L in the shared frame
    of u^perp, so the sectioned core is built from the projected core's
    facets and one double description serves both factors.
    """
    if not isinstance(body, PolytopeBody):
        raise BodyError("reduction volume bound needs an exact polytope")
    n = body.dim
    if n < 2:
        raise BodyError("need dimension >= 2 to reduce")
    A = Fraction(action_bound)
    base = hyperplane_projection(body, u).core
    vol_base = base.volume_exact()  # first: the polar reads this hull's facets
    lhs = vol_base * base.polar().volume_exact()
    vol_s = body.volume_exact() * body.polar().volume_exact()
    rhs = Fraction(n, 1) / A * vol_s
    return ReductionVolumeReport(
        lhs=float(lhs),
        rhs=float(rhs),
        holds=lhs >= rhs,
        lhs_exact=lhs,
        rhs_exact=rhs,
        equality=lhs == rhs,
    )
