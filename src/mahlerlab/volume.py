"""Volumes and volume products.

Exact rational volumes for polytopes (a cone from the origin over a
pulling triangulation of the facets, see ``exactgeom.ExactHull``), closed
forms for l_p balls, and seeded hit-or-miss Monte Carlo for
everything else.  Monte Carlo draws come from ``sampling``: a body's from
the caller's stream, its polar's from POLAR_STREAM, and a product's dual
factor's from the product's stream plus its dimension.  Those offsets are
even and halve with each level of nesting, so no two parts share a stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sampling
from .bodies import (
    BodyError,
    ConvexBody,
    DiagonalImageBody,
    LagrangianProductBody,
    LpBallBody,
    PolytopeBody,
    TwoBlockBody,
    hyperplane_projection,
)

MC_BLOCK = 1 << 16
# rows per membership test, passed as a row view of the chunk's coordinate
# planes.  Each chunk whose fiber tests leave rows to golden section runs a
# search of its own, whose cost is mostly per call, so fewer chunks cost
# less, while the test's temporaries (coordinates x rows, facets x rows)
# grow with the chunk.  On the 36 l_p section products of the sampling
# benchmark at seeds 71 and 72 (2-vCPU Xeon, one BLAS thread, best of 8),
# chunks of 2^13, 2^14, 2^15 and 2^16 rows took 676, 569, 563 and 639 ms,
# and 2^15 was slower than 2^14 on the n = 4 sections
MC_ROWS = 1 << 14
Z95 = 1.959963984540054  # two-sided 95% normal quantile
# the capacity of every K x K°, the A of the reduction bound vol S' >= (n/A) vol S
ACTION_BOUND = 4
POLAR_STREAM = 1


@dataclass(frozen=True)
class VolumeResult:
    value: float
    method: str  # "exact" | "closed-form" | "monte-carlo"
    ci_halfwidth: float = 0.0
    samples: int = 0
    seed: int | None = None
    stream: int | None = None  # the sampling stream of a Monte Carlo draw
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
            "stream": self.stream,
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
    """Exact volume of a rational polytope (dim <= 8), of a per-axis scaled
    one, or of a product of these or its polar, a free sum (each factor of
    dim <= 8).

    ``DiagonalImageBody`` values (hyperplane sections/projections of rational
    polytopes) come out as r*sqrt(d) with rational r, d, reported numerically
    together with the exact pair.
    """
    if isinstance(body, TwoBlockBody):
        return _two_block_volume(body, exact_polytope_volume(body.base),
                                 exact_polytope_volume(body.dual), None)
    core, s2 = (body.core, body.volume_scale2()) if isinstance(body, DiagonalImageBody) \
        else (body, Fraction(1))
    if not isinstance(core, PolytopeBody):
        raise BodyError(f"{type(body).__name__} is not an exact polytope")
    if body.dim > 8:
        raise BodyError("exact volume limited to dimension <= 8")
    return _root_volume(core.volume_exact(), s2)


def _root_volume(r: Fraction, d: Fraction) -> VolumeResult:
    """The exact volume r*sqrt(d); d folds into r when it is a perfect square
    (or when r = 0)."""
    root = Fraction(math.isqrt(d.numerator), math.isqrt(d.denominator))
    if r == 0 or root * root == d:
        r *= root
        return VolumeResult(float(r), "exact", exact=r)
    return VolumeResult(float(r) * math.sqrt(float(d)), "exact", exact_sqrt=(r, d))


def lp_ball_volume(p: float, n: int) -> VolumeResult:
    """vol of the unit l_p ball, 1 < p < inf: 2^n Gamma(1+1/p)^n / Gamma(1+n/p)."""
    logv = n * math.log(2.0) + n * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + n / p)
    return VolumeResult(math.exp(logv), "closed-form")


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_volume(body: ConvexBody, samples: int, seed: int, *, stream: int = 0) -> VolumeResult:
    """Hit-or-miss estimate over the support bounding box, binomial CI.

    Deterministic in (seed, stream, samples): block b of 2^16 points is
    ``sampling.block_rng(seed, stream, b)``'s draw.
    """
    if samples <= 0:
        raise BodyError("need a positive number of samples")
    # a box that overflows or is NaN, as a subnormal basis gives, is
    # refused below, so the warnings on the way to it say nothing more
    with np.errstate(all="ignore"):
        half = body.bounding_halfwidths()
    if not np.all(np.isfinite(half)) or np.any(half <= 0):
        raise BodyError("body has an invalid bounding box")
    box_vol = float(np.prod(2.0 * half))
    hits = 0
    for rng, m in sampling.blocks(seed, stream, samples, MC_BLOCK):
        draw = rng.uniform(-1.0, 1.0, size=(m, body.dim))
        for lo in range(0, m, MC_ROWS):
            # the chunk scaled to the box into coordinate planes, in one pass,
            # and tested as their row view
            planes = np.multiply(draw[lo:lo + MC_ROWS].T, half[:, None], order="C")
            hits += int(np.count_nonzero(body.contains_batch(planes.T)))
    phat = hits / samples
    value = phat * box_vol
    ci = Z95 * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples) * box_vol
    return VolumeResult(value, "monte-carlo", ci_halfwidth=ci, samples=samples, seed=seed,
                        stream=stream)


# ---------------------------------------------------------------------------
# volume dispatch and the Mahler product


def volume_product(a: VolumeResult, b: VolumeResult, seed: int | None) -> VolumeResult:
    """vol(A) * vol(B) from the two volumes.

    Exact factors r1*sqrt(d1) and r2*sqrt(d2) multiply exactly, as
    (r1*r2)*sqrt(d1*d2).  Otherwise the floats multiply and the half-widths
    combine to first and second order; ``seed`` labels a Monte Carlo product.
    """
    ra = (a.exact, Fraction(1)) if a.exact is not None else a.exact_sqrt
    rb = (b.exact, Fraction(1)) if b.exact is not None else b.exact_sqrt
    if ra is not None and rb is not None:
        return _root_volume(ra[0] * rb[0], ra[1] * rb[1])
    ci = abs(a.value) * b.ci_halfwidth + abs(b.value) * a.ci_halfwidth \
        + a.ci_halfwidth * b.ci_halfwidth
    if "monte-carlo" in (a.method, b.method):
        return VolumeResult(a.value * b.value, "monte-carlo", ci_halfwidth=ci,
                            samples=max(a.samples, b.samples), seed=seed)
    return VolumeResult(a.value * b.value, "closed-form", ci_halfwidth=ci)


def _two_block_volume(body: TwoBlockBody, base: VolumeResult, dual: VolumeResult,
                      seed: int | None) -> VolumeResult:
    """vol K vol T for K x T, times n!^2/(2n)! for the free sum
    conv(T x 0, 0 x K) (Saint-Raymond, 1981)."""
    n = body.n
    f = Fraction(1) if isinstance(body, LagrangianProductBody) \
        else Fraction(math.factorial(n) ** 2, math.factorial(2 * n))
    return volume_product(volume_product(base, dual, seed),
                          VolumeResult(float(f), "exact", exact=f), seed)


def volume_of(body: ConvexBody, samples: int = 10**5, seed: int = 0, *,
              stream: int = 0) -> VolumeResult:
    """Best available volume: exact for polytopes, closed form for l_p balls,
    the blocks' volumes times the product or free-sum factor for K x T and
    its polar, Monte Carlo on ``stream`` otherwise."""
    if isinstance(body, (PolytopeBody, DiagonalImageBody)):
        return exact_polytope_volume(body)
    if isinstance(body, TwoBlockBody):
        return _two_block_volume(body, volume_of(body.base, samples, seed, stream=stream),
                                 volume_of(body.dual, samples, seed, stream=stream + body.dim),
                                 seed)
    if isinstance(body, LpBallBody):
        return lp_ball_volume(body.p, body.dim)
    return mc_volume(body, samples, seed, stream=stream)


def mahler_product(body: ConvexBody, samples: int = 10**5, seed: int = 0) -> MahlerReport:
    """vol(K) * vol(K°) against the bound 4^n / n!.

    The polar is taken after the body's volume, so an exact polar starts
    from both representations the body holds by then: the vertices double
    description found for a section are the polar's facets.  Per-axis
    scales cancel in the product: sqrt(s * 1/s) folds, so a section's
    product is rational.
    """
    v1 = volume_of(body, samples, seed)
    v2 = volume_of(body.polar(), samples, seed, stream=POLAR_STREAM)
    prod = volume_product(v1, v2, seed)
    bound = mahler_bound(body.dim)
    return MahlerReport(
        vol_body=v1,
        vol_polar=v2,
        product=prod.value,
        bound=float(bound),
        ratio=prod.value / float(bound),
        dim=body.dim,
        exact_product=prod.exact,
        exact_ratio=None if prod.exact is None else prod.exact / bound,
        ci_halfwidth=prod.ci_halfwidth,
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


def reduction_volume_bound(body: PolytopeBody, u) -> ReductionVolumeReport:
    """Check vol(S') >= (n / A) vol(S), A = ``ACTION_BOUND``, for S = K x K°
    and one reduction step.

    S' = (K/L) x (K° ∩ L^perp) with L = span(u), and K° ∩ L^perp is the
    polar of K/L in the shared frame of u^perp, so both sides are Mahler
    products and exact rationals.  The polar of the projection is built from
    its facets, so one double description serves both factors.

    The inequality is checked on Hanner polytopes, not proved for general
    bodies: at n = 2 the left side is 4, so with A = 4 it reads
    vol K vol K° <= 8, which only parallelograms meet (Mahler, 1939).
    """
    if not isinstance(body, PolytopeBody):
        raise BodyError("reduction volume bound needs an exact polytope")
    n = body.dim
    if n < 2:
        raise BodyError("need dimension >= 2 to reduce")
    projection = hyperplane_projection(body, u)
    if not isinstance(projection, DiagonalImageBody):
        raise BodyError("reduction volume bound needs a rational normal")
    lhs = mahler_product(projection).exact_product
    rhs = Fraction(n, ACTION_BOUND) * mahler_product(body).exact_product
    return ReductionVolumeReport(
        lhs=float(lhs),
        rhs=float(rhs),
        holds=lhs >= rhs,
        lhs_exact=lhs,
        rhs_exact=rhs,
        equality=lhs == rhs,
    )
