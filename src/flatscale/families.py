"""Synthetic plumbed families with exact period decompositions.

Each family couples an enhanced level graph with explicit flat data for
the level pieces: a flat torus (or slit tori) on top with designated node
points, and rational differentials on genus-zero lower pieces whose
periods have elementary closed forms.  Designated relative cycles are
oriented from the lower endpoint up through one plumbing annulus, so the
decomposition of a period reads

    rescale(level) * ( pert  +  annulus terms  +  lower/cylinder terms )

with the annulus term equal to the closed form of (u^(b-1) + T^b r/u) du
from T to the truncation point p.  Lower residues come in opposite pairs
(the residue theorem on a genus-zero piece forces the residue at a single
node to vanish, so families with residue carry two nodes).

Two families also produce exact flat surfaces for dual-route checks: the
marked-torus family (b = 1, no residue: plumbing inserts a trivial flat
bubble and the smoothed surface is the torus with marked points colliding
at rate t) and the horizontal family (two tori joined by two flat
cylinders whose cross periods are c + (r/2) log t).

Each family is checked against an independent route in
``tests/test_families.py``:

- ``MarkedTorusFamily`` (``TestMarkedTorusFamily``): its periods are
  holonomies of saddle connections that the unfolding finds on
  ``surface(params)``.
- ``HorizontalCylinderFamily`` (``TestHorizontalCylinderFamily``): the same,
  on the two tori joined by cylinders.
- ``ResidueFamily`` (``TestResidueFamily``): ``verify_period_expansion``
  recovers the t log t coefficient -r, and the annulus term agrees with
  quadrature along the sector branch.
- ``ThreeLevelFamily`` (``TestThreeLevelFamily``): with t_{-2} fixed, the
  fit recovers -r t_{-2}.
- ``NoninjectivityFamily`` (``TestNoninjectivityFamily``): t and -t share a
  period vector, and one sector arc separates them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .levelgraph import (
    EnhancedLevelGraph,
    GraphEdge,
    GraphVertex,
    HalfEdge,
    compute_a,
    plumbing_T,
    rescale_factor,
)
from .plumbing import annulus_period, cylinder_cross_period
from .sectors import Arc, MultiSector
from .surface import (
    SurfaceError,
    TranslationSurface,
    symmetric_polygon_gluings,
)

SECTOR_EPS = 0.3  # the radius of every family's multi-sector


@dataclass(frozen=True)
class PlumbingParams:
    """Scaling parameters per level, horizontal parameters per edge, and
    the perturbed-period truncation point p."""

    t: dict[int, complex] = field(default_factory=dict)
    t_h: dict[int, complex] = field(default_factory=dict)
    p: complex = 0.25


@dataclass(frozen=True)
class AnnulusTerm:
    edge_index: int
    b: int
    r: complex


@dataclass(frozen=True)
class LowerTerm:
    level: int
    constant: complex


@dataclass(frozen=True)
class CylinderTerm:
    edge_index: int
    r: complex
    constant: complex


@dataclass(frozen=True)
class PeriodDecomposition:
    """Symbolic decomposition of one designated relative period.

    ``pert`` is the full limit period of the top part; truncating it at
    the coordinate-p circle removes p^b / b per crossed annulus, which the
    annulus closed form then restores, so the total never depends on p.
    """

    level: int
    pert: complex
    annulus_terms: tuple[AnnulusTerm, ...] = ()
    lower_terms: tuple[LowerTerm, ...] = ()
    cylinder_terms: tuple[CylinderTerm, ...] = ()

    def perturbed_period(self, p: complex) -> complex:
        out = complex(self.pert)
        for at in self.annulus_terms:
            out -= p ** at.b / at.b
        return out

    def evaluate(self, graph: EnhancedLevelGraph, a: dict[int, int],
                 sector: MultiSector, params: PlumbingParams) -> complex:
        t, p = params.t, params.p
        pref = rescale_factor(self.level, t, a)
        total = self.perturbed_period(p)
        for at in self.annulus_terms:
            T = plumbing_T(graph, at.edge_index, t, a)
            # the log branch only enters through the residue term
            log_T = (sector.log_T(graph, at.edge_index, t, a)
                     if at.r != 0 else 0j)
            top = graph.top_level(graph.edges[at.edge_index])
            coef = rescale_factor(top, t, a) / pref
            total += coef * annulus_period(at.b, at.r, T, p, log_T)
        for lt in self.lower_terms:
            total += (rescale_factor(lt.level, t, a) / pref) * lt.constant
        for ct in self.cylinder_terms:
            th = params.t_h[ct.edge_index]
            log_t = sector.log_horizontal(ct.edge_index, th)
            lvl = graph.top_level(graph.edges[ct.edge_index])
            coef = rescale_factor(lvl, t, a) / pref
            total += coef * (ct.constant
                             + cylinder_cross_period(ct.r, th, log_t))
        return pref * total


class SyntheticFamily:
    """Base: a level graph plus designated cycles with decompositions."""

    graph: EnhancedLevelGraph
    sector: MultiSector

    def __init__(self):
        self.a = compute_a(self.graph) if self.graph.depth > 0 else {}

    @property
    def cycles(self) -> tuple[str, ...]:
        return tuple(self._decompositions)

    def decomposition(self, cycle: str) -> PeriodDecomposition:
        return self._decompositions[cycle]

    def period(self, cycle: str, params: PlumbingParams) -> complex:
        missing = [f"t[{lvl}]" for lvl in self.a if lvl not in params.t]
        missing += [f"t_h[{i}]" for i, _ in self.graph.horizontal_edges()
                    if i not in params.t_h]
        if missing:
            raise ValueError(
                f"{type(self).__name__} has no value for {', '.join(missing)}")
        return self._decompositions[cycle].evaluate(
            self.graph, self.a, self.sector, params)

    def periods(self, params: PlumbingParams) -> dict[str, complex]:
        return {c: self.period(c, params) for c in self.cycles}


# -- rational bottom pieces ---------------------------------------------------------


@dataclass(frozen=True)
class RationalBottom:
    """Sphere with eta = (1/v^2 + r/v) dv + (1/(v+1)^2 - r/(v+1)) dv.

    Poles of order 2 at v = 0 (residue r) and v = -1 (residue -r); the two
    zeros are the roots of the numerator quadratic.  Periods integrate in
    elementary closed form.
    """

    r: complex

    def zeros(self) -> tuple[complex, complex]:
        # eta * v^2 (v+1)^2 / dv = (v+1)^2 + v^2 + r v (v+1)
        a = b = 2.0 + self.r
        c = 1.0
        disc = cmath.sqrt(b * b - 4 * a * c)
        return ((-b + disc) / (2 * a), (-b - disc) / (2 * a))

    def antiderivative(self, v: complex) -> complex:
        out = -1.0 / v - 1.0 / (v + 1.0)
        if self.r != 0:
            out += self.r * (cmath.log(v) - cmath.log(v + 1.0))
        return out

    def period(self, v0: complex, v1: complex) -> complex:
        return self.antiderivative(v1) - self.antiderivative(v0)


# -- marked torus family (two levels, b = 1, r = 0) --------------------------------


class MarkedTorusFamily(SyntheticFamily):
    """Single node, no residue: the plumbed surface is exactly the flat
    torus with two extra marked points at n + t/v_a and n + t/v_b.

    The bottom piece is a sphere with eta = dv/v^2 and marked points at
    v_a, v_b; its flat coordinate glues to the torus node coordinate as
    u = t / v.
    """

    omega = (1.0 + 0j, 1j)  # the torus periods
    node = 0.5 + 0.5j
    marked = 0.15 + 0.8j
    v_a, v_b = 2.0 + 0j, -1.0 + 2.0j  # the bottom marked points

    def __init__(self):
        self.graph = EnhancedLevelGraph(
            vertices=(GraphVertex(1, 0), GraphVertex(0, -1)),
            edges=(GraphEdge(0, 1, "vertical", b=1, prong=0),),
            half_edges=(HalfEdge(0, 0), HalfEdge(0, 0),
                        HalfEdge(1, 0), HalfEdge(1, 0)),
        )
        super().__init__()
        self.sector = MultiSector.standard(self.a, eps=SECTOR_EPS,
                                           base_angle=-math.pi / 16)
        def F(v):
            return -1.0 / v

        self._decompositions = {
            # from the marked bottom point up through the node to marked
            "cross_a": PeriodDecomposition(
                level=0,
                pert=self.marked - self.node,
                annulus_terms=(AnnulusTerm(0, 1, 0.0),),
                lower_terms=(LowerTerm(-1, F(self.v_a) - F(1.0)),),
            ),
            "cross_b": PeriodDecomposition(
                level=0,
                pert=self.marked - self.node,
                annulus_terms=(AnnulusTerm(0, 1, 0.0),),
                lower_terms=(LowerTerm(-1, F(self.v_b) - F(1.0)),),
            ),
            # between the two bottom marked points (modified differential:
            # the gluing flips the sign of the bottom forms)
            "bottom_rel": PeriodDecomposition(
                level=-1,
                pert=0.0,
                lower_terms=(LowerTerm(-1, (F(self.v_a) - F(self.v_b))),),
            ),
            "top_a": PeriodDecomposition(level=0, pert=self.omega[0]),
            "top_b": PeriodDecomposition(level=0, pert=self.omega[1]),
        }

    def marked_points(self, params: PlumbingParams):
        t = params.t[-1]
        return (self.marked,
                self.node + t / self.v_a,
                self.node + t / self.v_b)

    def surface(self, params: PlumbingParams) -> TranslationSurface:
        """Exact plumbed surface: the torus with colliding marked points."""
        from scipy.spatial import Delaunay

        w1, w2 = self.omega
        # the symmetric 4-gon 0, w1, w1 + w2, w2 with the marked points inside
        pts = [0j, w1, w1 + w2, w2, *self.marked_points(params)]
        tri = Delaunay([[z.real, z.imag] for z in pts]).simplices.tolist()
        # (a, b, c) is positively oriented iff Im(conj(b - a) (c - b)) > 0
        simplices = [(a, b, c) if ((pts[b] - pts[a]).conjugate()
                                   * (pts[c] - pts[b])).imag > 0
                     else (a, c, b) for a, b, c in tri]
        triangles = [[pts[b] - pts[a], pts[c] - pts[b], pts[a] - pts[c]]
                     for (a, b, c) in simplices]
        return TranslationSurface(triangles,
                                  symmetric_polygon_gluings(2, simplices))


# -- two-level residue family (two nodes, b = 1, residues +-r) ----------------------


class ResidueFamily(SyntheticFamily):
    """Two nodes carrying residues r and -r on a rational bottom piece.

    The designated cycle runs from a bottom zero through the residue-r
    node to the top marked point, so its expansion carries the t log t
    term with coefficient -r/b = -r.
    """

    node1 = 0.5 + 0.5j  # the residue-r node
    marked = 0.15 + 0.8j

    def __init__(self, r: complex):
        self.graph = EnhancedLevelGraph(
            vertices=(GraphVertex(1, 0), GraphVertex(0, -1)),
            edges=(GraphEdge(0, 1, "vertical", b=1, prong=0),
                   GraphEdge(0, 1, "vertical", b=1, prong=0)),
            half_edges=(HalfEdge(0, 0), HalfEdge(1, 1), HalfEdge(1, 1)),
        )
        self.r = complex(r)
        self.bottom = RationalBottom(self.r)
        super().__init__()
        self.sector = MultiSector.standard(self.a, eps=SECTOR_EPS,
                                           base_angle=-math.pi / 16)
        z1, z2 = self.bottom.zeros()
        self._decompositions = {
            "cross_1": PeriodDecomposition(
                level=0,
                pert=self.marked - self.node1,
                annulus_terms=(AnnulusTerm(0, 1, self.r),),
                lower_terms=(LowerTerm(-1, self.bottom.period(1.0 + 0j, z1)),),
            ),
            "top_a": PeriodDecomposition(level=0, pert=1.0),
        }


# -- three-level family with a level-skipping residue edge -------------------------


class ThreeLevelFamily(SyntheticFamily):
    """Levels 0, -1, -2 with an extra edge from the top straight to the
    bottom.  The skipping annulus has T = t_{-1} t_{-2}, so the fitted
    expansion in t = t_{-1} has a genuinely varying bounded tail."""

    def __init__(self, r: complex = 1.0):
        self.graph = EnhancedLevelGraph(
            vertices=(GraphVertex(1, 0), GraphVertex(0, -1),
                      GraphVertex(0, -2)),
            edges=(GraphEdge(0, 1, "vertical", b=1, prong=0),
                   GraphEdge(1, 2, "vertical", b=1, prong=0),
                   GraphEdge(0, 2, "vertical", b=1, prong=0)),
            half_edges=(HalfEdge(0, 0), HalfEdge(2, 1), HalfEdge(2, 1)),
        )
        self.r = complex(r)
        self.bottom = RationalBottom(self.r)
        self.node_skip = 0.6 + 0.4j
        self.marked = 0.15 + 0.8j
        super().__init__()
        self.sector = MultiSector.standard(self.a, eps=SECTOR_EPS,
                                           base_angle=-math.pi / 16)
        z1, _ = self.bottom.zeros()
        self._decompositions = {
            "cross_skip": PeriodDecomposition(
                level=0,
                pert=self.marked - self.node_skip,
                annulus_terms=(AnnulusTerm(2, 1, self.r),),
                lower_terms=(LowerTerm(-2, self.bottom.period(1.0 + 0j, z1)),),
            ),
            "top_a": PeriodDecomposition(level=0, pert=1.0),
        }


# -- non-injectivity family (a_{-1} = 2) -------------------------------------------


@dataclass(frozen=True)
class NoninjReport:
    period_distance: float
    coordinates_differ: bool
    sector_excludes_pair: bool
    sampled_pairs: int
    min_sample_distance: float


class NoninjectivityFamily(SyntheticFamily):
    """Two-level family with one node of enhancement b = 2 (a_{-1} = 2).

    The top is a slit pair of unit tori (two order-1 zeros, one at the
    node); the bottom is a genus-1 piece with a pole of order 3 (residue
    forced to vanish) whose absolute periods are the moduli s.  Every
    basis period is even in t_{-1}, so t and -t have equal period vectors
    while their analytic coordinates differ; one multi-sector arc (width
    pi/8) cannot contain both.
    """

    slit = 0.3 + 0.1j
    c_bottom = -0.2 + 0.05j  # the bottom part of the cross period

    def __init__(self):
        self.graph = EnhancedLevelGraph(
            vertices=(GraphVertex(2, 0), GraphVertex(1, -1)),
            edges=(GraphEdge(0, 1, "vertical", b=2, prong=0),),
            half_edges=(HalfEdge(0, 1), HalfEdge(1, 3)),
        )
        super().__init__()
        self.sector = MultiSector.standard(self.a, eps=SECTOR_EPS,
                                           base_angle=-math.pi / 32)
        self._decompositions = {
            "top_a1": PeriodDecomposition(level=0, pert=1.0),
            "top_b1": PeriodDecomposition(level=0, pert=1j),
            "top_a2": PeriodDecomposition(level=0, pert=1.0),
            "top_b2": PeriodDecomposition(level=0, pert=1j),
            "cross": PeriodDecomposition(
                level=0,
                pert=self.slit,
                annulus_terms=(AnnulusTerm(0, 2, 0.0),),
                lower_terms=(LowerTerm(-1, self.c_bottom),),
            ),
        }

    def period_vector(self, t: complex, s: tuple[complex, complex]) -> np.ndarray:
        params = PlumbingParams(t={-1: t})
        cross = self.period("cross", params)
        scale = rescale_factor(-1, params.t, self.a)  # = t^2
        return np.array([1.0, 1j, 1.0, 1j, cross,
                         scale * s[0], scale * s[1]], dtype=complex)


def reproduce_noninjectivity(n_pairs: int = 10_000) -> NoninjReport:
    """Period collision for t vs -t at t0 = 0.05, and an injectivity
    witness inside one multi-sector arc, from ``n_pairs`` seeded samples."""
    from scipy.spatial import cKDTree

    fam = NoninjectivityFamily()
    t0 = 0.05
    s = (0.7 + 0.2j, 0.1 + 0.9j)
    P1 = fam.period_vector(complex(t0), s)
    P2 = fam.period_vector(-complex(t0), s)
    dist = float(np.linalg.norm(P1 - P2))
    arc = fam.sector.vertical_arcs[-1]
    excluded = not (arc.contains(t0) and arc.contains(-t0))

    vecs = _arc_period_vectors(fam, n_pairs, seed=0)
    # nearest other sample of each: k = 1 is the sample itself
    x = np.hstack([vecs.real, vecs.imag])
    min_d = float(cKDTree(x).query(x, k=2)[0][:, 1].min())
    return NoninjReport(dist, complex(t0) != -complex(t0), excluded,
                        n_pairs, min_d)


def _arc_period_vectors(fam: NoninjectivityFamily, n_pairs: int,
                        seed: int) -> np.ndarray:
    """Period vectors of n_pairs random (t, s) with t inside the last
    vertical arc of the family's sector."""
    arc = fam.sector.vertical_arcs[-1]
    rng = np.random.default_rng(seed)
    mod = rng.uniform(0.01, fam.sector.eps * 0.9, n_pairs)
    ang = arc.alpha + rng.uniform(0.02, 0.98, n_pairs) * arc.width
    ts = mod * np.exp(1j * ang)
    ss = (rng.uniform(0.3, 1.2, (n_pairs, 2))
          + 1j * rng.uniform(0.3, 1.2, (n_pairs, 2)))
    return np.stack([fam.period_vector(ts[i], (ss[i, 0], ss[i, 1]))
                     for i in range(n_pairs)])


# -- horizontal (degenerating cylinder) family --------------------------------------


class HorizontalCylinderFamily(SyntheticFamily):
    """Two unit tori joined along slits by two flat cylinders.

    The circumference of each cylinder is w = 2*pi*i*r; the cross vector
    is c + (r/2) log t by the plumbing formula, and the builder lays the
    cylinders out with exactly that holonomy, so the decomposition can be
    cross-checked against flat geometry on the assembled surface.
    """

    w = 0.4 + 0j
    r = w / (2j * math.pi)
    twists = (0.1 + 0j, 0.05 + 0j)  # the cross vectors' constants c
    slit_base = 0.3 + 0.5j

    def __init__(self):
        self.graph = EnhancedLevelGraph(
            vertices=(GraphVertex(1, 0), GraphVertex(1, 0)),
            edges=(GraphEdge(0, 1, "horizontal"),
                   GraphEdge(0, 1, "horizontal")),
            half_edges=(HalfEdge(0, 2), HalfEdge(1, 2)),
        )
        super().__init__()
        self.sector = MultiSector(
            eps=SECTOR_EPS,
            horizontal_arcs={0: Arc(-math.pi / 8, math.pi / 4),
                             1: Arc(-math.pi / 8, math.pi / 4)})
        self._decompositions = {
            "core": PeriodDecomposition(level=0, pert=self.w),
            "cross_a": PeriodDecomposition(
                level=0, pert=0.0,
                cylinder_terms=(CylinderTerm(0, self.r, self.twists[0]),)),
            "cross_b": PeriodDecomposition(
                level=0, pert=0.0,
                cylinder_terms=(CylinderTerm(1, self.r, self.twists[1]),)),
            "torus_a": PeriodDecomposition(level=0, pert=1.0),
            "torus_b": PeriodDecomposition(level=0, pert=1j),
        }

    def surface(self, params: PlumbingParams) -> TranslationSurface:
        chi_a = self.period("cross_a", params)
        chi_b = self.period("cross_b", params)
        w = self.w
        a = self.slit_base
        b = a + w
        c0, c1, c2, c3 = 0j, 1 + 0j, 1 + 1j, 1j
        if (w.real * chi_a.imag - w.imag * chi_a.real) <= 0 or \
           (w.real * chi_b.imag - w.imag * chi_b.real) <= 0:
            raise SurfaceError("cylinder cross vector degenerate")

        def torus_piece():
            # parallelogram with an interior slit [a, b]; the slit sides
            # stay unglued
            tris = [
                (c0, c1, b), (c1, c2, b), (c0, b, a),
                (a, b, c2), (a, c2, c3), (c3, c0, a),
            ]
            edges = [[t[1] - t[0], t[2] - t[1], t[0] - t[2]] for t in tris]
            gl = {(0, 2): (2, 0), (1, 1): (3, 1), (1, 2): (0, 1),
                  (3, 2): (4, 0), (4, 2): (5, 2), (2, 2): (5, 1),
                  (0, 0): (4, 1), (1, 0): (5, 0)}
            gl.update({v: k for k, v in gl.items()})
            return edges, gl  # slit: upper (3,0) = a->b, lower (2,1) = b->a

        def cylinder(chi):
            tris = [[w, chi, -w - chi], [w + chi, -w, -chi]]
            gl = {(0, 2): (1, 0), (0, 1): (1, 2)}
            gl.update({v: k for k, v in gl.items()})
            return tris, gl  # bottom (0,0) = +w, top (1,1) = -w

        triangles = []
        gluings = {}
        offsets = []
        for piece in (torus_piece(), torus_piece(),
                      cylinder(chi_a), cylinder(chi_b)):
            edges, gl = piece
            off = len(triangles)
            offsets.append(off)
            triangles.extend(edges)
            for (t1, e1), (t2, e2) in gl.items():
                gluings[(t1 + off, e1)] = (t2 + off, e2)
        o1, o2, oa, ob = offsets
        pairs = [
            ((oa, 0), (o1 + 2, 1)),   # cyl A bottom <-> torus 1 slit lower
            ((oa + 1, 1), (o2 + 3, 0)),  # cyl A top <-> torus 2 slit upper
            ((ob, 0), (o2 + 2, 1)),   # cyl B bottom <-> torus 2 slit lower
            ((ob + 1, 1), (o1 + 3, 0)),  # cyl B top <-> torus 1 slit upper
        ]
        for x, y in pairs:
            gluings[x] = y
            gluings[y] = x
        return TranslationSurface(triangles, gluings)


# -- period expansion fit ------------------------------------------------------------


@dataclass(frozen=True)
class PeriodExpansion:
    prefactor_level: int
    pert: complex
    c: complex
    f_coeff: complex
    g_coeff: complex
    h_bound: float
    residual_over_t: tuple[float, ...]


class IllConditionedFit(ValueError):
    pass


def verify_period_expansion(family: SyntheticFamily, cycle: str,
                            params_grid) -> PeriodExpansion:
    """Fit period/prefactor against {1, t, t log t} with t the effective
    scaling parameter of the cycle's level, on the sector branch."""
    dec = family.decomposition(cycle)
    lvl = dec.level
    if lvl - 1 not in family.a:
        raise IllConditionedFit(
            f"cycle {cycle!r} has no level below its level {lvl}, so no "
            "vertical period expansion")
    a_eff = family.a[lvl - 1]
    arc = family.sector.vertical_arcs[lvl - 1].scaled(a_eff)

    ts, logs, vals = [], [], []
    p_values = {complex(params.p) for params in params_grid}
    if len(p_values) != 1:
        raise IllConditionedFit("grid must share one truncation point p")
    p = p_values.pop()
    for params in params_grid:
        t_eff = complex(params.t[lvl - 1]) ** a_eff
        ts.append(t_eff)
        logs.append(arc.log(t_eff))
        pref = rescale_factor(lvl, params.t, family.a)
        vals.append(family.period(cycle, params) / pref)
    ts = np.asarray(ts)
    mods = np.abs(ts)
    if mods.max() / mods.min() < 10.0:
        raise IllConditionedFit("t-grid must span at least one decade")
    logs = np.asarray(logs)
    vals = np.asarray(vals)
    X = np.column_stack([np.ones_like(ts), ts, ts * logs])
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    resid = np.abs(vals - X @ coef)
    order = np.argsort(-mods)  # decreasing |t| toward the sector corner
    rot = tuple(float(resid[i] / mods[i]) for i in order)
    pert = dec.pert
    return PeriodExpansion(
        prefactor_level=lvl,
        pert=pert,
        c=complex(coef[0] - pert),
        f_coeff=complex(coef[1]),
        g_coeff=complex(coef[2]),
        h_bound=float(rot[-1] if rot else 0.0),
        residual_over_t=rot,
    )
