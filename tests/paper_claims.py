"""Claims of the paper that the tests check and no check of the package
reads: the properness of a projection on a cone, and the restricted-coroot
cone Upsilon(P), which equals Gamma(P) on q-extreme systems.  ``feasible``
is the exact LP feasibility they and the membership oracle of the tests
rest on."""
from fractions import Fraction
from typing import Sequence

from orbitcone import exactlin as ex
from orbitcone.exactlin import Mat, Vec
from orbitcone.parabolic import PositiveSystem, is_q_extreme
from orbitcone.polyhedra import Cone
from orbitcone.rootsys import coroot, restricted_roots


class NotQExtreme(ValueError):
    pass


def feasible(A: Sequence[Vec], b: Vec) -> bool:
    """Exact feasibility of {A x = b, x >= 0}."""
    return ex.lp_solve(A, b, None)[0] == ex.OPTIMAL


def proper_on_cone(p: Mat, cone: Cone) -> bool:
    """ker p meets the cone only at 0."""
    gens = [g for g in cone.generators if not ex.is_zero(g)]
    if not gens:
        return True
    p = ex.mat(p)
    n, m = len(gens[0]), len(gens)
    pg = [ex.mat_vec(p, g) for g in gens]
    # K = {nu >= 0, sum nu = 1, (p g) nu = 0}; proper iff G nu = 0 on all of K
    A = [tuple(v[i] for v in pg) for i in range(len(pg[0]))]
    A.append(tuple([Fraction(1)] * m))
    b = tuple([Fraction(0)] * len(pg[0]) + [Fraction(1)])
    if not feasible(A, b):
        return True
    for i in range(n):
        c = tuple(g[i] for g in gens)
        for sign in (1, -1):
            status, _, val = ex.lp_solve(A, b, ex.scale(sign, c))
            if status == ex.OPTIMAL and val > 0:
                return False
    return True


def upsilon_cone(P: PositiveSystem) -> Cone:
    """Restricted-coroot cone over Delta^+_-; q-extreme systems only.  It
    equals gamma_cone(P) there, which the tests check exactly both ways."""
    if not is_q_extreme(P):
        raise NotQExtreme("upsilon cone needs a q-extreme positive system")
    d = P.datum
    rest = restricted_roots(d)
    delta_plus = {d.restrict(a) for a in P.classification.sigmatheta_part}
    delta_plus.discard(ex.zeros(len(d.gram)))
    delta_minus = sorted(lam for lam in delta_plus if lam in rest.minus_set)
    return Cone(tuple(coroot(lam, d.gram) for lam in delta_minus),
                ambient=len(d.gram))
