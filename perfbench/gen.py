"""Seeded membership targets for the membership-session workload.

Yes-targets lie in the T-ideal by construction: each is a combination of
arity-3 defining identities lifted to arity 5 by the two elementary steps
(substitute x_i <- op(x_i, x_new), multiply by a fresh variable) and moved by
a random permutation of S_5.  No-targets add a nonzero multiple of one
free-basis monomial to a yes-target; the paper's free-basis families are
independent modulo consequences for anti-Poisson and generic delta-Poisson at
n = 5, so no such sum is a consequence.  The engine only ever sees the
finished targets.
"""

from __future__ import annotations

import random

from variety_forge import catalog, operads, terms

ARITY = 5
VARIETIES = ("anti-poisson", "delta-poisson")


def _lift(rng, e, ops):
    """One elementary step from arity m to m + 1."""
    op = rng.choice(ops)
    fresh = e.arity + 1
    if rng.random() < 0.5:
        i = rng.randint(1, e.arity)
        tree = (op.name, i, fresh) if rng.random() < 0.5 else (op.name, fresh, i)
        _, g = terms.normalize(tree, ops, fragment=True)
        return terms.substitute(e, i, g, ops)
    return terms.multiply_by_var(e, op, rng.choice(("left", "right")))


def _consequence(rng, identities, ops):
    e = rng.choice(identities)
    while e.arity < ARITY:
        e = _lift(rng, e, ops)
    sigma = terms.Permutation(rng.sample(range(1, ARITY + 1), ARITY))
    return terms.act(sigma, e, ops)


def _nonzero(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _yes_target(rng, identities, ops):
    while True:
        out = terms.Element(ARITY)
        for _ in range(rng.randint(1, 3)):
            out = out + _consequence(rng, identities, ops).scale(_nonzero(rng))
        if not out.is_zero():
            return out


def membership_targets(seed, per_variety=1500):
    """[(variety name, target Element, is a consequence)], half yes, half no."""
    rng = random.Random(seed)
    free = [m for _, family in operads.free_delta_p_basis(ARITY).families
            for m in family]
    out = []
    for name in VARIETIES:
        v = catalog.variety(name)
        for k in range(per_variety):
            target = _yes_target(rng, v.identities, v.ops)
            if k % 2:
                extra = terms.Element(ARITY, {rng.choice(free): _nonzero(rng)})
                out.append((name, target + extra, False))
            else:
                out.append((name, target, True))
    rng.shuffle(out)
    return out
