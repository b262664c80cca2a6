"""Seeded single-step script mutations for the perturbation suite.

Mutations operate on the JSON encoding of a script and keep it well formed,
so every rejection exercises the kernel's checks rather than the loader's.
"""

import random

from abeforge.corpus import _script_from_json

TERM_POOL = ["x", "1", "y -> x", "(x -> y) -> x", "x -> y -> z"]
POSITION_POOL = ["", "L", "R", "LL", "LR", "RL", "RR"]
STATEMENT_POOL = [
    "ax1", "ax2", "ax3", "ax4", "ax5", "ax6",
    "lem10", "lem11", "lem12", "lem13", "lem14", "lem15", "lem16", "lem17", "lem18",
]


def _step_sites(step, path):
    sites = []
    rule = step["rule"]
    if rule in ("rewrite", "clause-literal-rewrite"):
        sites.append((path, "by"))
        sites.append((path, "dir"))
        sites.append((path, "at"))
        sites.append((path, "subst"))
        if rule == "clause-literal-rewrite":
            sites.append((path, "literal"))
    elif rule == "clause-instantiate":
        sites.append((path, "clause"))
        sites.append((path, "subst"))
    elif rule == "literal-elim":
        sites.append((path, "literal"))
        for i, sub in enumerate(step["chain"]):
            sites.extend(_step_sites(sub, path + ("chain", i)))
    elif rule == "split":
        sites.append((path, "clause"))
        sites.append((path, "subst"))
        for bi, branch in enumerate(step["branches"]):
            for si, sub in enumerate(branch):
                sites.extend(_step_sites(sub, path + ("branches", bi, si)))
    elif rule == "close-conflict":
        sites.append((path, "hypothesis"))
    return sites


def mutation_sites(script_json):
    sites = []
    for i, step in enumerate(script_json["steps"]):
        sites.extend(_step_sites(step, (i,)))
    return sites


def _get_step(script_json, path):
    node = script_json["steps"][path[0]]
    rest = list(path[1:])
    while rest:
        key = rest.pop(0)
        if key == "chain":
            node = node["chain"][rest.pop(0)]
        elif key == "branches":
            node = node["branches"][rest.pop(0)][rest.pop(0)]
    return node


def _other(rng, pool, current):
    choices = [v for v in pool if v != current]
    return rng.choice(choices)


def mutate(script_json, site, rng: random.Random):
    """Return a deep-copied script JSON with one field of one step changed."""
    import copy

    out = copy.deepcopy(script_json)
    path, fieldname = site
    step = _get_step(out, path)
    if fieldname == "dir":
        step["dir"] = "R2L" if step.get("dir", "L2R") == "L2R" else "L2R"
    elif fieldname == "at":
        step["at"] = _other(rng, POSITION_POOL, step.get("at", ""))
    elif fieldname in ("by", "clause"):
        current = step[fieldname]
        if isinstance(current, int) and rng.random() < 0.5:
            step[fieldname] = _other(rng, [0, 1, 2, 3], current)
        else:
            step[fieldname] = _other(rng, STATEMENT_POOL, current)
    elif fieldname == "subst":
        subst = dict(step.get("subst", {}))
        if subst:
            var = rng.choice(sorted(subst))
            subst[var] = _other(rng, TERM_POOL, subst[var])
        else:
            # an empty substitution only appears on ground steps, where any
            # binding of an occurring variable changes the instance
            subst["x"] = _other(rng, TERM_POOL, "x")
        step["subst"] = subst
    elif fieldname in ("literal", "hypothesis"):
        step[fieldname] = _other(rng, [0, 1, 2, 3, 4], step[fieldname])
    else:
        raise AssertionError(fieldname)
    return out


def mutated_script(script_json, site, rng):
    return _script_from_json(mutate(script_json, site, rng))
