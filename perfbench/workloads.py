"""Job lists of the three benchmark workloads.

A job is the argv of one `latvoa` CLI call.  A pass runs every job of a
workload once, in an order drawn from the seed.  The `modes` workload also
draws a batch of `screen-apply` inputs from the seed: states of the A1 and
B2 layer bases, sorted by their printed form before drawing so that the
draw does not depend on the order in which the program lists a basis.
"""

from __future__ import annotations

import random

ELL = "4"

ENUMERATE = [
    ["groundstates", "--algebra", "Bn", "--n", "2", "--ell", ELL],
    ["groundstates", "--algebra", "Bn", "--n", "3", "--ell", ELL],
    ["groundstates", "--algebra", "Bn", "--n", "4", "--ell", ELL],
    ["characters", "--algebra", "B2", "--ell", ELL, "--order", "30", "--check-jtp"],
    ["characters", "--algebra", "B3", "--ell", ELL, "--order", "4", "--check-jtp"],
]

KERNEL = [
    ["kernel", "--algebra", "B2", "--ell", ELL, "--module", "blue", "--max-level", "4"],
    ["kernel", "--algebra", "B2", "--ell", ELL, "--module", "green", "--max-level", "4"],
    ["kernel", "--algebra", "B3", "--ell", ELL, "--module", "blue", "--max-level", "2"],
    ["kernel", "--algebra", "B3", "--ell", ELL, "--module", "green", "--max-level", "2"],
]

MODES_FIXED = [
    ["virasoro-check", "--algebra", "A1", "--ell", ELL, "--max-mode", "3", "--max-level", "5"],
    ["virasoro-check", "--algebra", "B2", "--ell", ELL, "--max-mode", "3", "--max-level", "3"],
    ["nichols", "--algebra", "B2", "--ell", ELL, "--max-level", "4"],
]

# screen-apply draws: (algebra, module, highest level) pools.  The blue and
# green modules pair integrally with the short screenings; center and
# steinberg pair fractionally and take the truncated residue.
INTEGER_POOLS = [("A1", "blue", 4), ("A1", "green", 4), ("B2", "blue", 2), ("B2", "green", 2)]
FRACTIONAL_POOLS = [("A1", "center", 3), ("A1", "steinberg", 3), ("B2", "center", 1), ("B2", "steinberg", 1)]
# ambient coordinates of the short screening momenta at ell = 4
SCREENINGS = {"A1": ["-a1"], "B2": ["-a1 - a2", "-a2"]}
INTEGER_DRAWS = 30
FRACTIONAL_DRAWS = 10
TRUNCATE = "8"

# Layer whose span must record calls on a traced run of each workload:
# the layer the workload exists to stress.
DOMINANT = {
    "enumerate": ["lattice.enum"],
    "kernel": ["linalg.elim"],
    "modes": ["virasoro.modes", "vertexop.residue"],
}

NAMES = ("enumerate", "kernel", "modes")


def state_pools() -> dict:
    """{(algebra, module): [(h, state text), ...]} over every pooled layer,
    sorted by (h, text).  Imports the program under test; call outside
    any timed window."""
    from latvoa.expr import format_state
    from latvoa.lattice import ScreeningLattices, groundstates
    from latvoa.rootdata import build_root_system
    from latvoa.screening import layer_basis

    lattices = {
        "A1": ScreeningLattices(build_root_system("A", 1), int(ELL)),
        "B2": ScreeningLattices(build_root_system("B", 2), int(ELL)),
    }
    pools = {}
    for algebra, module, top in INTEGER_POOLS + FRACTIONAL_POOLS:
        sl = lattices[algebra]
        coset = sl.named_cosets()[module]
        _gs, h0 = groundstates(sl, coset)
        states = []
        for lvl in range(top + 1):
            h = h0 + lvl
            states.extend((h, format_state(v)) for v in layer_basis(sl, coset, h).basis)
        pools[(algebra, module)] = sorted(states)
    return pools


def screen_apply_jobs(seed: int, pools: dict | None = None) -> list[dict]:
    """Seeded screen-apply jobs: {"argv", "h", "fractional"} each, where h
    is the conformal weight of the input state."""
    pools = pools if pools is not None else state_pools()
    rng = random.Random(seed)
    jobs = []
    for fractional, pool_keys, count in (
        (False, INTEGER_POOLS, INTEGER_DRAWS),
        (True, FRACTIONAL_POOLS, FRACTIONAL_DRAWS),
    ):
        for _ in range(count):
            algebra, module, _top = rng.choice(pool_keys)
            h, state = rng.choice(pools[(algebra, module)])
            momentum = rng.choice(SCREENINGS[algebra])
            argv = ["screen-apply", "--algebra", algebra, "--ell", ELL,
                    "--momentum", momentum, "--state", state]
            if fractional:
                argv += ["--fractional", "--truncate", TRUNCATE]
            jobs.append({"argv": argv, "h": str(h), "fractional": fractional})
    return jobs


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one pass: {"argv": [...], ...} per job."""
    if workload == "enumerate":
        jobs = [{"argv": argv} for argv in ENUMERATE]
    elif workload == "kernel":
        jobs = [{"argv": argv} for argv in KERNEL]
    elif workload == "modes":
        jobs = [{"argv": argv} for argv in MODES_FIXED] + screen_apply_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    random.Random(seed).shuffle(jobs)
    return jobs
