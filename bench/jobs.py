"""Seeded job lists for the three workloads, and the set-up that writes their
input files through the ``semilat`` CLI itself.

A job list is a sequence of rounds.  Every round holds the same job classes,
each the same number of times, in a seeded order, with freshly seeded chains
or ``verify`` seeds, so every round does the same kinds of work and a run
that stops at a round boundary always has the same mix.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from answers import N5, Partitions, Product

WORKLOADS = ("oneshot", "verify", "groups")
ROUNDS = 64  # distinct rounds per seed; a longer run starts again at round 0
VERIFY_SAMPLES = 2
EXPECTED = Path(__file__).with_name("expected.json")

K5_EDGES = [(u, v) for u in range(5) for v in range(u + 1, 5)]
K5_LABEL = "flats(" + "+".join(f"{u}{v}" for u, v in K5_EDGES) + ")"

# Input name -> (family model, `semilat gen` arguments).  "{k5}" stands for
# the K5 edge-list file the set-up writes first.
LATTICES = {
    "B4": (Product("B4", (2,) * 4, bits=True), ["boolean", "4"]),
    "B5": (Product("B5", (2,) * 5, bits=True), ["boolean", "5"]),
    "B6": (Product("B6", (2,) * 6, bits=True), ["boolean", "6"]),
    "Pi4": (Partitions("Pi4", 4, 1), ["partition", "4"]),
    "Pi5": (Partitions("Pi5", 5, 1), ["partition", "5"]),
    "Pi6": (Partitions("Pi6", 6, 1), ["partition", "6"]),
    "K5": (Partitions(K5_LABEL, 5, 0), ["graphic", "{k5}"]),
    "C5x5x5": (Product("C5x5x5", (5, 5, 5)), ["chainprod", "5,5,5"]),
    "C4x4x4x4": (Product("C4x4x4x4", (4, 4, 4, 4)), ["chainprod", "4,4,4,4"]),
    "C300": (Product("C300", (300,)), ["chainprod", "300"]),
    "n5": (N5(), ["counter", "n5"]),
}
ONESHOT = ("B6", "Pi6", "C5x5x5", "C4x4x4x4", "K5", "n5")
VERIFY_SAMPLED = ("B5", "Pi5", "K5", "B6")
VERIFY_ALL_PAIRS = ("B4", "Pi4", "n5")
GROUPS = ("S4", "D12", "A4", "Q8xZ2", "D4xZ2", "Z60", "S3xZ3", "Z2xZ2xZ2")


class SetupError(Exception):
    """The program could not write an input file."""


def call(cli_run, argv: list[str]) -> tuple[int | None, str, str]:
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue(), err.getvalue()


def _write_inputs(cli_run, workdir: Path, lattices, groups) -> dict[str, str]:
    if "K5" in lattices:
        (workdir / "k5.txt").write_text("".join(f"{u} {v}\n" for u, v in K5_EDGES))
    paths = {}
    commands = [(name, ["gen", *(a.replace("{k5}", str(workdir / "k5.txt"))
                                 for a in LATTICES[name][1])]) for name in lattices]
    commands += [(name, ["group", "builtin", name]) for name in groups]
    for name, argv in commands:
        paths[name] = str(workdir / f"{name}.json")
        code, _, err = call(cli_run, argv + ["-o", paths[name]])
        if code != 0:
            raise SetupError(f"{' '.join(argv)} exited {code}: {err.strip()}")
    return paths


def _lattice_job(kind: str, name: str, path: str, **extra) -> dict:
    fam = LATTICES[name][0]
    job = {"cls": f"{kind}:{name}", "kind": kind, "family": fam, "exit": 0, **extra}
    if kind == "validate":
        job["argv"] = ["validate", path, "--json"]
        job["exit"] = 1 if isinstance(fam, N5) else 0
    elif kind == "chains":
        job["argv"] = ["chains", path, "--count", "--json"]
    elif kind in ("match", "export-dot"):
        chains = ["--chain-a", ",".join(job["chain_a"]), "--chain-b", ",".join(job["chain_b"])]
        tail = ["--json"] if kind == "match" else ["--witnesses"]
        job["argv"] = [kind, path, *chains, *tail]
        job["exit"] = 1 if isinstance(fam, N5) else 0
    return job


def _chain_pair(name: str, rng: random.Random, expected: dict) -> dict:
    fam = LATTICES[name][0]
    if isinstance(fam, N5):
        return {"chain_a": fam.chain_pair[0], "chain_b": fam.chain_pair[1]}
    if isinstance(fam, Product):
        return {"chain_a": fam.random_chain(rng), "chain_b": fam.random_chain(rng)}
    frozen = rng.choice(expected["match"][name])
    return {"chain_a": frozen["chain_a"], "chain_b": frozen["chain_b"], "frozen": frozen}


def _oneshot_round(rng, paths, expected) -> list[dict]:
    jobs = []
    for name in ONESHOT:
        jobs.append(_lattice_job("validate", name, paths[name]))
        jobs.append(_lattice_job("chains", name, paths[name]))
        pair = _chain_pair(name, rng, expected)
        jobs.append(_lattice_job("match", name, paths[name], **pair))
        jobs.append(_lattice_job("export-dot", name, paths[name], **pair))
    # The 300-element chain: large height, and the uint8 closure overflow.
    jobs.append(_lattice_job("validate", "C300", paths["C300"]))
    jobs.append(_lattice_job("chains", "C300", paths["C300"]))
    return jobs


def _verify_round(rng, paths, expected) -> list[dict]:
    jobs = []
    for name in VERIFY_SAMPLED:
        seed = rng.randrange(10 ** 6)
        jobs.append({"cls": f"verify:{name}", "kind": "verify", "family": LATTICES[name][0],
                     "samples": VERIFY_SAMPLES, "seed": seed, "exit": 0,
                     "argv": ["verify", paths[name], "--samples", str(VERIFY_SAMPLES),
                              "--seed", str(seed), "--json"]})
    for name in VERIFY_ALL_PAIRS:
        fam = LATTICES[name][0]
        jobs.append({"cls": f"verify:{name}", "kind": "verify", "family": fam,
                     "exit": 1 if isinstance(fam, N5) else 0,
                     "argv": ["verify", paths[name], "--json"]})
    return jobs


def _groups_round(rng, paths, expected) -> list[dict]:
    jobs = []
    for name in GROUPS:
        frozen = expected["groups"][name]
        for kind in ("composition", "subgroups"):
            jobs.append({"cls": f"{kind}:{name}", "kind": kind, "group": name,
                         "frozen": frozen, "exit": 0,
                         "argv": ["group", kind, paths[name], "--json"]})
    return jobs


_PLANS = {
    "oneshot": (ONESHOT + ("C300",), (), _oneshot_round),
    "verify": (VERIFY_SAMPLED + VERIFY_ALL_PAIRS, (), _verify_round),
    "groups": ((), GROUPS, _groups_round),
}


def job_rounds(workload: str, seed: int, paths: dict[str, str], expected: dict) -> list[list[dict]]:
    """The seeded job list: ROUNDS rounds of every job class, each round shuffled."""
    make_round = _PLANS[workload][2]
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for _ in range(ROUNDS):
        jobs = make_round(rng, paths, expected)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def setup(workload: str, seed: int, cli_run, workdir: Path) -> list[list[dict]]:
    """Write the workload's input files into workdir and build its job list."""
    lattices, groups, _ = _PLANS[workload]
    paths = _write_inputs(cli_run, workdir, lattices, groups)
    expected = json.loads(EXPECTED.read_text())
    return job_rounds(workload, seed, paths, expected)
