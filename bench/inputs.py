"""Seeded input generation for the degspan benchmark.

Run as a script, it writes one workload's inputs into a directory: graphs
via ``serialize_graph`` and degree sequences as comma literals, plus a
``manifest.json`` naming every file with its SHA-256 and a digest of them
all.  The benchmark runs it in a child process, so generating the inputs
costs the measured process neither time nor resident memory.

    python3 bench/inputs.py WORKLOAD SEED SIZE OUTDIR
    python3 bench/inputs.py --record FIRST LAST   # rewrite bench/digests.json

``digests.json`` holds the input digest of every workload and size for a
range of seeds.  A run whose seed is recorded there and whose inputs differ
fails, because a change to ``random_condition_graph``,
``random_degree_sequence``, ``build_extremal`` or ``serialize_graph`` would
otherwise silently change the workload between two measured commits.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("cli-oneshot", "sweep-solve", "oracle-agree")
SIZES = ("full", "smoke")

# Operations last milliseconds, so every item repeats dozens of times in a
# run: the operation metrics use each item's fastest repetition, which on a
# shared host is steady only over many short repetitions.  Many items per
# pass keep the seed from moving the median and the tail.
# cli-oneshot: one graph per (n, r); every operation parses its file twice.
CLI_ORDERS = {"full": tuple(range(40, 105, 5)), "smoke": (24, 32)}
# sweep-solve: (n, r, random sequences, adversarial sequences) per host.
# Solve time follows the host's non-edges.  random_condition_graph draws its
# edge probability per graph from U(0.2, 0.8), which moves the non-edges of an
# n=120 host from about 600 to 1,500 (r=3) or 280 to 870 (r=4) between twelve
# seeds, so the hosts are built here with one fixed probability
# (SWEEP_EDGE_P, then the same repair sweep) and the seed changes which
# edges, not how many.
SWEEP_HOSTS = {
    "full": ((120, 3, 4, 2),) * 10 + ((120, 4, 4, 2),) * 6,
    "smoke": ((60, 3, 2, 1), (60, 4, 1, 1)),
}
SWEEP_EDGE_P = 0.7
# oracle-agree: every degree multiset with largest degree 3 or 4 on these
# orders whose tree count is at most ORACLE_WORD_CAP, each placed on random
# vertices of a random host with round(ORACLE_EDGE_P * n(n-1)/2) edges.
# Fixing the multisets and edge counts fixes the words enumerated per pass
# and how many of them fit, so the seed moves graphs, not the amount of work.
ORACLE_ORDERS = {"full": (8, 9, 10, 11), "smoke": (8,)}
ORACLE_COPIES = {"full": 4, "smoke": 1}
ORACLE_WORD_CAP = 2_520
ORACLE_EDGE_P = 0.7
# Extremal members (k, r) timed in every pass, and members checked once per
# run, untimed: (2, 4) has 369,600 words, seconds of enumeration, which would
# dwarf the pass and leave too few repetitions for steady operation times.
EXTREMAL_MEMBERS = {
    "full": ((1, 3), (2, 3), (1, 4), (1, 5)),
    "smoke": ((1, 3), (1, 4), (1, 5)),
}
EXTREMAL_ONCE = {"full": ((2, 4),), "smoke": ((2, 3),)}


def import_degspan():
    """Put this checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "degspan" / "__init__.py").is_file():
        raise SystemExit(f"error: no degspan sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import degspan

    if Path(degspan.__file__).resolve().parent != SRC / "degspan":
        raise SystemExit(f"error: imported degspan from {degspan.__file__}, not {SRC}")
    return degspan


def _literal(seq) -> str:
    return ",".join(str(d) for d in seq.degrees) + "\n"


def _condition_host(ds, n: int, r: int, rng: random.Random):
    """G(n, SWEEP_EDGE_P), then an edge wherever a non-adjacent pair is below the bound.

    The repair is random_condition_graph's; degrees only grow during it, so
    every non-adjacent pair meets the bound at the end.
    """
    bound = ds.degree_sum_threshold(n, r)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < SWEEP_EDGE_P:
                adjacency[u].add(v)
                adjacency[v].add(u)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in adjacency[u] and len(adjacency[u]) + len(adjacency[v]) < bound:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return ds.LabelledGraph.from_edges(
        n, ((u, v) for u in range(n) for v in adjacency[u] if u < v))


def _adversarial(ds, g, r: int, rng: random.Random):
    """Degree r on the lowest-degree host vertices, ties broken at random."""
    deg = g.degree_vector()
    order = sorted(range(g.n), key=lambda v: (deg[v], rng.random()))
    k, rest = divmod(g.n - 2, r - 1)
    degrees = [1] * g.n
    for v in order[:k]:
        degrees[v] = r
    degrees[order[k]] += rest
    return ds.validate_degree_sequence(degrees)


def _multisets(total: int, largest: int):
    """Partitions of ``total`` into parts <= ``largest``, descending."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _multisets(total - part, part):
            yield (part, *rest)


def oracle_strata(ds, size: str):
    """(n, internal degrees) of every oracle-agree stratum, in order."""
    strata = []
    for n in ORACLE_ORDERS[size]:
        for parts in _multisets(n - 2, 3):
            degrees = tuple(p + 1 for p in parts)
            if max(degrees) < 3:
                continue
            seq = ds.validate_degree_sequence(degrees + (1,) * (n - len(degrees)))
            if ds.count_trees(seq) <= ORACLE_WORD_CAP:
                strata.append((n, degrees))
    return strata


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    ds = import_degspan()
    rng = random.Random(f"degspan-bench:{workload}:{seed}")
    files: dict[str, str] = {}

    def write(name: str, text: str) -> str:
        (out / name).write_text(text, encoding="utf-8")
        files[name] = hashlib.sha256(text.encode()).hexdigest()
        return name

    items: list[dict] = []
    hosts: list[dict] = []
    if workload == "cli-oneshot":
        for n in CLI_ORDERS[size]:
            for r in (3, 4):
                i = len(items)
                g = ds.random_condition_graph(n, r, seed=rng.randrange(2**32))
                seq = ds.random_degree_sequence(n, r, rng)
                items.append({
                    "n": n, "r": r,
                    "graph": write(f"g{i}.txt", ds.serialize_graph(g)),
                    "seq": write(f"g{i}.seq", _literal(seq)),
                })
    elif workload == "sweep-solve":
        for h, (n, r, randoms, adversarials) in enumerate(SWEEP_HOSTS[size]):
            g = _condition_host(ds, n, r, rng)
            hosts.append({"n": n, "r": r, "graph": write(f"h{h}.txt", ds.serialize_graph(g))})
            for j in range(randoms + adversarials):
                kind = "random" if j < randoms else "adversarial"
                if kind == "random":
                    seq = ds.random_degree_sequence(n, r, rng)
                else:
                    seq = _adversarial(ds, g, r, rng)
                items.append({
                    "host": h, "kind": kind,
                    "seq": write(f"h{h}-{j}.seq", _literal(seq)),
                })
    elif workload == "oracle-agree":
        strata = oracle_strata(ds, size)
        for copy in range(ORACLE_COPIES[size]):
            for n, internal in strata:
                i = len(items)
                degrees = list(internal) + [1] * (n - len(internal))
                rng.shuffle(degrees)
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                edges = rng.sample(pairs, round(ORACLE_EDGE_P * len(pairs)))
                g = ds.LabelledGraph.from_edges(n, edges)
                items.append({
                    "kind": "random", "n": n,
                    "graph": write(f"o{i}.txt", ds.serialize_graph(g)),
                    "seq": write(f"o{i}.seq", _literal(ds.validate_degree_sequence(degrees))),
                })
        members = [(m, False) for m in EXTREMAL_MEMBERS[size]]
        members += [(m, True) for m in EXTREMAL_ONCE[size]]
        for (k, r), once in members:
            g, seq = ds.build_extremal(k, r)
            items.append({
                "kind": "extremal", "k": k, "r": r, "n": g.n, "once": once,
                "graph": write(f"x{k}-{r}.txt", ds.serialize_graph(g)),
                "seq": write(f"x{k}-{r}.seq", _literal(seq)),
            })
    else:
        raise SystemExit(f"error: unknown workload {workload!r}")
    digest = hashlib.sha256(json.dumps(sorted(files.items())).encode()).hexdigest()
    manifest = {
        "workload": workload, "seed": seed, "size": size,
        "hosts": hosts, "items": items, "files": files, "digest": digest,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def recorded_digest(workload: str, size: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(size, {}).get(str(seed))


def record(first: int, last: int) -> None:
    table: dict = {}
    for workload in WORKLOADS:
        for size in SIZES:
            column = table.setdefault(workload, {}).setdefault(size, {})
            for seed in range(first, last + 1):
                with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
                    column[str(seed)] = generate(workload, seed, size, Path(tmp))["digest"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--record":
        record(int(argv[1]), int(argv[2]))
        return 0
    if len(argv) != 4 or argv[0] not in WORKLOADS or argv[2] not in SIZES:
        print(__doc__, file=sys.stderr)
        return 2
    generate(argv[0], int(argv[1]), argv[2], Path(argv[3]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
