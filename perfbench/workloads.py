"""The benchmark's workloads: seeded inputs, CLI call chains and output checks.

An item is one instance's chain of ``linkmorse.cli.main`` calls. Every call
writes its output under a per-item directory that the runner deletes after
the item's check.

The benchmark seed offsets the oracle seeds of ``verify`` and ``continue``
and picks the records whose representatives ``symbolic_records`` checks.
Instances come from fixed generator seeds and keep the cycle order the
generator gives, so that runs on different seeds do the same amount of work:
rotating a polygon's cycle changes how much work the enumeration does. Seed 0
reproduces acceptance criterion 2 on
its first six instances (``verify_sweep``), criterion 5
(``pitchfork_continuation``) and the worked example of criterion 6.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from linkmorse.geometry import Configuration
from linkmorse.instances import pitchfork_concyclic_parameter, pitchfork_family, worked_example
from linkmorse.oracle import area_oracle

from gen import sample_polygon_with_chains, sample_three_chain_with_records, write_linkage

THREE_CHAIN_SEED = 202   # criterion 2's generator seed
VERIFY_ORACLE_SEED = 77  # criterion 2's oracle seed
VERIFY_N_SEEDS = 1000
# the generator's first six instances; one pass takes about 30 s. Instances 0
# and 3 take 10-12 s, the other four 2-3 s, so item_s.p50 is the mean of two
# fast items rather than one short measurement
VERIFY_INSTANCES = 6

POLYGON_SEED = 505
# (n-gon, edges of the two attached chains)
POLYGONS = ((6, (2, 3)), (7, (3, 3)), (8, (3, 3)), (9, (2, 3)))
CHECKED_RECORDS = 6      # records per instance whose representative is checked

CONTINUE_ORACLE_SEED = 11  # criterion 5's seed
CONTINUE_N_SEEDS = 250
CONTINUE_STEPS = 18


class CheckFailed(Exception):
    """An item's output is wrong."""


@dataclass
class Item:
    name: str
    calls: Callable[[Path], list[list[str]]]  # output dir -> argv of each CLI call
    check: Callable[[Path], None]             # raises CheckFailed


@dataclass
class Setup:
    items: list[Item]
    seeds: dict
    info: dict = field(default_factory=dict)


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- verify_sweep ------------------------------------------------------------------

def _verify_sweep(workdir: Path, seed: int) -> Setup:
    oracle_seed = VERIFY_ORACLE_SEED + seed
    rng = np.random.default_rng(THREE_CHAIN_SEED)
    items = []
    for k in range(VERIFY_INSTANCES):
        g, gamma, _ = sample_three_chain_with_records(rng)
        path = write_linkage(workdir / f"three_chain_{k}.json", g, gamma)

        def calls(out, path=path):
            return [["--out", str(out / "records.json"), "critical", path],
                    ["--seed", str(oracle_seed), "--n-seeds", str(VERIFY_N_SEEDS),
                     "--out", str(out / "verify.json"), "verify", path,
                     str(out / "records.json")]]

        items.append(Item(f"three_chain_{k}", calls, _check_verify))
    return Setup(items, {"generator": THREE_CHAIN_SEED, "oracle": oracle_seed})


def _check_verify(out: Path) -> None:
    if _load(out / "records.json").get("mode") != "symbolic":
        raise CheckFailed("critical did not produce symbolic records")
    verdict = _load(out / "verify.json")
    if verdict.get("agreement") is not True:
        raise CheckFailed(f"verify disagrees: {verdict.get('diffs')}")


# -- symbolic_records --------------------------------------------------------------

def _symbolic_records(workdir: Path, seed: int) -> Setup:
    g, gamma, _ = worked_example()
    instances = [("worked_example", g, gamma, None)]
    rng = np.random.default_rng(POLYGON_SEED)
    rejected = {}
    for n, chain_edges in POLYGONS:
        g, gamma, records, rej = sample_polygon_with_chains(rng, n, chain_edges)
        name = f"polygon{n}_chains{chain_edges[0]}{chain_edges[1]}"
        rejected[name] = rej
        instances.append((name, g, gamma, len(records)))
    items = []
    for name, g, gamma, n_records in instances:
        path = write_linkage(workdir / f"{name}.json", g, gamma)

        def calls(out, path=path):
            return [["--out", str(out / "records.json"), "critical", path]]

        def check(out, g=g, gamma=gamma, n_records=n_records,
                  worked=name == "worked_example"):
            _check_records(out / "records.json", g, gamma, seed, n_records, worked)

        items.append(Item(name, calls, check))
    return Setup(items, {"generator": POLYGON_SEED, "record_sample": seed},
                 {"rejected_samples": rejected})


def _check_records(path: Path, g, gamma, seed: int, n_records: int | None,
                   worked: bool) -> None:
    payload = _load(path)
    records = payload.get("records") or []
    if payload.get("mode") != "symbolic" or not records:
        raise CheckFailed("critical did not produce symbolic records")
    if n_records is not None and len(records) != n_records:
        raise CheckFailed(f"{len(records)} records, the generator enumerated {n_records}")
    pick = np.random.default_rng(seed).choice(
        len(records), min(CHECKED_RECORDS, len(records)), replace=False)
    oracle = area_oracle(g, gamma)
    for k in sorted(int(i) for i in pick):
        rec = records[k]
        rep = Configuration.from_json_dict(rec["representative"])
        try:
            rep.validate(g)
        except ValueError as exc:
            raise CheckFailed(f"record {k}: representative invalid: {exc}") from exc
        tri = oracle.inertia(oracle.chart.reduce(oracle.chart.theta_from_configuration(rep)))
        if (tri.negative, tri.zero) != (rec["index"]["index"], rec["manifold_dim"]):
            raise CheckFailed(f"record {k}: oracle inertia {tri.as_tuple()} against "
                              f"index {rec['index']['index']}, dim {rec['manifold_dim']}")
    if worked and not any(_is_index_8_record(rec) for rec in records):
        raise CheckFailed("worked example lost its index-8 record 1+0+5+1+1")


def _is_index_8_record(rec: dict) -> bool:
    parts = rec["index"]["breakdown"]
    cells = sorted(v for label, v in parts if label.startswith("cell"))
    chains = sorted(v for label, v in parts if label.startswith("chain"))
    return rec["index"]["index"] == 8 and cells == [0, 1, 5] and chains == [1, 1]


# -- pitchfork_continuation ----------------------------------------------------------

def _pitchfork_continuation(workdir: Path, seed: int) -> Setup:
    g, gamma, edge, (lo, hi) = pitchfork_family()
    oracle_seed = CONTINUE_ORACLE_SEED + seed
    path = write_linkage(workdir / "pitchfork.json", g, gamma)

    def calls(out):
        return [["--seed", str(oracle_seed), "--n-seeds", str(CONTINUE_N_SEEDS),
                 "--out", str(out / "diagram"), "continue", path, "--edge", str(edge),
                 "--from", repr(lo), "--to", repr(hi), "--steps", str(CONTINUE_STEPS)]]

    return Setup([Item("pitchfork_family", calls, _check_pitchfork)],
                 {"oracle": oracle_seed})


def _check_pitchfork(out: Path) -> None:
    events = _load(out / "diagram.json")["events"]
    splits = [e for e in events if e["type"] == "PitchforkSplit"
              and e["meta"]["signature"] == {"center_before": "max", "center_after": "min",
                                             "companions": ["max", "max"]}]
    if len(splits) != 1:
        raise CheckFailed(f"{len(splits)} max -> min + {{max, max}} splits, expected 1")
    t_star = pitchfork_concyclic_parameter()
    zeros = [e["param"] for e in events
             if e["type"] == "HessianZero" and e["branch"] == splits[0]["branch"]]
    if not zeros or abs(zeros[0] - t_star) > 1e-6:
        raise CheckFailed(f"Hessian zero at {zeros[:1]}, concyclic parameter {t_star!r}")


SETUPS = {
    "verify_sweep": _verify_sweep,
    "symbolic_records": _symbolic_records,
    "pitchfork_continuation": _pitchfork_continuation,
}
