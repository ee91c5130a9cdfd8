"""Command-line interface: exit codes, file formats, determinism."""

import dataclasses
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkmorse.cli
import linkmorse.graphs
from linkmorse.cli import _dump_json, _encode_json, _TemplatedRecords, main
from linkmorse.enumeration import (
    ChainStatus,
    CriticalRecord,
    ManifoldFactor,
    PlacedCell,
    enumerate_critical_structure,
)
from linkmorse.geometry import Configuration, enumerate_cyclic
from linkmorse.graphs import (
    LinkageGraph,
    detect_polygon_with_chains,
    make_polygon,
    make_three_chain,
)
from linkmorse.indices import IndexReport
from linkmorse.instances import (
    bott_morse_three_chain,
    max16_three_chain,
    non_ptt_example,
    pitchfork_family,
    worked_example,
)
from linkmorse.oracle import area_oracle

ROOT = Path(__file__).resolve().parents[1]
THREE_CHAIN = ([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
K4 = LinkageGraph(("a", "b", "c", "d"), tuple(
    (u, v, 1.0) for u, v in [("a", "b"), ("a", "c"), ("a", "d"),
                             ("b", "c"), ("b", "d"), ("c", "d")]))


# what the CLI writer must encode as json.dumps does: NaN, infinities and
# -0.0, float subclasses, big ints, non-ASCII text, tuples, and empty
# containers at every depth; lists of floats take the writer's joined path
JSON_LEAVES = (st.floats() | st.floats().map(np.float64) | st.lists(st.floats())
               | st.integers() | st.booleans() | st.none() | st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


# a three-chain whose free 4-edge chain gives records with "chi": null
def free_four_chain():
    return make_three_chain([1.0, 1.2], [0.8, 1.1], [0.53, 0.56, 0.61, 0.67])


def symbolic_records(g, gamma):
    return enumerate_critical_structure(detect_polygon_with_chains(g, gamma))


# the sha256 of each instance's symbolic records on stdout
STDOUT_SHA256 = {
    "max16": "d0f1468983e3425cca2eca1b75327ea1c9d47de23e51ee5b24ce69d55c0fd8f7",
    "bm223": "80aae77602e50b3238a407f4b5d5c0a8258e47e44fa0b64279b90209d7a2eacd",
    "free_four_chain": "38ee218db0d4eed6452272fbd7016e9ee95974ba8e88745ce9b6a86d6d88e2be",
    "worked": "8f8c3250b632c66f96f71866a136d828b4a4cb0a1b253b96d6e96290986a925b",
    "polygon6": "2bfbc87bd57bb2ead96ff58cb3cf80436ee90248bfa0cab58f759827f9cbedb0",
    "polygon7": "84e67d570aae8360ff7e3636d9921c53ff25a8cc5e4870ae5426931ad40fda71",
    "polygon8": "ed5b17eeac621faf3b777181127bc098a6a3ff743a35d049f0f43830626001c5",
    "polygon9": "3a6acfd4d68c280bb97bc690806b95343e19379376795082b9bad7a598516e09",
    "three_chain_0": "756f8dc1c8f3006ce3173a271fe5a563cadaa68dca5256995dadc64c13d4a20f",
    "three_chain_1": "95ad7b1aadbbc51a46757faae73b9e719f315f6261279933b177ac8b507a56d4",
    "three_chain_2": "a5c9a42d5b702690dee2651497d1b1d8977dd5972e22c9343f3755eed2c40c5a",
    "three_chain_3": "f0d664df070e2a915c40ddb7083d696cc0187d3ddd3500122d74906aa424d8aa",
    "three_chain_4": "e766a752111daf5ff25e76f73743de871da8cf6cf2b792cc46f9e115627edeaa",
    "three_chain_5": "c98781f778c6aaaaea15d9d65fef7219946e4c28475302a5dd572d7fa7d72929",
}
# the benchmark's symbolic_records polygons: (n-gon, edges of the two chains),
# drawn in this order from one generator seeded 505
PERFBENCH_POLYGONS = ((6, (2, 3)), (7, (3, 3)), (8, (3, 3)), (9, (2, 3)))
# the benchmark's verify_sweep three-chains, the first of the generator seeded 202
PERFBENCH_THREE_CHAINS = 6


def load_perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench_instances():
    rng = np.random.default_rng(505)
    sample = load_perfbench_gen().sample_polygon_with_chains
    polygons = {f"polygon{n}": sample(rng, n, edges)[:2] for n, edges in PERFBENCH_POLYGONS}
    rng = np.random.default_rng(202)
    sample = load_perfbench_gen().sample_three_chain_with_records
    return polygons | {f"three_chain_{k}": sample(rng)[:2]
                       for k in range(PERFBENCH_THREE_CHAINS)}


@pytest.fixture(scope="module")
def worked_records():
    return symbolic_records(*worked_example()[:2])


def write_linkage(path, g, gamma=None, terminals=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_json_dict(gamma=gamma, terminals=terminals), fh)
    return str(path)


@pytest.fixture
def three_chain_file(tmp_path):
    g, gamma = make_three_chain(*THREE_CHAIN)
    return write_linkage(tmp_path / "tc.json", g, gamma)


def pendant_three_chain():
    g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
    return LinkageGraph(g.vertices + ("P",), g.edges + (("Z1", "P", 0.5),)), gamma


class TestRecognize:
    def test_three_chain_ok(self, three_chain_file, capsys):
        assert main(["recognize", three_chain_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is True
        (block,) = report["blocks"]
        assert block["edges"] == list(range(6))
        assert block["sp_tree"]["op"] == "P"
        assert "sp_tree" not in report and "kernel" not in report
        assert len(report["relative_decomposition"]) == 1

    def test_k4_exit_3(self, tmp_path, capsys):
        path = write_linkage(tmp_path / "k4.json", K4)
        assert main(["recognize", path]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is False
        assert "blocks" not in report
        assert report["kernel"] == [[u, v] for u, v, _ in K4.edges]

    def test_parallel_equal_bars_told_apart(self, tmp_path, capsys):
        g = LinkageGraph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0),
                                           ("c", "a", 1.0), ("a", "b", 1.0)))
        assert main(["recognize", write_linkage(tmp_path / "tri.json", g)]) == 0
        (block,) = json.loads(capsys.readouterr().out)["blocks"]

        def leaf_edges(node):
            if node["op"] == "E":
                return [node["edge"]]
            return [e for c in node["children"] for e in leaf_edges(c)]

        assert sorted(leaf_edges(block["sp_tree"])) == block["edges"] == [0, 1, 2, 3]

    def test_pendant_bar_one_block_tree(self, tmp_path, capsys):
        # the pendant bar is a bridge: the one block tree is the three-chain's
        path = write_linkage(tmp_path / "pendant.json", *pendant_three_chain())
        assert main(["recognize", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is True
        (block,) = report["blocks"]
        assert block["edges"] == list(range(6)) and block["sp_tree"]
        assert "kernel" not in report and "sp_tree" not in report

    @pytest.mark.parametrize("instance, n_blocks", [
        (lambda: make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75]), 1),
        (pendant_three_chain, 1),
        (lambda: worked_example()[:2], 1),
        (lambda: (LinkageGraph(("a", "b", "c", "d", "e"), tuple(
            (u, v, 1.0) for u, v in [("a", "b"), ("b", "c"), ("a", "c"),
                                     ("c", "d"), ("d", "e"), ("c", "e")])), None), 2),
        (non_ptt_example, 1),
        (lambda: (K4, None), 1),
    ], ids=["three_chain", "pendant", "worked_example", "bowtie", "non_ptt", "k4"])
    def test_one_reduction_per_block(self, tmp_path, capsys, monkeypatch, instance,
                                     n_blocks):
        calls = []
        reduce = linkmorse.graphs.sp_decompose

        def counted(*args):
            calls.append(args)
            return reduce(*args)

        monkeypatch.setattr(linkmorse.graphs, "sp_decompose", counted)
        monkeypatch.setattr(linkmorse.cli, "sp_decompose", counted)
        path = write_linkage(tmp_path / "g.json", *instance())
        main(["recognize", path])
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == n_blocks
        if report["ptt"]:
            assert len(report["blocks"]) == n_blocks

    def test_terminals_whole_graph_tree(self, tmp_path, capsys):
        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        path = write_linkage(tmp_path / "tc.json", g, gamma, terminals=("I", "T"))
        assert main(["recognize", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["terminals"] == {"I": "I", "T": "T"}
        assert report["sp_tree"]["op"] == "P" and "kernel" not in report

        path = write_linkage(tmp_path / "pendant.json", *pendant_three_chain(),
                             terminals=("I", "T"))
        assert main(["recognize", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is True and len(report["blocks"]) == 1
        assert report["sp_tree"] is None and "terminals" not in report
        assert report["kernel"]

    def test_pendant_bar_lists_component(self, tmp_path, capsys):
        path = write_linkage(tmp_path / "pendant.json", *pendant_three_chain())
        assert main(["recognize", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is True
        (comp,) = report["relative_decomposition"]
        assert comp["attachments"] == ["I", "T"]

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["recognize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse linkage file")
        assert len(captured.err.splitlines()) == 1


class TestCritical:
    def test_pentagon_records(self, tmp_path, capsys):
        g, gamma = make_polygon([1.0, 1.3, 0.8, 1.4, 1.1])
        path = write_linkage(tmp_path / "pent.json", g, gamma)
        assert main(["critical", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "symbolic"
        assert payload["wall_check"]["clean"]
        from linkmorse.geometry import enumerate_cyclic
        assert len(payload["records"]) == len(enumerate_cyclic([1.0, 1.3, 0.8, 1.4, 1.1]))

    def test_max16_instance(self, tmp_path, capsys):
        g, gamma = max16_three_chain()
        path = write_linkage(tmp_path / "m16.json", g, gamma)
        assert main(["critical", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 12  # 16 points, circles counted once

    def test_wall_strict_exit_4(self, tmp_path, capsys):
        g, gamma = make_polygon([1.0, 1.0, 1.0, 3.0])
        path = write_linkage(tmp_path / "wall.json", g, gamma)
        assert main(["--strict", "critical", path]) == 4

    def test_wall_strict_report_goes_to_out(self, tmp_path, capsys):
        g, gamma = make_polygon([1.0, 1.0, 1.0, 3.0])
        path = write_linkage(tmp_path / "wall.json", g, gamma)
        assert main(["--strict", "critical", path]) == 4
        stdout = capsys.readouterr().out
        out = tmp_path / "wall_out.json"
        assert main(["--strict", "--out", str(out), "critical", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: wall proximity")
        assert out.read_text() == stdout
        assert json.loads(stdout)["wall_check"]["clean"] is False

    def test_wall_without_strict_falls_back(self, tmp_path, capsys):
        g, gamma = make_polygon([1.0, 1.0, 1.0, 3.0])
        path = write_linkage(tmp_path / "wall.json", g, gamma)
        assert main(["--n-seeds", "100", "critical", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["mode"] == "numeric"
        assert payload["warning"] == "wall proximity; numeric-only fallback"
        assert captured.err == "warning: wall proximity; numeric-only fallback\n"

    def test_numeric_fallback_outside_class(self, tmp_path, capsys):
        g, gamma = non_ptt_example()
        path = write_linkage(tmp_path / "nonptt.json", g, gamma)
        assert main(["--n-seeds", "120", "critical", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["mode"] == "numeric"
        assert payload["warning"] == ("linkage outside the symbolic class; "
                                      "falling back to numeric search")
        assert captured.err == f"warning: {payload['warning']}\n"
        assert payload["records"]

    @pytest.mark.parametrize("command", ["critical", "continue"])
    def test_determinism(self, tmp_path, capsysbinary, command):
        out = tmp_path / "records.json"
        if command == "critical":
            g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
            argv = ["--out", str(out), "critical",
                    write_linkage(tmp_path / "tc.json", g, gamma)]
        else:
            g, gamma, edge, _ = pitchfork_family()
            argv = ["--n-seeds", "150", "--format", "csv", "continue",
                    write_linkage(tmp_path / "fam.json", g, gamma), "--edge", str(edge),
                    "--from", "0.62", "--to", "0.70", "--steps", "4"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            stdout = capsysbinary.readouterr().out
            outputs.append(out.read_bytes() if command == "critical" else stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", list(STDOUT_SHA256))
    def test_stdout_digest(self, tmp_path, capsysbinary, perfbench_instances, name):
        # a change that moves one output byte fails here; an intended change
        # updates the digest
        make = {"max16": max16_three_chain, "bm223": bott_morse_three_chain,
                "free_four_chain": free_four_chain, "worked": lambda: worked_example()[:2]}
        g, gamma = make[name]() if name in make else perfbench_instances[name]
        assert main(["critical", write_linkage(tmp_path / "linkage.json", g, gamma)]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == STDOUT_SHA256[name]


def _freeze(v):
    """A hashable value equal to another's exactly when the JSON values are."""
    if isinstance(v, dict):
        return tuple(sorted((k, _freeze(x)) for k, x in v.items()))
    return tuple(map(_freeze, v)) if isinstance(v, list) else v


class TestCellTable:
    """Symbolic ``critical`` writes each cyclic polygon once, in a top-level
    table that the records' cells index."""

    @pytest.mark.parametrize("instance", [
        lambda: make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75]),
        max16_three_chain,
        lambda: worked_example()[:2],
    ], ids=["three_chain", "max16", "worked"])
    def test_round_trip(self, tmp_path, instance):
        g, gamma = instance()
        out = tmp_path / "records.json"
        assert main(["--out", str(out), "critical",
                     write_linkage(tmp_path / "in.json", g, gamma)]) == 0
        payload = json.loads(out.read_text())
        table = payload["cells"]
        assert payload["format"] == 2
        records = enumerate_critical_structure(detect_polygon_with_chains(g, gamma))
        assert len(payload["records"]) == len(records)
        for rec, r in zip(payload["records"], records):
            assert rec["key"] == r.key()
            assert [table[c["cell"]] | {"center_glued": c["center_glued"]}
                    for c in rec["cells"]] == \
                [pc.poly.to_json_dict() | {"center_glued": list(pc.center)}
                 for pc in r.cells]
        assert len(set(map(_freeze, table))) == len(table)
        used = [c["cell"] for rec in payload["records"] for c in rec["cells"]]
        assert list(dict.fromkeys(used)) == list(range(len(table)))


def hand_built_record(area, center):
    poly = enumerate_cyclic([1.0, 1.1, 1.2])[0]
    return CriticalRecord(
        chain_status=(ChainStatus("aligned", 2.0, (1, -1), 1), ChainStatus("free", 0.5)),
        cells=(PlacedCell(poly, center),),
        representative=Configuration({"b": (1.0, -0.5), "a": (0.0, 0.25)}),
        index=IndexReport(1, 0, (("cell0", 0), ("chain0", 1))),
        factors=(ManifoldFactor(1, 2, 0, 2),),
        area=area)


class TestRecordTemplates:
    """Symbolic records go out through one text template per record shape,
    filled with the record's leaf texts; every record's text equals the
    generic encoding of its ``to_json_dict``."""

    NL = "\n    "  # a record's indentation in the output file

    @pytest.mark.parametrize("instance", [
        max16_three_chain, bott_morse_three_chain, free_four_chain, None,
    ], ids=["max16", "bm223", "free_four_chain", "worked"])
    def test_every_record_equals_generic(self, instance, request):
        records = (request.getfixturevalue("worked_records") if instance is None
                   else symbolic_records(*instance()))
        keys = [r.key() for r in records]
        templated = _TemplatedRecords(records, keys)
        texts = [templated.encode(r, key, self.NL) for r, key in zip(records, keys)]
        assert texts == [_encode_json(r.to_json_dict(templated.cell_ids), self.NL)
                         for r in records]
        assert len(templated.templates) < len(records)
        if instance is free_four_chain:
            assert any('"chi": null' in t for t in texts)

    def test_non_finite_leaves(self):
        # each hand-built record is a one-row table of its own
        odd = hand_built_record(math.nan, (math.inf, -0.0))
        plain = hand_built_record(1.5, (0.5, 0.25))
        for order in ([plain, odd], [odd]):
            templated = _TemplatedRecords(order, [r.key() for r in order])
            for r in order:
                text = templated.encode(r, r.key(), "\n")
                assert text == json.dumps(r.to_json_dict(templated.cell_ids), indent=2,
                                          sort_keys=True)
            assert '"area": NaN' in text and "Infinity" in text

    def test_table_with_nan_area_written_as_generic(self):
        # a NaN in one row's area sends the whole table down the generic
        # per-leaf encoding; the NaN goes out as json.dumps writes it
        table = max(symbolic_records(*bott_morse_three_chain()),
                    key=lambda r: len(r.table.area)).table
        assert len(table.area) > 1
        odd = dataclasses.replace(table, area=np.where(np.arange(len(table.area)) == 1,
                                                        math.nan, table.area))
        records = odd.records()
        templated = _TemplatedRecords(records, [r.key() for r in records])
        texts = [templated.encode(r, r.key(), self.NL) for r in records]
        assert texts == [_encode_json(r.to_json_dict(templated.cell_ids), self.NL)
                         for r in records]
        assert '"area": NaN' in texts[1] and "NaN" not in texts[0]
        assert texts[1] == json.dumps(records[1].to_json_dict(templated.cell_ids), indent=2,
                                      sort_keys=True).replace("\n", self.NL)

    def test_vertex_names_escaped(self, tmp_path, capsysbinary):
        g, gamma = free_four_chain()
        names = dict(zip(g.vertices, ["v%d", 'q"x', "é", "a\\b", "[c]", "{}", "%s%%"]))
        g = LinkageGraph(tuple(names[v] for v in g.vertices),
                         tuple((names[u], names[v], x) for u, v, x in g.edges))
        path = str(tmp_path / "names.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(g.to_json_dict() | {"gamma": [names[v] for v in gamma.vertices]}, fh)
        assert main(["critical", path]) == 0
        stdout = capsysbinary.readouterr().out
        text = stdout.decode("ascii")
        payload = json.loads(text)
        assert payload["mode"] == "symbolic" and payload["records"]
        assert set(payload["records"][0]["representative"]["coords"]) == set(names.values())
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        out = tmp_path / "out.json"
        assert main(["--out", str(out), "critical", path]) == 0
        assert out.read_bytes() == stdout

    def test_debug_record(self, tmp_path, caplog):
        path = write_linkage(tmp_path / "worked.json", *worked_example()[:2])
        out = tmp_path / "records.json"
        caplog.set_level(logging.DEBUG, logger="linkmorse.cli")
        runs = []
        for _ in range(2):  # a second call in the process builds its templates again
            caplog.clear()
            assert main(["--out", str(out), "critical", path]) == 0
            (record,) = [r for r in caplog.records if r.name == "linkmorse.cli"]
            assert record.levelno == logging.DEBUG
            runs.append(record.args)
        assert runs[0] == runs[1]
        assert runs[0]["records"] == 5316 and runs[0]["cells"] == 934
        assert runs[0]["bytes"] == out.stat().st_size == 16_031_568
        # one template per branch table and index report
        assert runs[0]["shapes"] == 174


class TestVerify:
    def test_round_trip_agreement(self, tmp_path, three_chain_file):
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        assert main(["--n-seeds", "400", "verify", three_chain_file,
                     str(records)]) == 0

    def test_file_without_cell_table(self, tmp_path, three_chain_file, capsys):
        # a file written before the cell table: no "format", full cells
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        payload = json.loads(records.read_text())
        argv = ["--n-seeds", "400", "verify", three_chain_file, str(records)]
        assert main(argv) == 0
        verdict = capsys.readouterr().out
        table = payload.pop("cells")
        del payload["format"]
        for rec in payload["records"]:
            rec["cells"] = [table[c["cell"]] | {"center_glued": c["center_glued"]}
                            for c in rec["cells"]]
        records.write_text(json.dumps(payload))
        assert main(argv) == 0
        assert capsys.readouterr().out == verdict

    def test_corrupted_index_exit_5(self, tmp_path, three_chain_file, capsys):
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        payload = json.loads(records.read_text())
        payload["records"][0]["index"]["index"] += 1
        records.write_text(json.dumps(payload))
        assert main(["--n-seeds", "400", "verify", three_chain_file,
                     str(records)]) == 5
        verdict = json.loads(capsys.readouterr().out)
        assert any("record 0" in d and "index mismatch" in d for d in verdict["diffs"])

    @pytest.mark.parametrize("shift", [1e-3, 2e-7])
    def test_representative_off_closure_exit_5(self, tmp_path, three_chain_file, capsys,
                                               shift):
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        payload = json.loads(records.read_text())
        coords = payload["records"][0]["representative"]["coords"]
        coords["A1"][0] += shift
        records.write_text(json.dumps(payload))
        assert main(["--n-seeds", "400", "verify", three_chain_file,
                     str(records)]) == 5
        diffs = json.loads(capsys.readouterr().out)["diffs"]
        key = payload["records"][0]["key"]
        assert any(d.startswith(f"record 0 ({key}): representative not critical: |rho| = ")
                   and "np.float64" not in d for d in diffs)

    def test_wall_lengths_exit_4(self, tmp_path, capsys):
        g, gamma = make_polygon([1.0, 1.0, 1.0, 3.0])
        path = write_linkage(tmp_path / "wall.json", g, gamma)
        records = tmp_path / "records.json"
        records.write_text(json.dumps({"mode": "symbolic", "records": []}))
        assert main(["verify", path, str(records)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-generic lengths: ")

    def test_outside_symbolic_class_exit_2(self, tmp_path, capsys):
        g, gamma = non_ptt_example()
        path = write_linkage(tmp_path / "nonptt.json", g, gamma)
        records = tmp_path / "records.json"
        records.write_text(json.dumps({"mode": "symbolic", "records": []}))
        assert main(["verify", path, str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: linkage outside the symbolic class\n"

    def test_unknown_key_exit_5(self, tmp_path, capsys):
        g, gamma = max16_three_chain()
        path = write_linkage(tmp_path / "m16.json", g, gamma)
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", path]) == 0
        payload = json.loads(records.read_text())
        payload["records"][3]["key"] += "x"
        records.write_text(json.dumps(payload))
        assert main(["--seed", "77", "--n-seeds", "400", "verify", path,
                     str(records)]) == 5
        diffs = json.loads(capsys.readouterr().out)["diffs"]
        assert f"record 3 ({payload['records'][3]['key']}): no matching enumerated record" \
            in diffs

    def _verdict(self, tmp_path, path, capsys, argv=(), edit=None):
        """Exit code, records and verdict of ``verify`` on the linkage's own
        records, 400 seeds, after ``edit`` changed the records file's payload."""
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", path]) == 0
        payload = json.loads(records.read_text())
        if edit:
            edit(payload)
        records.write_text(json.dumps(payload))
        code = main(["--n-seeds", "400", *argv, "verify", path, str(records)])
        return code, payload, json.loads(capsys.readouterr().out)

    def test_zero_count_mismatch_exit_5(self, tmp_path, three_chain_file, capsys):
        def edit(payload):
            payload["records"][0]["index"]["manifold_dim"] += 1

        code, payload, verdict = self._verdict(tmp_path, three_chain_file, capsys, edit=edit)
        rec = payload["records"][0]
        dim = rec["index"]["manifold_dim"]
        assert code == 5
        assert verdict["diffs"] == [f"record 0 ({rec['key']}): zero-count mismatch "
                                    f"oracle={dim - 1} recorded={dim}"]

    def test_record_not_found_by_sweep_exit_5(self, tmp_path, three_chain_file, capsys):
        # one seed finds one critical point: every other record is missed
        code, payload, verdict = self._verdict(tmp_path, three_chain_file, capsys,
                                               ["--n-seeds", "1"])
        missed = [f"record ({rec['key']}): not found by the oracle sweep"
                  for rec in payload["records"]]
        assert (code, verdict["oracle_points"]) == (5, 1)
        assert len(verdict["diffs"]) == len(missed) - 1
        assert all(d in missed for d in verdict["diffs"])

    def test_oracle_point_matching_no_record_exit_5(self, tmp_path, three_chain_file, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(linkmorse.cli, "match_record", lambda *args: None)
        code, payload, verdict = self._verdict(tmp_path, three_chain_file, capsys)
        oracle = area_oracle(*make_three_chain(*THREE_CHAIN))
        assert code == 5
        assert verdict["diffs"] == (
            [f"oracle critical point at S={oracle.f(x)!r} matches no symbolic record"
             for x, _, _ in oracle.find_critical(400, 42)]
            + [f"record ({rec['key']}): not found by the oracle sweep"
               for rec in payload["records"]])

    def test_oracle_index_not_formula_exit_5(self, tmp_path, three_chain_file, capsys,
                                             monkeypatch):
        # the enumeration claims one record, its index raised by one, in the
        # records file and in verify
        def raised(struct, tols, keys=None):
            rec = enumerate_critical_structure(struct, tols)[0]
            rec = CriticalRecord(
                chain_status=rec.chain_status, cells=rec.cells,
                representative=rec.representative,
                index=dataclasses.replace(rec.index, index=rec.index.index + 1),
                factors=rec.factors, area=rec.area)
            if keys is not None:
                keys.append(rec.key())
            return [rec]

        monkeypatch.setattr(linkmorse.cli, "enumerate_critical_structure", raised)
        code, payload, verdict = self._verdict(tmp_path, three_chain_file, capsys)
        rec = payload["records"][0]
        index = rec["index"]["index"]
        assert code == 5
        assert len(payload["records"]) == 1
        assert f"record ({rec['key']}): oracle index {index - 1} != formula {index}" \
            in verdict["diffs"]


class TestContinue:
    def test_writes_json_and_csv(self, tmp_path):
        g, gamma, edge, (lo, hi) = pitchfork_family()
        path = write_linkage(tmp_path / "fam.json", g, gamma)
        out = tmp_path / "diagram"
        assert main(["--n-seeds", "150", "--out", str(out), "continue", path,
                     "--edge", str(edge), "--from", "0.62", "--to", "0.70",
                     "--steps", "4"]) == 0
        diag = json.loads((tmp_path / "diagram.json").read_text())
        csv_text = (tmp_path / "diagram.csv").read_text()
        assert diag["branches"]
        assert csv_text.splitlines()[0] == "param,branch,area,neg,zero,pos"
        assert len(csv_text.splitlines()) > 5

    def test_lost_branches_warn(self, tmp_path, capsys):
        g, gamma = make_polygon([1.0, 1.1, 1.2, 2.9])
        path = write_linkage(tmp_path / "quad.json", g, gamma)
        assert main(["--seed", "3", "--n-seeds", "60", "continue", path, "--edge", "3",
                     "--from", "2.9", "--to", "3.5", "--steps", "4"]) == 0
        captured = capsys.readouterr()
        assert [b["lost_at"] for b in json.loads(captured.out)["branches"]] == [3.35, 3.35]
        assert captured.err == ("warning: branch 0 lost at parameter 3.35\n"
                                "warning: branch 1 lost at parameter 3.35\n")

    def test_bad_edge_exit_2(self, three_chain_file):
        assert main(["continue", three_chain_file, "--edge", "99",
                     "--from", "0.5", "--to", "0.6"]) == 2

    def test_bad_range_exit_2(self, three_chain_file):
        assert main(["continue", three_chain_file, "--edge", "0",
                     "--from", "-1.0", "--to", "0.6"]) == 2


def test_process_exit_codes(tmp_path, three_chain_file):
    """The exit code a shell sees is the one ``main`` returns."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    wall = write_linkage(tmp_path / "wall.json", *make_polygon([1.0, 1.0, 1.0, 3.0]))
    m16 = write_linkage(tmp_path / "m16.json", *max16_three_chain())
    records = tmp_path / "records.json"
    assert main(["--out", str(records), "critical", m16]) == 0
    payload = json.loads(records.read_text())
    payload["records"][3]["key"] += "x"
    records.write_text(json.dumps(payload))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for argv, code in [
        (["recognize", three_chain_file], 0),
        (["recognize", str(bad)], 2),
        (["recognize", write_linkage(tmp_path / "k4.json", K4)], 3),
        (["--strict", "critical", wall], 4),
        (["--n-seeds", "50", "verify", m16, str(records)], 5),
    ]:
        proc = subprocess.run([sys.executable, "-m", "linkmorse.cli", *argv],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


class TestInputErrors:
    """Malformed input ends in exit 2 and one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("flags", [
        ["--n-seeds", "0"],
        ["--tol-gradient", "0"],
        ["--tol-gradient", "-1"],
        ["--tol-gradient", "nan"],
        ["--seed", "-1"],
    ], ids=["n_seeds_0", "tol_gradient_0", "tol_gradient_negative", "tol_gradient_nan",
            "seed_negative"])
    def test_invalid_flag_value(self, three_chain_file, capsys, flags):
        assert main(flags + ["critical", three_chain_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid flag value")

    @pytest.mark.parametrize("command", ["critical", "verify", "continue"])
    def test_no_gamma(self, tmp_path, capsys, command):
        g, _ = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        path = write_linkage(tmp_path / "tc.json", g)
        records = tmp_path / "records.json"
        records.write_text(json.dumps({"mode": "symbolic", "records": []}))
        rest = {"critical": [], "verify": [str(records)],
                "continue": ["--edge", "0", "--from", "0.5", "--to", "0.6"]}[command]
        assert main([command, path] + rest) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "(gamma)" in captured.err

    @pytest.mark.parametrize("bounds", [("0.5", "inf"), ("inf", "0.6")],
                             ids=["to_inf", "from_inf"])
    def test_infinite_parameter(self, three_chain_file, capsys, bounds):
        assert main(["continue", three_chain_file, "--edge", "0",
                     "--from", bounds[0], "--to", bounds[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad parameter range\n"

    @pytest.mark.parametrize("terminals", [{"I": "I", "T": "X9"}, {"I": "T", "T": "T"}],
                             ids=["missing_vertex", "equal"])
    def test_bad_terminals(self, tmp_path, capsys, terminals):
        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        d = g.to_json_dict(gamma=gamma) | {"terminals": terminals}
        path = tmp_path / "terms.json"
        path.write_text(json.dumps(d))
        assert main(["recognize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse linkage file")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("change", [
        lambda d: [1],
        lambda d: d | {"edges": 5},
        lambda d: d | {"gamma": 3},
        lambda d: d | {"edges": [d["edges"][0] | {"len": float("inf")}] + d["edges"][1:]},
    ], ids=["top_level_list", "edges_not_a_list", "gamma_not_a_list", "infinite_length"])
    def test_malformed_linkage_file(self, tmp_path, capsys, change):
        g, gamma = max16_three_chain()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(g.to_json_dict(gamma=gamma))))
        assert main(["critical", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse linkage file")

    @pytest.mark.parametrize("payload", [
        [{"mode": "symbolic", "records": []}],
        {"mode": "symbolic", "records": 5},
        {"mode": "symbolic", "records": [{"key": "k", "index": {"index": 0,
                                                                 "manifold_dim": 0}}]},
        {"mode": "symbolic", "records": [{"key": "k", "representative": {"coords": {}}}]},
        {"mode": "symbolic", "format": 1, "records": []},
        {"mode": "symbolic", "format": 3, "records": []},
    ], ids=["top_level_list", "records_not_a_list", "no_representative", "no_index",
            "format_1", "format_3"])
    def test_malformed_records_file(self, tmp_path, three_chain_file, capsys,
                                    monkeypatch, payload):
        def no_enumeration(*args, **kw):
            raise AssertionError("records file must be checked before enumeration")

        monkeypatch.setattr("linkmorse.cli.enumerate_critical_structure", no_enumeration)
        records = tmp_path / "records.json"
        records.write_text(json.dumps(payload))
        assert main(["verify", three_chain_file, str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verify expects symbolic records"
                                       if isinstance(payload, list)
                                       else "error: malformed records file")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("spoil", [
        lambda coords: coords.pop("A1"),
        lambda coords: coords["A1"].__setitem__(0, float("nan")),
    ], ids=["missing_vertex", "nan_coordinate"])
    def test_bad_representative(self, tmp_path, three_chain_file, capsys, monkeypatch,
                                spoil):
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        payload = json.loads(records.read_text())
        spoil(payload["records"][1]["representative"]["coords"])
        records.write_text(json.dumps(payload))
        capsys.readouterr()

        def no_enumeration(*args, **kw):
            raise AssertionError("records file must be checked before enumeration")

        monkeypatch.setattr("linkmorse.cli.enumerate_critical_structure", no_enumeration)
        assert main(["verify", three_chain_file, str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed records file: record 1")
        assert len(captured.err.splitlines()) == 1


class TestOutput:
    """One writer: --out and stdout carry the same bytes, which are those of
    ``json.dumps(indent=2, sort_keys=True)``; a failed write exits 2."""

    @pytest.fixture
    def argvs(self, tmp_path, three_chain_file):
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        g, gamma, edge, _ = pitchfork_family()
        family = write_linkage(tmp_path / "fam.json", g, gamma)
        non_ptt = write_linkage(tmp_path / "non_ptt.json", *non_ptt_example())
        return {
            "recognize": ["recognize", three_chain_file],
            "recognize_k4": ["recognize", write_linkage(tmp_path / "k4.json", K4)],
            "critical": ["critical", three_chain_file],
            "critical_numeric": ["--n-seeds", "200", "critical", non_ptt],
            "verify": ["--n-seeds", "400", "verify", three_chain_file, str(records)],
            "continue": ["--n-seeds", "150", "continue", family, "--edge", str(edge),
                         "--from", "0.62", "--to", "0.70", "--steps", "4"],
        }

    # recognize_k4 exits 3 with a kernel of tuples; critical_numeric takes the
    # numeric fallback, whose records carry inertia
    @pytest.mark.parametrize("command", ["recognize", "critical", "verify", "continue",
                                         "recognize_k4", "critical_numeric"])
    def test_out_equals_stdout_equals_dumps(self, tmp_path, capsysbinary, argvs, command):
        out = tmp_path / "out"
        code = 3 if command == "recognize_k4" else 0
        assert main(argvs[command]) == code
        stdout = capsysbinary.readouterr().out
        assert main(["--out", str(out)] + argvs[command]) == code
        assert capsysbinary.readouterr().out == b""
        written = (tmp_path / "out.json" if command == "continue" else out).read_bytes()
        assert written == stdout
        text = stdout.decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        if command == "critical_numeric":
            records = json.loads(text)["records"]
            assert records and all("inertia" in r for r in records)
        if command == "continue":
            assert main(["--format", "csv"] + argvs[command]) == 0
            assert (tmp_path / "out.csv").read_bytes() == capsysbinary.readouterr().out

    @pytest.mark.parametrize("command", ["critical", "continue"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argvs, command):
        out = tmp_path / "missing" / "x"
        assert main(["--out", str(out)] + argvs[command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write '{out}")
        assert len(captured.err.splitlines()) == 1

    @settings(max_examples=300, deadline=None)
    @given(obj=JSON_VALUES)
    def test_writer_equals_dumps(self, obj):
        fh = io.StringIO()
        linkmorse.cli._write_json(obj, fh, 0)
        assert fh.getvalue() == json.dumps(obj, indent=2, sort_keys=True)

    @staticmethod
    def _traced_dump(payload, path):
        """The written file's size and the traced peak while writing it."""
        tracemalloc.start()
        try:
            _dump_json(payload, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return path.stat().st_size, peak

    def test_dump_streams(self, tmp_path):
        records = [{"key": f"record{k}", "area": k / 7.0,
                    "index": {"index": k % 9, "manifold_dim": k % 2},
                    "center_glued": [k / 3.0, -k / 11.0],
                    "chains": [{"kind": "free", "w": k / 13.0}]} for k in range(20000)]
        size, peak = self._traced_dump({"records": records}, tmp_path / "records.json")
        assert size > 5_000_000
        assert peak < size / 10

    def test_symbolic_records_stream(self, tmp_path, monkeypatch, worked_records):
        # the worked example's records, enumerated beforehand, go out one at a
        # time: holding every record's text (about 14 MB) or dict at once fails
        def enumerated(struct, tols, keys):
            keys += [r.key() for r in worked_records]
            return worked_records

        monkeypatch.setattr(linkmorse.cli, "enumerate_critical_structure", enumerated)
        path = write_linkage(tmp_path / "worked.json", *worked_example()[:2])
        out = tmp_path / "records.json"
        tracemalloc.start()
        try:
            assert main(["--out", str(out), "critical", path]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == 16_031_568
        assert peak < 4_000_000, peak

    def test_dump_streams_top_level_table(self, tmp_path):
        # a shared table one container deep also goes out an entry at a time
        cells = [{"lengths": [k / 3.0, k / 7.0, k / 9.0], "radius": k / 5.0,
                  "vertices": [[k / 11.0, -k / 13.0], [k / 17.0, k / 19.0]],
                  "flags": []} for k in range(20000)]
        size, peak = self._traced_dump({"cells": cells, "format": 2, "records": []},
                                       tmp_path / "records.json")
        assert size > 5_000_000
        assert peak < size / 10
