"""Command-line interface: exit codes, file formats, determinism."""

import json
import tracemalloc

import pytest

from linkmorse.cli import _dump_json, main
from linkmorse.graphs import LinkageGraph, make_polygon, make_three_chain
from linkmorse.instances import max16_three_chain, non_ptt_example, pitchfork_family


def write_linkage(path, g, gamma=None, terminals=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_json_dict(gamma=gamma, terminals=terminals), fh)
    return str(path)


@pytest.fixture
def three_chain_file(tmp_path):
    g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
    return write_linkage(tmp_path / "tc.json", g, gamma)


class TestRecognize:
    def test_three_chain_ok(self, three_chain_file, capsys):
        assert main(["recognize", three_chain_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is True
        assert report["sp_tree"] is not None
        assert len(report["relative_decomposition"]) == 1

    def test_k4_exit_3(self, tmp_path, capsys):
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        g = LinkageGraph(("a", "b", "c", "d"), tuple((u, v, 1.0) for u, v in pairs))
        path = write_linkage(tmp_path / "k4.json", g)
        assert main(["recognize", path]) == 3
        assert json.loads(capsys.readouterr().out)["ptt"] is False

    def test_pendant_bar_lists_component(self, tmp_path, capsys):
        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        g = LinkageGraph(g.vertices + ("P",), g.edges + (("Z1", "P", 0.5),))
        path = write_linkage(tmp_path / "pendant.json", g, gamma)
        assert main(["recognize", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ptt"] is True
        (comp,) = report["relative_decomposition"]
        assert comp["attachments"] == ["I", "T"]

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["recognize", str(path)])
        assert exc.value.code == 2


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
        assert "fallback" in captured.err
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


class TestVerify:
    def test_round_trip_agreement(self, tmp_path, three_chain_file):
        records = tmp_path / "records.json"
        assert main(["--out", str(records), "critical", three_chain_file]) == 0
        assert main(["--n-seeds", "400", "verify", three_chain_file,
                     str(records)]) == 0

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

    def test_bad_edge_exit_2(self, three_chain_file):
        assert main(["continue", three_chain_file, "--edge", "99",
                     "--from", "0.5", "--to", "0.6"]) == 2

    def test_bad_range_exit_2(self, three_chain_file):
        assert main(["continue", three_chain_file, "--edge", "0",
                     "--from", "-1.0", "--to", "0.6"]) == 2


def exit_code(argv):
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        assert exit_code(flags + ["critical", three_chain_file]) == 2
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
        assert exit_code([command, path] + rest) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "(gamma)" in captured.err

    @pytest.mark.parametrize("bounds", [("0.5", "inf"), ("inf", "0.6")],
                             ids=["to_inf", "from_inf"])
    def test_infinite_parameter(self, three_chain_file, capsys, bounds):
        assert exit_code(["continue", three_chain_file, "--edge", "0",
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
        assert exit_code(["recognize", str(path)]) == 2
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
        assert exit_code(["critical", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse linkage file")

    @pytest.mark.parametrize("payload", [
        [{"mode": "symbolic", "records": []}],
        {"mode": "symbolic", "records": 5},
        {"mode": "symbolic", "records": [{"key": "k", "index": {"index": 0,
                                                                 "manifold_dim": 0}}]},
        {"mode": "symbolic", "records": [{"key": "k", "representative": {"coords": {}}}]},
    ], ids=["top_level_list", "records_not_a_list", "no_representative", "no_index"])
    def test_malformed_records_file(self, tmp_path, three_chain_file, capsys,
                                    monkeypatch, payload):
        def no_enumeration(*args, **kw):
            raise AssertionError("records file must be checked before enumeration")

        monkeypatch.setattr("linkmorse.cli.enumerate_critical_structure", no_enumeration)
        records = tmp_path / "records.json"
        records.write_text(json.dumps(payload))
        assert exit_code(["verify", three_chain_file, str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


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
        assert exit_code(["verify", three_chain_file, str(records)]) == 2
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
        return {
            "recognize": ["recognize", three_chain_file],
            "critical": ["critical", three_chain_file],
            "verify": ["--n-seeds", "400", "verify", three_chain_file, str(records)],
            "continue": ["--n-seeds", "150", "continue", family, "--edge", str(edge),
                         "--from", "0.62", "--to", "0.70", "--steps", "4"],
        }

    @pytest.mark.parametrize("command", ["recognize", "critical", "verify", "continue"])
    def test_out_equals_stdout_equals_dumps(self, tmp_path, capsysbinary, argvs, command):
        out = tmp_path / "out"
        assert main(argvs[command]) == 0
        stdout = capsysbinary.readouterr().out
        assert main(["--out", str(out)] + argvs[command]) == 0
        assert capsysbinary.readouterr().out == b""
        written = (tmp_path / "out.json" if command == "continue" else out).read_bytes()
        assert written == stdout
        text = stdout.decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        if command == "continue":
            assert main(["--format", "csv"] + argvs[command]) == 0
            assert (tmp_path / "out.csv").read_bytes() == capsysbinary.readouterr().out

    @pytest.mark.parametrize("command", ["critical", "continue"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argvs, command):
        out = tmp_path / "missing" / "x"
        assert exit_code(["--out", str(out)] + argvs[command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write '{out}")
        assert len(captured.err.splitlines()) == 1

    def test_dump_streams(self, tmp_path):
        records = [{"key": f"record{k}", "area": k / 7.0,
                    "index": {"index": k % 9, "manifold_dim": k % 2},
                    "center_glued": [k / 3.0, -k / 11.0],
                    "chains": [{"kind": "free", "w": k / 13.0}]} for k in range(20000)]
        path = tmp_path / "records.json"
        tracemalloc.start()
        try:
            _dump_json({"records": records}, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 5_000_000
        assert peak < size / 10
