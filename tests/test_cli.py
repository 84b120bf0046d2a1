import argparse
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot_secrecy import cli, entropic
from oneshot_secrecy.channel import bundled_path, channel_to_document, control_state_hk, load_channel, load_distribution
from oneshot_secrecy.entropic import ConvergenceError
from oneshot_secrecy.states import joint_and_product

CHAN = str(bundled_path("diag_deterministic.json"))
DIST = str(bundled_path("uniform_t1.json"))
XOR = str(bundled_path("xor_split.json"))
HKDIST = str(bundled_path("uniform_hk.json"))
NC = str(Path(__file__).parent / "data" / "nc_small_split.json")
NCDIST = str(Path(__file__).parent / "data" / "nc_small_split_dist.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "oneshot_secrecy", *args],
        capture_output=True,
        text=True,
    )


def test_oracle_np_prints_divergence():
    out = run_cli("oracle-np", "--p", "0.5,0.5", "--q", "0.9,0.1", "--eps", "0.5")
    assert out.returncode == 0
    assert out.stdout.strip().startswith("3.321928094")


def test_validate_ok_and_broken(tmp_path):
    ok = run_cli("validate", CHAN, "--dist", DIST)
    assert ok.returncode == 0 and "OK" in ok.stdout
    doc = channel_to_document(load_channel(CHAN))
    doc["states"]["0,0"]["re"] = (0.98 * np.array(doc["states"]["0,0"]["re"])).tolist()
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    res = run_cli("validate", str(broken))
    assert res.returncode == 1
    assert "0,0" in res.stderr and "trace deviation" in res.stderr
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops", encoding="utf-8")
    assert run_cli("validate", str(garbled)).returncode == 2
    assert run_cli("validate", str(tmp_path / "missing.json")).returncode == 2


def test_region_writes_expected_corner(tmp_path):
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "v.csv"
    res = run_cli(
        "region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1",
        "--eps", "0.25", "--penalties", "off",
        "--out", str(out_json), "--csv", str(out_csv),
    )
    assert res.returncode == 0
    assert "0.415037499279" in out_csv.read_text()
    report = json.loads(out_json.read_text())
    assert report["flags"]["degenerate"] is False
    assert report["params"]["eps"] == 0.25
    assert report["penalties"]["mode"] == "off"
    assert len(report["rows"]) == 3
    assert report["secrecy"]["pass"] is True


def test_region_determinism(tmp_path):
    paths = []
    for tag in ("a", "b"):
        oj, oc = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        res = run_cli(
            "region", "--channel", XOR, "--dist", HKDIST, "--theorem", "conjecture",
            "--eps", "0.25", "--penalties", "paper",
            "--out", str(oj), "--csv", str(oc),
        )
        assert res.returncode == 0
        paths.append((oj.read_bytes(), oc.read_bytes()))
    assert paths[0] == paths[1]


def test_quantities_table():
    res = run_cli(
        "quantities", "--channel", CHAN, "--dist", DIST,
        "--grouping", "X1:X2,Y1|Q", "--grouping", "X1:Z",
        "--eps", "0.25",
    )
    assert res.returncode == 0
    assert "ht_mutual_info" in res.stdout
    assert "1.41503749928" in res.stdout  # I_H(X1 : X2 Y1 | Q)
    assert "binary_entropy" in res.stdout


def test_fm_command(tmp_path):
    doc = {
        "variables": ["R1", "R10", "R11"],
        "rows": [
            {"coeffs": {"R10": 1.0}, "bound": 2.0},
            {"coeffs": {"R11": 1.0}, "bound": 3.0},
            {"coeffs": {"R10": 1.0, "R11": 1.0}, "bound": 4.0},
        ],
        "equalities": [{"coeffs": {"R1": 1.0, "R10": -1.0, "R11": -1.0}, "value": 0.0}],
    }
    src = tmp_path / "poly.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "projected.json"
    res = run_cli("fm", "--input", str(src), "--eliminate", "R10,R11", "--out", str(out))
    assert res.returncode == 0
    projected = json.loads(out.read_text())
    assert projected["variables"] == ["R1"]
    bounds = [r["bound"] / r["coeffs"]["R1"] for r in projected["rows"] if r["coeffs"].get("R1", 0) > 0]
    assert min(bounds) == pytest.approx(4.0, abs=1e-9)


def test_sweep_thread_determinism(tmp_path):
    outputs = []
    for run in ("first", "second"):
        csv = tmp_path / f"front_{run}.csv"
        res = run_cli(
            "sweep", "--channel", CHAN, "--theorem", "t1", "--grid", "3",
            "--eps", "0.25", "--penalties", "off", "--csv", str(csv),
        )
        assert res.returncode == 0
        outputs.append(csv.read_bytes())
    assert outputs[0] == outputs[1]
    header = outputs[0].decode().splitlines()[0]
    assert header == "direction,R1,R2"


def test_unreadable_and_invalid_json_exit_2(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops", encoding="utf-8")
    missing, garbled = str(tmp_path / "missing.json"), str(garbled)
    cases = {
        "error: cannot read channel file: ": ["validate", missing],
        "error: channel file is not valid JSON: ": ["validate", garbled],
        "error: cannot read distribution file: ": ["validate", CHAN, "--dist", missing],
        "error: distribution file is not valid JSON: ": ["validate", CHAN, "--dist", garbled],
        "error: cannot read polytope file: ": ["fm", "--input", missing, "--eliminate", "W1"],
        "error: polytope file is not valid JSON: ": ["fm", "--input", garbled, "--eliminate", "W1"],
    }
    for message, argv in cases.items():
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(message), argv


def test_unknown_flags_exit_2():
    assert run_cli("region", "--bogus").returncode == 2


def _non_finite_inputs(tmp_path):
    """One file or argument list per input the CLI reads, each carrying a NaN."""
    chan = channel_to_document(load_channel(CHAN))
    chan["states"]["0,0"]["re"][0][0] = float("nan")
    (tmp_path / "chan.json").write_text(json.dumps(chan), encoding="utf-8")
    dist = json.loads(open(DIST, encoding="utf-8").read())
    dist["x1_given_q"][0][0] = float("nan")
    (tmp_path / "dist.json").write_text(json.dumps(dist), encoding="utf-8")
    poly = {
        "variables": ["R1", "W1"],
        "rows": [{"coeffs": {"R1": 1.0, "W1": 1.0}, "bound": float("nan")},
                 {"coeffs": {"W1": -1.0}, "bound": 0.0}],
    }
    (tmp_path / "poly_nan.json").write_text(json.dumps(poly), encoding="utf-8")
    poly["rows"][0]["bound"] = 1.0
    poly["rows"][1]["coeffs"]["W1"] = float("-inf")
    (tmp_path / "poly_inf.json").write_text(json.dumps(poly), encoding="utf-8")
    out = ["--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    return {
        "validate-channel": ["validate", str(tmp_path / "chan.json")],
        "validate-dist": ["validate", CHAN, "--dist", str(tmp_path / "dist.json")],
        "region-channel": ["region", "--channel", str(tmp_path / "chan.json"), "--dist", DIST,
                           "--theorem", "t1", "--eps", "0.25", *out],
        "region-dist": ["region", "--channel", CHAN, "--dist", str(tmp_path / "dist.json"),
                        "--theorem", "t1", "--eps", "0.25", *out],
        "region-delta-nan": ["region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1",
                             "--eps", "0.25", "--delta", "nan", *out],
        "region-theta-nan": ["region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1",
                             "--eps", "0.25", "--theta", "nan", *out],
        "region-delta-inf": ["region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1",
                             "--eps", "0.25", "--delta", "inf", *out],
        "region-delta-prime-inf": ["region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1",
                                   "--eps", "0.25", "--delta-prime", "inf", *out],
        "oracle-np": ["oracle-np", "--p", "0.5,nan", "--q", "0.5,0.5", "--eps", "0.25"],
        "fm-nan": ["fm", "--input", str(tmp_path / "poly_nan.json"), "--eliminate", "W1"],
        "fm-inf": ["fm", "--input", str(tmp_path / "poly_inf.json"), "--eliminate", "W1"],
    }


def test_non_finite_inputs_exit_1(tmp_path, capsys):
    for name, argv in _non_finite_inputs(tmp_path).items():
        assert cli.main(argv) == 1, name
        assert "non-finite" in capsys.readouterr().err, name


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    argv = ["oracle-np", "--p", "0.5,0.5", "--q", "0.9,0.1", "--eps", "0.5"]
    assert cli.main(argv) == 0
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert cli.main(argv) == 0
    assert calls == []


def test_region_enumerates_vertices_once(monkeypatch, tmp_path):
    calls = []
    vertices_2d = cli.vertices_2d

    def counting(poly):
        calls.append(poly)
        return vertices_2d(poly)

    monkeypatch.setattr(cli, "vertices_2d", counting)
    assert cli.main(["region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1", "--eps", "0.25",
                     "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]) == 0
    assert len(calls) == 1


def test_convergence_error_exits_1(monkeypatch, capsys):
    def failing(rho, sigma, eps):
        raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}")

    monkeypatch.setattr(cli, "hypothesis_testing_divergence", failing)
    code = cli.main(["quantities", "--channel", CHAN, "--dist", DIST, "--grouping", "X1:Y1",
                     "--eps", "0.25"])
    assert code == 1
    assert "straddle detection failed at t=0.5, eps=0.25" in capsys.readouterr().err


@pytest.mark.parametrize("command, where", [
    (["region", "--dist", NCDIST, "--theorem", "t2"], ""),
    (["sweep", "--theorem", "conjecture", "--grid", "3"], " (grid point 27)"),
])
def test_non_commuting_scan_error_names_the_term(tmp_path, capsys, command, where):
    """On the non-commuting channel the first leak term fails; a sweep names the point as well."""
    out = ["--out", str(tmp_path / "r.json")] if command[0] == "region" else []
    code = cli.main([*command, *out, "--csv", str(tmp_path / "r.csv"), "--channel", NC, "--eps", "0.25",
                     "--penalties", "off", "--smoothing", "diagonal-scan"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: D_max(X10 : Z): inputs do not commute; diagonal-scan smoothing unavailable{where}\n")


@pytest.mark.parametrize("grouping, given, where", [("X10:Z", "", ""), ("X10:Z|X11", " | X11", " (X11=0)")])
@pytest.mark.parametrize("smoothing, max_iter, term, failure", [
    ("diagonal-scan", 200, "D_max", "inputs do not commute; diagonal-scan smoothing unavailable"),
    ("none", 1, "D_H", "no convergence after 1 iterations (t in [0, 2.47095], eps=0.25); degenerate spectrum suspected"),
])
def test_quantities_errors_name_the_term(monkeypatch, capsys, grouping, given, where, smoothing, max_iter, term,
                                         failure):
    """A plain grouping's failing term is named as a conditional grouping's is; the exit code stays 1."""
    monkeypatch.setattr(entropic, "_MAX_ITER", max_iter)
    code = cli.main(["quantities", "--channel", NC, "--dist", NCDIST, "--grouping", grouping, "--eps", "0.25",
                     "--smoothing", smoothing])
    assert code == 1
    assert capsys.readouterr().err == f"error: {term}(X10 : Z{given}): {failure}{where}\n"


def test_quantities_hands_each_plain_grouping_to_the_dense_d_h(monkeypatch, capsys):
    """``quantities`` calls ``cli.hypothesis_testing_divergence``, looked up on the module, with each plain
    grouping's dense pair and eps as positional arguments.

    The benchmark's traced run wraps that attribute and checks each recorded
    ``(rho, sigma, eps)`` against the classical Neyman-Pearson oracle; a
    route that stops calling it leaves that check nothing to check.
    """
    calls = []
    solve = cli.hypothesis_testing_divergence

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "hypothesis_testing_divergence", recording)
    groupings = [(["X10", "X11"], ["Y1"]), (["X20"], ["Z", "X10"])]
    argv = ["quantities", "--channel", XOR, "--dist", HKDIST, "--eps", "0.25", "--grouping", "X10:Y1|X11"]
    for part_a, part_b in groupings:
        argv += ["--grouping", f"{','.join(part_a)}:{','.join(part_b)}"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    state = control_state_hk(load_channel(XOR), load_distribution(HKDIST))
    assert len(calls) == len(groupings)
    for (args, kwargs), (part_a, part_b) in zip(calls, groupings):
        joint, product = joint_and_product(state, part_a, part_b)
        assert kwargs == {} and len(args) == 3
        assert np.array_equal(args[0], joint) and np.array_equal(args[1], product) and args[2] == 0.25


@pytest.mark.parametrize("rays", ["0", "-3"])
def test_sweep_with_fewer_than_one_ray_exits_1(tmp_path, capsys, rays):
    csv = tmp_path / "frontier.csv"
    code = cli.main(["sweep", "--channel", CHAN, "--theorem", "t1", "--eps", "0.25", "--grid", "2",
                     "--rays", rays, "--csv", str(csv)])
    assert code == 1
    assert "rays must be >= 1" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("grouping, message", [
    ("X10,X10:Y1", "register groups overlap: ['X10']"),
    ("X10:Y1|X10", "conditioning register 'X10' also appears in a part"),
])
def test_grouping_naming_a_register_twice_exits_1(capsys, grouping, message):
    code = cli.main(["quantities", "--channel", XOR, "--dist", HKDIST, "--grouping", grouping,
                     "--eps", "0.25"])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, key, value, message", [
    ("inputs", "X3", ["0"], "unknown input key 'X3'"),
    ("outputs", "W", 2, "unknown output key 'W'"),
    ("states", "7,7", {"re": (np.eye(8) / 8).tolist(), "im": np.zeros((8, 8)).tolist()},
     "unknown state key ('7', '7')"),
])
def test_unknown_channel_keys_exit_1(tmp_path, capsys, field, key, value, message):
    doc = channel_to_document(load_channel(CHAN))
    doc[field][key] = value
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("where, key, value, message", [
    ((), "X3", {"parts": {"X30": ["0"]}}, "unknown split key 'X3'"),
    (("X1", "parts"), "X12", ["0"], "unknown X1 split part key 'X12'"),
    (("X1",), "extra", 1, "unknown X1 split key 'extra'"),
], ids=["input", "part", "field"])
def test_unknown_split_keys_exit_1(tmp_path, capsys, where, key, value, message):
    doc = channel_to_document(load_channel(XOR))
    functools.reduce(dict.__getitem__, where, doc["splits"])[key] = value
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("chan, dist, key, value", [(CHAN, DIST, "x10", [1.0]), (XOR, HKDIST, "extra", 1)],
                         ids=["time-shared", "split"])
def test_unknown_distribution_keys_exit_1(tmp_path, capsys, chan, dist, key, value):
    doc = json.loads(Path(dist).read_text(encoding="utf-8"))
    doc[key] = value
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", chan, "--dist", str(path)]) == 1
    assert capsys.readouterr().err == f"error: unknown distribution key {key!r}\n"


@pytest.mark.parametrize("case, message", [
    ("input-repeat", "input alphabet X1 repeats symbol '0'"),
    ("part-repeat", "X10 alphabet repeats symbol '0'"),
    ("map-key", "X1 combining table pair (2,2) names no part symbol"),
], ids=["input-repeat", "part-repeat", "map-key"])
def test_repeated_and_unknown_channel_symbols_exit_1(tmp_path, capsys, case, message):
    doc = channel_to_document(load_channel(CHAN if case == "input-repeat" else XOR))
    if case == "input-repeat":
        doc["inputs"]["X1"] = ["0", "0", "1"]
    elif case == "part-repeat":
        doc["splits"]["X1"]["parts"]["X10"] = ["0", "1", "0", "1"]
    else:
        doc["splits"]["X1"]["map"]["2,2"] = "00"
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("with_splits", [True, False])
def test_missing_input_alphabet_exits_1_with_or_without_a_default_table(tmp_path, capsys, with_splits):
    doc = channel_to_document(load_channel(XOR))
    del doc["inputs"]["X1"], doc["splits"]["X1"]["map"]
    if not with_splits:
        del doc["splits"]
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: input alphabet X1 missing or empty\n"


@pytest.mark.parametrize("dim", [2.7, "two"])
def test_non_integer_output_dimension_exits_2(tmp_path, capsys, dim):
    doc = channel_to_document(load_channel(CHAN))
    doc["outputs"]["Y1"] = dim
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert f"output 'Y1': dimension {dim!r} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["rows", "equalities"])
def test_fm_coefficient_on_undeclared_variable_exits_1(tmp_path, capsys, section):
    doc = {"variables": ["R1", "R2", "W1"], "rows": [{"coeffs": {"W1": -1.0}, "bound": 0.0}]}
    doc.setdefault(section, []).append({"coeffs": {"R1": 1, "W3": 5}, "bound": 1.0, "value": 0.0})
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "projected.json"
    assert cli.main(["fm", "--input", str(path), "--eliminate", "W1", "--out", str(out)]) == 1
    assert "undeclared variables ['W3']" in capsys.readouterr().err
    assert not out.exists()


def test_fm_variable_declared_twice_exits_1(tmp_path, capsys):
    doc = {"variables": ["R1", "R1", "W1"], "rows": [{"coeffs": {"R1": 1.0, "W1": 1.0}, "bound": 1.0}]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "projected.json"
    assert cli.main(["fm", "--input", str(path), "--eliminate", "W1", "--out", str(out)]) == 1
    assert "variables declared more than once: ['R1']" in capsys.readouterr().err
    assert not out.exists()


def test_fm_coefficients_not_a_mapping_exits_2(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"variables": ["R1", "W1"], "rows": [{"coeffs": ["R1"], "bound": 1.0}]}),
                    encoding="utf-8")
    assert cli.main(["fm", "--input", str(path), "--eliminate", "W1"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed polytope document: ")


@pytest.mark.parametrize("case", ["distribution-number", "distribution-null", "states-list", "map-list",
                                  "inputs-string", "variables-string", "splits-number", "splits-string",
                                  "splits-list"])
def test_malformed_documents_exit_2(tmp_path, capsys, case):
    """Documents are JSON objects, and alphabets and variables are JSON arrays."""
    chan, split = channel_to_document(load_channel(CHAN)), channel_to_document(load_channel(XOR))
    split["splits"]["X1"]["map"] = list(split["splits"]["X1"]["map"].values())
    doc, argv, what = {
        "distribution-number": (5, ["validate", CHAN, "--dist"], "distribution document"),
        "distribution-null": (None, ["validate", CHAN, "--dist"], "distribution document"),
        "states-list": ({**chan, "states": list(chan["states"].values())}, ["validate"], "channel document"),
        "map-list": (split, ["validate"], "X1 split"),
        "inputs-string": ({**chan, "inputs": {"X1": "01", "X2": "01"}}, ["validate"], "channel document"),
        "splits-number": ({**split, "splits": 5}, ["validate"], "channel document"),
        "splits-string": ({**split, "splits": "X1X2"}, ["validate"], "channel document"),
        "splits-list": ({**split, "splits": ["X1"]}, ["validate"], "channel document"),
        "variables-string": ({"variables": "R1W", "rows": [{"coeffs": {"W": 1.0}, "bound": 1.0}]},
                             ["fm", "--eliminate", "W", "--input"], "polytope document"),
    }[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed {what}: ")


@pytest.mark.parametrize("q, shape", [(1.0, "()"), ([[1.0]], "(1, 1)")], ids=["scalar", "matrix"])
@pytest.mark.parametrize("command", ["validate", "region"])
def test_time_shared_q_that_is_not_a_vector_exits_1(tmp_path, capsys, q, shape, command):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"q": q, "x1_given_q": [[0.5, 0.5]], "x2_given_q": [[0.5, 0.5]]}),
                    encoding="utf-8")
    if command == "validate":
        argv = ["validate", CHAN, "--dist", str(dist)]
    else:
        argv = ["region", "--channel", CHAN, "--dist", str(dist), "--theorem", "t1", "--eps", "0.25",
                "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    assert cli.main(argv) == 1
    assert f"q has shape {shape}, expected a 1-d vector" in capsys.readouterr().err
