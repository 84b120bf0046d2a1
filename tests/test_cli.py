import argparse
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot_secrecy import channel, cli, entropic, operators, regions, states
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


def test_fm_over_the_polytope_budget_exits_1(tmp_path, capsys, monkeypatch):
    """The ``test_fm_command`` system: eliminating R10 combines 3 rows with R10 > 0 and 2 with R10 < 0."""
    src = tmp_path / "poly.json"
    src.write_text(json.dumps({
        "variables": ["R1", "R10", "R11"],
        "rows": [{"coeffs": {"R10": 1.0}, "bound": 2.0}, {"coeffs": {"R10": 1.0, "R11": 1.0}, "bound": 4.0}],
        "equalities": [{"coeffs": {"R1": 1.0, "R10": -1.0, "R11": -1.0}, "value": 0.0}],
    }), encoding="utf-8")
    monkeypatch.setattr(regions, "_POLYTOPE_BYTES", 100)
    assert cli.main(["fm", "--input", str(src), "--eliminate", "R10,R11", "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == ("error: eliminating 'R10' forms 6 combination rows of 24 bytes, "
                                       "over the polytope budget of 100 bytes\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("form", ["hk", "t1"])
def test_pmfs_within_tolerance_pass_every_command(tmp_path, capsys, form):
    """Each pmf sums to 1 + 9e-10, within ``PROB_TOL``; the product a control state multiplies out sums to
    about 1 + 3.6e-9 (four marginals) or 1 + 2.7e-9 (q and two conditionals) and is not checked again."""
    channel, dist, theorem = {"hk": (XOR, HKDIST, "conjecture"), "t1": (CHAN, DIST, "t1")}[form]
    scaled = tmp_path / "scaled.json"
    doc = json.loads(Path(dist).read_text(encoding="utf-8"))
    scaled.write_text(json.dumps({k: ((1 + 9e-10) * np.array(v)).tolist() for k, v in doc.items()}))
    for argv in (["validate", channel, "--dist", str(scaled)],
                 ["quantities", "--channel", channel, "--dist", str(scaled), "--eps", "0.25"],
                 ["region", "--channel", channel, "--dist", str(scaled), "--theorem", theorem, "--eps", "0.25",
                  "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "v.csv")]):
        status = cli.main(argv)
        assert status == 0, (argv[0], capsys.readouterr().err)


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


def test_non_utf8_files_exit_2(tmp_path, capsys):
    """A channel, distribution or polytope file that is not UTF-8 is a file error naming its kind, not a traceback."""
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff" + Path(CHAN).read_bytes())
    latin = str(latin)
    cases = {
        "channel": ["validate", latin],
        "distribution": ["validate", CHAN, "--dist", latin],
        "polytope": ["fm", "--input", latin, "--eliminate", "W1"],
    }
    for what, argv in cases.items():
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} file is not valid UTF-8: "), argv
        assert err.count("\n") == 1, argv


def test_unparsable_oracle_vectors_exit_2():
    """An entry of ``--p`` or ``--q`` that is not a number is a parse error naming the flag; nan still exits 1."""
    for flag, p, q in (("--p", "0.5,x", "0.5,0.5"), ("--q", "0.5,0.5", "0.5,,0.5")):
        res = run_cli("oracle-np", "--p", p, "--q", q, "--eps", "0.25")
        assert res.returncode == 2, flag
        assert f"error: argument {flag}: " in res.stderr and "Traceback" not in res.stderr, flag


def test_unwritable_output_path_exits_2(tmp_path):
    missing = tmp_path / "missing"
    region = ["region", "--channel", CHAN, "--dist", DIST, "--theorem", "t1", "--eps", "0.25", "--penalties", "off"]
    cases = [
        region + ["--out", str(missing / "r.json")],
        region + ["--out", str(tmp_path / "r.json"), "--csv", str(missing / "v.csv")],
        ["sweep", "--channel", CHAN, "--theorem", "t1", "--eps", "0.25", "--grid", "2", "--csv", str(missing / "s.csv")],
        ["fm", "--input", str(tmp_path / "poly.json"), "--eliminate", "W1", "--out", str(missing / "p.json")],
    ]
    (tmp_path / "poly.json").write_text(json.dumps(
        {"variables": ["R1", "W1"], "rows": [{"coeffs": {"R1": 1.0, "W1": 1.0}, "bound": 1.0}]}), encoding="utf-8")
    for argv in cases:
        res = run_cli(*argv)
        assert res.returncode == 2, argv
        assert res.stderr.startswith("error: ") and str(missing) in res.stderr and "Traceback" not in res.stderr, argv


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


@pytest.mark.parametrize("command, passes", [
    (["region", "--channel", NC, "--dist", NCDIST, "--theorem", "t2", "--out", "r.json", "--csv", "r.csv"], [16]),
    (["sweep", "--channel", CHAN, "--theorem", "t1", "--q-size", "2", "--grid", "2", "--csv", "f.csv"], [4]),
], ids=["region", "sweep"])
def test_each_channel_state_is_checked_once(monkeypatch, tmp_path, capsys, command, passes):
    """A command makes one density pass, over the channel's states at load; the control states gathered
    from them (repeated per ``Q`` value, or through the combining tables) are not checked again."""
    calls = []
    validate_densities = operators.validate_densities

    def counting(stack, labels):
        calls.append(len(labels))
        return validate_densities(stack, labels)

    for module in (operators, channel, states):
        monkeypatch.setattr(module, "validate_densities", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*command, "--eps", "0.25"]) == 0
    capsys.readouterr()
    assert calls == passes


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


def _rekeyed(mapping, key, new_key):
    """Move the entry of ``mapping`` at ``key`` to ``new_key``, in place."""
    mapping[new_key] = mapping.pop(key)


# (channel, edit, message) for a channel document that parses as JSON but not as a channel
DEFECTIVE_DOCUMENTS = {
    "state-key": (CHAN, lambda doc: _rekeyed(doc["states"], "0,0", "00"),
                  "state key '00' is not of the form 'x1,x2'"),
    "re-not-numeric": (CHAN, lambda doc: doc["states"]["0,0"].update(re="x"),
                       "state '0,0': bad matrix payload (ValueError(\"could not convert string to float: 'x'\"))"),
    "re-im-shapes": (CHAN, lambda doc: doc["states"]["0,0"].update(im=[[0.0]]),
                     "state '0,0': re/im must be equal-shape 2-d arrays"),
    "map-key": (XOR, lambda doc: _rekeyed(doc["splits"]["X1"]["map"], "0,0", "00"),
                "X1 map key '00' not 'common,personal'"),
    "splits-without-x2": (XOR, lambda doc: doc["splits"].pop("X2"), "splits must cover both inputs; X2 missing"),
    "default-table-size": (XOR, lambda doc: doc["splits"].update(X1={"parts": {"X10": ["0"], "X11": ["0", "1"]}}),
                           "X1: default combining table needs |X1| = |common| x |personal|"),
}


@pytest.mark.parametrize("case", DEFECTIVE_DOCUMENTS)
def test_defective_channel_documents_exit_2(tmp_path, capsys, case):
    chan, edit, message = DEFECTIVE_DOCUMENTS[case]
    doc = channel_to_document(load_channel(chan))
    edit(doc)
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_split_marginal_of_the_wrong_length_exits_1(tmp_path, capsys):
    doc = json.loads(Path(HKDIST).read_text(encoding="utf-8"))
    doc["x10"] = [0.5, 0.25, 0.25]
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", XOR, "--dist", str(path)]) == 1
    assert capsys.readouterr().err == "error: marginal X10 has length (3,), expected 2\n"


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


def test_fm_unknown_equality_key_exits_1(tmp_path, capsys):
    """A misspelt ``value`` read as 0 turned ``R1 <= 0.5`` into ``R1 <= 2``; keys outside the
    equalities stay open, so a region report with its extra fields is still an ``fm`` input."""
    doc = {"variables": ["R1", "W1"], "penalties": "off",
           "rows": [{"coeffs": {"R1": 1, "W1": 1}, "bound": 2.0, "tag": "sum", "penalty": 0.0, "terms": []}],
           "equalities": [{"coeffs": {"W1": 1}, "value": 1.5}]}
    path, out = tmp_path / "poly.json", tmp_path / "projected.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["fm", "--input", str(path), "--eliminate", "W1", "--out", str(out)]) == 0
    assert [(r["coeffs"], r["bound"]) for r in json.loads(out.read_text())["rows"]] == [({"R1": 1.0}, 0.5)]
    out.unlink()
    doc["equalities"] = [{"coeffs": {"W1": 1}, "valeu": 1.5}]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["fm", "--input", str(path), "--eliminate", "W1", "--out", str(out)]) == 1
    assert "unknown equality key 'valeu'" in capsys.readouterr().err
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


# each distribution form on a channel of the other kind, the region theorem of that form, and the one text
# every command reports; the time-shared file has 4-symbol conditionals, the size of xor_split's inputs
FORM_MISMATCHES = {
    "time-shared": (XOR, {"q": [1.0], "x1_given_q": [[0.25] * 4], "x2_given_q": [[0.25] * 4]}, "t1",
                    "time-shared distribution requires a channel without splits"),
    "split": (CHAN, json.loads(Path(HKDIST).read_text(encoding="utf-8")), "t2",
              "split-form distribution requires a channel with splits"),
}


@pytest.mark.parametrize("form", FORM_MISMATCHES)
def test_distribution_form_is_checked_once_against_the_channel(tmp_path, capsys, form):
    """``validate --dist``, ``region`` (the form's theorem and qmac) and ``quantities`` exit 1 with one text,
    from ``InputDistribution.validate``; a sweep checks its theorem against the channel the same way."""
    chan, doc, theorem, message = FORM_MISMATCHES[form]
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(doc), encoding="utf-8")
    out = ["--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    for argv in (["validate", chan, "--dist", str(dist)],
                 ["region", "--channel", chan, "--dist", str(dist), "--theorem", theorem, "--eps", "0.25", *out],
                 ["region", "--channel", chan, "--dist", str(dist), "--theorem", "qmac", "--eps", "0.25", *out],
                 ["quantities", "--channel", chan, "--dist", str(dist), "--eps", "0.25"]):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    need = "without" if theorem == "t1" else "with"
    assert cli.main(["sweep", "--channel", chan, "--theorem", theorem, "--eps", "0.25", "--grid", "2",
                     "--csv", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == f"error: theorem {theorem!r} sweeps require a channel {need} splits\n"


def test_qmac_region_with_a_time_shared_distribution(tmp_path, capsys):
    """Senders X1 and X2: the report's rows are ``qmac_inner_bound``'s on the time-shared control state."""
    out = tmp_path / "r.json"
    assert cli.main(["region", "--channel", CHAN, "--dist", DIST, "--theorem", "qmac", "--eps", "0.25",
                     "--out", str(out), "--csv", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    state = channel.control_state_t1(load_channel(CHAN), load_distribution(DIST))
    poly = regions.qmac_inner_bound(state, ["X1", "X2"], "Y1", 0.25, regions.PenaltyMode("paper"))
    expected = json.loads(json.dumps([cli._row_dict(r, poly.variables) for r in poly.rows]))
    assert json.loads(out.read_text(encoding="utf-8"))["rows"] == expected


def test_fm_without_out_prints_the_file_bytes(tmp_path, capsys):
    src, out = tmp_path / "poly.json", tmp_path / "projected.json"
    src.write_text(json.dumps({
        "variables": ["R1", "R10", "R11"],
        "rows": [{"coeffs": {"R10": 1.0}, "bound": 2.0}, {"coeffs": {"R10": 1.0, "R11": 1.0}, "bound": 4.0}],
        "equalities": [{"coeffs": {"R1": 1.0, "R10": -1.0, "R11": -1.0}, "value": 0.0}],
    }), encoding="utf-8")
    assert cli.main(["fm", "--input", str(src), "--eliminate", "R10,R11"]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["fm", "--input", str(src), "--eliminate", "R10,R11", "--out", str(out)]) == 0
    assert printed.encode("utf-8") == out.read_bytes()


def test_oracle_np_verbose_prints_beta(capsys):
    assert cli.main(["oracle-np", "--p", "0.5,0.5", "--q", "0.9,0.1", "--eps", "0.5", "--verbose"]) == 0
    beta, divergence = entropic.classical_np_oracle([0.5, 0.5], [0.9, 0.1], 0.5)
    assert capsys.readouterr().out == f"{cli._fmt(divergence)}\nbeta={cli._fmt(beta)}\n"


@pytest.mark.parametrize("grouping, message", [
    ("X10", "grouping 'X10' must look like 'A,B:C,D' or 'A:B|Q'"),
    (":Y1", "grouping ':Y1' has an empty side"),
])
def test_malformed_grouping_exits_2(capsys, grouping, message):
    assert cli.main(["quantities", "--channel", XOR, "--dist", HKDIST, "--grouping", grouping,
                     "--eps", "0.25"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
