import argparse
import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from diracspec.cli import CliParseError, build_parser, main, parse_spectral_json
from diracspec.core import DiracError, Grid, read_potential_csv, write_json, write_potential_csv
from diracspec.core import PotentialMatrix
from diracspec.isospectral import omega_l1_distance, zero_family


def _run(argv):
    return main([str(a) for a in argv])


def test_spectrum_zero_potential_lattice(tmp_path):
    out = tmp_path / "spec.json"
    rc = _run(["spectrum", "--grid", 512, "--nmin", -3, "--nmax", 3, "--out", out])
    assert rc == 0
    obj = json.loads(out.read_text())
    for rec in obj["items"]:
        assert rec["lambda"] == pytest.approx(rec["n"], abs=1e-8)
        assert rec["a"] == pytest.approx(math.pi, abs=1e-8)
    assert (tmp_path / "spec.json.config.json").exists()


def test_spectral_json_round_trip(tmp_path):
    out = tmp_path / "spec.json"
    _run(["spectrum", "--grid", 512, "--nmin", -2, "--nmax", 2, "--out", out])
    data = parse_spectral_json(str(out))
    again = tmp_path / "again.json"
    data.save(again)
    assert json.loads(out.read_text())["items"] == json.loads(again.read_text())["items"]


def test_unsorted_items_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "alpha": 0.0, "beta": 0.0,
        "items": [{"n": 1, "lambda": 1.0}, {"n": 0, "lambda": 0.0}],
    }))
    with pytest.raises(CliParseError):
        parse_spectral_json(str(path))
    rc = _run(["two-spectra", "--spec-a", path, "--spec-e", path,
               "--trunc", 1, "--out", tmp_path / "o.json"])
    assert rc == 2


def test_potential_csv_round_trip(tmp_path):
    g = Grid(0.0, math.pi, 64)
    pot = PotentialMatrix.from_samples(np.cos(g.nodes), np.sin(g.nodes), g)
    path = tmp_path / "pot.csv"
    write_potential_csv(pot, path)
    back = read_potential_csv(path)
    assert np.array_equal(back.p, pot.p)
    assert np.array_equal(back.q, pot.q)


def _row_loop_csv(pot):
    """The row-by-row writer the joined one replaced."""
    x = pot.domain.nodes
    lines = ["x,p,q\n"]
    for xi, pi, qi in zip(x, pot.sample_p(x), pot.sample_q(x)):
        lines.append(f"{xi:.17g},{pi:.17g},{qi:.17g}\n")
    return "".join(lines).encode()


def test_potential_csv_bytes_match_row_loop(tmp_path):
    g = Grid(0.0, 2.0, 11)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
               1.7976931348623157e308, 1.0 / 3.0, -2.5e-17, 123456789.125, math.pi]
    p = np.array(special)
    q = -np.array(special[::-1])
    pot = PotentialMatrix.from_samples(p, q, g)
    path = tmp_path / "pot.csv"
    write_potential_csv(pot, path)
    first = path.read_bytes()
    assert first == _row_loop_csv(pot)
    assert b"-0," in first and b"4.9406564584124654e-324" in first
    back = read_potential_csv(path)
    assert np.array_equal(np.signbit(back.p), np.signbit(p))
    again = tmp_path / "again.csv"
    write_potential_csv(back, again)
    assert again.read_bytes() == first


def _plain_potential_csv(tmp_path):
    g = Grid(0.0, 2.0, 2)
    pot = PotentialMatrix.from_samples(np.array([1.0, 3.0, 5.0]), np.array([2.0, 4.0, 6.0]), g)
    path = tmp_path / "plain.csv"
    write_potential_csv(pot, path)
    return pot


@pytest.mark.parametrize("text", [
    "x,p,q\r\n0,1,2\r\n1,3,4\r\n2,5,6\r\n",
    "x,p,q\n0,1,2\n\n1,3,4\n2,5,6\n\n",
    "x,p,q\n0,1,2,9\n1,3,4\n2,5,6,abc\n",
    'x,p,q\n"0","1","2"\n1,"3",4\n2,5,6',
], ids=["crlf", "blank_lines", "fourth_column", "quoted_numbers"])
def test_potential_csv_reader_variants(tmp_path, text):
    # csv.reader's reading: CR LF and blank lines pass, a fourth field is ignored,
    # quotes are stripped
    want = _plain_potential_csv(tmp_path)
    path = tmp_path / "variant.csv"
    path.write_bytes(text.encode())
    got = read_potential_csv(path)
    assert got.domain == want.domain
    assert np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)


@pytest.mark.parametrize("text, message", [
    ("x,p,q\n", "potential CSV needs at least two rows"),
    ('x,p,q\n0,"1,5",2\n1,3,4\n', "line 2: expected three numbers x,p,q, got '0,1,5,2'"),
    ("x,p,q\r\n0,1\r\n1,3\r\n", "line 2: expected three numbers x,p,q, got '0,1'"),
    ("x,p,q\n0,1,2\n1\r,3,4\n2,5,6\n", "line 3: expected three numbers x,p,q, got '1'"),
], ids=["header_only", "quoted_comma", "crlf_two_fields", "lone_cr"])
def test_potential_csv_reader_rejections(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DiracError) as err:
        read_potential_csv(path)
    assert str(err.value).endswith(message)


def test_write_json_bytes_match_json_dump(tmp_path):
    obj = {"b": [1.0, -0.0, 5e-324, math.pi], "a": {"z": None, "y": "text"}, "c": Path("p.csv")}
    path = tmp_path / "o.json"
    write_json(obj, path)
    with open(tmp_path / "ref.json", "w", newline="\n") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_negative_shift_index_is_written_with_equals(tmp_path):
    out = tmp_path / "omega.csv"
    with pytest.raises(SystemExit) as bare:
        build_parser().parse_args(["isospectral", "--shift", "-2=0.3", "--out", str(out)])
    assert bare.value.code == 2
    assert _run(["isospectral", "--shift=-2=0.3", "--grid", 256, "--out", out]) == 0
    got = read_potential_csv(out)
    assert omega_l1_distance(got, zero_family(-2, 0.3, Grid(0.0, math.pi, 256))) < 1e-4


def test_isospectral_matches_zero_family(tmp_path):
    out = tmp_path / "omega.csv"
    rc = _run(["isospectral", "--shift", "1=0.5", "--grid", 2048,
               "--format", "csv", "--out", out])
    assert rc == 0
    got = read_potential_csv(out)
    assert omega_l1_distance(got, zero_family(1, 0.5, Grid(0.0, math.pi, 2048))) < 1e-6


def test_output_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        _run(["spectrum", "--grid", 512, "--nmin", -2, "--nmax", 2, "--out", out])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_exit_2_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"items": [')
    rc = _run(["reconstruct", "--spec", path, "--out", tmp_path / "o.json"])
    assert rc == 2


@pytest.mark.parametrize(
    "body, line",
    [("0,0,0\n1,abc,0\n2,0,0\n", 3), ("0,0,0\n1,2\n2,0,0\n", 3), ("0,0\n1,1\n2,2\n", 2)],
    ids=["text_field", "two_fields", "two_fields_every_row"],
)
def test_exit_3_on_malformed_csv_row(tmp_path, capsys, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("x,p,q\n" + body)
    rc = _run(["isospectral", "--input", path, "--shift", "0=0.5", "--out", tmp_path / "o.csv"])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"line {line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lam", ["abc", None], ids=["text", "null"])
def test_exit_2_on_non_numeric_lambda(tmp_path, capsys, lam):
    path = tmp_path / "bad.json"
    items = [{"n": n, "lambda": float(n), "a": math.pi} for n in range(-2, 3)]
    items[1]["lambda"] = lam
    path.write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "items": items}))
    with pytest.raises(CliParseError):
        parse_spectral_json(str(path))
    rc = _run(["reconstruct", "--spec", path, "--trunc", 2, "--out", tmp_path / "o.csv"])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


def _lattice_spectrum(**fields):
    """A valid spectral file's object, n = -2 .. 2, with the given top-level fields replaced."""
    items = [{"n": n, "lambda": float(n), "a": math.pi} for n in range(-2, 3)]
    return {"alpha": 0.0, "beta": 0.0, "items": items, **fields}


def _with_item(i, **fields):
    obj = _lattice_spectrum()
    obj["items"][i].update(fields)
    return obj


@pytest.mark.parametrize("obj, what", [
    (_lattice_spectrum(items=5), "field 'items' must be a list"),
    (_lattice_spectrum(items=[1, 2]), "item 0 must be an object"),
    (_with_item(2, n="0"), "item 2: field 'n' must be an integer"),
    (_with_item(2, n=0.5), "item 2: field 'n' must be an integer"),
    (_with_item(1, a=True), "item n = -1: field 'a' must be a finite number"),
    (_with_item(3, **{"lambda": 10**400}), "item n = 1: field 'lambda' must be a finite number"),
], ids=["items-not-a-list", "item-not-an-object", "string-n", "fractional-n", "bool-a", "huge-lambda"])
def test_exit_2_on_malformed_items(tmp_path, capsys, obj, what):
    """Each malformed item is a parse error naming the file, never a traceback
    or a silently coerced value."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(CliParseError, match=f"^{re.escape(str(path))}: {what}"):
        parse_spectral_json(str(path))
    rc = _run(["reconstruct", "--spec", path, "--trunc", 2, "--out", tmp_path / "o.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("obj, error", [
    (_with_item(1, a=-1.0), "[ContractError]: norming constant a_-1 = -1.0 <= 0"),
    (_with_item(1, **{"lambda": -2.0}), "[InterlacingError]: eigenvalues not strictly increasing in n"),
])
def test_exit_3_on_well_formed_data_breaking_a_contract(tmp_path, capsys, obj, error):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    rc = _run(["reconstruct", "--spec", path, "--trunc", 2, "--out", tmp_path / "o.csv"])
    assert rc == 3
    assert error in capsys.readouterr().err


def test_exit_3_on_domain_failure(tmp_path):
    # two identical boundary angles is valid JSON but inconsistent data
    spec = tmp_path / "s.json"
    items = [{"n": n, "lambda": float(n), "a": math.pi} for n in range(-3, 4)]
    spec.write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "items": items}))
    rc = _run(["two-spectra", "--spec-a", spec, "--spec-e", spec,
               "--trunc", 2, "--out", tmp_path / "o.json"])
    assert rc == 3


def test_weyl_command(tmp_path):
    out = tmp_path / "m.json"
    rc = _run(["weyl", "--mu", 50.0, "--xmax", 14.0, "--out", out])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert abs(complex(obj["m0"]["re"], obj["m0"]["im"]) - 1j) < 0.05


def test_check_suite_passes(capsys):
    assert _run(["check"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text


def test_append_options_do_not_leak_between_calls(tmp_path):
    """The parser is built once per process; --shift and --gamma lists stay per call."""
    cfgs = []
    for i, (shift, gammas) in enumerate(((["1=0.5", "2=0.25"], [0.5, -0.5]), (["3=0.1"], [1.0]))):
        iso, ev = tmp_path / f"iso{i}.csv", tmp_path / f"evf{i}.csv"
        argv = ["isospectral", "--grid", 256, "--out", iso]
        assert _run(argv + [a for s in shift for a in ("--shift", s)]) == 0
        argv = ["evf", "--grid", 256, "--out", ev]
        assert _run(argv + [a for g in gammas for a in ("--gamma", g)]) == 0
        cfgs.append((json.loads((tmp_path / f"iso{i}.csv.config.json").read_text()),
                     json.loads((tmp_path / f"evf{i}.csv.config.json").read_text())))
        assert cfgs[-1][0]["shift"] == shift and cfgs[-1][1]["gamma"] == gammas


def test_parser_survives_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["evf", "--grid", "256", "--out", str(tmp_path / "bad.csv")])  # no --gamma
    capsys.readouterr()
    out = tmp_path / "spec.json"
    assert _run(["spectrum", "--grid", 256, "--nmin", -1, "--nmax", 1, "--out", out]) == 0
    cfg = json.loads((tmp_path / "spec.json.config.json").read_text())
    assert (cfg["cmd"], cfg["grid"], cfg["nmin"], cfg["nmax"]) == ("spectrum", 256, -1, 1)
    assert [rec["n"] for rec in json.loads(out.read_text())["items"]] == [-1, 0, 1]


def test_two_spectra_window_with_a_gap_exits_3(tmp_path, capsys):
    """Items -3, -1, 0, 1, 3 span [-3, 3] but miss n = -2: a contract failure, as in reconstruct."""
    paths = []
    for name, alpha, ns in (("a.json", 0.0, (-3, -1, 0, 1, 3)), ("e.json", 0.5, range(-3, 4))):
        items = [{"n": n, "lambda": n - alpha / math.pi} for n in ns]
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"alpha": alpha, "beta": 0.0, "items": items}))
    rc = _run(["two-spectra", "--spec-a", paths[0], "--spec-e", paths[1],
               "--trunc", 3, "--out", tmp_path / "o.json"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "ContractError" in err and "n = -2" in err and "Traceback" not in err


# every option of every subcommand, each read by its command
OPTIONS = {
    "spectrum": {"--input", "--alpha", "--beta", "--nmin", "--nmax", "--grid", "--tol", "--out",
                 "--format"},
    "two-spectra": {"--spec-a", "--spec-e", "--trunc", "--nmin", "--nmax", "--out", "--format"},
    "isospectral": {"--input", "--alpha", "--shift", "--grid", "--tol", "--out", "--format"},
    "reconstruct": {"--spec", "--trunc", "--grid", "--out", "--format"},
    "surgery": {"--plan", "--window", "--xmax", "--grid", "--out", "--format"},
    "evf": {"--input", "--beta", "--gamma", "--grid", "--tol", "--out"},
    "weyl": {"--input", "--nu", "--mu", "--xmax", "--grid", "--out"},
    "check": set(),
}


def test_option_surface():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        cmd: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for cmd, sp in sub.choices.items()
    }
    assert got == OPTIONS


@pytest.mark.parametrize("argv", [
    ["two-spectra", "--spec-a", "a.json", "--spec-e", "e.json", "--out", "o.json", "--grid", "512"],
    ["two-spectra", "--spec-a", "a.json", "--spec-e", "e.json", "--out", "o.json", "--tol", "1e-9"],
    ["reconstruct", "--spec", "s.json", "--out", "o.csv", "--tol", "1e-9"],
    ["surgery", "--plan", "p.json", "--out", "o.csv", "--tol", "1e-9"],
    ["surgery", "--plan", "p.json", "--out", "o.csv", "--flavor", "half_bc0"],
    ["evf", "--gamma", "0.5", "--out", "o.csv", "--format", "csv"],
    ["weyl", "--mu", "50", "--out", "o.json", "--tol", "1e-9"],
    ["weyl", "--mu", "50", "--out", "o.json", "--format", "json"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_removed_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_evf_writes_csv_and_weyl_writes_json(tmp_path):
    out = tmp_path / "evf.json"  # the suffix does not choose the format
    assert _run(["evf", "--grid", 256, "--gamma", -0.5, "--gamma", 0.5, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [-0.5, 0.5]
    assert all(set(r) == {"gamma", "lambda", "alpha", "m"} for r in rows)
    out = tmp_path / "m.csv"
    assert _run(["weyl", "--mu", 50.0, "--grid", 1024, "--out", out]) == 0
    assert set(json.loads(out.read_text())["m0"]) == {"re", "im"}


def test_readme_examples_parse():
    """Every diracspec line of README's command-line block parses; none runs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("diracspec ")]
    for argv in lines:
        assert build_parser().parse_args(argv[1:]).cmd == argv[1]
    assert {argv[1] for argv in lines} == set(OPTIONS)
