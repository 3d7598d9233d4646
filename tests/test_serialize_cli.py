import json
import os
import subprocess
import sys

import numpy as np
import pytest

import obliqueframes
from obliqueframes import ParseError, transport
from obliqueframes.cli import main
from obliqueframes.serialize import (
    measure_from_obj,
    parse_fixture,
    serialize_fixture,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

ALL_FIXTURES = [
    ("skew_line_w.json", "subspace"),
    ("skew_line_v.json", "subspace"),
    ("skew_line_frame.json", "frame"),
    ("skew_line_pair.json", "pair"),
    ("skew_line_mu.json", "measure"),
    ("skew_line_nu.json", "measure"),
    ("skew_line_product_coupling.json", "coupling"),
    ("plane.json", "subspace"),
    ("mercedes_benz_frame.json", "frame"),
    ("mercedes_benz_pair.json", "pair"),
    ("mercedes_benz_measure.json", "measure"),
    ("standard_basis_2.json", "frame"),
]


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestRoundTrip:
    @pytest.mark.parametrize("name,kind", ALL_FIXTURES)
    def test_every_shipped_fixture_round_trips_byte_identically(self, name, kind):
        path = fixture(name)
        value = parse_fixture(path, kind)
        with open(path) as fh:
            original = fh.read()
        assert serialize_fixture(value) == original

    def test_seventeen_digit_floats_survive(self, tmp_path):
        mu = measure_from_obj({
            "ambient_dim": 1,
            "points": [[0.1], [np.pi]],
            "weights": [1.0 / 3.0, 2.0 / 3.0],
        })
        path = tmp_path / "mu.json"
        serialize_fixture(mu, str(path))
        back = parse_fixture(str(path), "measure")
        assert back.points[0, 0] == 0.1
        assert back.points[1, 0] == np.pi
        assert back.weights[0] == 1.0 / 3.0


class TestParseErrors:
    def test_missing_weights_field_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 1, "points": [[1.0]]}))
        with pytest.raises(ParseError, match="weights"):
            parse_fixture(str(path), "measure")

    def test_unnormalized_weights_cite_the_invariant(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "ambient_dim": 1,
            "points": [[1.0], [2.0]],
            "weights": [0.5, 0.4],
        }))
        with pytest.raises(ParseError, match="sum"):
            parse_fixture(str(path), "measure")

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            parse_fixture(str(path), "coupling")

    def test_missing_file(self):
        with pytest.raises(ParseError, match="not found"):
            parse_fixture("/nonexistent/mu.json", "measure")

    def test_ragged_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 2,
                                    "basis": [[1.0, 0.0], [0.0]]}))
        with pytest.raises(ParseError, match="ragged"):
            parse_fixture(str(path), "subspace")


def bad_measure(ambient_dim, points=((1.0, 0.0),)):
    return {"ambient_dim": ambient_dim, "points": [list(p) for p in points],
            "weights": [1.0]}


# (verb arguments with "BAD" where the malformed fixture goes, its content,
#  the field the error must name)
MALFORMED_INPUTS = {
    "list_dim_w2": (["w2", "BAD", "skew_line_nu.json"], bad_measure([2]),
                    "ambient_dim"),
    "list_dim_pf_classify": (["pf-classify", "BAD", "plane.json"],
                             bad_measure([2]), "ambient_dim"),
    "null_dim": (["w2", "BAD", "skew_line_nu.json"], bad_measure(None),
                 "ambient_dim"),
    "bool_dim": (["w2", "BAD", "BAD"], bad_measure(True, [[1.0]]),
                 "ambient_dim"),
    "fractional_dim": (["w2", "BAD", "BAD"], bad_measure(1.7, [[1.0]]),
                       "ambient_dim"),
    "zero_dim_empty_points": (["w2", "BAD", "BAD"], bad_measure(0, [[]]),
                              "ambient_dim"),
    "empty_pair_glue": (["glue", "BAD", "BAD"], {"pairs": [[[], [], 1.0]]},
                        "pairs[0].x"),
    "empty_pair_pf_check": (
        ["pf-check", "skew_line_mu.json", "skew_line_nu.json", "BAD"],
        {"pairs": [[[], [], 1.0]]}, "pairs[0].x"),
    "ragged_pair_x": (["glue", "BAD", "BAD"],
                      {"pairs": [[[1, 0], [0, 0], 0.5], [[1], [2, 2], 0.5]]},
                      "pairs[1].x"),
    "ragged_pair_y": (["glue", "BAD", "BAD"],
                      {"pairs": [[[1, 0], [0, 0], 0.5], [[1, 0], [2], 0.5]]},
                      "pairs[1].y"),
}


def run_cli(*argv, out=None):
    args = list(argv)
    if out is not None:
        args = ["--out", str(out)] + args
    return main(args)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestCli:
    def test_check_dual_on_the_skew_line_pair(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("check-dual", fixture("skew_line_pair.json"), out=out)
        assert code == 0
        rep = load_report(out)
        assert rep["is_dual"] is True
        assert rep["residual"] < 1e-12

    def test_potential_on_mercedes_benz(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("potential", fixture("mercedes_benz_pair.json"),
                       "--p", "2", out=out)
        assert code == 0
        rep = load_report(out)
        assert rep["value"] == pytest.approx(2.0, abs=1e-12)
        assert rep["lower_bound"] == pytest.approx(2.0)
        assert rep["saturated"] is True

    def test_w2_of_identical_measures(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("w2", fixture("skew_line_mu.json"),
                       fixture("skew_line_mu.json"), out=out)
        assert code == 0
        rep = load_report(out)
        assert rep["distance"] == 0.0
        assert rep["certificate"]["dual_gap"] <= 1e-9

    def test_frame_info(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("frame-info", fixture("mercedes_benz_frame.json"),
                       out=out) == 0
        rep = load_report(out)
        assert rep["lower_bound"] == pytest.approx(1.5, abs=1e-12)
        assert rep["tight"] is True

    def test_oblique_dual_then_check(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        assert run_cli("oblique-dual", fixture("skew_line_frame.json"),
                       fixture("skew_line_v.json"), out=pair_path) == 0
        out = tmp_path / "r.json"
        assert run_cli("check-dual", str(pair_path), out=out) == 0
        assert load_report(out)["is_dual"] is True

    def test_coherence_emits_signature(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("coherence", fixture("mercedes_benz_pair.json"),
                       out=out) == 0
        rep = load_report(out)
        assert rep["max_off_diagonal_sq"] == pytest.approx(1.0 / 9.0)
        assert rep["signature"] is not None

    def test_etf_lift(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("etf-lift", fixture("mercedes_benz_frame.json"),
                       out=out) == 0
        assert load_report(out)["is_equiangular_tight"] is True

    def test_minimize(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("minimize", fixture("mercedes_benz_frame.json"),
                       fixture("plane.json"), "--seed", "3", out=out) == 0
        rep = load_report(out)
        assert rep["trajectory"][-1] == pytest.approx(2.0, abs=1e-6)

    def test_pf_classify(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("pf-classify", fixture("mercedes_benz_measure.json"),
                       fixture("plane.json"), out=out) == 0
        rep = load_report(out)
        assert rep["is_tight"] is True
        assert rep["bounds"] == pytest.approx([0.5, 0.5])

    def test_pf_dual_and_check(self, tmp_path):
        dual_path = tmp_path / "dual.json"
        assert run_cli("pf-dual", fixture("skew_line_mu.json"),
                       fixture("skew_line_w.json"),
                       fixture("skew_line_v.json"), out=dual_path) == 0
        rep = load_report(dual_path)
        assert rep["dual"]["points"][0] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_pf_check(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("pf-check", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"),
                       fixture("skew_line_product_coupling.json"),
                       out=out) == 0
        rep = load_report(out)
        assert rep["is_dual"] is True
        assert rep["residual"] < 1e-12

    def test_pf_potential(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("pf-potential", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"), "--mode", "general",
                       out=out) == 0
        rep = load_report(out)
        assert rep["value"] == pytest.approx(2.0)
        assert rep["lower_bound"] == pytest.approx(1.0)

    def test_approx_check(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("approx-check", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"),
                       fixture("skew_line_product_coupling.json"),
                       fixture("skew_line_w.json"),
                       fixture("skew_line_v.json"), out=out) == 0
        assert load_report(out)["epsilon_residual"] < 1e-12

    def test_glue_with_identity(self, tmp_path):
        ident = tmp_path / "ident.json"
        nu = parse_fixture(fixture("skew_line_nu.json"), "measure")
        from obliqueframes import identity_coupling
        serialize_fixture(identity_coupling(nu), str(ident))
        out = tmp_path / "r.json"
        assert run_cli("glue", fixture("skew_line_product_coupling.json"),
                       str(ident), out=out) == 0
        assert len(load_report(out)["triples"]) == 2

    def test_interiority_writes_csv(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "trials.csv"
        assert run_cli("interiority", fixture("mercedes_benz_measure.json"),
                       fixture("plane.json"), fixture("plane.json"),
                       "--eps", "0.1", "--trials", "5", "--seed", "1",
                       "--csv", str(csv_path), out=out) == 0
        rep = load_report(out)
        assert rep["failures"] == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,lambda,eps_claimed,eps_actual,pass"
        assert len(lines) == 6

    def test_perturb(self, tmp_path):
        from obliqueframes import Coupling, DiscreteMeasure
        nu = parse_fixture(fixture("skew_line_nu.json"), "measure")
        eta = DiscreteMeasure([[0.05, 0.05], [2.05, 2.05]], [0.5, 0.5])
        pert = Coupling(nu.points, eta.points, [0.5, 0.5])
        eta_path = tmp_path / "eta.json"
        pert_path = tmp_path / "pert.json"
        serialize_fixture(eta, str(eta_path))
        serialize_fixture(pert, str(pert_path))
        out = tmp_path / "r.json"
        assert run_cli("perturb", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"),
                       fixture("skew_line_product_coupling.json"),
                       str(eta_path), str(pert_path),
                       "--eps", "0.1", out=out) == 0
        rep = load_report(out)
        assert rep["epsilon_actual"] <= 0.1

    def test_validation_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{} ")
        assert run_cli("check-dual", str(bad)) == 2

    @pytest.mark.parametrize("argv,content,field", MALFORMED_INPUTS.values(),
                             ids=MALFORMED_INPUTS.keys())
    def test_malformed_fixture_exits_2_with_one_error_line(
            self, tmp_path, capsys, argv, content, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        paths = [str(bad) if a == "BAD" else fixture(a) for a in argv[1:]]
        assert run_cli(argv[0], *paths) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field '" + field + "'")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_hypothesis_violation_exits_3(self, tmp_path):
        from obliqueframes import Coupling, DiscreteMeasure
        nu = parse_fixture(fixture("skew_line_nu.json"), "measure")
        eta = DiscreteMeasure([[1.0, 1.0], [3.0, 3.0]], [0.5, 0.5])
        pert = Coupling(nu.points, eta.points, [0.5, 0.5])
        eta_path = tmp_path / "eta.json"
        pert_path = tmp_path / "pert.json"
        serialize_fixture(eta, str(eta_path))
        serialize_fixture(pert, str(pert_path))
        assert run_cli("perturb", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"),
                       fixture("skew_line_product_coupling.json"),
                       str(eta_path), str(pert_path), "--eps", "0.1") == 3

    def test_nonconvergence_exits_4(self):
        assert run_cli("minimize", fixture("mercedes_benz_frame.json"),
                       fixture("plane.json"), "--max-iters", "1",
                       "--grad-tol", "1e-30") == 4

    def test_internal_consistency_error_exits_5(self, monkeypatch, capsys):
        def disconnected(cost, in_basis):
            m, k = in_basis.shape
            return np.full(m, np.nan), np.full(k, np.nan)

        monkeypatch.setattr(transport, "_tree_duals", disconnected)
        assert run_cli("w2", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json")) == 5
        err = capsys.readouterr().err
        assert err == ("internal consistency check failed: "
                       "basis tree lost connectivity\n")

    def test_glue_mismatch_message_is_independent_of_hash_seed(self, tmp_path):
        from obliqueframes import canonical_dual_measure
        from obliqueframes.gallery import full_space, mercedes_benz_measure

        plane = full_space(2)
        _, gamma = canonical_dual_measure(mercedes_benz_measure(), plane, plane)
        dual_path = tmp_path / "dual.json"
        serialize_fixture(gamma, str(dual_path))
        src = os.path.dirname(os.path.dirname(obliqueframes.__file__))
        runs = []
        for seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            runs.append(subprocess.run(
                [sys.executable, "-m", "obliqueframes", "glue", str(dual_path),
                 fixture("skew_line_product_coupling.json")],
                env=env, capture_output=True, text=True, timeout=120))
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stderr.startswith("error: shared marginal masses")
        assert runs[0].stderr == runs[1].stderr

    def test_dimension_mismatch_exits_2(self):
        assert run_cli("w2", fixture("skew_line_mu.json"),
                       fixture("mercedes_benz_frame.json")) == 2


# Singular-value ratio 1e-8 in R^2: the frame operator's eigenvalue ratio
# 1e-16 lies below the pseudoinverse cutoff 2 * machine epsilon.
ILL_FRAME = {"ambient_dim": 2, "subspace_basis": [[1, 0], [0, 1]],
             "vectors": [[1, 0], [0, 1e-8]]}
ILL_MEASURE = {"ambient_dim": 2, "points": [[1, 0], [0, 1e-8]],
               "weights": [0.5, 0.5]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestIllConditionedInputs:
    """Families whose frame operator S^+ would truncate are non-frames on
    every verb, each reported as one error line with exit 2."""

    def test_frame_info_and_oblique_dual_agree(self, tmp_path, capsys):
        frame = write_json(tmp_path, "f.json", ILL_FRAME)
        assert run_cli("frame-info", frame) == 2
        info_err = capsys.readouterr().err
        assert run_cli("oblique-dual", frame, fixture("plane.json")) == 2
        dual_err = capsys.readouterr().err
        assert info_err == dual_err == (
            "error: invalid frame: vectors span a 1-dimensional space, "
            "claimed dimension is 2\n")

    def test_pf_classify_reports_no_frame(self, tmp_path):
        measure = write_json(tmp_path, "m.json", ILL_MEASURE)
        out = tmp_path / "r.json"
        assert run_cli("pf-classify", measure, fixture("plane.json"),
                       out=out) == 0
        rep = load_report(out)
        assert rep["is_frame"] is False
        assert rep["bounds"] is None

    def test_pf_dual_exits_2(self, tmp_path, capsys):
        measure = write_json(tmp_path, "m.json", ILL_MEASURE)
        assert run_cli("pf-dual", measure, fixture("plane.json"),
                       fixture("plane.json")) == 2
        assert capsys.readouterr().err == (
            "error: the measure is not a probabilistic frame for its subspace\n")

    def test_perturb_on_an_ill_conditioned_pair_exits_2(self, tmp_path, capsys):
        mu = write_json(tmp_path, "mu.json", {
            "ambient_dim": 2, "points": [[1, 0], [0, 1e-9]],
            "weights": [0.5, 0.5]})
        nu = write_json(tmp_path, "nu.json", {
            "ambient_dim": 2, "points": [[2, 0], [0, 2e9]],
            "weights": [0.5, 0.5]})
        graph = write_json(tmp_path, "g.json", {
            "pairs": [[[1, 0], [2, 0], 0.5], [[0, 1e-9], [0, 2e9], 0.5]]})
        ident = write_json(tmp_path, "id.json", {
            "pairs": [[[2, 0], [2, 0], 0.5], [[0, 2e9], [0, 2e9], 0.5]]})
        assert run_cli("perturb", mu, nu, graph, nu, ident,
                       "--eps", "0.1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


L3 = {"ambient_dim": 3, "basis": [[1], [0], [0]]}
M1 = {"ambient_dim": 1, "points": [[1]], "weights": [1]}


class TestDimensionMismatch:
    """Inputs from different ambient spaces exit 2 with one typed error
    line that names both dimensions."""

    @pytest.mark.parametrize("argv,message", [
        (["pf-classify", "skew_line_mu.json", "L3"],
         "rows live in R^2, the subspace in R^3"),
        (["interiority", "skew_line_mu.json", "L3", "L3", "--eps", "0.1"],
         "rows live in R^2, the subspace in R^3"),
        (["pf-potential", "M1", "skew_line_nu.json"],
         "the first measure lives in R^1, the second in R^2"),
        (["approx-check", "skew_line_mu.json", "skew_line_nu.json",
          "skew_line_product_coupling.json", "L3", "L3"],
         "mu, nu, W and V live in R^2, R^2, R^3, R^3"),
    ], ids=["pf-classify", "interiority", "pf-potential", "approx-check"])
    def test_exits_2_naming_both_dimensions(self, tmp_path, capsys, argv,
                                            message):
        paths = {"L3": write_json(tmp_path, "l3.json", L3),
                 "M1": write_json(tmp_path, "m1.json", M1)}
        args = [paths.get(a) or (fixture(a) if a.endswith(".json") else a)
                for a in argv[1:]]
        assert run_cli(argv[0], *args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


SKEW = ("skew_line_mu.json", "skew_line_w.json", "skew_line_v.json")


class TestArgumentRanges:
    @pytest.mark.parametrize("extra", [
        ["--eps", "-1", "--trials", "2"],
        ["--eps", "nan", "--trials", "2"],
        ["--eps", "inf", "--trials", "2"],
        ["--eps", "0.1", "--trials", "-1"],
    ])
    def test_interiority_rejects_out_of_range_numbers(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            run_cli("interiority", *map(fixture, SKEW), *extra)
        assert exc.value.code == 2
        assert "must be finite and >= 0" in capsys.readouterr().err

    def test_interiority_eps_zero_runs_the_exact_case(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("interiority", *map(fixture, SKEW), "--eps", "0",
                       "--trials", "2", out=out) == 0
        assert load_report(out)["failures"] == 0

    def test_perturb_rejects_a_negative_eps(self):
        coupling = fixture("skew_line_product_coupling.json")
        with pytest.raises(SystemExit) as exc:
            run_cli("perturb", fixture("skew_line_mu.json"),
                    fixture("skew_line_nu.json"), coupling,
                    fixture("skew_line_nu.json"), coupling, "--eps", "-0.1")
        assert exc.value.code == 2

    def test_minimize_rejects_a_negative_budget(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("minimize", fixture("mercedes_benz_frame.json"),
                    fixture("plane.json"), "--max-iters", "-1")
        assert exc.value.code == 2

    def test_minimize_with_a_zero_budget(self, tmp_path, capsys):
        frame, plane = fixture("mercedes_benz_frame.json"), fixture("plane.json")
        assert run_cli("minimize", frame, plane, "--max-iters", "0") == 4
        assert capsys.readouterr().err.endswith("after 0 iterations\n")
        out = tmp_path / "r.json"
        assert run_cli("minimize", frame, plane, "--max-iters", "0",
                       "--grad-tol", "1e6", out=out) == 0
        assert load_report(out)["iterations"] == 0


def doubled_mercedes_benz_pair(tmp_path):
    """The Mercedes-Benz pair with its analysis vectors doubled: residual 1."""
    with open(fixture("mercedes_benz_pair.json")) as fh:
        pair = json.load(fh)
    pair["analysis"]["vectors"] = [[2.0 * v for v in row]
                                   for row in pair["analysis"]["vectors"]]
    path = tmp_path / "doubled_pair.json"
    path.write_text(json.dumps(pair))
    return str(path)


class TestOneTolerance:
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("--tol", value, "check-dual",
                    doubled_mercedes_benz_pair(tmp_path))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [ln for ln in captured.err.splitlines() if "argument --tol:" in ln]
        assert len(lines) == 1 and "finite and positive" in lines[0]

    def test_infinite_tol_no_longer_certifies_a_non_dual(self, tmp_path, capsys):
        pair = doubled_mercedes_benz_pair(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli("check-dual", pair, out=out) == 0
        report = load_report(out)
        assert report["is_dual"] is False and report["residual"] > 0.5
        with pytest.raises(SystemExit) as exc:
            run_cli("--tol", "inf", "check-dual", pair)
        assert exc.value.code == 2
        assert "is_dual" not in capsys.readouterr().out

    def test_the_parsed_tol_is_the_tolerance(self):
        from obliqueframes.cli import build_parser
        from obliqueframes.linalg import DEFAULT_TOL, Tolerance

        parser = build_parser()
        frame = fixture("mercedes_benz_frame.json")
        assert parser.parse_args(["frame-info", frame]).tol is DEFAULT_TOL
        assert parser.parse_args(["--tol", "1e-3", "frame-info", frame]).tol \
            == Tolerance(eq_tol=1e-3)

    def test_pf_potential_classifies_the_first_measure_once(self, monkeypatch):
        from obliqueframes import duality, measures

        seen = []
        classify = measures.classify_probabilistic_frame

        def counting(*args, **kwargs):
            seen.append(args[0])
            return classify(*args, **kwargs)

        monkeypatch.setattr(duality, "classify_probabilistic_frame", counting)
        monkeypatch.setattr(measures, "classify_probabilistic_frame", counting)
        assert run_cli("pf-potential", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"), "--mode", "general") == 0
        assert len(seen) == 1


class TestWorkDoneOnce:
    @pytest.fixture
    def match_calls(self, monkeypatch):
        """Every match_atoms call, whether through measures or transport."""
        from obliqueframes import measures, transport

        calls = []
        match_atoms = measures.match_atoms

        def counting(*args):
            calls.append(args[0])
            return match_atoms(*args)

        monkeypatch.setattr(measures, "match_atoms", counting)
        monkeypatch.setattr(transport, "match_atoms", counting)
        return calls

    def test_parsed_coupling_aggregates_each_side_once(self, match_calls):
        from obliqueframes.measures import is_marginal

        gamma = parse_fixture(fixture("skew_line_product_coupling.json"),
                              "coupling")
        assert len(match_calls) == 0
        mu = parse_fixture(fixture("skew_line_mu.json"), "measure")
        assert is_marginal(gamma.x, gamma.weights, mu)

    @pytest.mark.parametrize("argv,calls", [
        # One marginal check per side of the certificate.
        (["pf-check", fixture("skew_line_mu.json"),
          fixture("skew_line_nu.json"),
          fixture("skew_line_product_coupling.json")], 2),
        # The exact dual's two marginal checks, then one glue per trial.
        (["interiority", fixture("mercedes_benz_measure.json"),
          fixture("plane.json"), fixture("plane.json"), "--eps", "0.1",
          "--trials", "16"], 2 + 16),
    ], ids=["pf-check", "interiority"])
    def test_atoms_are_matched_only_where_a_claim_is_checked(
            self, match_calls, argv, calls):
        assert run_cli(*argv) == 0
        assert len(match_calls) == calls

    def test_pf_potential_spans_each_measure_once(self, monkeypatch):
        from obliqueframes import duality

        calls = []
        orthonormal_basis = duality.orthonormal_basis

        def counting(*args):
            calls.append(args[0])
            return orthonormal_basis(*args)

        monkeypatch.setattr(duality, "orthonormal_basis", counting)
        assert run_cli("pf-potential", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"), "--coupling",
                       fixture("skew_line_product_coupling.json")) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("argv", [["--help"], ["w2"], ["--tol", "0", "w2"],
                                      ["no-such-verb"]])
    def test_the_shared_parser_answers_every_call_alike(self, capsys, argv):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            outputs.append((exc.value.code, capsys.readouterr()))
        assert outputs[0] == outputs[1]


class TestMinimizeRanges:
    @pytest.mark.parametrize("step_size", ["nan", "inf"])
    def test_non_finite_step_size_exits_2_at_once(self, step_size):
        # The backtracking line search never shrinks nan or inf below its
        # floor, so without the range check this call does not return.
        src = os.path.dirname(os.path.dirname(obliqueframes.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "obliqueframes", "minimize",
             fixture("mercedes_benz_frame.json"), fixture("plane.json"),
             "--step-size", step_size, "--max-iters", "50"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == (
            f"error: step_size must be finite and > 0, got {step_size}\n")

    @pytest.mark.parametrize("extra,message", [
        (["--step-size", "0"], "step_size must be finite and > 0, got 0.0"),
        (["--step-size", "-1"], "step_size must be finite and > 0, got -1.0"),
        (["--grad-tol", "nan"], "grad_tol must be finite and >= 0, got nan"),
        (["--grad-tol", "-1"], "grad_tol must be finite and >= 0, got -1.0"),
    ])
    def test_out_of_range_settings_exit_2(self, capsys, extra, message):
        assert run_cli("minimize", fixture("mercedes_benz_frame.json"),
                       fixture("plane.json"), "--max-iters", "50", *extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDerivedNotDeclared:
    """A pair's residual is computed from its frames, never read from its
    file, so a forged pair cannot pass as a dual."""

    @pytest.mark.parametrize("argv", [["potential"],
                                      ["potential", "--diagonal"],
                                      ["coherence"]],
                             ids=["potential", "diagonal", "coherence"])
    def test_a_non_dual_pair_exits_2(self, tmp_path, capsys, argv):
        pair = doubled_mercedes_benz_pair(tmp_path)
        assert run_cli(argv[0], pair, *argv[1:]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: pair residual 1.000e+00 exceeds tolerance 1.0e-09\n"

    def test_a_declared_residual_is_recomputed(self, tmp_path):
        from obliqueframes.frames import dual_residual

        with open(fixture("skew_line_pair.json")) as fh:
            obj = json.load(fh)
        obj["residual"] = 0.5
        pair = parse_fixture(write_json(tmp_path, "p.json", obj), "pair")
        assert pair.residual == dual_residual(pair.synthesis, pair.analysis)
        assert pair.residual < 1e-12


def test_cli_uses_no_private_name_of_another_module():
    import ast
    import inspect

    from obliqueframes import cli

    tree = ast.parse(inspect.getsource(cli))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
            else:
                private += [f"{node.module}.{a.name}" for a in node.names
                            if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert modules and private == []
