import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

import obliqueframes
from obliqueframes import ParseError, transport
from obliqueframes.approx import (ApproxDualReport, InteriorityReport,
                                  InteriorityTrial)
from obliqueframes.cli import main
from obliqueframes.measures import MeasureFrameReport
from obliqueframes.potentials import PotentialReport
from obliqueframes.serialize import (
    _emit,
    _format_float,
    dumps_canonical,
    measure_from_obj,
    parse_fixture,
    serialize_fixture,
    write_interiority_csv,
)
from obliqueframes.transport import TransportCertificate

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


# A JSON integer that json parses exactly but no double can hold.
HUGE = 10 ** 400

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 2.0,
               -3.0, 1e16, 1e22, np.pi]

# Every number slot of every fixture schema: (kind, the fixture with a given
# value in the slot, the field a parse error must name).
NUMBER_SLOTS = {
    "points": ("measure", lambda v: {"ambient_dim": 2, "points": [[1, v]],
                                     "weights": [1]}, "points"),
    "weights": ("measure", lambda v: {"ambient_dim": 1, "points": [[1], [2]],
                                      "weights": [0.5, v]}, "weights"),
    "basis": ("subspace", lambda v: {"ambient_dim": 2, "basis": [[1], [v]]},
              "basis"),
    "subspace_basis": ("frame", lambda v: {
        "ambient_dim": 1, "subspace_basis": [[v]], "vectors": [[1]]},
        "subspace_basis"),
    "vectors": ("frame", lambda v: {
        "ambient_dim": 2, "subspace_basis": [[1, 0], [0, 1]],
        "vectors": [[1, 0], [0, 1], [v, 1]]}, "vectors"),
    "pair_x": ("coupling", lambda v: {
        "pairs": [[[1], [1], 0.5], [[v], [1], 0.5]]}, "pairs[1].x"),
    "pair_y": ("coupling", lambda v: {
        "pairs": [[[1], [1], 0.5], [[1], [1, v], 0.5]]}, "pairs[1].y"),
    "pair_weight": ("coupling", lambda v: {
        "pairs": [[[1], [1], 0.5], [[1], [1], v]]}, "pairs[1].weight"),
}


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


    def test_negative_zero_survives(self, tmp_path):
        mu = measure_from_obj({"ambient_dim": 2,
                               "points": [[-0.0, 1.0], [0.0, -0.0]],
                               "weights": [0.5, 0.5]})
        text = serialize_fixture(mu)
        assert "[-0, 1]" in text
        path = tmp_path / "mu.json"
        path.write_text(text)
        back = parse_fixture(str(path), "measure")
        assert serialize_fixture(back) == text
        assert np.signbit(back.points).tolist() == [[True, False],
                                                    [False, True]]

    @pytest.mark.parametrize("dim", ["-0", "2.0", "2e0"])
    def test_integer_fields_still_refuse_floats(self, tmp_path, dim):
        path = tmp_path / "mu.json"
        path.write_text('{"ambient_dim": %s, "points": [[1, 0]], '
                        '"weights": [1]}' % dim)
        with pytest.raises(ParseError, match="'ambient_dim'"):
            parse_fixture(str(path), "measure")


class TestLeafRows:
    """A list of Python floats is written in one pass; it must read exactly
    as the per-number writer would write it."""

    @staticmethod
    def per_leaf(row):
        return "[" + ", ".join(_format_float(v) for v in row) + "]\n"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from(EDGE_FLOATS), min_size=1))
    @example(EDGE_FLOATS)
    def test_a_float_row_is_written_as_its_leaves(self, row):
        text = dumps_canonical(row)
        assert text == dumps_canonical(tuple(row)) == self.per_leaf(row)
        # parse_int=float keeps the sign of "-0", which an int 0 would drop.
        back = json.loads(text, parse_int=float)
        assert np.array(back).view(np.uint64).tolist() == \
            np.array(row).view(np.uint64).tolist()

    def test_integral_floats_are_written_as_integers(self):
        assert dumps_canonical([2.0, -0.0, 1e16, 1e22]) == \
            "[2, -0, 10000000000000000, 1e+22]\n"

    @pytest.mark.parametrize("value,text", [
        ([1, 2.5, True, np.float64(3)], "[1, 2.5, true, 3]\n"),
        ([np.float64(0.1), 0.1], "[0.10000000000000001, 0.10000000000000001]\n"),
        ([1.0, None], "[1, null]\n"),
        ([], "[]\n"),
        ((), "[]\n"),
        ([[1.0, 2.0], []], "[\n  [1, 2],\n  []\n]\n"),
    ])
    def test_other_lists_are_written_as_before(self, value, text):
        assert dumps_canonical(value) == text

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2])
    def test_a_non_finite_leaf_is_refused(self, bad, where):
        row = [0.5, 1.0, 2.0]
        row[where] = bad
        for value in (row, tuple(row), np.array([[1.0, 2.0, 3.0], row])):
            with pytest.raises(ValueError, match="non-finite"):
                dumps_canonical(value)

    def test_a_non_finite_report_exits_2(self, monkeypatch, capsys):
        from obliqueframes import potentials
        monkeypatch.setattr(potentials, "etf_lift", lambda frame, tol: (
            np.array([[1.0, np.inf], [0.0, 1.0]]), False))
        assert run_cli("etf-lift", fixture("mercedes_benz_frame.json")) == 2
        assert capsys.readouterr() == (
            "", "error: cannot serialize non-finite numbers\n")


class TestFloatBlocks:
    """A 2-D float array is written from one row template; it must read
    exactly as its nested lists would be written."""

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2,
                                              min_side=0, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)
                      | st.sampled_from(EDGE_FLOATS)),
           st.integers(0, 3))
    @example(np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]), 1)
    def test_a_float_block_is_written_as_its_lists(self, a, indent):
        assert _emit(a, indent) == _emit(a.tolist(), indent)

    @given(hnp.arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                      elements=st.floats(-1e3, 1e3)),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_a_non_finite_block_is_refused(self, a, bad, data):
        a[data.draw(st.integers(0, a.shape[0] - 1)),
          data.draw(st.integers(0, a.shape[1] - 1))] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _emit(a, 0)

    @pytest.mark.parametrize("a", [np.arange(6).reshape(2, 3),
                                   np.array([0.5, -0.0]),
                                   np.zeros((0, 2)), np.zeros((2, 0))])
    def test_other_arrays_are_written_as_their_lists(self, a):
        assert _emit(a, 1) == _emit(a.tolist(), 1)


def coupling_schema(gamma):
    """A coupling in its documented schema, as plain lists."""
    return {"pairs": [[x, y, w] for x, y, w in zip(
        gamma.x.tolist(), gamma.y.tolist(), gamma.weights.tolist())]}


def tricoupling_schema(tri):
    """A tricoupling in its documented schema, as plain lists."""
    return {"triples": [[x, y, z, w] for x, y, z, w in zip(
        tri.x.tolist(), tri.y.tolist(), tri.z.tolist(), tri.weights.tolist())]}


# Where a typed value sits in a report: its indent is the writer's input.
PLACES = {
    "top": lambda v: v,
    "dict": lambda v: {"report": {"coupling": v}},
    "list3": lambda v: [[[v]]],
}

RECORD_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from(EDGE_FLOATS + [1.0, 1e17]))


@st.composite
def record_parts(draw, count, weights):
    """count coordinate blocks of one shape (m, n), m and n in 1..4, and m
    weights."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(RECORD_FLOATS, min_size=n, max_size=n)
    return ([np.array(draw(st.lists(row, min_size=m, max_size=m)))
             for _ in range(count)]
            + [np.array(draw(st.lists(weights, min_size=m, max_size=m)),
                        dtype=float)])


class TestRecordWriter:
    """Couplings and tricouplings are written record by record from one
    format template; the bytes must be those of their schema written as
    plain lists, at every depth."""

    @given(record_parts(2, st.integers(1, 5)), st.sampled_from(sorted(PLACES)))
    @example([np.array([[-0.0]]), np.array([[5e-324]]), np.array([1.0])],
             "list3")
    def test_a_coupling_is_written_as_its_schema(self, parts, place):
        *blocks, mass = parts
        gamma = transport.Coupling(*blocks, mass / mass.sum())
        wrap = PLACES[place]
        assert serialize_fixture(wrap(gamma)) == \
            dumps_canonical(wrap(coupling_schema(gamma)))

    @given(record_parts(3, RECORD_FLOATS), st.sampled_from(sorted(PLACES)))
    @example([np.array([[1.7976931348623157e308, 1e17]]),
              np.array([[-1.7976931348623157e308, -0.0]]),
              np.array([[5e-324, 1.0]]), np.array([1.0])], "dict")
    @example([np.empty((0, 2))] * 3 + [np.empty(0)], "list3")
    def test_a_tricoupling_is_written_as_its_schema(self, parts, place):
        tri = transport.TriCoupling(*parts)
        wrap = PLACES[place]
        assert serialize_fixture(wrap(tri)) == \
            dumps_canonical(wrap(tricoupling_schema(tri)))

    def test_integral_floats_in_a_record(self):
        gamma = transport.Coupling([[1.0, 1e17]], [[-0.0, 2.0]], [1.0])
        assert serialize_fixture(gamma) == (
            '{\n  "pairs": [\n    [\n      [1, 1e+17],\n      [-0, 2],\n'
            '      1\n    ]\n  ]\n}\n')

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["x", "y", "z", "weights"])
    def test_a_non_finite_tricoupling_is_refused(self, bad, field):
        # TriCoupling does not check finiteness, so the writer must.
        parts = {"x": [[0.0, 1.0]], "y": [[1.0, 2.0]], "z": [[2.0, 3.0]],
                 "weights": [1.0]}
        parts[field] = [[0.0, bad]] if field != "weights" else [bad]
        tri = transport.TriCoupling(**parts)
        for place in PLACES.values():
            with pytest.raises(ValueError,
                               match="^cannot serialize non-finite numbers$"):
                serialize_fixture(place(tri))


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

    @pytest.mark.parametrize("bad", [True, "1", None, HUGE],
                             ids=["true", "string", "null", "huge"])
    @pytest.mark.parametrize("kind,make,field", NUMBER_SLOTS.values(),
                             ids=NUMBER_SLOTS.keys())
    def test_a_non_number_names_its_field(self, tmp_path, kind, make, field,
                                          bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make(bad)))
        with pytest.raises(ParseError, match=re.escape(f"field '{field}'")):
            parse_fixture(str(path), kind)


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
    "huge_point": (["w2", "BAD", "skew_line_nu.json"],
                   bad_measure(2, [[HUGE, 0]]), "points"),
    "huge_weight": (["w2", "BAD", "skew_line_nu.json"],
                    {"ambient_dim": 2, "points": [[1, 0]], "weights": [HUGE]},
                    "weights"),
    "huge_basis": (["pf-classify", "skew_line_mu.json", "BAD"],
                   {"ambient_dim": 2, "basis": [[1], [HUGE]]}, "basis"),
    "huge_pair_x": (["pf-check", "skew_line_mu.json", "skew_line_nu.json",
                     "BAD"], {"pairs": [[[HUGE, 0], [1, 0], 1]]},
                    "pairs[0].x"),
    "huge_pair_y": (["pf-check", "skew_line_mu.json", "skew_line_nu.json",
                     "BAD"], {"pairs": [[[1, 0], [1, -HUGE], 1]]},
                    "pairs[0].y"),
    "huge_pair_weight": (["pf-check", "skew_line_mu.json", "skew_line_nu.json",
                          "BAD"], {"pairs": [[[1, 0], [1, 0], HUGE]]},
                         "pairs[0].weight"),
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

    def test_the_glue_report_is_canonical(self, tmp_path, capsys):
        from obliqueframes import identity_coupling, product_coupling
        mu = parse_fixture(fixture("skew_line_mu.json"), "measure")
        nu = parse_fixture(fixture("skew_line_nu.json"), "measure")
        xy, yz = str(tmp_path / "xy.json"), str(tmp_path / "yz.json")
        serialize_fixture(product_coupling(mu, nu), xy)
        serialize_fixture(identity_coupling(nu), yz)
        assert run_cli("glue", xy, yz) == 0
        text = capsys.readouterr().out
        assert serialize_fixture(json.loads(text)) == text
        weights = [w for *_, w in json.loads(text)["triples"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-15)

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

    def test_interiority_counts_a_violating_trial(self, tmp_path,
                                                  monkeypatch):
        from obliqueframes import approx
        monkeypatch.setattr(approx, "spectral_norm", lambda _: 1.0)
        out = tmp_path / "r.json"
        csv_path = tmp_path / "trials.csv"
        assert run_cli("interiority", fixture("mercedes_benz_measure.json"),
                       fixture("plane.json"), fixture("plane.json"),
                       "--eps", "0.1", "--trials", "3", "--seed", "0",
                       "--csv", str(csv_path), out=out) == 0
        assert load_report(out)["failures"] == 3
        rows = csv_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[-1] == "0" for row in rows)

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

    def test_perturb_refuses_a_residual_above_eps(self, tmp_path, capsys,
                                                  monkeypatch):
        from obliqueframes import Coupling, DiscreteMeasure, approx
        nu = parse_fixture(fixture("skew_line_nu.json"), "measure")
        eta = DiscreteMeasure([[0.05, 0.05], [2.05, 2.05]], [0.5, 0.5])
        eta_path = tmp_path / "eta.json"
        pert_path = tmp_path / "pert.json"
        serialize_fixture(eta, str(eta_path))
        serialize_fixture(Coupling(nu.points, eta.points, [0.5, 0.5]),
                          str(pert_path))
        monkeypatch.setattr(approx, "spectral_norm", lambda _: 1.0)
        assert run_cli("perturb", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"),
                       fixture("skew_line_product_coupling.json"),
                       str(eta_path), str(pert_path), "--eps", "0.1") == 5
        assert capsys.readouterr() == ("", (
            "internal consistency check failed: certified residual "
            "1.000e+00 exceeds eps = 1.000e-01\n"))

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


def scaled_mercedes_benz_pair(tmp_path, factor=2.0):
    """The Mercedes-Benz pair with its analysis vectors scaled by factor:
    residual |factor - 1| (1 when doubled)."""
    with open(fixture("mercedes_benz_pair.json")) as fh:
        pair = json.load(fh)
    pair["analysis"]["vectors"] = [[factor * v for v in row]
                                   for row in pair["analysis"]["vectors"]]
    path = tmp_path / "scaled_pair.json"
    path.write_text(json.dumps(pair))
    return str(path)


class TestOneTolerance:
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("--tol", value, "check-dual",
                    scaled_mercedes_benz_pair(tmp_path))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [ln for ln in captured.err.splitlines() if "argument --tol:" in ln]
        assert len(lines) == 1 and "finite and positive" in lines[0]

    def test_infinite_tol_no_longer_certifies_a_non_dual(self, tmp_path, capsys):
        pair = scaled_mercedes_benz_pair(tmp_path)
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

    @pytest.fixture
    def classify_calls(self, monkeypatch):
        """Every classify_probabilistic_frame call, whichever module makes it."""
        from obliqueframes import duality, measures

        calls = []
        classify = measures.classify_probabilistic_frame

        def counting(*args, **kwargs):
            calls.append(args[0])
            return classify(*args, **kwargs)

        for module in (duality, measures):
            monkeypatch.setattr(module, "classify_probabilistic_frame", counting)
        return calls

    def test_pf_potential_classifies_no_measure(self, classify_calls):
        # The bounds come with the span, from the same decomposition.
        assert run_cli("pf-potential", fixture("skew_line_mu.json"),
                       fixture("skew_line_nu.json"), "--mode", "general") == 0
        assert len(classify_calls) == 0

    def test_interiority_classifies_mu_once_and_each_trial_once(
            self, classify_calls, monkeypatch):
        # mu is classified once.  The 16 triangle trials are one chunk: one
        # stacked certification of their first probes, which all land
        # inside the ball, so no W2 solve runs, and one stacked frame test,
        # one measure per trial.
        from obliqueframes import approx

        certified, framed, solves = [], [], []
        certify, frame_spectrum = approx._certify_identity, approx._frame_spectrum

        def certifying(cost, *args):
            certified.append(len(cost))
            return certify(cost, *args)

        def framing(weights, points, W, tol):
            framed.append(points.shape)
            return frame_spectrum(weights, points, W, tol)

        monkeypatch.setattr(approx, "_certify_identity", certifying)
        monkeypatch.setattr(approx, "_frame_spectrum", framing)
        monkeypatch.setattr(transport, "solve_transport",
                            lambda *args, **kwargs: solves.append(args))
        assert run_cli("interiority", fixture("mercedes_benz_measure.json"),
                       fixture("plane.json"), fixture("plane.json"),
                       "--eps", "0.1", "--trials", "16") == 0
        assert len(classify_calls) == 1
        assert certified == [16]
        assert framed == [(16, 3, 2)]
        assert solves == []

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
        # The exact dual's two marginal checks; trials glue by atom index.
        (["interiority", fixture("mercedes_benz_measure.json"),
          fixture("plane.json"), fixture("plane.json"), "--eps", "0.1",
          "--trials", "16"], 2),
    ], ids=["pf-check", "interiority"])
    def test_atoms_are_matched_only_where_a_claim_is_checked(
            self, match_calls, argv, calls):
        assert run_cli(*argv) == 0
        assert len(match_calls) == calls

    def test_interiority_trials_glue_and_build_no_coupling(self, monkeypatch):
        # The dual's graph coupling is the one coupling an interiority run
        # builds; a trial reads its plan as a flow matrix.
        from obliqueframes import approx

        glued, built = [], []
        glue = transport.glue
        post_init = transport.Coupling.__post_init__

        def gluing(*args):
            glued.append(args)
            return glue(*args)

        def building(self):
            built.append(self)
            post_init(self)

        for module in (approx, transport):
            monkeypatch.setattr(module, "glue", gluing)
        monkeypatch.setattr(transport.Coupling, "__post_init__", building)
        assert run_cli("interiority", fixture("mercedes_benz_measure.json"),
                       fixture("plane.json"), fixture("plane.json"),
                       "--eps", "0.1", "--trials", "16") == 0
        assert len(glued) == 0
        assert len(built) == 1

    def test_pf_potential_spans_each_measure_once(self, monkeypatch):
        from obliqueframes import duality

        calls = []
        factor_span = duality.factor_span

        def counting(*args):
            calls.append(args[0])
            return factor_span(*args)

        monkeypatch.setattr(duality, "factor_span", counting)
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


GRAD_TOL_ROWS = [
    (["--grad-tol", "nan"], "grad_tol must be finite and >= 0, got nan"),
    (["--grad-tol", "-1"], "grad_tol must be finite and >= 0, got -1.0"),
]


class TestMinimizeRanges:
    # Explicit ids: these rows keep the test names they are known by.
    @pytest.mark.parametrize("extra,message", GRAD_TOL_ROWS, ids=[
        f"extra{i}-{message}" for i, (_, message) in enumerate(GRAD_TOL_ROWS, 2)])
    def test_out_of_range_settings_exit_2(self, capsys, extra, message):
        assert run_cli("minimize", fixture("mercedes_benz_frame.json"),
                       fixture("plane.json"), "--max-iters", "50", *extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOverflowingArguments:
    """Orders and distances past the double range exit 2 with one error
    line and no report, instead of a traceback or exit 5."""

    @pytest.mark.parametrize("argv", [
        ["potential", "mercedes_benz_pair.json", "--p", "inf"],
        ["potential", "mercedes_benz_pair.json", "--p", "inf", "--diagonal"],
        ["potential", "mercedes_benz_pair.json", "--p", "2100"],
        ["minimize", "mercedes_benz_frame.json", "plane.json", "--p", "inf"],
    ])
    def test_potential_order_out_of_range(self, capsys, argv):
        args = [fixture(a) if a.endswith(".json") else a for a in argv]
        assert run_cli(*args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: potential order p must lie in (0, 1024]")
        assert err.count("\n") == 1

    # A frame on R^2 whose 1000th powers of mixed inner products overflow.
    WIDE_FRAME = {"ambient_dim": 2, "subspace_basis": [[1, 0], [0, 1]],
                  "vectors": [[10, 0], [0, 0.1], [1, 1], [3, -2]]}

    def test_minimize_with_an_overflowing_start(self, tmp_path, capsys):
        frame = write_json(tmp_path, "f.json", self.WIDE_FRAME)
        assert run_cli("minimize", frame, fixture("plane.json"),
                       "--p", "1000") == 2
        assert capsys.readouterr() == (
            "", "error: the order-1000 potential overflows a double\n")

    # The suite turns a RuntimeWarning into an error, so these runs also
    # check that no overflow warning escapes the descent.
    @pytest.mark.parametrize("p,seed,code,err", [
        ("16", "3", 0, ""),
        ("300", "1", 4, "did not converge: line search stalled with "
                        "gradient norm inf"),
    ])
    def test_minimize_fails_overflowing_trials(self, tmp_path, capsys,
                                               p, seed, code, err):
        frame = write_json(tmp_path, "f.json", self.WIDE_FRAME)
        assert run_cli("minimize", frame, fixture("plane.json"),
                       "--p", p, "--seed", seed) == code
        assert capsys.readouterr().err.startswith(err)

    def test_interiority_with_overflowing_distances(self, capsys):
        assert run_cli("interiority", fixture("mercedes_benz_measure.json"),
                       fixture("plane.json"), fixture("plane.json"),
                       "--eps", "1e200", "--trials", "2") == 2
        assert capsys.readouterr() == (
            "", "error: transport cost contains non-finite entries\n")

    def test_w2_with_overflowing_distances(self, tmp_path, capsys):
        far = tmp_path / "far.json"
        far.write_text(json.dumps({"ambient_dim": 1, "points": [[0.0], [1e200]],
                                   "weights": [0.5, 0.5]}))
        assert run_cli("w2", str(far), str(far)) == 2
        assert capsys.readouterr() == (
            "", "error: transport cost contains non-finite entries\n")


class TestDerivedNotDeclared:
    """A pair's residual is computed from its frames, never read from its
    file, so a forged pair cannot pass as a dual."""

    @pytest.mark.parametrize("argv", [["potential"],
                                      ["potential", "--diagonal"],
                                      ["coherence"]],
                             ids=["potential", "diagonal", "coherence"])
    def test_a_non_dual_pair_exits_2(self, tmp_path, capsys, argv):
        pair = scaled_mercedes_benz_pair(tmp_path)
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


class TestOneDualDecision:
    """check-dual, potential and coherence read one rule: a pair is a dual
    exactly when its residual is within --tol."""

    @pytest.mark.parametrize("tol,is_dual", [("1e-5", True), ("1e-7", False)])
    def test_check_dual_agrees_with_the_verbs_that_need_a_dual(
            self, tmp_path, capsys, tol, is_dual):
        pair = scaled_mercedes_benz_pair(tmp_path, 1.0 + 1e-6)
        assert run_cli("--tol", tol, "check-dual", pair) == 0
        report = json.loads(capsys.readouterr().out)
        assert 1e-7 < report["residual"] < 1e-5
        assert report["is_dual"] is is_dual
        for verb in ("potential", "coherence"):
            code = run_cli("--tol", tol, verb, pair)
            out, err = capsys.readouterr()
            assert (code == 2) is (not is_dual)
            if code == 2:
                assert out == ""
                assert err == (f"error: pair residual {report['residual']:.3e}"
                               f" exceeds tolerance {float(tol):.1e}\n")

    @pytest.mark.parametrize("verb,what", [("pf-potential", "certificate"),
                                           ("perturb", "dual certificate")])
    def test_a_coupling_certificate_names_its_tolerance(
            self, tmp_path, capsys, verb, what):
        # nu and its coupling stretched by 1%: F - pi = 0.01 [[1, 1], [0, 0]].
        nu = write_json(tmp_path, "nu.json", {
            "ambient_dim": 2, "points": [[0, 0], [2.02, 2.02]],
            "weights": [0.5, 0.5]})
        gamma = write_json(tmp_path, "g.json", {
            "pairs": [[[1, 0], [0, 0], 0.5], [[1, 0], [2.02, 2.02], 0.5]]})
        ident = write_json(tmp_path, "id.json", {
            "pairs": [[[0, 0], [0, 0], 0.5], [[2.02, 2.02], [2.02, 2.02], 0.5]]})
        mu = fixture("skew_line_mu.json")
        argv = {"pf-potential": [mu, nu, "--coupling", gamma],
                "perturb": [mu, nu, gamma, nu, ident, "--eps", "0.1"]}[verb]
        assert run_cli(verb, *argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {what} residual 1.414e-02 exceeds tolerance "
                       "1.0e-09\n")


class TestIoFailures:
    """A path the CLI cannot read or write exits 2 with one error line and
    nothing on stdout."""

    def assert_one_error_line(self, capsys, *names):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in names)

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        assert run_cli("check-dual", fixture("skew_line_pair.json"),
                       out=target) == 2
        self.assert_one_error_line(capsys, str(target))
        assert not target.parent.exists()

    def test_csv_in_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "t.csv"
        assert run_cli("interiority", *map(fixture, SKEW), "--eps", "0.1",
                       "--trials", "2", "--csv", str(target)) == 2
        self.assert_one_error_line(capsys, str(target))

    def test_a_directory_as_a_fixture(self, capsys):
        assert run_cli("check-dual", FIXTURES) == 2
        self.assert_one_error_line(capsys, "Is a directory")


# Every verb's report on the shipped fixtures, keyed by verb: its arguments
# (ETA, PERT and IDENT are written by report_inputs) and its ordered
# top-level keys.  Adding a field to a report dataclass changes the keys.
POTENTIAL_KEYS = ["p", "value", "lower_bound", "gap", "saturated",
                  "saturation_tol"]
REPORT_KEYS = {
    "frame-info": (["mercedes_benz_frame.json"],
                   ["ambient_dim", "num_vectors", "subspace_dim",
                    "frame_operator", "lower_bound", "upper_bound", "tight",
                    "parseval"]),
    "oblique-dual": (["skew_line_frame.json", "skew_line_v.json"],
                     ["synthesis", "analysis", "residual"]),
    "check-dual": (["skew_line_pair.json"], ["is_dual", "residual"]),
    "potential": (["mercedes_benz_pair.json"], POTENTIAL_KEYS),
    "coherence": (["mercedes_benz_pair.json"],
                  ["max_off_diagonal_sq", "welch_bound", "diagonal_constant",
                   "saturated", "mixed_gram", "signature"]),
    "etf-lift": (["mercedes_benz_frame.json"],
                 ["lifted", "is_equiangular_tight"]),
    "minimize": (["mercedes_benz_frame.json", "plane.json"],
                 ["pair", "trajectory", "iterations"]),
    "pf-classify": (["mercedes_benz_measure.json", "plane.json"],
                    ["second_moment", "frame_operator", "is_frame", "bounds",
                     "is_tight", "is_parseval"]),
    "pf-dual": (["mercedes_benz_measure.json", "plane.json", "plane.json"],
                ["dual", "coupling"]),
    "pf-check": (["skew_line_mu.json", "skew_line_nu.json",
                  "skew_line_product_coupling.json"], ["is_dual", "residual"]),
    "pf-potential": (["skew_line_mu.json", "skew_line_nu.json"],
                     POTENTIAL_KEYS),
    "w2": (["skew_line_mu.json", "skew_line_nu.json"],
           ["distance", "certificate", "coupling"]),
    "glue": (["skew_line_product_coupling.json", "IDENT"], ["triples"]),
    "approx-check": (["skew_line_mu.json", "skew_line_nu.json",
                      "skew_line_product_coupling.json", "skew_line_w.json",
                      "skew_line_v.json"],
                     ["epsilon_residual", "consistency_bound"]),
    "perturb": (["skew_line_mu.json", "skew_line_nu.json",
                 "skew_line_product_coupling.json", "ETA", "PERT",
                 "--eps", "0.1"],
                ["lambda", "a_lower", "epsilon_claimed", "epsilon_actual",
                 "coupling"]),
    "interiority": (["mercedes_benz_measure.json", "plane.json", "plane.json",
                     "--eps", "0.1", "--trials", "2"],
                    ["eps", "trials", "failures", "max_epsilon_actual",
                     "frame_bound_violations"]),
}


class TestReportSchemas:
    @pytest.fixture
    def report_inputs(self, tmp_path):
        from obliqueframes import Coupling, DiscreteMeasure, identity_coupling

        nu = parse_fixture(fixture("skew_line_nu.json"), "measure")
        eta = DiscreteMeasure([[0.05, 0.05], [2.05, 2.05]], [0.5, 0.5])
        paths = {"IDENT": identity_coupling(nu), "ETA": eta,
                 "PERT": Coupling(nu.points, eta.points, [0.5, 0.5])}
        for name, value in paths.items():
            paths[name] = str(tmp_path / f"{name}.json")
            serialize_fixture(value, paths[name])
        return paths

    def test_every_verb_has_pinned_keys(self):
        import argparse

        from obliqueframes.cli import build_parser

        verbs = next(a.choices for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
        assert set(REPORT_KEYS) == set(verbs)

    @pytest.mark.parametrize("verb", REPORT_KEYS)
    def test_top_level_keys_in_order(self, capsys, report_inputs, verb):
        argv, keys = REPORT_KEYS[verb]
        args = [report_inputs.get(a)
                or (fixture(a) if a.endswith(".json") else a) for a in argv]
        assert run_cli(verb, *args) == 0
        assert list(json.loads(capsys.readouterr().out)) == keys


def w2_pin_pair(seed: int):
    """Two 24-atom measures in R^4 for the pinned w2 reports.

    Coordinates are multiples of 2^-10 and weights of 1/1024, so every
    cost, flow, potential and certificate sum is exact in floating point
    and the report bytes do not depend on summation order or BLAS.  Seeds
    10 and 11 draw the atoms from a small integer lattice, where many
    costs and reduced costs tie.
    """
    rng = np.random.default_rng([seed, 19])
    measures = []
    for _ in range(2):
        if seed >= 10:
            points = rng.integers(-2, 3, size=(24, 4)).astype(float)
        else:
            points = np.round(1024.0 * rng.standard_normal((24, 4))) / 1024.0
        mass = 1 + rng.multinomial(1000, np.full(24, 1.0 / 24.0))
        measures.append(obliqueframes.DiscreteMeasure(points, mass / 1024.0))
    return measures


# sha256 of each seed's w2 report: a change in any pivot choice, in
# 'iterations' or in one byte the writer emits shows here.
W2_REPORT_SHA256 = {
    0: "b9c0d9f7c19d87aec0e47dfb4a3824b87c4744728dd6115953309241720abf2a",
    1: "5096e5bbe01ae5a718af4e49903f82809d78cda8df51f1c9e8a7404e604e0f20",
    2: "18368a7f3621b88e1ce3c6c11c8fb7c001ae24ada0b6e29acd169b0833013f11",
    3: "1419af619b5115f30314cf938b6fbd85eecae2af3279dc4404a456733eedbd91",
    4: "398d3fa474f73b46cec65866099c2b6fde881b070b72dc51197442dfc2c8fa0f",
    5: "77501d8f50e8c6135cab9c3a9f108e6b684c53c39ee19097ff6a03963208f1a5",
    6: "3eac8265e6b83f76e0a4a490fd63f1b02d17c022655552b0e7b3f5443f131788",
    7: "40754f951c901cc85d98b02f0884aa80011362c05628643f9bdd85e1492ec212",
    8: "70dec86de30df0541f6f47b6e3c990b6eb414b7f8214b4270f332795830cf45a",
    9: "7cf7c32ab7b5865042ac54842d5503ac210875f7ea5ba1409a2f0f81802f8e2e",
    10: "360395530dd8c779807a99d61274cdf76f76ef3c81ded9d0f856c3d08d59be0f",
    11: "e2cad2bd3a558cdbf7f03e9d0d58663e02cb17ce3b4699105e1a8d2df4f5b09c",
}


class TestPinnedW2Reports:
    @pytest.mark.parametrize("seed", sorted(W2_REPORT_SHA256))
    def test_the_w2_report_bytes(self, tmp_path, capsys, seed):
        paths = [str(tmp_path / f"{name}.json") for name in ("mu", "nu")]
        for path, measure in zip(paths, w2_pin_pair(seed)):
            serialize_fixture(measure, path)
        assert main(["w2", *paths]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == \
            W2_REPORT_SHA256[seed]


def interiority_pin_argv(tmp_path, case: str) -> list[str]:
    """The interiority call of one pinned case, its inputs written out.

    'oblique12' is 12 seeded atoms on a plane of R^3 at eps = 2.0, where
    the sampler's bisection probes pivot.
    """
    if case.startswith("triangle"):
        inputs = [fixture("mercedes_benz_measure.json"), fixture("plane.json"),
                  fixture("plane.json")]
        flags = ["--eps", "0.1", "--trials", "16", "--seed", case[-1]]
    elif case == "skew-lines":
        inputs = [fixture(f"skew_line_{name}.json") for name in ("mu", "w", "v")]
        flags = ["--eps", "0.5", "--trials", "16", "--seed", "0"]
    else:
        from obliqueframes.gallery import (random_admissible_pair,
                                           random_measure_on)

        rng = np.random.default_rng([12, 17])
        W, V = random_admissible_pair(rng, 3, 2)
        mu = random_measure_on(rng, W, 12)
        inputs = [str(tmp_path / f"{name}.json") for name in ("mu", "W", "V")]
        for path, value in zip(inputs, (mu, W, V)):
            serialize_fixture(value, path)
        flags = ["--eps", "2.0", "--trials", "3", "--seed", "5"]
    return ["interiority", *inputs, *flags]


# sha256 of each case's interiority stdout and --csv file: a change in one
# trial's bits shows here.
INTERIORITY_REPORT_SHA256 = {
    "oblique12": (
        "86200814ee972b1f0f029aedc69aa8e686d0b8a24e28d2ff8138f5ef9726c563",
        "7783e71982ca4901583cb2e7dd80bed87f926b86201f8d5b7968d08ddbd61074"),
    "skew-lines": (
        "ea753be77a45692c2dd19690e4eb08a00590687c869e5023356a5454828556b7",
        "0d4fd764dcaf0293881c63b3e481bc1304ab17cbb14bd1f0fa5058b74a6e69de"),
    "triangle-seed0": (
        "97ef59b4f1ce3c0da2abe20aa8f197f6f5a7368ae26811087c7d933bd48b5714",
        "c09fa13baa25fbcd283742b4ce90d1a8511f9a8cd97a574457b6227843885708"),
    "triangle-seed1": (
        "97ef59b4f1ce3c0da2abe20aa8f197f6f5a7368ae26811087c7d933bd48b5714",
        "2780acdda005433909eb36ad1ab9842926a7a68490c95f652a8b8d1de44bff93"),
}


class TestPinnedInteriorityReports:
    @pytest.mark.parametrize("case", sorted(INTERIORITY_REPORT_SHA256))
    def test_the_interiority_report_bytes(self, tmp_path, capsys, monkeypatch,
                                          case):
        solve = transport.solve_transport
        pivots = []

        def counting(*args, **kwargs):
            flows, cert = solve(*args, **kwargs)
            pivots.append(cert.iterations)
            return flows, cert

        monkeypatch.setattr(transport, "solve_transport", counting)
        csv_path = tmp_path / "trials.csv"
        argv = interiority_pin_argv(tmp_path, case)
        assert main([*argv, "--csv", str(csv_path)]) == 0
        digests = (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
                   hashlib.sha256(csv_path.read_bytes()).hexdigest())
        assert digests == INTERIORITY_REPORT_SHA256[case]
        assert any(pivots) == (case == "oblique12")


class TestReportDataclasses:
    """serialize writes a report dataclass as its fields, in declaration
    order, each value through the same canonical rules as a dict's."""

    @pytest.mark.parametrize("report,expected", [
        (PotentialReport(p=2.0, value=2.5, lower_bound=2.0, gap=0.5,
                         saturated=False),
         '{\n  "p": 2,\n  "value": 2.5,\n  "lower_bound": 2,\n  "gap": 0.5,\n'
         '  "saturated": false,\n  "saturation_tol": 1e-08\n}\n'),
        (MeasureFrameReport(second_moment=1.0, frame_operator=np.eye(2) / 2,
                            is_frame=True, bounds=(0.5, 0.5), is_tight=True,
                            is_parseval=False),
         '{\n  "second_moment": 1,\n  "frame_operator": [\n    [0.5, 0],\n'
         '    [0, 0.5]\n  ],\n  "is_frame": true,\n  "bounds": [0.5, 0.5],\n'
         '  "is_tight": true,\n  "is_parseval": false\n}\n'),
        (TransportCertificate(cost=1.5, dual_gap=0.0, iterations=3),
         '{\n  "cost": 1.5,\n  "dual_gap": 0,\n  "iterations": 3\n}\n'),
        (ApproxDualReport(epsilon_residual=0.25, consistency_bound=0.125),
         '{\n  "epsilon_residual": 0.25,\n  "consistency_bound": 0.125\n}\n'),
    ], ids=["PotentialReport", "MeasureFrameReport", "TransportCertificate",
            "ApproxDualReport"])
    def test_fields_in_declaration_order(self, report, expected):
        assert serialize_fixture(report) == expected

    def test_a_typed_value_inside_a_report_uses_its_schema(self):
        gamma = parse_fixture(fixture("skew_line_product_coupling.json"),
                              "coupling")
        pairs = [[x, y, w] for x, y, w in zip(gamma.x.tolist(),
                                              gamma.y.tolist(),
                                              gamma.weights.tolist())]
        assert serialize_fixture({"coupling": gamma}) == \
            dumps_canonical({"coupling": {"pairs": pairs}})

    def test_an_interiority_report_from_the_experiment(self):
        from obliqueframes.approx import interiority_experiment
        from obliqueframes.gallery import full_space, mercedes_benz_measure

        R2 = full_space(2)
        report = interiority_experiment(mercedes_benz_measure(), R2, R2,
                                        eps=0.1, trials=1, rng_seed=0)
        record = json.loads(serialize_fixture(report))["records"][0]
        assert record["frame_bound_ok"] is True

    def test_the_interiority_csv_bytes(self, tmp_path):
        trial = InteriorityTrial(trial=0, lam=0.1, eps_claimed=0.2,
                                 eps_actual=1.0, passed=True,
                                 frame_bound_ok=True)
        path = tmp_path / "t.csv"
        write_interiority_csv(str(path), InteriorityReport(
            eps=0.1, trials=1, failures=0, max_epsilon_actual=1.0,
            records=(trial,)))
        assert path.read_bytes() == (
            b"trial,lambda,eps_claimed,eps_actual,pass\r\n"
            b"0,0.10000000000000001,0.20000000000000001,1,1\r\n")
