import json

import pytest

from harmfrac.cli import run

NEG_MEMBER = '{"kind":"negative_form","a_abs":[[2,0.2]],"b_abs":[[1,0.2]]}'
NEG_VIOLATOR = '{"kind":"negative_form","a_abs":[[2,0.8]],"b_abs":[]}'
NEG_BOUNDARY = '{"kind":"negative_form","a_abs":[[2,0.5]],"b_abs":[]}'
GENERAL_MEMBER = '{"kind":"general","a":[[2,-0.2,0.0]],"b":[[1,0.2,0.0]]}'
GENERAL_HEAVY = '{"kind":"general","a":[[2,0.0,0.9]],"b":[]}'

P = ["--beta", "0.5", "--lambda", "0", "--k", "0", "--nu", "0"]

# `eval` output for a two-term-per-part negative_form file at nu = 0, where
# every operator weight is exactly 1.
NEG_FORM_CSV = """\
r,theta,re_E,im_E,jacobian
0.29999999999999999,0,0.76609999999999989,0,0.78833625000000018
0.29999999999999999,0.78539816339744828,0.89185508888532938,-0.082384911114670542,0.86875118631500936
0.29999999999999999,1.5707963267948966,1.0862400000000001,-0.14765999999999999,1.0247062500000004
0.29999999999999999,2.3561944901923448,1.1081449111146706,-0.13390491111467057,1.1266613136849908
0.29999999999999999,3.1415926535897931,1.06142,-2.568574196531659e-17,1.15307625
0.29999999999999999,3.9269908169872414,1.1081449111146706,0.13390491111467054,1.1266613136849908
0.29999999999999999,4.7123889803846897,1.0862400000000001,0.14766000000000001,1.0247062500000004
0.29999999999999999,5.497787143782138,0.89185508888532949,0.082384911114670598,0.86875118631500958
0.90000000000000002,0,0.22885999999999987,0,0.34068824999999991
0.90000000000000002,0.78539816339744828,0.67556526665598826,-0.54059473334401176,0.72685152642382744
0.90000000000000002,1.5707963267948966,1.32816,-0.4429800000000001,1.3154782499999997
0.90000000000000002,2.3561944901923448,1.3244347333440116,-0.10827473334401168,1.4181049735761722
0.90000000000000002,3.1415926535897931,1.1148199999999999,-5.185154547589879e-18,1.3182682500000003
0.90000000000000002,3.9269908169872414,1.3244347333440118,0.10827473334401157,1.4181049735761728
0.90000000000000002,4.7123889803846897,1.32816,0.44297999999999993,1.3154782499999997
0.90000000000000002,5.497787143782138,0.67556526665598848,0.54059473334401176,0.72685152642382789
"""

# `check` on seeded files with both parts, a sparse index near 10^6 and the
# exactly degenerate psi(1) (lambda = 1, k = 0.5), pinned byte for byte: the
# stdout and the report as the per-index weight path printed them.
CHECK_PARAMS = ["--beta", "0.1", "--lambda", "1", "--k", "0.5", "--nu", "0.37"]
CHECK_PINNED = {
    "negative_form": (
        '{"kind": "negative_form", "a_abs": [[13, 0.000278059], [21, 0.000104141], '
        '[32, 4.3429e-05], [39, 1.67661e-05], [999983, 7.88874e-16]], "b_abs": [[1, 0.25], '
        '[14, 0.000299217], [18, 8.78562e-05], [28, 5.13262e-05], [999979, 5.88863e-16]]}',
        """\
verdict: member_iff  deficiency: 0.3904596243581071
  a[13] contributes 0.059173576945095105
  a[21] contributes 0.066953099727647597
  a[32] contributes 0.074440537376639776
  a[39] contributes 0.04564861781190753
  a[999983] contributes 0.058731529300907213
  b[14] contributes 0.065404753025406312
  b[18] contributes 0.035369612496983768
  b[28] contributes 0.059978406443450906
  b[999979] contributes 0.043840242513854676
  b[1] is unconstrained (weight ~ 0)
""",
        '{"verdict": "member_iff", "deficiency": 0.3904596243581071, "per_term": '
        '[[13, "a", 0.059173576945095105], [21, "a", 0.0669530997276476], '
        '[32, "a", 0.07444053737663978], [39, "a", 0.04564861781190753], '
        '[999983, "a", 0.05873152930090721], [14, "b", 0.06540475302540631], '
        '[18, "b", 0.03536961249698377], [28, "b", 0.059978406443450906], '
        '[999979, "b", 0.043840242513854676]], "unconstrained": [1], "tolerance": 1e-12, '
        '"params": {"beta": 0.1, "lambda": 1.0, "k": 0.5, "nu": 0.37}}',
    ),
    "general": (
        '{"kind": "general", "a": [[13, 0.000248034, 0.000125681], '
        '[21, 1.59344e-05, -0.000102915], [32, 2.91426e-05, -3.21992e-05], '
        '[39, -6.24051e-06, -1.55614e-05], [999983, -1.10386e-16, -7.81113e-16]], '
        '"b": [[1, 0.22253, -0.113931], [14, 0.000146491, -0.000260904], '
        '[18, -5.05018e-05, -7.18907e-05], [28, -5.03193e-05, -1.01168e-05], '
        '[999979, 3.96023e-16, -4.35804e-16]]}',
        """\
verdict: member_sufficient  deficiency: 0.3904596868900978
  a[13] contributes 0.059173489480545828
  a[21] contributes 0.066953267791179938
  a[32] contributes 0.074440568446180647
  a[39] contributes 0.04564853871171673
  a[999983] contributes 0.058731548170625508
  b[14] contributes 0.065404642426317355
  b[18] contributes 0.03536959570573036
  b[28] contributes 0.059978438184737734
  b[999979] contributes 0.043840224192868177
  b[1] is unconstrained (weight ~ 0)
""",
        '{"verdict": "member_sufficient", "deficiency": 0.3904596868900978, "per_term": '
        '[[13, "a", 0.05917348948054583], [21, "a", 0.06695326779117994], '
        '[32, "a", 0.07444056844618065], [39, "a", 0.04564853871171673], '
        '[999983, "a", 0.05873154817062551], [14, "b", 0.06540464242631736], '
        '[18, "b", 0.03536959570573036], [28, "b", 0.059978438184737734], '
        '[999979, "b", 0.04384022419286818]], "unconstrained": [1], "tolerance": 1e-12, '
        '"params": {"beta": 0.1, "lambda": 1.0, "k": 0.5, "nu": 0.37}}',
    ),
}


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


@pytest.fixture
def member_file(tmp_path):
    path = tmp_path / "member.json"
    path.write_text(NEG_MEMBER)
    return str(path)


class TestCheck:
    def test_negative_member_exit_zero(self, member_file, capsys):
        assert run(["check", "--input", member_file, *P]) == 0
        assert "member_iff" in capsys.readouterr().out

    def test_general_member(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(GENERAL_MEMBER)
        assert run(["check", "--input", str(path), *P]) == 0
        assert "member_sufficient" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc,verdict",
        [(NEG_VIOLATOR, "non_member"), (NEG_BOUNDARY, "boundary"), (GENERAL_HEAVY, "inconclusive")],
    )
    def test_uncertified_exit_one(self, tmp_path, capsys, doc, verdict):
        path = tmp_path / "f.json"
        path.write_text(doc)
        assert run(["check", "--input", str(path), *P]) == 1
        assert verdict in capsys.readouterr().out

    def test_beta_one_is_usage_error(self, member_file):
        assert run(["check", "--input", member_file, "--beta", "1"]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["check", "--input", str(tmp_path / "nope.json"), *P]) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind":"general","a":[[2,0.1,0.0],[2,0.1,0.0]],"b":[]}')
        assert run(["check", "--input", str(path), *P]) == 2

    def test_json_report(self, member_file, tmp_path):
        out = tmp_path / "report.json"
        run(["check", "--input", member_file, "--output", str(out), *P])
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "member_iff"
        assert doc["deficiency"] == pytest.approx(0.1)
        assert doc["params"]["beta"] == 0.5

    @pytest.mark.parametrize("kind", sorted(CHECK_PINNED))
    def test_pinned_output(self, tmp_path, capsys, kind):
        text, stdout, report = CHECK_PINNED[kind]
        path, out = tmp_path / "f.json", tmp_path / "report.json"
        path.write_text(text)
        assert run(["check", "--input", str(path), "--output", str(out), *CHECK_PARAMS]) == 0
        assert capsys.readouterr().out == stdout
        written = out.read_text()
        assert "\n" not in written
        assert json.loads(written) == json.loads(report)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"kind":"negative_form","a_abs":[[2,NaN]],"b_abs":[]}',
            '{"kind":"negative_form","a_abs":[],"b_abs":[[2,Infinity]]}',
            '{"kind":"general","a":[[2,0.1,NaN]],"b":[]}',
            '{"kind":"general","a":[],"b":[[true,0.1,0.0]]}',
            '{"kind":"negative_form","a_abs":[[2,"0.1"]],"b_abs":[]}',
        ],
    )
    def test_non_finite_or_mistyped_file(self, tmp_path, capsys, doc):
        path = tmp_path / "f.json"
        path.write_text(doc)
        assert run(["check", "--input", str(path), *P]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_param(self, member_file, capsys, lam):
        assert run(["check", "--input", member_file, "--beta", "0.5", "--lambda", lam]) == 2
        assert_one_error_line(capsys)


class TestWeights:
    def test_hand_values(self, capsys):
        assert run(["weights", "--n", "2", "--lambda", "1", "--k", "1", "--nu", "0"]) == 0
        out = capsys.readouterr().out
        assert "phi(2) = 4" in out

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2


class TestExtremal:
    def test_round_trip_boundary(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert run(["extremal", "--fn", "2", "--output", str(out), *P]) == 0
        capsys.readouterr()
        assert run(["check", "--input", str(out), *P]) == 1
        assert "boundary" in capsys.readouterr().out

    def test_coanalytic(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["extremal", "--gn", "2", "--output", str(out), "--beta", "0.5", "--lambda", "1"]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "negative_form"
        assert doc["b_abs"] == [[2, 0.25]] or doc["b_abs"][0][1] == pytest.approx(0.25)

    def test_univalence_warning(self, capsys):
        assert run(["extremal", "--gn", "1", "--beta", "0"]) == 0
        assert "univalence" in capsys.readouterr().out

    def test_requires_exactly_one(self):
        assert run(["extremal", *P]) == 2
        assert run(["extremal", "--fn", "2", "--gn", "1", *P]) == 2

    def test_degenerate_weight(self):
        assert run(["extremal", "--gn", "1", "--beta", "0.5", "--lambda", "0.5"]) == 2


class TestDecomposeCombine:
    def test_round_trip(self, member_file, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        assert run(["decompose", "--input", member_file, "--output", str(wpath), *P]) == 0
        doc = json.loads(wpath.read_text())
        assert doc["t1"] == pytest.approx(0.2)
        out = tmp_path / "back.json"
        assert run(["combine", "--weights", str(wpath), "--output", str(out), *P]) == 0
        back = json.loads(out.read_text())
        orig = json.loads(NEG_MEMBER)
        for key in ("a_abs", "b_abs"):
            assert len(back[key]) == len(orig[key])
            for (n1, m1), (n2, m2) in zip(back[key], orig[key]):
                assert n1 == n2 and m1 == pytest.approx(m2, abs=1e-12)

    def test_convex_combination(self, tmp_path):
        p1 = tmp_path / "f1.json"
        p2 = tmp_path / "f2.json"
        p1.write_text('{"kind":"negative_form","a_abs":[[2,0.2]],"b_abs":[]}')
        p2.write_text('{"kind":"negative_form","a_abs":[[2,0.5]],"b_abs":[]}')
        out = tmp_path / "mix.json"
        assert (
            run(
                [
                    "combine",
                    "--inputs",
                    str(p1),
                    str(p2),
                    "--ts",
                    "0.5,0.5",
                    "--output",
                    str(out),
                    *P,
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["a_abs"][0][1] == pytest.approx(0.35)

    def test_decompose_rejects_general(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(GENERAL_MEMBER)
        assert run(["decompose", "--input", str(path), *P]) == 2

    def test_combine_needs_input(self):
        assert run(["combine", *P]) == 2

    def test_combine_missing_weights_file(self, tmp_path, capsys):
        assert run(["combine", "--weights", str(tmp_path / "nope.json"), *P]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"t": [[2, 0.4]], "s": []}',
            '{"t1": "0.6", "t": [[2, 0.4]]}',
            '{"t1": 0.6, "t": [[2, "0.4"]]}',
            '{"t1": 0.6, "t": [["2", 0.4]]}',
            '{"t1": 0.6, "t": 5}',
            '{"t1": 0.6, "t": [[2, NaN]]}',
            '[0.6]',
            'not json',
        ],
    )
    def test_combine_bad_weights_file(self, tmp_path, capsys, doc):
        path = tmp_path / "w.json"
        path.write_text(doc)
        assert run(["combine", "--weights", str(path), *P]) == 2
        assert_one_error_line(capsys)


class TestConvolve:
    def test_product(self, tmp_path):
        p1 = tmp_path / "f1.json"
        p2 = tmp_path / "f2.json"
        p1.write_text('{"kind":"negative_form","a_abs":[[2,0.2]],"b_abs":[]}')
        p2.write_text('{"kind":"negative_form","a_abs":[[2,0.5]],"b_abs":[]}')
        out = tmp_path / "conv.json"
        assert run(["convolve", "--input", str(p1), "--input2", str(p2), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["a_abs"][0][1] == pytest.approx(0.1)

    def test_closure_check(self, tmp_path, capsys):
        p1 = tmp_path / "f1.json"
        p1.write_text('{"kind":"negative_form","a_abs":[[2,0.2]],"b_abs":[]}')
        code = run(
            ["convolve", "--input", str(p1), "--input2", str(p1), "--alpha", "0.7", "--beta", "0"]
        )
        assert code == 0
        assert "closure at alpha=0.7" in capsys.readouterr().out

    def test_closure_hypothesis_violation(self, tmp_path):
        p1 = tmp_path / "f1.json"
        p2 = tmp_path / "f2.json"
        p1.write_text('{"kind":"negative_form","a_abs":[[2,0.25]],"b_abs":[]}')
        p2.write_text('{"kind":"negative_form","a_abs":[[2,0.9]],"b_abs":[]}')
        code = run(
            ["convolve", "--input", str(p1), "--input2", str(p2), "--alpha", "0.8", "--beta", "0"]
        )
        assert code == 2


class TestEval:
    def test_identity_grid(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"kind":"general","a":[],"b":[]}')
        out = tmp_path / "grid.csv"
        code = run(
            [
                "eval",
                "--input",
                str(f),
                "--output",
                str(out),
                "--grid-radii",
                "0.25,0.5",
                "--grid-angles",
                "8",
                *P,
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,theta,re_E,im_E,jacobian"
        assert len(lines) == 1 + 2 * 8
        for line in lines[1:]:
            r, theta, re_e, im_e, jac = line.split(",")
            assert float(re_e) == 1.0
            assert float(jac) == 1.0

    def test_known_row(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"kind":"general","a":[[2,-0.2,0.0]],"b":[]}')
        out = tmp_path / "grid.csv"
        run(
            [
                "eval",
                "--input",
                str(f),
                "--output",
                str(out),
                "--grid-radii",
                "0.5",
                "--grid-angles",
                "8",
                *P,
            ]
        )
        first = out.read_text().strip().splitlines()[1].split(",")
        assert float(first[0]) == 0.5 and float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(0.9)

    def test_17_digit_serialization(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"kind":"general","a":[[2,-0.123456789012345678,0.0]],"b":[]}')
        out = tmp_path / "grid.csv"
        run(
            ["eval", "--input", str(f), "--output", str(out), "--grid-radii", "0.9",
             "--grid-angles", "8", *P]
        )
        row = out.read_text().strip().splitlines()[1].split(",")
        # round-trips through 17 significant digits exactly
        assert float(row[2]) == 1 - 0.12345678901234568 * 0.9

    def test_negative_form_csv_unchanged(self, tmp_path):
        # pinned byte for byte: weighting the series once per function must
        # not move a digit of the per-point output
        f = tmp_path / "f.json"
        f.write_text(
            '{"kind":"negative_form","a_abs":[[2,0.15],[3,0.05]],"b_abs":[[1,0.1],[2,0.04]]}'
        )
        out = tmp_path / "grid.csv"
        params = ["--beta", "0.2", "--lambda", "1.3", "--k", "0.4", "--nu", "0"]
        argv = ["eval", "--input", str(f), "--output", str(out), *params]
        assert run([*argv, "--grid-radii", "0.3,0.9", "--grid-angles", "8"]) == 0
        assert out.read_text() == NEG_FORM_CSV


class TestVerify:
    def test_all_suites(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(
            ["verify", "--suite", "all", "--cases", "5", "--seed", "1", "--output", str(out), *P]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "sufficiency: 5/5" in text
        assert "necessity: 5/5" in text
        docs = json.loads(out.read_text())
        assert [d["suite"] for d in docs] == ["sufficiency", "necessity"]

    def test_bad_cases(self):
        assert run(["verify", "--cases", "0", *P]) == 2

    @pytest.mark.parametrize(
        "grid",
        [
            ["--grid-angles", "0"],
            ["--grid-angles", "4"],
            ["--grid-radii", ""],
            ["--grid-radii", "0.1,nan,0.5"],
            ["--grid-radii", "0.5,inf"],
        ],
    )
    def test_bad_grid_is_usage_error(self, capsys, grid):
        assert run(["verify", "--cases", "1", *grid, *P]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    def test_bad_grid_eval(self, member_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        argv = ["eval", "--input", member_file, "--output", str(out), "--grid-angles", "0", *P]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
