"""The exit-code contract of `harmfrac.cli.run` under random input.

Every subcommand gets random coefficient and weights files, well-formed or
not, and parameter strings at the edges of their domains.  `run` must
return 0, 1 or 2 and never raise; a run that exits 0 or 1 prints and writes
no number made from nan or inf, and one that exits 2 prints nothing on
stdout and ends with an `error:` line.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from harmfrac.cli import run

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

# Each parameter's values: most in its domain, some at or past its edges.
PARAMS = {
    "--beta": ["0", "-0.0", "0.2", "0.5", "0.999", "5e-324", "1", "nan", "-inf"],
    "--lambda": ["0", "0.5", "1.3", "1e300", "1e308", "1.7976931348623157e308", "nan", "inf", "-1"],
    "--k": ["0", "0.4", "1", "5e-324", "2", "nan", "x"],
    "--nu": ["0", "-0.0", "0.5", "0.9", "0.999", "1", "nan", "inf"],
}
NUMBERS = st.sampled_from(["0", "-0.0", "0.3", "0.5", "0.7", "1", "1e308", "nan", "inf", "-1", "x"])
INDICES = ["0", "1", "2", "7", "1000000", str(10**20), "-1", "2.5"]

magnitudes = st.one_of(
    st.sampled_from([0.0, 1e-300, 0.01, 0.1, 0.5, 1.0, 1e300, 1e308, 1.7976931348623157e308, -0.1]),
    st.floats(min_value=0, allow_infinity=False),
)


def _indices(lo):
    return st.lists(
        st.one_of(st.integers(lo, 12), st.sampled_from([10**6])), unique=True, max_size=4
    ).map(sorted)


@st.composite
def negative_form(draw):
    return {
        "kind": "negative_form",
        "a_abs": [[n, draw(magnitudes)] for n in draw(_indices(2))],
        "b_abs": [[n, draw(magnitudes)] for n in draw(_indices(1))],
    }


@st.composite
def general_form(draw):
    return {
        "kind": "general",
        "a": [[n, draw(magnitudes), draw(magnitudes)] for n in draw(_indices(2))],
        "b": [[n, draw(magnitudes), draw(magnitudes)] for n in draw(_indices(1))],
    }


@st.composite
def weights_doc(draw):
    t = [[n, draw(magnitudes)] for n in draw(_indices(2))]
    s = [[n, draw(magnitudes)] for n in draw(_indices(1))]
    # Half the time t1 makes the weights sum to 1, as `decompose` writes them.
    rest = 1 - sum(w for _, w in t + s)
    return {"t1": rest if draw(st.booleans()) else draw(magnitudes), "t": t, "s": s}


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), magnitudes, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# Two in three files are well-formed coefficient documents; the rest are
# mutated documents or arbitrary JSON or text.
documents = st.one_of(
    negative_form().map(json.dumps),
    general_form().map(json.dumps),
    st.one_of(
        # one entry added to the first list: index 1 where n >= 2 is due,
        # a pair in a triple list, or an index out of order
        st.one_of(negative_form(), general_form(), weights_doc()).map(
            lambda doc: json.dumps(doc).replace("]]", "], [1, 0.5]]", 1)
        ),
        json_values.map(json.dumps),
        st.sampled_from(["", "{", "NaN", '{"kind":"negative_form","a_abs":[[2,1e999]]}']),
    ),
)
weights_files = st.one_of(weights_doc().map(json.dumps), documents)
params = st.fixed_dictionaries(
    {}, optional={flag: st.sampled_from(values) for flag, values in PARAMS.items()}
).map(lambda chosen: [x for pair in chosen.items() for x in pair])
MAX_EXAMPLES = 200
SMALL_GRID = ["--grid-radii", "0.5", "--grid-angles", "8"]


@st.composite
def invocations(draw):
    """(argv, {file name: text}); file names are relative to the work directory."""
    output = draw(st.sampled_from([[], ["--output", "out"]]))
    command = draw(st.sampled_from(
        ["check", "weights", "extremal", "decompose", "combine", "convolve", "eval", "verify"]
    ))
    files = {}
    if command in ("check", "decompose", "combine", "convolve", "eval"):
        files["f1.json"] = draw(documents)
    if command in ("check", "decompose"):
        argv = ["--input", "f1.json", *output]
    elif command == "weights":
        argv = ["--n", draw(st.sampled_from(INDICES)), *output]
    elif command == "extremal":
        argv = [draw(st.sampled_from(["--fn", "--gn"])), draw(st.sampled_from(INDICES)), *output]
    elif command == "combine":
        if draw(st.booleans()):
            files["w.json"] = draw(weights_files)
            argv = ["--weights", "w.json", *output]
        else:
            files["f2.json"] = draw(documents)
            ts = draw(
                st.one_of(
                    st.sampled_from(["0.5,0.5", "0.3,0.7"]),
                    st.lists(NUMBERS, max_size=3).map(",".join),
                )
            )
            argv = ["--inputs", "f1.json", "f2.json", "--ts", ts, *output]
    elif command == "convolve":
        files["f2.json"] = draw(documents)
        alpha = draw(st.sampled_from([[], ["--alpha", draw(NUMBERS)]]))
        argv = ["--input", "f1.json", "--input2", "f2.json", *alpha, *output]
    elif command == "eval":
        argv = ["--input", "f1.json", "--output", "out", *SMALL_GRID]
    else:
        suite = draw(st.sampled_from(["sufficiency", "necessity", "all"]))
        argv = ["--suite", suite, "--cases", "1", "--seed", "3", *SMALL_GRID, *output]
    return [command, *argv, *draw(params)], files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(derandomize=True, deadline=None, max_examples=MAX_EXAMPLES)
@given(invocation=invocations())
def test_run_keeps_the_exit_code_contract(workdir, invocation):
    argv, files = invocation
    for name, text in files.items():
        (workdir / name).write_text(text)
    (workdir / "out").unlink(missing_ok=True)
    argv = [str(workdir / a) if a in files or a == "out" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue().splitlines()[-1]
    else:
        assert not NON_FINITE.search(out.getvalue()), out.getvalue()
        output = workdir / "out"
        if output.exists():
            assert not NON_FINITE.search(output.read_text()), argv
