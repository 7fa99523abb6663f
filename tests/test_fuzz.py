"""The input boundary under fuzzing: the parser, `load` and the CLI.

Text is joined from fragments of the expression grammar (its tokens, some
malformed neighbours of them, and a few characters outside it), so most of
it is nearly well formed.  Every test is derandomized: a run is reproducible.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import assume, event, given, settings, strategies as st

from ctrlorder import ExprError, SystemLoadError, load, parse
from ctrlorder.cli import main

FRAGMENTS = (
    "0", "1", "2", "7", "0.5", ".", "1e3", "e", "E", "9" * 30, "1e-400", "1e400",
    "x1", "x2", "y", "t", "_", "sin", "cos", "exp", "tan",
    "+", "-", "*", "/", "^", "(", ")", ",", " ", "^99999", "^-1", "#", "é",
)
texts = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)


def _rows(cells, count: int):
    return st.lists(cells, min_size=count, max_size=count)


# mostly well-shaped documents whose expressions are fuzzed text
documents = st.fixed_dictionaries(
    {
        "states": st.sampled_from((["x1", "x2"], ["x1"], ["x1", "x1"], ["t", "x2"], [])),
        "inputs": st.sampled_from((1, 2, 0)),
        "f": st.lists(texts, min_size=1, max_size=3),
        "g": st.lists(st.lists(texts, min_size=1, max_size=3), min_size=1, max_size=2),
    },
    optional={
        "cost": st.fixed_dictionaries({"f0": texts, "g0": st.lists(texts, max_size=2)}),
        "K": texts,
    },
)

# well-formed expressions over x1 and x2: every loadable system of these is a CLI input
expressions = st.recursive(
    st.sampled_from(("x1", "x2", "0", "1", "2", "1/2", "3/7", "0.5")),
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(("sin", "cos", "exp")), inner),
        st.builds("({})^{}".format, inner, st.sampled_from("23")),
    ),
    max_leaves=5,
)
systems = st.integers(1, 2).flatmap(
    lambda m: st.fixed_dictionaries(
        {
            "states": st.just(["x1", "x2"]),
            "inputs": st.just(m),
            "f": _rows(expressions, 2),
            "g": _rows(_rows(expressions, 2), m),
        }
    )
)

RUN_BUDGET_S = 10.0  # per CLI run: a run on these small systems takes milliseconds


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(texts)
def test_parse_raises_only_expr_errors(text):
    try:
        parse(text, ("x1", "x2"))
    except ExprError:
        pass


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(documents)
def test_load_raises_only_system_load_errors(document):
    try:
        load(document)
    except SystemLoadError:
        pass


@settings(max_examples=75, derandomize=True, database=None, deadline=None)
@given(systems)
def test_cli_runs_on_loadable_systems_end_in_a_documented_exit_code(document):
    try:
        load(document)
    except SystemLoadError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        point = ["--x0", "0.1,0.2", "--p0", "1,0.5"]
        for argv in (
            ["order", str(path), "--k-max", "3"],
            ["brackets", str(path)],
            ["local-order", str(path), *point, "--k-max", "4"],
            ["simulate", str(path), *point, "--horizon", "0.05", "--out", f"{tmp}/x.csv"],
            ["verify", str(path), "parity", "--k-max", "3"],
            ["verify", str(path), "identities", "--k-max", "3"],
        ):
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            elapsed = time.perf_counter() - started
            event(f"{argv[0]} exit {code}")
            assert 0 <= code <= 5, (argv[0], document, code)
            # exit 5 would be a broken single-input theorem or identity: a bug
            assert argv[0] != "verify" or code != 5, (argv, document)
            assert "Traceback" not in err.getvalue(), (argv[0], document)
            assert elapsed < RUN_BUDGET_S, (argv[0], document, elapsed)
