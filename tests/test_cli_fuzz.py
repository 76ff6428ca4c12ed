"""Hostile values for every numeric flag of every ``gnar`` subcommand.

Each numeric flag (integers, floats and the number lists --s, --alpha and
--beta) takes each of nan, inf, -inf, 0, -1, 1e308, -0.0 and the empty
string on a small command that otherwise runs (the ``fit`` flags once more
with ``--method egls``), and each size bound of ``cli._AT_MOST`` takes its
bound + 1.  The one-flag cases run once more on a second input set: a
graph with an isolated node, and a panel with whole missing dates,
scattered missing cells and a node whose last two weeks are blank.  A
seeded sample of flag pairs, two flags of one command set at once, runs on
both sets.  The cases are enumerated or drawn from a fixed seed, and run
``cli.main`` in this process on inputs of a few nodes and weeks, so none of
them allocates at scale.  Each must end in one of three ways:

- exit 0, every file it wrote parsing strictly and holding no infinity;
- exit 1, with exactly one ``error:`` line on stderr and no file written;
- exit 2, with argparse's usage message and no file written.

None may print a traceback or let a numpy warning through;
``DataCorrectionWarning`` from ``data weekly`` is documented output.
"""

import argparse
import csv
import datetime
import io
import itertools
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from gnarlib import cli
from gnarlib.datasets import irish_county_towns_path
from gnarlib.geo_graph import Graph, read_graph_json
from gnarlib.panel import DataCorrectionWarning, TimeSeriesPanel, read_wide_csv, write_wide_csv

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308", "-0.0", ""]

DAY0 = datetime.date(2020, 3, 2)

# A command per leaf that exits 0 as written; {i} holds the inputs and {o}
# receives every output.  ``network build`` takes the kind that reads the flag.
_KNN = "network build --kind knn --k 3 --points {i}/pts.csv --out {o}/g.json"
BASE = {
    "network build": {"--k": _KNN, "--seed": _KNN,
                      "--d-max": "network build --kind dnn --d-max 80 --points {i}/pts.csv"
                                 " --out {o}/g.json",
                      "--n": "network build --kind complete --n 4 --out {o}/g.json"},
    "network summarize": "network summarize --graph {i}/g.json --brg-samples 5 --out {o}/s.csv",
    "data ingest": "data ingest --csv {i}/long.csv --out {o}/w.csv",
    "data weekly": "data weekly --panel {i}/daily.csv --out {o}/w.csv",
    "data smooth": "data smooth --panel {i}/panel.csv --window 3 --start 2000-02-07"
                   " --end 2000-05-01 --out {o}/s.csv",
    "data diff": "data diff --panel {i}/panel.csv --out {o}/d.csv",
    "data phases": "data phases --panel {i}/panel.csv --spec {i}/spec.json --out {o}/p.csv",
    "data boxcox": "data boxcox --panel {i}/panel.csv --out {o}/b.csv",
    "fit": "fit --panel {i}/panel.csv --graph {i}/g.json --p 1 --s 1"
           " --residuals-out {o}/r.csv --out {o}/f.json",
    "select": "select --panel {i}/panel.csv --graph {i}/g.json --pmax 2 --smax 1 --out {o}/rep",
    "forecast": "forecast --panel {i}/panel.csv --graph {i}/g.json --p 1 --s 1 --holdout 3"
                " --out-dir {o}",
    "simulate": "simulate --graph {i}/g.json --p 1 --s 1 --alpha 0.3 --beta 0.2 --T 30"
                " --sigma 0.5 --refit --out-dir {o}",
    "diagnose moran": "diagnose moran --panel {i}/panel.csv --graph {i}/g.json --R 20"
                      " --out {o}/m",
    "diagnose ks": "diagnose ks --panel {i}/panel.csv --out {o}/ks.json",
    "diagnose ljungbox": "diagnose ljungbox --panel {i}/panel.csv --max-lag 5 --out {o}/lb.json",
    "baseline ar": "baseline ar --panel {i}/panel.csv --pmax 2 --holdout 3 --out-dir {o}",
}


def _leaves(parser, names=()):
    """(subcommand name, its parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*names, name))
            return
    yield " ".join(names), parser


def _numeric_flags():
    """(subcommand, flag) for every option that parses a number or a list of them."""
    return [(name, action.option_strings[-1])
            for name, parser in _leaves(cli.build_parser()) for action in parser._actions
            if action.type is not None and action.type is not cli._ISO_DATE]


FLAGS = _numeric_flags()


def _base(name, flag):
    base = BASE[name]
    return (base[flag] if isinstance(base, dict) else base).split(" ")


def _with(argv, flag, value):
    """argv with ``flag`` set to ``value`` (as ``--flag=value``, so that a
    value such as -inf is not read as an option)."""
    if flag in argv:
        k = argv.index(flag)
        argv = argv[:k] + argv[k + 2:]
    return [*argv, f"{flag}={value}"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_inputs")
    towns = Path(irish_county_towns_path()).read_text().splitlines()
    (d / "pts.csv").write_text("\n".join(towns[:9]) + "\n")           # 8 towns
    (d / "long.csv").write_text("date,node,value\n" + "".join(
        f"{DAY0 + datetime.timedelta(days=k)},{node},{k * (j + 1)}\n"
        for k in range(21) for j, node in enumerate("ab")))
    # b's count falls in week 3: a DataCorrectionWarning unless --tolerance covers it
    (d / "daily.csv").write_text("date,a,b\n" + "".join(
        f"{DAY0 + datetime.timedelta(days=k)},{k},{10 if k == 14 else 2 * k}\n"
        for k in range(28)))
    (d / "spec.json").write_text(json.dumps({"name": "x",
                                             "intervals": [["2000-01-10", "2000-05-01"]]}))
    for argv in (_KNN.format(i=d, o=d),
                 f"simulate --graph {d}/g.json --p 1 --s 1 --alpha 0.3 --beta 0.3 --T 40"
                 f" --sigma 1 --init-mean 5 --seed 3 --out-dir {d}/sim"):
        assert cli.main(argv.split(" ")) == 0
    (d / "panel.csv").write_bytes((d / "sim" / "panel.csv").read_bytes())
    return d


@pytest.fixture(scope="module")
def gapped_inputs(inputs, tmp_path_factory):
    """The first set's files, except a graph with an isolated node and a
    gapped panel on it."""
    d = tmp_path_factory.mktemp("fuzz_gapped")
    for name in ("pts.csv", "long.csv", "daily.csv", "spec.json"):
        (d / name).write_bytes((inputs / name).read_bytes())
    g = read_graph_json(inputs / "g.json")
    (d / "g.json").write_text(json.dumps(Graph((*g.labels, "Isolated"), g.edge_array).to_json()))
    panel = read_wide_csv(inputs / "panel.csv")
    rng = np.random.default_rng(5)
    values = np.vstack([panel.values, 5.0 + rng.normal(size=panel.n_times)])
    values[:, [12, 13, 27]] = np.nan                        # whole missing dates
    values[rng.integers(g.n, size=6), rng.integers(panel.n_times, size=6)] = np.nan
    values[1, -2:] = np.nan                                 # a blank tail
    write_wide_csv(TimeSeriesPanel((*g.labels, "Isolated"), panel.dates, values),
                   d / "panel.csv")
    return d


def test_every_numeric_flag_has_a_base_command():
    for name, flag in FLAGS:
        assert name in BASE and (not isinstance(BASE[name], dict) or flag in BASE[name])
    assert {flag for _, flag in FLAGS} >= {"--" + n.replace("_", "-") for n in cli._AT_MOST}


def _outcome(argv, capfd):
    """Run ``argv``: its exit code, stderr lines and warnings."""
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    _, err = capfd.readouterr()
    return code, err.splitlines(), [w for w in caught if w.category is not DataCorrectionWarning]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _assert_whole_and_finite(path):
    data = path.read_bytes()
    assert b"\r" not in data, path
    if path.suffix == ".json":
        json.loads(data.decode(), parse_constant=_reject_constant)
        return
    lines = data.decode().splitlines(keepends=True)
    body = "".join(itertools.dropwhile(lambda line: line.startswith("# "), lines))
    header, *rows = csv.reader(io.StringIO(body, newline=""), strict=True)
    assert all(len(row) == len(header) for row in rows), path
    assert not {"inf", "-inf", "nan"} & {cell for row in rows for cell in row}, path


def _assert_clean_end(code, err, caught, out):
    assert not caught, [str(w.message) for w in caught]
    assert not any("Traceback" in line for line in err), err
    files = [p for p in out.rglob("*") if p.is_file()]
    if code == 0:
        assert all(line.startswith(("warning: ", "note: ")) for line in err), err
        assert files
        for path in files:
            _assert_whole_and_finite(path)
    elif code == 1:
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not files, files
    else:
        assert code == 2 and err[0].startswith("usage: gnar"), (code, err)
        assert not files, files


@pytest.mark.parametrize("name, flag, value", [(name, flag, value) for name, flag in FLAGS
                                               for value in VALUES])
def test_hostile_value_ends_cleanly(inputs, tmp_path, capfd, name, flag, value):
    out = tmp_path / "o"
    argv = [a.format(i=inputs, o=out) for a in _with(_base(name, flag), flag, value)]
    _assert_clean_end(*_outcome(argv, capfd), out)


@pytest.mark.parametrize("flag, value", [(flag, value) for name, flag in FLAGS if name == "fit"
                                         for value in VALUES])
def test_hostile_value_ends_cleanly_under_egls(inputs, tmp_path, capfd, flag, value):
    # the fit cases once more through the EGLS path: VAR covariance, whitening
    out = tmp_path / "o"
    argv = [a.format(i=inputs, o=out)
            for a in _with([*_base("fit", flag), "--method", "egls"], flag, value)]
    _assert_clean_end(*_outcome(argv, capfd), out)


@pytest.mark.parametrize("dest, bound", sorted(cli._AT_MOST.items()))
def test_size_flag_one_past_its_bound_is_refused(inputs, tmp_path, capfd, dest, bound):
    # checked before any input is read, so bound + 1 allocates nothing
    flag = "--" + dest.replace("_", "-")
    name = next(name for name, f in FLAGS if f == flag)
    out = tmp_path / "o"
    argv = [a.format(i=inputs, o=out) for a in _with(_base(name, flag), flag, bound + 1)]
    code, err, caught = _outcome(argv, capfd)
    _assert_clean_end(code, err, caught, out)
    assert code == 1 and err == [f"error: {flag} must be <= {bound}, got {bound + 1}"]


@pytest.mark.parametrize("name, flag, value", [(name, flag, value) for name, flag in FLAGS
                                               for value in VALUES])
def test_hostile_value_ends_cleanly_on_gapped_inputs(gapped_inputs, tmp_path, capfd,
                                                     name, flag, value):
    out = tmp_path / "o"
    argv = [a.format(i=gapped_inputs, o=out) for a in _with(_base(name, flag), flag, value)]
    _assert_clean_end(*_outcome(argv, capfd), out)


# Pair values: the hostile ones and two small valid ones, so that one flag
# can pass the parser while the other is hostile, or both can pass.
PAIR_VALUES = [*VALUES, "1", "2"]
PAIRS_PER_FLAG_PAIR = 2

# The runs that score the gapped panel's blank tail with a two-week holdout:
# the second node then has no scored entry in the window.
TAIL_PAIRS = [("forecast", "--holdout", "2", "--s", "0"),
              ("baseline ar", "--holdout", "2", "--pmax", "2")]


def _pairs():
    """For each two numeric flags of one command, a seeded sample of value pairs."""
    rng = random.Random(23)
    grid = list(itertools.product(PAIR_VALUES, repeat=2))
    by_name: dict = {}
    for name, flag in FLAGS:
        by_name.setdefault(name, []).append(flag)
    return [(name, f1, v1, f2, v2) for name, flags in by_name.items()
            for f1, f2 in itertools.combinations(flags, 2)
            for v1, v2 in rng.sample(grid, PAIRS_PER_FLAG_PAIR)] + TAIL_PAIRS


PAIRS = _pairs()


@pytest.mark.parametrize("input_set", ["inputs", "gapped_inputs"])
@pytest.mark.parametrize("name, flag1, value1, flag2, value2", PAIRS)
def test_hostile_pair_ends_cleanly(request, tmp_path, capfd, input_set,
                                   name, flag1, value1, flag2, value2):
    d, out = request.getfixturevalue(input_set), tmp_path / "o"
    argv = _with(_with(_base(name, flag1), flag1, value1), flag2, value2)
    _assert_clean_end(*_outcome([a.format(i=d, o=out) for a in argv], capfd), out)
