"""The long and wide CSV readers against their row-loop oracles.

``ingest_long_csv`` and ``read_wide_csv`` read a block of rows at a time and
work by column: each distinct date and label is parsed once, a block's
values go through one ``float`` map, and the long pivot finds duplicates by
a stable sort of integer (date, node) keys.  On hostile random CSVs they
must return the panel of the loops in ``tests/oracles.py`` bit for bit
(signed zeros and NaN included), or raise the same exception type with the
same message.  The properties run again with blocks of three rows, so that
errors and duplicates fall across block edges.  The block parsers only
convert; the row rule alone names a bad row, and it runs on no row of a
clean file and only on the failed block's rows up to the bad one.
"""

import csv
import datetime
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EPOCH
from oracles import ingest_long_csv_loop, read_wide_csv_loop

from gnarlib import errors, panel
from gnarlib.panel import ingest_long_csv, read_wide_csv

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

LABELS = ["a", "b", "c d", "", "é", "a,b"]
BAD_DATES = ["x", "", "2020-13-01", "2020-1-6"]
# the spellings within a group are equal values: a duplicate cell drawn from
# one group is tolerated, and the last spelling is kept
EQUAL = [["1", "1.0", "01"], ["0.0", "-0.0", "0"], ["", "nan", "NaN", "-nan"], ["2.5", "25e-1"]]
HOSTILE = ["inf", "-inf", "Infinity", "1e999", "abc", "1,5", "3", "nan", "", " 4 "]


def spellings(day: int) -> list[str]:
    """Two spellings of the date ``day`` weeks after the epoch."""
    d = EPOCH + datetime.timedelta(days=7 * day)
    return [d.isoformat(), d.strftime("%Y%m%d")]


def render(meta, header, lines) -> str:
    """``# `` lines, then the header and the lines as CSV; a string line is
    written as it is (a blank row or a ``#`` line after the header)."""
    buf = io.StringIO()
    buf.writelines(f"{m}\n" for m in meta)
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    for line in lines:
        if isinstance(line, str):
            buf.write(line + "\n")
        else:
            out.writerow(line)
    return buf.getvalue()


def pick(draw, good: list, bad: list, hostile: bool):
    """One of ``good``, or, when hostile, one of ``bad`` about one time in four."""
    return draw(st.sampled_from(bad if hostile and draw(st.integers(0, 3)) == 0 else good))


def line(draw, hostile: bool, fields: list[str]):
    """A data row of ``fields`` or, now and then, a blank row; when hostile,
    also a ``#`` line or the row with a field too few or too many."""
    kind = pick(draw, ["row"] * 6 + ["blank"], ["hash", "short", "long", "row", "row"], hostile)
    return {"row": fields, "blank": "", "hash": "# not metadata",
            "short": fields[:-1], "long": fields + ["x"]}[kind]


def hostilities(draw) -> dict:
    """Which kinds of bad input an example draws: none, or one or all of bad
    dates, bad values and bad rows."""
    kind = draw(st.sampled_from(["none", "dates", "values", "rows", "all"]))
    return {k: kind in (k, "all") for k in ("dates", "values", "rows")}


@st.composite
def long_csvs(draw) -> str:
    bad = hostilities(draw)
    extra = draw(st.sampled_from([[], ["note"], ["note", "more"]]))
    header = draw(st.permutations(["date", "node", "value"] + extra))
    if bad["rows"] and draw(st.integers(0, 9)) == 0:
        header = header[:-1]                  # maybe no longer a long header
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    n_days = draw(st.integers(1, 3))
    group: dict = {}
    lines = []
    for _ in range(draw(st.integers(1, 14))):
        day, label = draw(st.integers(0, n_days - 1)), draw(st.sampled_from(labels))
        cell = group.setdefault((day, label), draw(st.integers(0, len(EQUAL) - 1)))
        field = {"date": pick(draw, spellings(day), BAD_DATES, bad["dates"]), "node": label,
                 "value": pick(draw, EQUAL[cell], HOSTILE * 2 + sum(EQUAL, []), bad["values"])}
        lines.append(line(draw, bad["rows"], [field[name] if name in field
                                              else draw(st.sampled_from(["", "x", 'q"q']))
                                              for name in header]))
    meta = draw(st.lists(st.sampled_from(["# source=test", "  # indented"]), max_size=2))
    return render(meta, header, lines)


@st.composite
def wide_csvs(draw) -> str:
    bad = hostilities(draw)
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3,
                           unique=not (bad["rows"] and draw(st.booleans()))))
    header = ["date", *labels]
    values = ["1", "0.5", "-0.0", "0.0", "", "nan", "-nan", "1e308"]
    day, lines = draw(st.integers(0, 2)), []
    for _ in range(draw(st.integers(1, 12))):
        day += pick(draw, [1, 2], [-1, 0], bad["rows"])
        date = pick(draw, spellings(day), BAD_DATES, bad["dates"])
        lines.append(line(draw, bad["rows"], [date] + [pick(draw, values, HOSTILE, bad["values"])
                                                      for _ in labels]))
    meta = draw(st.lists(st.sampled_from(["# source=test", "#"]), max_size=2))
    return render(meta, header, lines)


def outcome(read, text: str):
    """The panel, its labels, dates and the bits of its values, or the type
    and message of the exception that ``read`` raised."""
    try:
        p = read(io.StringIO(text))
    except Exception as exc:    # every error must match the oracle's exactly
        return type(exc), str(exc)
    return p.labels, p.dates, p.values.shape, p.values.tobytes()


def same_outcome(read, loop, text: str, block_rows: int) -> bool:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(errors, "_CSV_BLOCK", block_rows)
        return outcome(read, text) == outcome(loop, text)


BLOCKS = pytest.mark.parametrize("block_rows", [errors._CSV_BLOCK, 3],
                                 ids=["block", "three-row-blocks"])


@BLOCKS
@PROPERTY
@given(text=long_csvs())
def test_long_csv_reads_match_the_loop_oracle(block_rows, text):
    assert same_outcome(ingest_long_csv, ingest_long_csv_loop, text, block_rows)


@BLOCKS
@PROPERTY
@given(text=wide_csvs())
def test_wide_csv_reads_match_the_loop_oracle(block_rows, text):
    assert same_outcome(read_wide_csv, read_wide_csv_loop, text, block_rows)


@BLOCKS
@pytest.mark.parametrize("text", [
    # a conflict before a bad date two blocks later, and after it
    "date,node,value\n2020-01-06,a,1\n\n2020-01-06,a,2\n" + "2020-01-13,b,1\n" * 5 + "x,a,1\n",
    "date,node,value\n" + "2020-01-13,b,1\n" * 5 + "x,a,1\n2020-01-06,a,1\n2020-01-06,a,2\n",
    # a ragged row, a read error and an infinite value, each after a conflict
    "date,node,value\n2020-01-06,a,1\n20200106,a,2\n2020-01-13,a\n",
    "date,node,value\n2020-01-06,a,0.0\n20200106,a,-0.0\n2020-01-13,a,1\rx\n",
    "date,node,value\n2020-01-06,a,nan\n2020-01-06,a,\n2020-01-06,a,1\n2020-01-13,a,inf\n",
    # two conflicts in one block: the one in the earlier row wins, though its
    # (date, node) key sorts after the other's
    "date,node,value\n2020-01-06,a,1\n2020-01-13,a,1\n2020-01-13,a,2\n2020-01-06,a,2\n",
    # equal duplicates across blocks: the last spelling is kept
    "date,node,value\n2020-01-06,a,0.0\n" + "2020-01-13,b,1\n" * 4 + "20200106,a,-0.0\n",
    # many duplicates of two cells in one block (an unstable sort would mix
    # their order), then a conflict whose message names the last equal value
    "date,node,value\n" + "".join(f"2020-01-{6 + 7 * (k % 2):02d},a,{'-' * (k % 3 == 1)}0.0\n"
                                  for k in range(200)) + "2020-01-13,a,1\n",
    "date,node,value\n" + "".join(f"2020-01-{6 + 7 * (k % 2):02d},a,{'-' * (k % 3 == 1)}0.0\n"
                                  for k in range(200)),
])
def test_first_error_in_file_order_across_block_edges(block_rows, text):
    assert same_outcome(ingest_long_csv, ingest_long_csv_loop, text, block_rows)


def spy_on_the_row_rule(monkeypatch, block_rows: int) -> list:
    """The fields of each row the row rule is called on, in call order."""
    calls, rule = [], panel._check_row
    monkeypatch.setattr(errors, "_CSV_BLOCK", block_rows)
    monkeypatch.setattr(panel, "_check_row", lambda *fields: calls.append(fields) or rule(*fields))
    return calls


def county_rows(n_days: int, seed: int) -> list[list[str]]:
    """Long rows of 26 counties over ``n_days`` days, the counties of each
    day in a seeded order."""
    rng = np.random.default_rng(seed)
    return [[(EPOCH + datetime.timedelta(days=k)).isoformat(), f"county{i:02d}",
             repr(float(rng.integers(0, 500)))]
            for k in range(n_days) for i in rng.permutation(26).tolist()]


def wide_rows(n_dates: int, seed: int) -> list[list[str]]:
    """Wide rows of 26 nodes, a seeded value or an empty cell each."""
    rng = np.random.default_rng(seed)
    return [[(EPOCH + datetime.timedelta(days=7 * k)).isoformat(),
             *(repr(v) if v >= 0 else "" for v in rng.normal(10.0, 5.0, 26).round(2).tolist())]
            for k in range(n_dates)]


@BLOCKS
def test_the_row_rule_runs_on_no_row_of_clean_files(block_rows, monkeypatch):
    calls = spy_on_the_row_rule(monkeypatch, block_rows)
    # the size of the paper-protocol feed: 26 counties over 519 days
    long = ingest_long_csv(io.StringIO(render([], ["date", "node", "value"], county_rows(519, 41))))
    wide = read_wide_csv(io.StringIO(render([], ["date", *map(str, range(26))], wide_rows(100, 42))))
    assert long.values.shape == (26, 519) and wide.values.shape == (26, 100)
    assert calls == []


@BLOCKS
@pytest.mark.parametrize("field, bad, error", [
    (0, "x", "bad ISO date 'x'"),
    (2, "inf", "non-finite value 'inf'"),
    (2, "abc", "could not convert string to float: 'abc'"),
])
def test_the_row_rule_runs_only_on_the_failed_block_up_to_its_bad_row(
        block_rows, field, bad, error, monkeypatch):
    calls = spy_on_the_row_rule(monkeypatch, block_rows)
    k = block_rows + 1     # the second row of the second block
    rows = county_rows(3 * block_rows // 26 + 1, 43)
    rows[k][field] = bad
    with pytest.raises(errors.InvalidInputError,
                       match=rf"data row {k + 1}: malformed field \({error}\)"):
        ingest_long_csv(io.StringIO(render([], ["date", "node", "value"], rows)))
    assert calls == [(date, value) for date, _, value in rows[block_rows:k + 1]]

    calls.clear()
    rows = wide_rows(3 * block_rows, 44)
    rows[k][field] = bad
    with pytest.raises(errors.InvalidInputError,
                       match=rf"data row {k + 1}: malformed field \({error}\)"):
        read_wide_csv(io.StringIO(render([], ["date", *map(str, range(26))], rows)))
    assert calls == list(map(tuple, rows[block_rows:k + 1]))


def test_a_long_feed_is_read_in_bounded_memory(tmp_path):
    # 200,000 rows, 400 labels x 500 dates, in a seeded order: the row loop
    # kept a (date, node) dict entry per cell and peaked at about 45 MiB
    rng = np.random.default_rng(28)
    labels = [f"node{i:03d}" for i in range(400)]
    path = tmp_path / "long.csv"
    with open(path, "w") as fh:
        fh.write("date,node,value\n")
        for k in range(500):
            day = (EPOCH + datetime.timedelta(days=k)).isoformat()
            values = rng.normal(100.0, 10.0, size=400).round(3)
            fh.writelines(f"{day},{labels[i]},{values[i]}\n" for i in rng.permutation(400))
    tracemalloc.start()
    try:
        panel = ingest_long_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.values.shape == (400, 500) and not np.isnan(panel.values).any()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_sparse_feed_peaks_under_three_panels(tmp_path):
    # 50,000 cells of a 2,000 x 2,000 panel in a seeded random order: the
    # pivot keeps the rows by column and scatters them into the panel once,
    # so it must hold little more than the panel (the row loop peaked at 2.4
    # panels)
    rng = np.random.default_rng(29)
    path = tmp_path / "sparse.csv"
    with open(path, "w") as fh:
        fh.write("date,node,value\n")
        for cell in rng.choice(2000 * 2000, size=50000, replace=False).tolist():
            day, node = divmod(cell, 2000)
            fh.write(f"{EPOCH + datetime.timedelta(days=day)},n{node:04d},{cell % 97}\n")
    tracemalloc.start()
    try:
        panel = ingest_long_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.values.shape == (2000, 2000)
    assert np.count_nonzero(~np.isnan(panel.values)) == 50000
    assert peak < 3 * panel.values.nbytes, f"peak {peak / panel.values.nbytes:.2f} panels"
