"""Fuzzed input files and flag values never end in an uncaught exception.

Every run must exit 0, 2, 3, 4, 5 or 6. A run that exits 0 or 5 writes its
report and nothing to stderr; any other run writes nothing to stdout and one
stderr line. Warnings count as failures, because the installed command would
print them as extra stderr lines. Flag values include ones argparse's type
conversions reject; its usage errors exit 2 through SystemExit and follow the
same rules. Examples are derandomised so the suite runs the same inputs every
time.
"""

import argparse
import contextlib
import copy
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogent import cli, reports
from qlogent.propositions import PROPOSITION_IDS
from qlogent.states import Pvm

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid companion files; "F" stands for the fuzzed file."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"F": str(root / "fuzzed.json")}
    for name, kind, payload in (
        ("RHO", "density", np.diag([0.75, 0.25])),
        ("RHO4", "density", np.eye(4) / 4),
        ("VEC", "vector", np.array([0.6, 0.8])),
    ):
        paths[name] = str(root / f"{name}.json")
        reports.write_matrix_file(paths[name], kind, payload)
    paths["PVM"] = str(root / "pvm.json")
    with open(paths["PVM"], "w") as fh:
        fh.write(reports.dumps_stable(
            {"kind": "pvm", "blocks": reports.matrix_to_pairs(Pvm.computational(2).blocks)}
        ))
    return paths


def check_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4, 5, 6), (argv, code, err)
    if code in (0, 5):
        assert out.endswith("\n") and err == "", (argv, err)
    else:
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
    return code


finite = st.floats(-1.0, 1.0)
junk = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308]),
    st.sampled_from([2**70, 10**400, -10**400]),
    st.sampled_from([True, False, "1", "", None, {}]),
    st.floats(allow_subnormal=False) | st.integers(),
)
entry = st.one_of(finite, junk)
good_pair = st.lists(finite, min_size=2, max_size=2)
pair = st.one_of(
    good_pair, good_pair, good_pair,
    st.tuples(finite, junk).map(list),
    st.lists(entry, max_size=3),
    entry,
)


def nested(leaf, depth):
    for _ in range(depth):
        leaf = st.lists(leaf, max_size=3)
    return leaf


def square(n):
    return st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n)


sizes = st.integers(1, 3)
any_depth = st.integers(0, 4).flatmap(lambda depth: nested(pair, depth))
VALID = {
    "density": reports.matrix_to_pairs(np.eye(2) / 2),
    "vector": reports.matrix_to_pairs([0.6, 0.8]),
    "pvm": reports.matrix_to_pairs(Pvm.computational(2).blocks),
}
# well-formed payloads of each kind, mostly invalid in content
shaped = {
    "density": st.one_of(sizes.flatmap(square), st.just(VALID["density"])),
    "vector": st.one_of(sizes.flatmap(lambda n: st.lists(pair, min_size=n, max_size=n)),
                        st.just(VALID["vector"])),
    "pvm": st.one_of(
        sizes.flatmap(lambda n: st.lists(square(n), min_size=1, max_size=3)),
        st.lists(sizes.flatmap(square), min_size=1, max_size=3),  # mixed dimensions
        st.just(VALID["pvm"]),
    ),
}


@st.composite
def corrupted(draw, kind):
    """A valid file of the kind with one entry replaced, or one node nested deeper,
    dropped or extended."""
    key = "blocks" if kind == "pvm" else "matrix"
    doc = {"kind": kind, key: copy.deepcopy(VALID[kind])}
    how = draw(st.sampled_from(["replace", "replace", "nest", "drop", "extend"]))
    parent, slot = doc, key
    while isinstance(parent[slot], list) and (how == "replace" or draw(st.booleans())):
        parent, slot = parent[slot], draw(st.integers(0, len(parent[slot]) - 1))
    node = parent[slot]
    if how == "replace":
        parent[slot] = draw(junk)
    elif how == "nest":
        parent[slot] = [node]
    elif how == "drop":
        del parent[slot]
    else:
        parent[slot] = node + [draw(finite)] if isinstance(node, list) else [node, node]
    return doc


def documents(kind):
    key = "blocks" if kind == "pvm" else "matrix"
    return st.fixed_dictionaries(
        {
            "kind": st.sampled_from([kind, kind, kind, "density", "vector", "pvm", 5]),
            key: st.one_of(shaped[kind], shaped[kind], any_depth, st.integers(), st.none()),
        },
        optional={
            "dims": st.one_of(
                st.lists(st.one_of(st.integers(-1, 4), st.booleans(), finite), max_size=3),
                st.just([1, 2]),
                st.integers(),
            ),
        },
    )


def file_texts(kind):
    return st.one_of(
        corrupted(kind).map(json.dumps),
        corrupted(kind).map(json.dumps),
        corrupted(kind).map(json.dumps),
        documents(kind).map(json.dumps),
        any_depth.map(json.dumps),
        st.text(max_size=20),
    )


# each argv reads the fuzzed file F as a file of the given kind
FILE_ROLES = [
    ("density", ["entropy", "--in", "F"]),
    ("pvm", ["entropy", "--in", "RHO", "--pvm", "F"]),
    ("density", ["divergence", "F", "RHO"]),
    ("density", ["relative", "--in", "F", "--dims", "1,2"]),
    ("vector", ["postselect", "--pre", "F", "--post", "VEC", "--pvm", "PVM"]),
    ("pvm", ["postselect", "--pre", "VEC", "--post", "VEC", "--pvm", "F"]),
    ("pvm", ["sample", "--in", "RHO", "--pvm", "F", "--trials", "10"]),
]


@FUZZ
@given(data=st.data())
def test_malformed_files(good, data):
    kind, role = data.draw(st.sampled_from(FILE_ROLES))
    with open(good["F"], "w") as fh:
        fh.write(data.draw(file_texts(kind)))
    check_run([good.get(word, word) for word in role])


def joined(items):
    return st.lists(items, max_size=3).map(lambda xs: ",".join(map(str, xs)))


def rejected_by(convert):
    """Flag text that the type conversion rejects, as argparse sees it."""
    def fails(text):
        try:
            convert(text)
        except (ValueError, argparse.ArgumentTypeError):
            return True
        return False

    return st.one_of(
        st.sampled_from(["", "abc", "1.5", "1e3", "0x10", "nan", "--", "2,,x", "3,a"]),
        st.text(max_size=6),
    ).filter(fails)


# trials and accepted dims stay small so each run is short; dims above the eigensolver
# limit, refused before any proposition runs, and seeds and tolerances range freely
trials = st.one_of(st.integers(1, 40), st.integers(-3, 0), rejected_by(int))
seed = st.one_of(st.integers(-3, 3), st.integers(-2**65, 2**65), rejected_by(int))
bad_dims = rejected_by(cli._int_list)
flags = st.one_of(
    st.builds(
        lambda prop, dims, t, s, tol: [
            "verify", f"--prop={prop}", f"--dims={dims}", f"--trials={t}",
            f"--seed={s}", f"--tol={tol}",
        ],
        st.lists(st.sampled_from([*PROPOSITION_IDS, "ssa", "all", "99", ""]), min_size=1,
                 max_size=2).map(",".join),
        st.one_of(joined(st.integers(-2, 4) | st.integers(65, 10**9)), bad_dims),
        trials,
        seed,
        st.one_of(st.floats(), rejected_by(float)),
    ),
    st.builds(
        lambda t, s: ["sample", "--in", "RHO", "--pvm", "PVM", f"--trials={t}", f"--seed={s}"],
        trials,
        seed,
    ),
    st.builds(lambda dims: ["relative", "--in", "RHO4", f"--dims={dims}"],
              st.one_of(joined(st.integers(-4, 4)), bad_dims)),
)


@FUZZ
@given(argv=flags)
def test_bad_flag_values(good, argv):
    check_run([good.get(word, word) for word in argv])


def test_huge_dim_is_refused_before_any_allocation():
    # one (128, 10^9, 10^9) stack could never be allocated; the dim cap must fire first
    tracemalloc.start()
    try:
        code = check_run(["verify", "--dims", "1000000000", "--trials", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 1 << 20
