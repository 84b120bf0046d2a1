"""Region rows written by hand on deterministic classical channels whose outputs copy named input parts.

Every register of such a channel, under independent uniform parts, is the
tuple of the parts it copies.  For register groups ``A`` and ``B`` the
joint distribution is then uniform on its support, so with ``S`` the parts
of ``A`` that ``B`` determines, ``I_H^eps(A : B) = log2 prod|S| -
log2(1 - eps)`` and ``I_max(A : B) = log2 prod|S|``.  The rows below are
written term by term from the theorems' printed systems, not through
``regions._compile``, and checked against the builders at 1e-12 (every
pair is classical, so ``D_H`` takes the exact Neyman-Pearson path).  The
split-message rows 5, 8 and 9 of ``conjecture`` and ``hk-nosecrecy`` are
left out.  The same check on mutated tables, each a swap of two
registers or of a receiver, must miss some row.
"""
import itertools
import math

import numpy as np
import pytest

from oneshot_secrecy import regions
from oneshot_secrecy.channel import ChannelSpec, SplitSpec, uniform_hk, uniform_t1
from oneshot_secrecy.entropic import ToleranceParams
from oneshot_secrecy.regions import (
    PenaltyMode,
    conjecture_region,
    hk_nosecrecy_region,
    theorem1_region,
    theorem2_region,
)

PARAMS = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)
OFF = PenaltyMode("off")
TOL = 1e-12

# unsplit channel for t1: X1 = (u, v) and X2 = (w, s); Y1 copies (u, w),
# Y2 copies (v, s) and Z copies s, so each row moves when Z is put for its
# receiver
T1_SIZES = {"u": 3, "v": 2, "w": 2, "s": 3}
T1_COPIES = {"X1": "uv", "X2": "ws", "Y1": "uw", "Y2": "vs", "Z": "s"}
# split channel: parts X10 = c, X11 = p, X20 = C, X22 = P; Y1 copies P, Y2
# copies p and Z copies (c, p, C).  Of the copy channels on these parts with
# at most 72 output dimensions, none lets the checked rows and leaks see more
# substitutions of one register for another of its side (an output for an
# output, c for p, C for P): this one sees 50 of 63.  No copy channel sees a
# message put for another in the second group of a term whose first group
# holds neither.
SPLIT_SIZES = {"c": 2, "p": 3, "C": 2, "P": 2}
SPLIT_COPIES = {"X10": "c", "X11": "p", "X20": "C", "X22": "P", "Y1": "P", "Y2": "p", "Z": "cpC"}


def _copy_channel(sizes, inputs, outputs, splits=None):
    """Each input symbol a tuple of part values; each output the tuple of the parts it copies, one-hot."""
    symbols = {x: ["".join(map(str, v)) for v in itertools.product(*(range(sizes[q]) for q in parts))]
               for x, parts in inputs.items()}
    dims = {y: math.prod(sizes[q] for q in parts) for y, parts in outputs.items()}
    states = {}
    for x1, x2 in itertools.product(symbols["X1"], symbols["X2"]):
        value = dict(zip(inputs["X1"] + inputs["X2"], map(int, x1 + x2)))
        index = 0
        for y in ("Y1", "Y2", "Z"):
            index = index * dims[y] + int(np.ravel_multi_index([value[q] for q in outputs[y]],
                                                               [sizes[q] for q in outputs[y]]))
        rho = np.zeros((math.prod(dims.values()),) * 2)
        rho[index, index] = 1.0
        states[(x1, x2)] = rho
    return ChannelSpec("copy", symbols, dims, states, splits)


def _split_copy_channel():
    """X1 = (c, p) and X2 = (C, P), each symbol its two parts' values side by side."""

    def split(common, personal):
        alphabets = tuple(tuple(map(str, range(SPLIT_SIZES[q]))) for q in (common, personal))
        return SplitSpec(alphabets, {(a, b): a + b for a in alphabets[0] for b in alphabets[1]})

    outputs = {y: SPLIT_COPIES[y] for y in ("Y1", "Y2", "Z")}
    return _copy_channel(SPLIT_SIZES, {"X1": "cp", "X2": "CP"}, outputs,
                         {"X1": split("c", "p"), "X2": split("C", "P")})


def _closed_forms(sizes, copies):
    """``ih(a, b)`` and ``imax(a, b)`` of register groups, each a space-separated string of registers."""

    def shared(a, b):
        parts = [set("".join(copies[r] for r in group.split())) for group in (a, b)]
        return math.log2(math.prod(sizes[q] for q in parts[0] & parts[1]))

    return (lambda a, b: shared(a, b) - math.log2(1.0 - PARAMS.eps)), shared


def _t1_rows():
    """``t1`` on the unsplit copy channel: each row takes the receiver with the smaller ``D_H`` term."""
    ih, imax = _closed_forms(T1_SIZES, T1_COPIES)
    leak_1, leak_2 = imax("X1", "Z"), imax("X2", "Z X1")
    return {
        "t1:r1": ((1.0, 0.0), min(ih("X1", f"X2 {y}") for y in ("Y1", "Y2")) - leak_1),
        "t1:r2": ((0.0, 1.0), min(ih("X2", f"X1 {y}") for y in ("Y1", "Y2")) - leak_2),
        "t1:sum": ((1.0, 1.0), min(ih("X1 X2", y) for y in ("Y1", "Y2")) - leak_1 - leak_2),
    }


def _split_rows(prefix, leaks=True):
    """Rows 1-4, 6 and 7 of the split-message system: ``c p`` (X10 X11) to Y1 and ``C P`` (X20 X22) to Y2."""
    ih, imax = _closed_forms(SPLIT_SIZES, SPLIT_COPIES)
    lc, lp, lC, lP = (imax("X10", "Z"), imax("X11", "Z X10 X20"), imax("X20", "Z X10"),
                      imax("X22", "Z X10 X11 X20")) if leaks else (0.0,) * 4
    return {
        f"{prefix}:1": ((1.0, 0.0), ih("X10 X11", "Y1 X20") - lc - lp),
        f"{prefix}:2": ((1.0, 0.0), ih("X11", "Y1 X10 X20") + ih("X10", "Y2 X20 X22") - lc - lp),
        f"{prefix}:3": ((0.0, 1.0), ih("X20 X22", "Y2 X10") - lC - lP),
        f"{prefix}:4": ((0.0, 1.0), ih("X20", "Y1 X10 X11") + ih("X22", "Y2 X10 X20") - lC - lP),
        f"{prefix}:6": ((1.0, 1.0), ih("X11", "Y1 X20 X10") + ih("X22 X20 X10", "Y2") - lc - lp - lC - lP),
        f"{prefix}:7": ((1.0, 1.0), ih("X11 X20", "Y1 X10") + ih("X22 X10", "Y2 X20") - lc - lp - lC - lP),
    }


def _t2_rows():
    """Both side-information sub-channels: sub-channel 2 swaps the senders, their rates and Y1 for Y2."""
    ih, imax = _closed_forms(SPLIT_SIZES, SPLIT_COPIES)
    rows = {}
    for sub, (c, p, C, P, y, r) in (("s1", ("X10", "X11", "X20", "X22", "Y1", 0)),
                                    ("s2", ("X20", "X22", "X10", "X11", "Y2", 1))):
        lc, lp, lC, lP = imax(c, "Z"), imax(p, f"Z {c} {C} {P}"), imax(C, f"Z {c}"), imax(P, f"Z {c} {p} {C}")
        own, other = tuple(float(i == r) for i in (0, 1)), tuple(float(i != r) for i in (0, 1))
        both = (1.0, 1.0)
        rows.update({
            f"t2:{sub}:1": (own, ih(f"{c} {p}", f"{y} {C} {P}") - lc - lp),
            f"t2:{sub}:2": (own, ih(p, f"{y} {c} {C} {P}") + ih(c, f"{y} {p} {C} {P}") - lc - lp),
            f"t2:{sub}:3": (other, ih(f"{C} {P}", f"{y} {c} {p}") - lC - lP),
            f"t2:{sub}:4": (other, ih(f"{C} {P} {c}", f"{y} {p}") - lC - lP),
            f"t2:{sub}:5": (other, ih(f"{C} {P} {p}", f"{y} {c}") - lC - lP),
            f"t2:{sub}:6": (both, ih(p, f"{y} {c} {C} {P}") + ih(f"{c} {C}", f"{y} {p}") - lc - lp - lC - lP),
            f"t2:{sub}:7": (both, ih(f"{p} {C} {P}", f"{y} {c}") + ih(c, f"{p} {C} {P} {y}") - lc - lp - lC - lP),
            f"t2:{sub}:8": (both, ih(f"{p} {c} {C} {P}", y) - lc - lp - lC - lP),
            f"t2:{sub}:9": ((1.0, 2.0) if r == 0 else (2.0, 1.0), ih(f"{c} {C} {P}", f"{y} {p}")
                            + ih(f"{C} {P} {p}", f"{y} {c}") - lc - lp - 2 * lC - 2 * lP),
        })
    return rows


@pytest.fixture(scope="module")
def t1_channel():
    return _copy_channel(T1_SIZES, {"X1": "uv", "X2": "ws"}, {y: T1_COPIES[y] for y in ("Y1", "Y2", "Z")})


@pytest.fixture(scope="module")
def split_channel():
    return _split_copy_channel()


def _regions(t1_channel, split_channel):
    """Each theorem's region on its copy channel, at uniform parts and no penalty, and its hand rows."""
    hk = uniform_hk(split_channel)
    return {
        "t1": (lambda: theorem1_region(t1_channel, uniform_t1(t1_channel), PARAMS, OFF), _t1_rows()),
        "conjecture": (lambda: conjecture_region(split_channel, hk, PARAMS, OFF), _split_rows("conj")),
        "hk-nosecrecy": (lambda: hk_nosecrecy_region(split_channel, hk, PARAMS.eps, OFF),
                         _split_rows("hk", leaks=False)),
        "t2": (lambda: theorem2_region(split_channel, hk, PARAMS, OFF), _t2_rows()),
    }


def _missed(poly, rows):
    """The hand rows whose rate coefficients or bound (within ``TOL``) the region does not have."""
    return [tag for tag, (coeffs, bound) in rows.items()
            if poly.row(tag).coeffs != coeffs or not abs(poly.row(tag).bound - bound) <= TOL]


@pytest.mark.parametrize("theorem", ["t1", "conjecture", "hk-nosecrecy", "t2"])
def test_rows_match_the_hand_values(t1_channel, split_channel, theorem):
    build, rows = _regions(t1_channel, split_channel)[theorem]
    poly = build()
    assert _missed(poly, rows) == []
    # the checked rows hold the tables' every row but the split-message rows 5, 8 and 9
    skipped = {f"{prefix}:{r}" for prefix in ("conj", "hk") for r in "589"}
    assert {row.tag for row in poly.rows} - skipped == set(rows)


def _swap(table, tag, old, new):
    """``table`` with grouping ``old`` of row ``tag`` replaced by ``new``."""
    out = [(t, rates, tuple(new if (t, g) == (tag, old) else g for g in groupings), leakage)
           for t, rates, groupings, leakage in table]
    assert out != list(table)
    return tuple(out)


def _compile(theorem, table=None, leaks=None, roles=None):
    """``theorem``'s table compiled as ``regions._THEOREMS`` compiles it, with any of its parts replaced."""
    r = regions
    if theorem == "t1":
        return r._compile([(table or r._TIME_SHARED, leaks or r._TIME_SHARED_LEAKS, roles or r._TIME_SHARED_ROLES,
                            "t1")], ("R1", "R2"), "Q", ("Y1", "Y2"))
    if theorem == "conjecture":
        return r._compile([(table or r._SPLIT_MESSAGE, leaks or r._SPLIT_MESSAGE_LEAKS, roles or r._BOTH_RECEIVERS,
                            "conj")], ("R1", "R2"))
    table, leaks = table or r._SIDE_INFORMATION, leaks or r._SIDE_INFORMATION_LEAKS
    return r._compile([(table, leaks, roles or dict(r._SPLIT_ROLES, y="Y1"), "t2:s1"),
                       (table, leaks, dict(r._MIRRORED_ROLES, y="Y2"), "t2:s2")], ("R1", "R2"))


# each mutant's theorem and the parts of its table it replaces
MUTANTS = {
    "conjecture row 1 cp:yC -> cp:YC": ("conjecture", {"table": _swap(regions._SPLIT_MESSAGE, "1", "cp:yC", "cp:YC")}),
    "conjecture row 3 CP:Yc -> CP:yc": ("conjecture", {"table": _swap(regions._SPLIT_MESSAGE, "3", "CP:Yc", "CP:yc")}),
    "t2 row 1 cp:yCP -> cp:zCP": ("t2", {"table": _swap(regions._SIDE_INFORMATION, "1", "cp:yCP", "cp:zCP")}),
    "t2 leak c:z -> p:z": ("t2", {"leaks": dict(regions._SIDE_INFORMATION_LEAKS, c="p:z")}),
    "t2 sub-channel 1 bound to Y2": ("t2", {"roles": dict(regions._SPLIT_ROLES, y="Y2")}),
    "t1 row r2 b:ay -> b:az": ("t1", {"table": _swap(regions._TIME_SHARED, "r2", "b:ay", "b:az")}),
}


@pytest.mark.parametrize("theorem", ["t1", "conjecture", "t2"])
def test_unmutated_tables_compile_as_the_theorems(theorem):
    table, theirs = _compile(theorem), regions._THEOREMS[theorem][0]
    assert (table.tags, table.terms, table.rows) == (theirs.tags, theirs.terms, theirs.rows)
    assert table.counts == theirs.counts
    assert np.array_equal(table.coeffs, theirs.coeffs)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_mutated_table_misses_a_hand_row(t1_channel, split_channel, monkeypatch, mutant):
    theorem, change = MUTANTS[mutant]
    monkeypatch.setitem(regions._THEOREMS, theorem, (_compile(theorem, **change), regions._THEOREMS[theorem][1]))
    build, rows = _regions(t1_channel, split_channel)[theorem]
    assert _missed(build(), rows)
