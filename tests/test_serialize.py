import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcent import (BasisElt, DiffPoly, DiffVar, LoopMode, Partition, UPoly,
                   VacuumVector, generator_bracket, ss_vectors, w_generators)
from wcent.serialize import (diffpoly_from_json, diffpoly_to_json,
                             generator_table_from_json, generator_table_to_json,
                             lambdapoly_from_json, lambdapoly_to_json,
                             latex_diffpoly, latex_mode,
                             latex_rat, latex_table, latex_vacuum, latex_var,
                             parse_table_key, rat_from_json, rat_to_json,
                             sugawara_table_from_json, sugawara_table_to_json,
                             table_key, vacuum_from_json, vacuum_to_json)


def V(i, j, r, s=0):
    return DiffVar(s=s, i=i, j=j, r=r)


def vp(i, j, r, s=0):
    return DiffPoly.var(V(i, j, r, s))


def test_rational_encoding():
    assert rat_to_json(5) == {"num": "5", "den": "1"}
    assert rat_to_json(Fraction(-3, 7)) == {"num": "-3", "den": "7"}
    assert rat_from_json({"num": "5", "den": "1"}) == 5
    assert isinstance(rat_from_json({"num": "5", "den": "1"}), int)
    assert rat_from_json(rat_to_json(Fraction(10, 4))) == Fraction(5, 2)
    big = Fraction(10 ** 40 + 1, 3)
    assert rat_from_json(json.loads(json.dumps(rat_to_json(big)))) == big


ONE = {"num": "1", "den": "1"}


@pytest.mark.parametrize("obj", [{"num": 1.5, "den": "1"}, {"num": "1", "den": 2.9},
                                 {"num": True, "den": "1"}, {"num": "1", "den": True},
                                 {"num": 1, "den": 1}],
                         ids=["float num", "float den", "bool num", "bool den", "int fields"])
def test_rational_fields_must_be_strings(obj):
    # int() would truncate 1.5 to 1 and 2.9 to 2, and read True as 1
    with pytest.raises(ValueError, match=r"rational %s is not .* integer strings"
                       % re.escape(repr(obj))):
        rat_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"num": "1_0", "den": "1"}, {"num": " +5 ", "den": "1"}, {"num": "\u0663", "den": "1"},
    {"num": "2", "den": "-4"}, {"num": "2", "den": "4"}, {"num": "-0", "den": "1"},
    {"num": "1", "den": "01"},
], ids=["underscore", "spaces and plus", "arabic-indic digit", "negative den",
        "unreduced", "minus zero", "leading zero den"])
def test_rational_text_must_be_canonical(obj):
    # int() reads each of these, but rat_to_json writes none of them, so a
    # blob could spell one coefficient many ways
    with pytest.raises(ValueError, match=r"rational %s is not" % re.escape(repr(obj))):
        rat_from_json(obj)


def test_decoders_require_canonical_partition_text():
    # Partition.parse reads " 1, 02" as 1,2; a decoder takes only str(p)
    p = Partition.of(1, 2)
    for decode, blob in (
            (generator_table_from_json, _table_blob(p)),
            (sugawara_table_from_json, sugawara_table_to_json(ss_vectors(p))),
            (vacuum_from_json, vacuum_to_json(ss_vectors(p).entries[(1, 0)]))):
        blob = json.loads(json.dumps(blob))
        assert decode(blob)
        blob["partition"] = " 1, 02"
        with pytest.raises(ValueError,
                           match=r"partition ' 1, 02' is not in canonical form '1,2'"):
            decode(blob)


def test_keys_naming_one_item_twice_are_value_errors():
    # Only the canonical text of a key is accepted, so a second spelling of
    # a key can neither replace nor shadow the first.
    p, q = diffpoly_to_json(vp(1, 1, 0)), diffpoly_to_json(vp(1, 1, 0, 1))
    for key in ("01", "x", " 1", "+1"):
        with pytest.raises(ValueError, match=r"lambda power %s is not an integer"
                           % re.escape(repr(key))):
            lambdapoly_from_json({"lambda_powers": {"1": p, key: q}})
    for new in ("w[01][0]", "w[1][00]"):
        blob = _table_blob()
        blob["entries"][new] = blob["entries"]["w[1][0]"]
        with pytest.raises(ValueError, match=r"%s' is not a key of 'entries' for partition 1,2"
                           % re.escape(new)):
            generator_table_from_json(blob)
    blob = json.loads(json.dumps(sugawara_table_to_json(ss_vectors(Partition.of(1, 2)))))
    blob["entries"]["phi[01][0]"] = blob["entries"]["phi[1][0]"]
    with pytest.raises(ValueError, match=r"phi\[01\]\[0\]' is not a key of 'entries'"):
        sugawara_table_from_json(blob)


@pytest.mark.parametrize("mode", [[1, 1, 0], [1, 1, 0, -1, 2], [1, 1, 0, "-1"], 7])
def test_malformed_mode_is_a_value_error(mode):
    blob = {"partition": "1,1", "terms": [{"coeff": ONE, "modes": [[2, 1, 0, -1], mode]}]}
    with pytest.raises(ValueError, match=r"loop mode %s is not" % re.escape(repr(mode))):
        vacuum_from_json(blob)


def test_malformed_rationals_and_monomials_are_value_errors():
    with pytest.raises(ValueError, match=r"'den': '0'.*zero denominator"):
        rat_from_json({"num": "3", "den": "0"})
    with pytest.raises(ValueError, match=r"'den': '0'"):
        vacuum_from_json({"partition": "1", "terms": [
            {"coeff": {"num": "1", "den": "0"}, "modes": [[1, 1, 0, -1]]}]})
    with pytest.raises(ValueError, match=r"E\[1,2,1\]\[0\]\^-2"):
        diffpoly_from_json([{"coeff": ONE, "vars": [[1, 2, 1, 0, -2]]}])
    with pytest.raises(ValueError, match=r"E\[1,2,1\]\[-1\]"):
        diffpoly_from_json([{"coeff": ONE, "vars": [[1, 2, 1, -1, 1]]}])


@pytest.mark.parametrize("var, match", [
    ([1, 1, 0, "0", 1], r"variable \[1, 1, 0, '0', 1\] is not five integers"),
    ([1, 1, 0, 0], r"variable \[1, 1, 0, 0\] is not five integers"),
    (None, r"variable None is not five integers"),
], ids=["string field", "four fields", "not a list"])
def test_malformed_variable_is_a_value_error(var, match):
    with pytest.raises(ValueError, match=match):
        diffpoly_from_json([{"coeff": ONE, "vars": [[1, 1, 0, 0, 1], var]}])


def _table_blob(p=Partition.of(1, 2)):
    """The JSON of the generator table of p, as a fresh mutable object."""
    return json.loads(json.dumps(generator_table_to_json(w_generators(p))))


@pytest.mark.parametrize("decode, blob, match", [
    (diffpoly_from_json, [{"vars": [[1, 1, 0, 0, 1]]}],
     r"\{'vars': \[\[1, 1, 0, 0, 1\]\]\} has no 'coeff'"),
    (diffpoly_from_json, [{"coeff": ONE, "vars": 5}], r"'vars' of \{.*\} is not a list"),
    (diffpoly_from_json, {"coeff": ONE}, r"polynomial \{.*\} is not a list of terms"),
    (vacuum_from_json, {"partition": "1", "terms": [{"coeff": ONE}]},
     r"\{'coeff': .*\} has no 'modes'"),
    (vacuum_from_json, {"partition": "1", "terms": [{"coeff": ONE, "modes": 5}]},
     r"'modes' of \{.*\} is not a list"),
    (vacuum_from_json, {"partition": 1, "terms": []}, r"'partition' of \{.*\} is not a str"),
    (lambdapoly_from_json, {"powers": {}}, r"\{'powers': \{\}\} has no 'lambda_powers'"),
    (rat_from_json, {"den": "1"}, r"rational \{'den': '1'\} is not"),
    (generator_table_from_json,
     {k: v for k, v in _table_blob().items() if k != "out_of_window"},
     r"has no 'out_of_window'"),
    (generator_table_from_json, {**_table_blob(), "entries": []},
     r"'entries' of \{.*\} is not a dict"),
    (generator_table_from_json, {**_table_blob(), "partition": [1, 2]},
     r"'partition' of \{.*\} is not a str"),
], ids=["term without coeff", "vars not a list", "polynomial not a list",
        "term without modes", "modes not a list", "vector partition not a string",
        "no lambda_powers", "rational without num", "table without out_of_window", "entries not an object",
        "table partition not a string"])
def test_malformed_members_are_value_errors(decode, blob, match):
    with pytest.raises(ValueError, match=match):
        decode(blob)


def test_malformed_table_key_is_a_value_error():
    blob = _table_blob()
    blob["out_of_window"]["w1"] = blob["out_of_window"].pop("w[2][0]")
    with pytest.raises(ValueError, match=r"table key 'w1' is not prefix\[k\]\[r\]"):
        generator_table_from_json(blob)


@pytest.mark.parametrize("section, old, new", [
    ("entries", "w[1][0]", "w[9][0]"),          # k above n
    ("entries", "w[1][0]", "w[0][0]"),          # k below 1
    ("entries", "w[1][0]", "phi[1][0]"),        # the other side's prefix
    ("entries", "w[1][0]", "w[1][5]"),          # outside the window
    ("entries", "w[1][0]", "w[2][0]"),          # the out-of-window coefficient
    ("out_of_window", "w[2][0]", "w[1][0]"),    # inside the window
    ("out_of_window", "w[2][0]", "w[3][0]"),    # k above n
    ("out_of_window", "w[2][0]", "phi[2][0]"),  # the other side's prefix
])
def test_generator_table_rejects_keys_outside_its_partition(section, old, new):
    blob = _table_blob()
    blob[section][new] = blob[section].pop(old)
    with pytest.raises(ValueError, match=r"%s' is not a key of '%s' for partition 1,2"
                       % (re.escape(new), section)):
        generator_table_from_json(blob)


@pytest.mark.parametrize("var, elt", [([7, 1, 0, 0, 1], "E[7,1,0]"),
                                      ([2, 1, 1, 0, 1], "E[2,1,1]"),
                                      ([1, 2, 0, 3, 2], "E[1,2,0]")],
                         ids=["block above n", "shift outside window", "upper shift outside window"])
def test_generator_table_rejects_variables_outside_its_partition(var, elt):
    for section, key in (("entries", "w[2][1]"), ("out_of_window", "w[2][0]")):
        blob = _table_blob()
        blob[section][key][0]["vars"].append(var)
        with pytest.raises(ValueError, match=r"%s is not a basis element for partition 1,2"
                           % re.escape(elt)):
            generator_table_from_json(blob)


def test_sugawara_table_rejects_entries_outside_its_partition():
    p = Partition.of(1, 2)
    blob = json.loads(json.dumps(sugawara_table_to_json(ss_vectors(p))))
    blob["entries"]["w[1][0]"] = blob["entries"].pop("phi[1][0]")
    with pytest.raises(ValueError, match=r"'w\[1\]\[0\]' is not a key of 'entries'"):
        sugawara_table_from_json(blob)
    blob = json.loads(json.dumps(sugawara_table_to_json(ss_vectors(p))))
    blob["entries"]["phi[1][0]"] = vacuum_to_json(ss_vectors(Partition.of(1, 1)).entries[(1, 0)])
    with pytest.raises(ValueError, match=r"vector of partition 1,1 in a table of 1,2"):
        sugawara_table_from_json(blob)


@pytest.mark.parametrize("section, key", [("entries", "[1][0]"), ("out_of_window", "[2][0]")])
@pytest.mark.parametrize("prefix", ["w", "phi"])
def test_table_rejects_a_zero_entry(prefix, section, key):
    # A zero entry keeps the table's length and passes any check of it.
    p = Partition.of(1, 2)
    if prefix == "w":
        blob, decode, zero = _table_blob(p), generator_table_from_json, []
    else:
        blob = json.loads(json.dumps(sugawara_table_to_json(ss_vectors(p))))
        decode, zero = sugawara_table_from_json, {"partition": "1,2", "terms": []}
    blob[section][prefix + key] = zero
    with pytest.raises(ValueError, match=r"'%s' in '%s' is zero"
                       % (re.escape(prefix + key), section)):
        decode(blob)


TWO = {"num": "2", "den": "1"}
ZERO = {"num": "0", "den": "1"}


@pytest.mark.parametrize("terms, match", [
    ([{"coeff": ZERO, "vars": [[1, 1, 0, 0, 1]]}],
     r"coefficient of monomial E\[1,1,0\]\[0\] is zero"),
    ([{"coeff": ONE, "vars": [[1, 1, 0, 0, 1]]}, {"coeff": TWO, "vars": [[1, 1, 0, 0, 1]]}],
     r"monomial E\[1,1,0\]\[0\] appears twice"),
    ([{"coeff": ONE, "vars": []}, {"coeff": ONE, "vars": []}], r"monomial 1 appears twice"),
    ([{"coeff": ONE, "vars": [[1, 1, 0, 0, 0]]}], r"bad monomial factor E\[1,1,0\]\[0\]\^0"),
    ([{"coeff": ONE, "vars": [[1, 1, 0, 0, 1], [1, 1, 0, 0, 1]]}],
     r"variable E\[1,1,0\]\[0\] follows E\[1,1,0\]\[0\]"),
    ([{"coeff": ONE, "vars": [[2, 2, 0, 0, 1], [1, 1, 0, 0, 1]]}],
     r"variable E\[1,1,0\]\[0\] follows E\[2,2,0\]\[0\]"),
    ([{"coeff": ONE, "vars": [[1, 1, 0, 1, 1], [1, 1, 0, 0, 2]]}],
     r"variable E\[1,1,0\]\[0\] follows E\[1,1,0\]\[1\]"),
], ids=["zero coefficient", "repeated monomial", "repeated constant", "exponent 0",
        "split variable", "variables out of order", "derivatives out of order"])
def test_diffpoly_spellings_must_be_canonical(terms, match):
    # Each of these once decoded to a polynomial that diffpoly_to_json
    # writes otherwise (or to nothing), so one polynomial had many spellings.
    with pytest.raises(ValueError, match=match):
        diffpoly_from_json(terms)
    blob = _table_blob()
    blob["entries"]["w[2][1]"] = terms
    with pytest.raises(ValueError, match=match):
        generator_table_from_json(blob)


@pytest.mark.parametrize("terms, match", [
    ([{"coeff": ZERO, "modes": [[2, 1, 0, -1]]}],
     r"coefficient of monomial E\[2,1,0\]\(-1\) is zero"),
    ([{"coeff": ONE, "modes": [[2, 1, 0, -1], [1, 1, 0, -1]]},
      {"coeff": TWO, "modes": [[2, 1, 0, -1], [1, 1, 0, -1]]}],
     r"monomial E\[2,1,0\]\(-1\)\*E\[1,1,0\]\(-1\) appears twice"),
], ids=["zero coefficient", "repeated monomial"])
def test_vacuum_spellings_must_be_canonical(terms, match):
    with pytest.raises(ValueError, match=match):
        vacuum_from_json({"partition": "1,1", "terms": terms})
    p = Partition.of(1, 1)
    blob = json.loads(json.dumps(sugawara_table_to_json(ss_vectors(p))))
    blob["entries"]["phi[2][0]"]["terms"] = terms
    with pytest.raises(ValueError, match=match):
        sugawara_table_from_json(blob)


@pytest.mark.parametrize("bad", [[1, 1, 0, 0, True], [1.0, 1, 0, 0, 1], [1, True, 0, 0, 1]])
def test_generator_table_checks_the_type_of_every_factor(bad):
    # The decoder builds E[1,1,0][0] once, from the first entry; an equal
    # factor of another type later in the table still raises, though as a
    # tuple key it equals the one already built.
    blob = _table_blob()
    assert blob["entries"]["w[1][0]"][0]["vars"] == [[1, 1, 0, 0, 1]]
    blob["entries"]["w[2][1]"][0]["vars"].append(bad)
    with pytest.raises(ValueError, match=r"variable %s is not five integers"
                       % re.escape(repr(bad))):
        generator_table_from_json(blob)


@pytest.mark.parametrize("bad", [[True, 1, 0, -1], [1.0, 1, 0, -1], [1, 1, False, -1]])
def test_sugawara_table_checks_the_type_of_every_mode(bad):
    # As above, for the mode E[1,1,0](-1) of the first vector.
    p = Partition.of(1, 2)
    blob = json.loads(json.dumps(sugawara_table_to_json(ss_vectors(p))))
    assert blob["entries"]["phi[1][0]"]["terms"][0]["modes"] == [[1, 1, 0, -1]]
    blob["entries"]["phi[2][1]"]["terms"][0]["modes"].insert(1, bad)
    with pytest.raises(ValueError, match=r"loop mode %s is not four integers"
                       % re.escape(repr(bad))):
        sugawara_table_from_json(blob)


coeffs = st.one_of(st.integers(min_value=-9, max_value=9),
                   st.fractions(min_value=-5, max_value=5, max_denominator=6))
VAR_POOL = [V(1, 1, 0), V(2, 2, 1), V(2, 1, 0), V(1, 2, 1, s=1), V(2, 2, 0, s=3)]
words = st.lists(st.sampled_from(VAR_POOL), max_size=6).map(tuple)
polys = st.dictionaries(words, coeffs, max_size=4).map(DiffPoly)


@given(polys)
def test_diffpoly_round_trip(poly):
    blob = json.dumps(diffpoly_to_json(poly))
    assert diffpoly_from_json(json.loads(blob)) == poly


@given(polys, polys)
def test_lambdapoly_round_trip(a, b):
    lp = UPoly({0: a, 2: b})
    blob = json.dumps(lambdapoly_to_json(lp))
    assert lambdapoly_from_json(json.loads(blob)) == lp


def test_bracket_round_trip():
    p = Partition.of(1, 1)
    lp = generator_bracket(p, BasisElt(1, 2, 0), BasisElt(2, 1, 0))
    assert lambdapoly_from_json(lambdapoly_to_json(lp)) == lp


def test_vacuum_round_trip_with_exponents():
    p = Partition.of(1, 1)
    v = VacuumVector.single(p, BasisElt(2, 1, 0), -1, Fraction(3, 2))
    v = v * v * VacuumVector.single(p, BasisElt(1, 2, 0), -2)
    blob = json.dumps(vacuum_to_json(v))
    back = vacuum_from_json(json.loads(blob))
    assert back == v and back.partition == p
    # expanded mode lists carry no exponent field
    assert all(len(mode) == 4 for t in vacuum_to_json(v)["terms"]
               for mode in t["modes"])


def test_repeated_modes_group_only_in_items():
    # Terms are keyed by flat words; items() groups each run of a repeated
    # mode, and the printers and the JSON read only items().
    rng = random.Random(15)
    p = Partition.of(1, 1)
    pool = [LoopMode(1, 1, 0, -1), LoopMode(2, 1, 0, -1), LoopMode(1, 2, 0, -1),
            LoopMode(2, 2, 0, -2)]
    squared = 0
    for _ in range(40):
        v = VacuumVector.vacuum(p)
        for _ in range(rng.randint(2, 4)):
            mode = rng.choice(pool)
            v = v * VacuumVector.single(p, mode.base, mode.m, rng.randint(1, 3))
        items = v.items()
        keys = [mono for mono, _ in items]
        # printer order: each grouped factor read as (i, j, r, m, exponent)
        order = [[(mode.i, mode.j, mode.r, mode.m, e) for mode, e in mono]
                 for mono in keys]
        assert all(a < b for a, b in zip(order, order[1:]))
        assert len(items) == len(v.terms)
        for mono, c in items:
            word = tuple(mode for mode, e in mono for _ in range(e))
            assert v.terms[word] == c
            assert all(e >= 1 for _, e in mono)
            assert all(a != b for (a, _), (b, _) in zip(mono, mono[1:]))
        blob = vacuum_to_json(v)
        assert [len(t["modes"]) for t in blob["terms"]] == \
            [sum(e for _, e in mono) for mono in keys]
        assert vacuum_from_json(json.loads(json.dumps(blob))) == v
        for mono, _ in items:
            for mode, e in mono:
                if e == 2:
                    squared += 1
                    assert "%s^2" % mode.text() in v.text()
                    assert "{%s}^{2}" % latex_mode(mode) in latex_vacuum(v)
    assert squared  # the pool repeats modes, so some term has one squared


def test_items_print_in_field_order_not_pbw_order():
    # PBW order puts E[2,1,0](-1) < E[1,1,0](-1) < E[1,2,0](-2); the
    # printers and the JSON list terms in (i, j, r, m, exponent) order.
    p = Partition.of(1, 1)
    modes = [LoopMode(2, 1, 0, -1), LoopMode(1, 1, 0, -1), LoopMode(1, 2, 0, -2)]
    a, b, c = (VacuumVector.single(p, mode.base, mode.m) for mode in modes)
    v = c + b.scale(2) + a.scale(3) + a * b * c + b * b * c
    assert sorted(modes) == modes
    assert [word[0] for word in sorted(v.terms)] == [modes[0]] * 2 + [modes[1]] * 2 + [modes[2]]
    assert v.text() == (
        "2*E[1,1,0](-1) + E[1,1,0](-1)^2*E[1,2,0](-2) + E[1,2,0](-2)"
        " + 3*E[2,1,0](-1) + E[2,1,0](-1)*E[1,1,0](-1)*E[1,2,0](-2)")
    blob = vacuum_to_json(v)
    assert [(t["coeff"]["num"], t["modes"]) for t in blob["terms"]] == [
        ("2", [[1, 1, 0, -1]]),
        ("1", [[1, 1, 0, -1], [1, 1, 0, -1], [1, 2, 0, -2]]),
        ("1", [[1, 2, 0, -2]]),
        ("3", [[2, 1, 0, -1]]),
        ("1", [[2, 1, 0, -1], [1, 1, 0, -1], [1, 2, 0, -2]])]
    assert vacuum_from_json(json.loads(json.dumps(blob))) == v


@pytest.mark.parametrize("parts", [(1, 2), (2, 2)])
def test_table_round_trips(parts):
    p = Partition.of(*parts)
    wt = w_generators(p)
    back = generator_table_from_json(
        json.loads(json.dumps(generator_table_to_json(wt))))
    assert back.partition == p
    assert back.entries == wt.entries and back.out_of_window == wt.out_of_window

    st_ = ss_vectors(p)
    back = sugawara_table_from_json(
        json.loads(json.dumps(sugawara_table_to_json(st_))))
    assert back.entries == st_.entries and back.out_of_window == st_.out_of_window


def test_table_keys():
    assert table_key("w", 2, 11) == "w[2][11]"
    assert parse_table_key("phi[3][0]") == ("phi", 3, 0)
    assert parse_table_key(table_key("w", 1, 0)) == ("w", 1, 0)
    blob = generator_table_to_json(w_generators(Partition.of(1, 2)))
    assert set(blob["entries"]) == {"w[1][0]", "w[1][1]", "w[2][1]"}
    assert set(blob["out_of_window"]) == {"w[2][0]"}


def test_latex_rationals_and_vars():
    assert latex_rat(3) == "3"
    assert latex_rat(Fraction(-2, 3)) == r"-\tfrac{2}{3}"
    assert latex_var(V(1, 2, 1)) == r"E_{1\,2}^{(1)}"
    assert latex_var(V(1, 2, 1, s=1)) == r"\partial E_{1\,2}^{(1)}"
    assert latex_var(V(2, 2, 0, s=3)) == r"\partial^{3} E_{2\,2}^{(0)}"
    assert latex_mode(LoopMode(2, 1, 0, -2)) == r"E_{2\,1}^{(0)}[-2]"


def test_latex_diffpoly():
    p = Partition.of(1, 2)
    w21 = w_generators(p).entries[(2, 1)]
    assert latex_diffpoly(w21) == \
        r"E_{1\,1}^{(0)} \, E_{2\,2}^{(1)} - E_{2\,1}^{(0)} + \partial E_{2\,2}^{(1)}"
    assert latex_diffpoly(DiffPoly.zero()) == "0"
    assert latex_diffpoly(vp(1, 1, 0) ** 2 - DiffPoly.const(Fraction(1, 2))) == \
        r"-\tfrac{1}{2} + {E_{1\,1}^{(0)}}^{2}"


def test_latex_vacuum_and_tables():
    p = Partition.of(1, 1)
    t = ss_vectors(p)
    out = latex_vacuum(t.entries[(2, 0)])
    assert r"E_{1\,1}^{(0)}[-1] \, E_{2\,2}^{(0)}[-1]" in out
    assert r"E_{2\,2}^{(0)}[-2]" in out
    table = latex_table(t, r"\phi")
    assert table.startswith(r"\begin{align*}")
    assert r"\phi_{2}^{(0)} &=" in table
    wtable = latex_table(w_generators(Partition.of(1, 2)), "w")
    assert r"w_{2}^{(1)} &=" in wtable
