"""The `ordq selftest` suites: ordinal arithmetic, ranked oracles, query
ledgers and the reduction catalog.  Only the selftest command loads this
module; it prints one line per suite and a summary, and cli exits 0 when
every suite passed, else 1.
"""

from __future__ import annotations

from .ordcalc import OMEGA, add, left_sub, opow, parse_ordinal, render


class SelftestFailure(Exception):
    """A selftest check that did not hold."""


def _check(ok: bool, what: str):
    # an explicit check, so that python -O cannot strip it as it does assert
    if not ok:
        raise SelftestFailure(what)


def _suite_arithmetic():
    samples = [parse_ordinal(s) for s in
               ("0", "1", "5", "w", "w+3", "w*2", "w*2+1", "w^2", "w^2+w",
                "w^3+w^2*2+4", "w^(w)")]
    for a in samples:
        for b in samples:
            s = add(a, b)
            _check(s >= b, "addition dropped below its right operand")
            _check(left_sub(a, s) == left_sub(a, s), "left subtraction is not deterministic")
            _check(add(a, left_sub(a, s)) == s, "left subtraction round trip")
            _check(render(parse_ordinal(render(s))) == render(s), "render/parse round trip")
    _check(render(add(1, OMEGA)) == "w", "1 + w is not w")
    _check(render(opow(OMEGA, OMEGA)) == "w^(w)", "w^w renders wrongly")


def _suite_oracles():
    from .oracles import CardinalClassSet
    from .universe import multiples_of_omega
    hits = CardinalClassSet(multiples_of_omega(parse_ordinal("w^3")))
    a = parse_ordinal("w*3+5")
    _check(hits.least_above(a) == parse_ordinal("w*4"), "least_above")
    _check(hits.greatest_at_most(a) == parse_ordinal("w*3"), "greatest_at_most")
    _check(hits.next_limit_above(a) == parse_ordinal("w^2"), "next_limit_above")


def _suite_ledger():
    from .oracles import QueryLedger, ScriptedEffectivizer, SingleEntry
    ledger = QueryLedger()
    ledger.append(SingleEntry("X", 0, 1))
    _check(render(ledger.total_order_type()) == "1", "total order type of one entry")
    _check(ScriptedEffectivizer(ledger).call(0) == 1,
           "a replayed entry's answer")


def _suite_reductions():
    from . import hfsets as h, universe as u
    from .reductions import catalog, verify
    cs = u.omega_powers(parse_ordinal("w^3"))
    report = verify(catalog("nextcard_via_deccard"), cs,
                    [parse_ordinal(s) for s in ("5", "w", "w*2+1")])
    _check(report.passed, "next-cardinal reduction failed")
    report = verify(catalog("flagtrick"), u.multiples_of_omega(parse_ordinal("w^3")),
                    [parse_ordinal(s) for s in ("3", "w", "w+5")])
    _check(report.passed, "flag toggling reduction failed")
    code = h.encode_hf(h.hf(h.EMPTY_SET))
    report = verify(catalog("powercard_via_pot"), None, [code])
    _check(report.passed, "power cardinality reduction failed")
    # count-only: the second Pot answer stays pending, numbered by nothing
    code = h.encode_hf(h.hf(h.EMPTY_SET, h.hf(h.EMPTY_SET)))
    report = verify(catalog("powercard_via_pot", count_only=True), None, [code])
    _check(report.passed and report.rows[0].output_text == "4",
           "count-only power cardinality reduction failed")


_SELFTEST_SUITES = (
    ("ordinal arithmetic", _suite_arithmetic),
    ("ranked oracles", _suite_oracles),
    ("query ledgers", _suite_ledger),
    ("reduction catalog", _suite_reductions),
)


def run_suites() -> int:
    """Run each suite, print a line per suite and a summary, and answer the
    number of suites that failed."""
    failures = 0
    for name, suite in _SELFTEST_SUITES:
        try:
            suite()
        except SelftestFailure as e:
            failures += 1
            print(f"FAIL - {name}: {e}")
        else:
            print(f"ok - {name}")
    if failures:
        print(f"selftest: {failures} of {len(_SELFTEST_SUITES)} suites failed")
    else:
        print(f"selftest: {len(_SELFTEST_SUITES)} suites passed")
    return failures
