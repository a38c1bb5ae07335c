"""Mutation smoke test: every layer's checks must be able to fail.

Each test swaps one primitive for a subtly wrong copy, in every vertexcalc
module that bound it by name, and asserts that the checks meant to cover
it report at least one failure.  The memo tables are emptied before and
after each mutant, so no wrong value leaks into a table another test reads.
"""

import hashlib
import inspect
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

from vertexcalc import ksum, nekrasov, partitions, prodred, schur, series, vertex
from vertexcalc.cli import main

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
TINY_SIZES = ["--max-weight", "1", "--qdeg", "1", "--bdeg", "1", "--fdeg", "2"]
# at --bdeg 1 every partition of a tuple has kappa 0, so the kappa ladders
# of the residual report need --bdeg 2
KAPPA_SIZES = ["--max-weight", "1", "--qdeg", "1", "--bdeg", "2", "--fdeg", "2"]


def vertexcalc_modules():
    return [mod for name, mod in sys.modules.items()
            if name.startswith("vertexcalc.") and mod is not None]


def clear_memo_tables():
    for mod in vertexcalc_modules():
        for attr, val in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(val, dict):
                val.clear()


@pytest.fixture
def mutate(monkeypatch):
    """Rebind owner.name to a mutant, and wherever a vertexcalc module holds it."""
    def install(owner, name, mutant):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, mutant)
        for mod in vertexcalc_modules():
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, mutant)
        clear_memo_tables()

    yield install
    monkeypatch.undo()
    clear_memo_tables()


def source_mutant(fn, old: str, new: str):
    """fn recompiled in its module with one source fragment replaced."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, "the mutated fragment is no longer in the source"
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(src.replace(old, new), f"<mutant {fn.__name__}>", "exec"), namespace)
    return namespace[fn.__name__]


def tiny_failures(suite: str, tmp_path, capsys, sizes=TINY_SIZES):
    """The number of failed checks of a tiny run, and their witnesses."""
    report = tmp_path / "report.json"
    main(["verify", suite, *sizes, "--json", str(report)])
    capsys.readouterr()
    doc = json.loads(report.read_text())
    witnesses = [e["witness"] for e in doc["entries"] if e["status"] == "fail"]
    assert not any("sides differ" in w for w in witnesses)
    return doc["summary"]["failed"], witnesses


def compute_pin_drift(capsys):
    """The first pinned compute call whose stdout no longer matches, or None."""
    for cls in sorted(PINS["compute"]):
        for call, digest in PINS["compute"][cls].items():
            try:
                code = main(call.split())
            except Exception:
                code = None
            out = capsys.readouterr().out
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                return call
    return None


def test_unmutated_tiny_suites_pass(tmp_path, capsys):
    for suite in ("partitions", "prodred", "schur", "vertex", "k", "kgen", "sun",
                  "nekrasov-su2", "nekrasov-sun"):
        assert tiny_failures(suite, tmp_path, capsys) == (0, [])
    assert tiny_failures("nekrasov-sun", tmp_path, capsys, KAPPA_SIZES) == (0, [])


def test_no_division_is_walked_that_evaluation_at_one_rules_out(monkeypatch, tmp_path, capsys):
    # a factor vanishing at X = 1 cannot divide a numerator that does not
    walks = []
    div = series._exact_div

    def counted(num, f):
        walks.append((sum(num._t.values()), sum(f._t.values())))
        return div(num, f)

    monkeypatch.setattr(series, "_exact_div", counted)
    clear_memo_tables()
    assert main(["verify", "all", *TINY_SIZES, "--threads", "1",
                 "--json", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert walks
    assert [w for w in walks if w[0] and not w[1]] == []


def test_no_check_adds_series_pairwise(monkeypatch, tmp_path, capsys):
    # every sum of series is one MultiQSeries.sum; + is only its two-term case
    calls = []
    add = series.MultiQSeries.__add__

    def counted(a, b):
        calls.append(a.dims)
        return add(a, b)

    monkeypatch.setattr(series.MultiQSeries, "__add__", counted)
    clear_memo_tables()
    assert main(["verify", "all", *TINY_SIZES, "--json", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert calls == []


def test_division_without_top_key_test_is_caught(mutate, capsys):
    mutant = source_mutant(series._exact_div,
                           "        if cs[hi] != v * acc:\n            return None\n", "")
    mutate(series, "_exact_div", mutant)
    assert compute_pin_drift(capsys) is not None


def test_division_skipped_when_numerator_vanishes_at_one_is_caught(mutate, capsys):
    mutant = source_mutant(series.LaurentFraction._make, "if at_one and vanishes:",
                           "if not at_one and vanishes:")
    mutate(series.LaurentFraction, "_make", mutant)
    assert compute_pin_drift(capsys) is not None


def test_unit_inverse_reading_minus_one_as_one_is_caught(mutate, tmp_path, capsys):
    # 1 / c for a leading coefficient c = -1 comes out +1, so a divisor led
    # by -X**k loses its sign when it is split into its canonical factor
    mutant = source_mutant(series._inverse, "return c if c == 1 or c == -1",
                           "return 1 if c == 1 or c == -1")
    mutate(series, "_inverse", mutant)
    assert tiny_failures("k", tmp_path, capsys)[0] > 0


def test_lone_factor_expansion_at_any_exponent_is_caught(mutate, tmp_path, capsys):
    # a multiset of one factor f with exponent e > 1 expands to f, not f**e
    mutant = source_mutant(series._den_expand, "if e == 1:", "if e:")
    mutate(series, "_den_expand", mutant)
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0


def test_scaling_that_always_divides_exactly_is_caught(mutate, tmp_path, capsys):
    # an int times p/q floor-divided by q when q does not divide it; no
    # pinned compute call scales an int by such a p/q, but k00's 1/n
    # coefficients and the sinh scalar 1/2**(2NW) do
    mutant = source_mutant(series._scaled, "Fraction(n, q) if n % q else n // q", "n // q")
    mutate(series, "_scaled", mutant)
    assert tiny_failures("k", tmp_path, capsys)[0] > 0
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0


def test_division_keeping_the_divisor_factors_is_caught(mutate, tmp_path, capsys):
    # the divisor's denominator factors are not taken off the dividend's
    mutant = source_mutant(series.LaurentFraction.__truediv__,
                           "left = den.get(f, 0) - e", "left = den.get(f, 0)")
    mutate(series.LaurentFraction, "__truediv__", mutant)
    assert tiny_failures("vertex", tmp_path, capsys)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "three-leg-routes" in {e["id"] for e in doc["entries"] if e["status"] == "fail"}


def test_kappa_off_by_one_is_caught(mutate, tmp_path, capsys):
    kappa = partitions.kappa
    mutate(partitions, "kappa", lambda mu: kappa(mu) + 1)
    assert tiny_failures("partitions", tmp_path, capsys)[0] > 0


def test_bracket_wrong_sign_is_caught(mutate, tmp_path, capsys):
    bracket = prodred.bracket
    mutate(prodred, "bracket", lambda m: bracket(m).scale(-1))
    assert tiny_failures("prodred", tmp_path, capsys)[0] > 0


def test_sum_dropping_its_last_term_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(series.LaurentFraction.sum,
                           "terms = [t for t in terms if t.num._t]",
                           "terms = [t for t in terms if t.num._t][:-1]")
    mutate(series.LaurentFraction, "sum", mutant)
    assert tiny_failures("schur", tmp_path, capsys)[0] > 0


def test_schur_background_sum_without_empty_shape_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(schur.schur_at_mu_rho, "for eta in common_subpartitions(mu, nu))",
                           "for eta in common_subpartitions(mu, nu) if eta)")
    mutate(schur, "schur_at_mu_rho", mutant)
    assert tiny_failures("schur", tmp_path, capsys)[0] > 0


def test_w3_sum_without_empty_shape_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(vertex.w3, "for eta in common_subpartitions(mu1, m3t))",
                           "for eta in common_subpartitions(mu1, m3t) if eta)")
    mutate(vertex, "w3", mutant)
    assert tiny_failures("vertex", tmp_path, capsys)[0] > 0
    # a looped check names the legs it failed at, then the witness
    doc = json.loads((tmp_path / "report.json").read_text())
    routes = [e["witness"] for e in doc["entries"]
              if e["id"] == "three-leg-routes" and e["status"] == "fail"]
    assert routes and all(re.match(r"(\((\d,?)*\) ){2}\((\d,?)*\): ", w) for w in routes)
    assert routes[0] == '() () (): "0" != "1"'


def test_leg_length_off_at_the_edge_of_nu_is_caught(mutate, tmp_path, capsys):
    # the last column of nu' is read as lying outside nu
    mutant = source_mutant(prodred.nekrasov_multiset, "if j <= len(cols) else 0)",
                           "if j < len(cols) else 0)")
    mutate(prodred, "nekrasov_multiset", mutant)
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0
    assert tiny_failures("k", tmp_path, capsys)[0] > 0


def test_k_brute_missing_a_middle_partition_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(ksum.k_brute, "for nu in partitions_of(d))",
                           "for nu in list(partitions_of(d))[:-1])")
    mutate(ksum, "k_brute", mutant)
    failed, witnesses = tiny_failures("k", tmp_path, capsys)
    assert failed > 0
    assert any(w.startswith("at [") for w in witnesses)


def test_z_su2_grading_by_one_weight_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(nekrasov.z_su2, "terms.setdefault((b, d), [])",
                           "terms.setdefault((weight(mu1), d), [])")
    mutate(nekrasov, "z_su2", mutant)
    assert tiny_failures("nekrasov-su2", tmp_path, capsys)[0] > 0


def test_residual_kappa_ladder_off_by_one_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(nekrasov.sun_residual, "(2 * n - 2 - 2 * i) * kappa",
                           "(2 * n - 1 - 2 * i) * kappa")
    mutate(nekrasov, "sun_residual", mutant)
    assert tiny_failures("nekrasov-sun", tmp_path, capsys, KAPPA_SIZES)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    failing = {e["id"] for e in doc["entries"] if e["status"] == "fail"}
    assert "residual-decomposition-report" in failing


def test_square_without_doubled_cross_terms_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(series.MultiQSeries.__mul__, "p.scale(2) if twice else p", "p")
    mutate(series.MultiQSeries, "__mul__", mutant)
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0


def test_sign_flipped_slot_monomial_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(nekrasov.sun_phi_slot, "sgn = (-1) ** (3 * n - 2)",
                           "sgn = -(-1) ** (3 * n - 2)")
    mutate(nekrasov, "sun_phi_slot", mutant)
    failed, witnesses = tiny_failures("nekrasov-sun", tmp_path, capsys)
    assert failed > 0
    assert any(w.startswith("at [[") for w in witnesses)


def test_skew_schur_letters_on_the_wrong_axes_are_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(schur.skew_schur_poly, "acc[(0,) * first_axis + wvec]",
                           "acc[(0,) * (first_axis + 1) + wvec]")
    mutate(schur, "skew_schur_poly", mutant)
    witnesses = tiny_failures("schur", tmp_path, capsys)[1]
    doc = json.loads((tmp_path / "report.json").read_text())
    failing = {e["id"] for e in doc["entries"] if e["status"] == "fail"}
    assert {"skew-cauchy", "cyclic-chain-sum"} <= failing
    assert all(w.startswith("at [") for w in witnesses)


def test_cauchy_kernel_missing_one_factor_is_caught(mutate, tmp_path, capsys):
    # the kernel loses its x_0 y_(ny-1) factor
    mutant = source_mutant(schur._cauchy_kernel, "for j in range(ny):",
                           "for j in range(ny if i else ny - 1):")
    mutate(schur, "_cauchy_kernel", mutant)
    assert tiny_failures("schur", tmp_path, capsys)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert {e["id"] for e in doc["entries"] if e["status"] == "fail"} == {"skew-cauchy"}


def test_chain_links_glued_on_another_slots_axes_are_caught(mutate, tmp_path, capsys):
    # every link reads its y letters from slot 1, not from the slot before
    # it; at two legs that slot is slot 1 anyway, so only three legs fail
    mutant = source_mutant(schur.verify_chain_sum, "yaxis(idx - 1, 0)", "yaxis(1, 0)")
    mutate(schur, "verify_chain_sum", mutant)
    assert tiny_failures("schur", tmp_path, capsys)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    failing = [(e["id"], e["instance"]) for e in doc["entries"] if e["status"] == "fail"]
    assert failing == [("cyclic-chain-sum", "legs=3 order=4")]


def test_series_sum_keeping_each_keys_first_term_is_caught(mutate, tmp_path, capsys):
    mutant = source_mutant(series.MultiQSeries.sum, "LaurentFraction.sum(vs)",
                           "LaurentFraction.sum(vs[:1])")
    mutate(series.MultiQSeries, "sum", mutant)
    assert tiny_failures("nekrasov-su2", tmp_path, capsys)[0] > 0
    assert tiny_failures("schur", tmp_path, capsys)[0] > 0


def test_ktilde_brute_missing_a_chain_tuple_is_caught(mutate, tmp_path, capsys):
    # each link of the chain sum skips the last middle partition of its pool
    mutant = source_mutant(ksum.chain_links, "for nu in all_partitions(dims[-1]):",
                           "for nu in list(all_partitions(dims[-1]))[:-1]:")
    mutate(ksum, "chain_links", mutant)
    assert tiny_failures("kgen", tmp_path, capsys)[0] > 0


def test_pair_series_placed_one_axis_short_of_its_ray_is_caught(mutate, tmp_path, capsys):
    # the chain monomial Q_k ... Q_{l-1} loses its last variable
    mutant = source_mutant(ksum.ray_keys, "k - 1 <= i <= l - 2", "k - 1 <= i <= l - 3")
    mutate(ksum, "ray_keys", mutant)
    assert tiny_failures("kgen", tmp_path, capsys)[0] > 0
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0


def test_lazy_square_without_doubled_cross_terms_is_caught(mutate, tmp_path, capsys):
    # the packed x * x keeps each off-diagonal pair of keys once
    mutant = source_mutant(series._cross_equal, "(2 * x if twice else x)", "x")
    mutate(series, "_cross_equal", mutant)
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "squared-chain-rank3" in {e["id"] for e in doc["entries"] if e["status"] == "fail"}


def test_room_one_short_on_every_axis_is_caught(mutate, tmp_path, capsys):
    # each room loses its top key on every axis: exp never fills the far
    # edges of the box, and no pair reaches them.  A check whose sides are
    # all products and exps sees the same smaller box on both (tiny sun
    # passes), so the failing ones hold a series built without either:
    # k_brute against exp's k00 in k, ktilde_brute against products in kgen
    mutant = source_mutant(series._room, "range(d - x + 1)", "range(d - x)")
    mutate(series, "_room", mutant)
    assert tiny_failures("k", tmp_path, capsys)[0] > 0
    assert tiny_failures("kgen", tmp_path, capsys)[0] > 0


def test_pair_enumerator_without_the_diagonal_is_caught(mutate, tmp_path, capsys):
    # a square loses every product of a key with itself
    mutant = source_mutant(series._pairs, "if j >= i:", "if j > i:")
    mutate(series, "_pairs", mutant)
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0


def test_common_denominator_of_one_side_is_caught(mutate, tmp_path, capsys):
    # same(ktilde_brute, kgen_closed) reaches Product.__eq__ reflected, so
    # the second side is the brute one: the common factor multiset is taken
    # from it alone, and factors only the closed side carries are never
    # multiplied into the brute side
    mutant = source_mutant(series._cross_equal, "top = dict(dens[0])", "top = dict(dens[1])")
    mutate(series, "_cross_equal", mutant)
    assert tiny_failures("kgen", tmp_path, capsys)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "chain-closed-form-rank3" in {e["id"] for e in doc["entries"] if e["status"] == "fail"}


def test_packing_without_the_origin_shift_is_caught(mutate, tmp_path, capsys):
    # every packed coefficient stays at its own least exponent, so products
    # of coefficients whose least exponents differ are added misaligned,
    # and the two sides compared misaligned
    mutant = source_mutant(series._cross_equal, "return scale << shift", "return scale")
    mutate(series, "_cross_equal", mutant)
    assert tiny_failures("kgen", tmp_path, capsys)[0] > 0
    assert tiny_failures("sun", tmp_path, capsys)[0] > 0


def test_fraction_equality_expanding_one_side_only_is_caught(mutate, tmp_path, capsys):
    # == over different factor multisets multiplies only the left numerator
    # by the factors it lacks; the right one is compared over its own
    mutant = source_mutant(series.LaurentFraction.__eq__,
                           "(o.num * _den_expand(_lacks(o.den, self.den)))._t", "o.num._t")
    mutate(series.LaurentFraction, "__eq__", mutant)
    sizes = ["--m", "0", "--bdeg", "2", "--fdeg", "4"]
    assert tiny_failures("nekrasov-su2", tmp_path, capsys, sizes)[0] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "rank2-termwise-and-aggregate" in {e["id"] for e in doc["entries"] if e["status"] == "fail"}
