import hashlib
import importlib
import random

import pytest

from unitprop.cnf import CnfFormula, format_dimacs, propagate_staged, restrict
from unitprop.reify import (
    ClauseRole,
    ReifiedFormula,
    ReifiedIndex,
    ReifiedVariable,
    failed_literal_formula,
    format_reified,
    parse_reified,
    reify,
    reify_injected,
)
from unitprop.cli import main
from unitprop.propagator import Propagator
from unitprop.translate import extract_circuit
from unitprop.verify import random_cnf


def F(*clauses, names=None):
    return CnfFormula(clauses, names=names)


fs = frozenset

# a = 1, b = 2: (a) and (-a or b)
TWO_STEP = F([1], [-1, 2])


def test_index_cardinality_and_bijection():
    ix = ReifiedIndex([1, 2, 5])
    assert len(ix) == 2 * 3 * 5
    seen = set()
    for ident in ix.ids():
        assert ident not in seen
        seen.add(ident)
        rv = ix.describe(ident)
        assert ix.id_of(rv.base, rv.stage, rv.positive) == ident
    assert len(seen) == len(ix)
    assert min(seen) == 5 + 1  # allocated above the source ids
    assert ix.describe(5) is None
    assert ix.describe(max(seen) + 1) is None


def test_index_stage_bounds():
    ix = ReifiedIndex([1])
    with pytest.raises(ValueError):
        ix.id_of(1, 3, True)
    with pytest.raises(ValueError):
        ix.id_of(2, 0, True)


def test_delta_examples():
    ix = reify(TWO_STEP).index
    assert ix.delta(1, 0) == ReifiedVariable(1, 0, True)
    assert ix.delta(-1, 1) == ReifiedVariable(1, 1, False)
    assert ix.delta(2, 2) == ReifiedVariable(2, 2, True)
    # the stage-2 deduction clause fires exactly that variable
    rf = reify(TWO_STEP)
    assert fs({-ix.delta_id(1, 1), ix.delta_id(2, 2)}) in rf.formula


def test_reify_two_step_example():
    rf = reify(TWO_STEP)
    d = rf.index.delta_id
    init = {clause for role, clause in rf.emissions if role.kind == "init"}
    prop = {clause for role, clause in rf.emissions if role.kind == "prop"}
    ded = {clause for role, clause in rf.emissions if role.kind == "ded"}
    assert init == {fs({d(1, 0)}), fs({-d(1, 0), d(1, 1)})}
    assert prop == {fs({-d(w, i - 1), d(w, i)}) for i in (2, 3) for w in (1, -1, 2, -2)}
    assert ded == {
        fs({-d(1, 1), d(2, 2)}),
        fs({-d(-2, 1), d(-1, 2)}),
        fs({-d(1, 2), d(2, 3)}),
        fs({-d(-2, 2), d(-1, 3)}),
    }
    assert len(rf.formula) == len(rf.emissions) == 2 + 8 + 4
    assert len(rf.index) == 2 * 2 * (2 + 2)


def test_reify_two_step_trace():
    rf = reify(TWO_STEP)
    d = rf.index.delta_id
    trace = propagate_staged(rf.formula)
    assert not trace.is_bottom
    # rounds on the mirror are numbered from 0
    assert trace.stage(0, first=0) == {d(1, 0)}
    assert trace.stage(1, first=0) == {d(1, 1)}
    assert trace.stage(2, first=0) == {d(1, 2), d(2, 2)}
    assert trace.stage(3, first=0) == {d(1, 3), d(2, 3)}


def test_reify_empty_formula():
    rf = reify(F())
    assert len(rf.formula) == 0
    assert len(rf.index) == 0
    assert rf.emissions == ()


def test_reify_single_unit():
    rf = reify(F([1]))
    d = rf.index.delta_id
    expected = {
        fs({d(1, 0)}),
        fs({-d(1, 0), d(1, 1)}),
        fs({-d(1, 1), d(1, 2)}),
        fs({-d(-1, 1), d(-1, 2)}),
    }
    assert set(rf.formula.clauses) == expected


def test_roles_cover_each_clause_once():
    rf = reify(F([1], [-1, 2], [2, 3, -4]))
    for clause in rf.formula:
        assert len(rf.roles_for(clause)) == 1


def test_tautological_source_clause_collides_roles():
    # a deduction emission of a tautological binary clause coincides with a
    # carry-over clause; the set-formula merges them, the ledger keeps both
    rf = reify(F([1, -1], [2]))
    doubled = [c for c in rf.formula if len(rf.roles_for(c)) == 2]
    assert doubled
    assert rf.count("prop") == 2 * 2 * 2
    assert rf.count("ded") == 2 * 2


def test_reify_injected_clauses():
    base = F([1, -2, 3])
    rf = reify_injected(base, [1, 2])
    ix = rf.index
    inject = {clause for role, clause in rf.emissions if role.kind == "inject"}
    assert inject == {
        fs({-1, ix.id_of(1, 1, True)}),
        fs({1, ix.id_of(1, 1, False)}),
        fs({-2, ix.id_of(2, 1, True)}),
        fs({2, ix.id_of(2, 1, False)}),
    }
    assert rf.injected == {1, 2}
    plain = reify(base)
    assert set(plain.formula.clauses) <= set(rf.formula.clauses)


def test_reify_injected_nothing_is_plain_reify():
    base = F([1, -2, 3])
    assert reify_injected(base, []) == reify(base)


def test_reify_injected_rejects_foreign_variables():
    with pytest.raises(ValueError):
        reify_injected(F([1, 2]), [3])


def test_injected_restriction_drives_the_mirror():
    rf = reify_injected(F([1, -2, 3]), [1, 2])
    trace = propagate_staged(restrict(rf.formula, [1]))
    assert rf.index.id_of(1, 1, True) in trace.stage(1, first=0)


def test_counting_identities_random():
    rng = random.Random(11)
    for i in range(60):
        f = random_cnf(rng.randint(0, 6), rng.randint(0, 12), 4, seed=300 + i)
        rf = reify(f)
        n = len(f.variables)
        units = sum(1 for c in f if len(c) == 1)
        wide = sum(len(c) for c in f if len(c) >= 2)
        assert len(rf.index) == 2 * n * (n + 2)
        assert rf.count("prop") == 2 * n * n
        assert rf.count("init") == 2 * units
        assert rf.count("ded") == n * wide


def test_every_clause_keeps_a_positive_literal_random():
    rng = random.Random(12)
    for i in range(40):
        f = random_cnf(rng.randint(0, 6), rng.randint(0, 12), 4, seed=400 + i)
        rf = reify_injected(f, [v for v in sorted(f.variables) if rng.random() < 0.4])
        for clause in rf.formula:
            assert any(l > 0 for l in clause)
        # hence the all-true assignment is a model
        assert propagate_staged(rf.formula).is_bottom is False


def test_stage_discipline_random():
    rng = random.Random(13)
    for i in range(40):
        f = random_cnf(rng.randint(0, 6), rng.randint(0, 10), 4, seed=500 + i)
        rf = reify(f)
        trace = propagate_staged(rf.formula)
        for round_index, stage in enumerate(trace.stages):
            for lit in stage:
                assert lit > 0
                rv = rf.index.describe(lit)
                assert rv is not None and rv.stage == round_index


def test_correspondence_random():
    rng = random.Random(14)
    for i in range(40):
        f = random_cnf(rng.randint(0, 5), rng.randint(0, 10), 4, seed=600 + i)
        rf = reify(f)
        sigma = propagate_staged(rf.formula)
        phi = propagate_staged(f)
        n = rf.n
        for v in sorted(f.variables):
            for k in range(1, n + 2):
                for positive, lit in ((True, v), (False, -v)):
                    assert (rf.index.id_of(v, k, positive) in sigma.stage(k, first=0)) == (
                        lit in phi.through(k, first=1))


def test_inject_equivalence_random():
    rng = random.Random(15)
    for i in range(40):
        f = random_cnf(rng.randint(1, 5), rng.randint(1, 10), 3, seed=700 + i)
        chosen = [v for v in sorted(f.variables) if rng.random() < 0.5]
        lits = []
        for v in chosen:
            roll = rng.random()
            if roll < 1 / 3:
                lits.append(v)
            elif roll < 2 / 3:
                lits.append(-v)
        injected = reify_injected(f, chosen)
        direct = reify(restrict(f, lits))
        assert injected.index == direct.index
        left = propagate_staged(restrict(injected.formula, lits))
        right = propagate_staged(direct.formula)

        def mirror_part(produced):
            return {l for l in produced
                    if l > 0 and (rv := injected.index.describe(l)) is not None and rv.stage >= 1}

        assert mirror_part(left.produced) == mirror_part(right.produced)


def test_emission_heads_and_id_ranges_random():
    # circuit extraction relies on both: it groups emissions by max(clause)
    # and tells mirror literals from source literals by id range
    rng = random.Random(16)
    injections = 0
    for i in range(60):
        f = random_cnf(rng.randint(1, 6), rng.randint(1, 10), 4, seed=800 + i, horn=i % 2 == 1)
        chosen = [v for v in sorted(f.variables) if rng.random() < 0.5]
        for rf in (reify(f), reify_injected(f, chosen)):
            ix = rf.index
            injections += rf.count("inject")
            for role, clause in rf.emissions:
                if role == ClauseRole("init", 0):
                    continue
                rank = 1 if role.kind == "inject" else role.rank
                at_rank = [l for l in clause
                           if l > 0 and (rv := ix.describe(l)) is not None and rv.stage == rank]
                assert at_rank == [max(clause)]
                for l in clause:
                    assert (ix.describe(abs(l)) is not None) == (abs(l) > ix.offset)
    assert injections > 0


# --- failed literal -----------------------------------------------------------

def test_failed_literal_detects_failure():
    # (-a) and (a or b); probing -b fails, so the probe formula produces b
    f = F([-1], [1, 2])
    sim, target = failed_literal_formula(f, -2)
    assert target == 2
    assert propagate_staged(restrict(f, [-2])).is_bottom
    res = propagate_staged(sim)
    assert not res.is_bottom
    assert target in res.produced


def test_failed_literal_negative_case():
    f = F([1, 2])
    sim, target = failed_literal_formula(f, 1)
    assert target == -1
    assert not propagate_staged(restrict(f, [1])).is_bottom
    res = propagate_staged(sim)
    assert not res.is_bottom
    assert target not in res.produced


def test_failed_literal_on_contradictory_formula():
    f = F([1], [-1])
    for lit in (1, -1):
        sim, target = failed_literal_formula(f, lit)
        assert propagate_staged(restrict(f, [lit])).is_bottom
        assert target in propagate_staged(sim).produced


def test_failed_literal_rejects_unknown_variable():
    with pytest.raises(ValueError):
        failed_literal_formula(F([1, 2]), 5)


def test_failed_literal_random_agreement():
    rng = random.Random(16)
    injections = 0
    for i in range(60):
        f = random_cnf(rng.randint(1, 6), rng.randint(1, 10), 3, seed=800 + i)
        if not f.variables:
            continue
        v = rng.choice(sorted(f.variables))
        lit = v if rng.random() < 0.5 else -v
        direct = propagate_staged(restrict(f, [lit])).is_bottom
        sim, target = failed_literal_formula(f, lit)
        res = propagate_staged(sim, early_exit=True)
        assert not res.is_bottom
        assert (target in res.produced) == direct


# --- serialization --------------------------------------------------------------

def test_reified_round_trip_plain():
    rf = reify(TWO_STEP)
    again = parse_reified(format_reified(rf))
    assert again == rf


def test_reified_round_trip_injected():
    rf = reify_injected(F([1, -2, 3], [2]), [1, 3])
    again = parse_reified(format_reified(rf))
    assert again == rf
    assert again.injected == {1, 3}


def test_reified_round_trip_random():
    rng = random.Random(17)
    for i in range(25):
        f = random_cnf(rng.randint(1, 5), rng.randint(1, 8), 3, seed=900 + i)
        chosen = [v for v in sorted(f.variables) if rng.random() < 0.3]
        rf = reify_injected(f, chosen)
        assert parse_reified(format_reified(rf)) == rf


def test_role_text_round_trip():
    for role in (ClauseRole("init", 0), ClauseRole("init", 1), ClauseRole("prop", 3),
                 ClauseRole("ded", 2), ClauseRole("inject")):
        assert ClauseRole.parse(role.text()) == role
    with pytest.raises(ValueError):
        ClauseRole.parse("bogus 3")


def test_format_reified_mentions_roles_and_index():
    text = format_reified(reify(TWO_STEP))
    assert "c role init0" in text
    assert "c role prop 2" in text
    assert "c role ded 3" in text
    assert "c rv " in text


def test_reify_is_reify_injected_with_nothing_injected():
    for seed in range(30):
        rng = random.Random(seed)
        formula = random_cnf(rng.randint(0, 5), rng.randint(0, 10), rng.randint(1, 3), seed=seed)
        assert format_reified(reify(formula)) == format_reified(reify_injected(formula, ()))
        assert reify(formula) == reify_injected(formula, ())


# --- the mirror formula, built on first read -------------------------------------

def _eager_formula(mirror, source_names):
    """The mirror formula as built before it became lazy: labels by describe."""
    if source_names is None:
        return CnfFormula(clause for _, clause in mirror.emissions)
    names = dict(source_names)
    for ident in mirror.index.ids():
        rv = mirror.index.describe(ident)
        names[ident] = rv.label(source_names.get(rv.base))
    return CnfFormula((clause for _, clause in mirror.emissions), names=names)


def test_lazy_formula_equals_the_eager_build():
    rng = random.Random(51)
    for seed in range(60):
        f = random_cnf(rng.randint(0, 6), rng.randint(0, 12), rng.randint(1, 3), seed=seed,
                       horn=seed % 2 == 1)
        if seed % 3:
            # an empty name labels by id, as an absent one does
            f = CnfFormula(f.clauses, names={v: f"x{v}" if v % 2 else "" for v in f.variables})
        mirror = reify_injected(f, [v for v in sorted(f.variables) if rng.random() < 0.5])
        parsed = parse_reified(format_reified(mirror))
        for rf, source_names in ((mirror, f.names), (parsed, None)):
            eager = _eager_formula(rf, source_names)
            assert rf.formula.clauses == eager.clauses
            assert rf.formula.names == eager.names
            assert format_dimacs(rf.formula) == format_dimacs(eager)
            assert rf.formula is rf.formula  # built once
        assert parsed == mirror and parsed.formula.names == {}
    # equality reads the ledger, the index and the injected variables, not names
    rf = reify_injected(F([1, -2], [2, 3]), [1])
    assert ReifiedFormula(rf.index, rf.emissions, rf.injected) == rf
    assert ReifiedFormula(rf.index, rf.emissions, ()) != rf


def test_serializing_and_extracting_never_build_the_mirror_formula(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("mirror formula built")

    # the package's reify function shadows the module of that name
    monkeypatch.setattr(importlib.import_module("unitprop.reify"), "_mirror_names", refuse)
    f = CnfFormula([[1], [-1, 2], [-2, -3, 4]], names={1: "a", 4: "s"})
    format_reified(reify_injected(f, [3]))
    extract_circuit(Propagator(f, frozenset({3}), 4))
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(f))
    assert main(["reify", str(path), "--inject", "3", "-o", str(tmp_path / "m.cnf")]) == 0
    with pytest.raises(AssertionError, match="mirror formula built"):
        reify(f).formula


# sha256 of the mirror, probe and restriction texts on the corpus below,
# computed before the mirror formula became lazy and restrict a merge
MIRROR_TEXT_DIGEST = "665e6861b71994def9abf86b29e70a30435d3c6e722998474fff04dcaf93a32a"


def test_mirror_text_is_pinned():
    digest = hashlib.sha256()
    for seed in range(80):
        rng = random.Random(30_000 + seed)
        f = random_cnf(rng.randint(1, 6), rng.randint(1, 12), 3, seed=seed, horn=seed % 2 == 1)
        if seed % 3 == 0:
            f = CnfFormula(f.clauses, names={v: f"x{v}" for v in f.variables if v % 2})
        ordered = sorted(f.variables)
        mirror = reify_injected(f, [v for v in ordered if rng.random() < 0.5])
        text = format_reified(mirror)
        lit = rng.choice(ordered) * rng.choice((1, -1))
        probe, target = failed_literal_formula(f, lit)
        # the restriction may mention variables outside the formula
        extra = [v * rng.choice((1, -1)) for v in rng.sample(ordered + [7, 8], 3)]
        for part in (text, format_dimacs(mirror.formula), format_dimacs(parse_reified(text).formula),
                     format_dimacs(probe), str(target), format_dimacs(restrict(f, extra))):
            digest.update(part.encode())
            digest.update(b"\0")
    assert digest.hexdigest() == MIRROR_TEXT_DIGEST
