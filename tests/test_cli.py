import pytest

from unitprop.circuit import evaluate, parse_circuit
from unitprop.cli import main
from unitprop.cnf import CnfFormula, format_dimacs, iter_assignments
from unitprop.propagator import (
    FunctionTable,
    Matching,
    Propagator,
    boolean_representation,
    eval_matching,
    format_propagator,
    parse_propagator,
    tabulate,
)
from unitprop.reify import parse_reified, reify
from unitprop.translate import circuit_to_propagator

fs = frozenset

CHAIN = CnfFormula([[1, -2], [2], [-1, 3, -4]], names={1: "a", 2: "b", 3: "c", 4: "d"})

OR_READER = Propagator(CnfFormula([[-1, 3], [-2, 3]], names={1: "v1", 2: "v2", 3: "s"}),
                       frozenset({1, 2}), 3)

PAIRED_CIRCUIT = (
    "input e1\ninput e2\ninput e3\ninput e4\n"
    "and u1 e1 e2\nor u2 u1 e4\noutput u2\n"
)


@pytest.fixture
def chain_cnf(tmp_path):
    path = tmp_path / "chain.cnf"
    path.write_text(format_dimacs(CHAIN))
    return str(path)


@pytest.fixture
def or_reader_file(tmp_path):
    path = tmp_path / "or_reader.prop"
    path.write_text(format_propagator(OR_READER))
    return str(path)


def test_propagate_prints_fixed_literals(chain_cnf, capsys):
    assert main(["propagate", chain_cnf]) == 0
    assert capsys.readouterr().out == "b a\n"


def test_propagate_trace(chain_cnf, capsys):
    assert main(["propagate", chain_cnf, "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "U1: b"
    assert out[1] == "U2: a"
    assert out[2] == "U3:"
    assert out[-1] == "b a"


def test_propagate_unsat(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text(format_dimacs(CnfFormula([[1], [-1]])))
    assert main(["propagate", str(path)]) == 0
    assert "UNSAT(UP)" in capsys.readouterr().out


def test_reify_round_trips_through_file(chain_cnf, tmp_path, capsys):
    out = tmp_path / "mirror.cnf"
    assert main(["reify", chain_cnf, "-o", str(out)]) == 0
    parsed = parse_reified(out.read_text())
    assert parsed == reify(CHAIN)


def test_reify_inject_by_name(chain_cnf, tmp_path):
    out = tmp_path / "mirror.cnf"
    assert main(["reify", chain_cnf, "--inject", "a,b", "-o", str(out)]) == 0
    assert parse_reified(out.read_text()).injected == {1, 2}


def test_failed_literal_positive(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(CnfFormula([[-1], [1, 2]], names={1: "a", 2: "b"})))
    assert main(["failed-literal", str(path), "--literal", "~b"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["direct FAILS", "reified FAILS", "agree yes"]


def test_failed_literal_negative_result_exits_one(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(CnfFormula([[1, 2]], names={1: "a", 2: "b"})))
    assert main(["failed-literal", str(path), "--literal", "a"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["direct OK", "reified OK", "agree yes"]


def test_failed_literal_unknown_variable(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(CnfFormula([[1, 2]])))
    assert main(["failed-literal", str(path), "--literal", "zz"]) == 2


def test_eval_prints_outcome(or_reader_file, capsys):
    assert main(["eval", or_reader_file, "--assign", "v1=x,v2=x"]) == 0
    assert capsys.readouterr().out == "na\n"
    assert main(["eval", or_reader_file, "--assign", "v1=1"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_eval_rejects_bad_assignment(or_reader_file, capsys):
    assert main(["eval", or_reader_file, "--assign", "v1=maybe"]) == 2


def test_tabulate_matches_library(or_reader_file, capsys):
    assert main(["tabulate", or_reader_file]) == 0
    assert capsys.readouterr().out == tabulate(OR_READER).format_csv()


def test_compile_circuit_golden(tmp_path, capsys):
    circ_path = tmp_path / "c.circ"
    circ_path.write_text(PAIRED_CIRCUIT)
    out = tmp_path / "c.prop"
    assert main(["compile-circuit", str(circ_path), "-o", str(out)]) == 0
    prop = parse_propagator(out.read_text())
    assert set(prop.formula.clauses) == {fs({-1, -2, 3}), fs({-3, 4}), fs({2, 4})}
    assert prop == circuit_to_propagator(parse_circuit(PAIRED_CIRCUIT))


def test_extract_circuit_output(tmp_path, or_reader_file, capsys):
    out = tmp_path / "c.circ"
    assert main(["extract-circuit", or_reader_file, "-o", str(out)]) == 0
    text = out.read_text()
    assert "#" in text  # provenance comments
    circ = parse_circuit(text)
    for assignment in iter_assignments([1, 2]):
        rep = boolean_representation(assignment, (1, 2))
        want = eval_matching(OR_READER, assignment)
        assert evaluate(circ, rep) == (1 if want is Matching.YES else 0)


def test_verify_suite_runs(capsys):
    assert main(["verify", "algorithm-agreement", "--seed", "3", "--count", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    passes = [l for l in lines if "\tPASS\t" in l or l.endswith("\tPASS")]
    assert len([l for l in lines if l.startswith("algorithm-agreement\t")]) == 4
    assert lines[-1].startswith("verified 1 suite(s)")


def test_verify_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "algorithm-agreement"])
    assert exc.value.code == 2


def test_verify_unknown_suite(capsys):
    assert main(["verify", "bogus", "--seed", "1"]) == 2


def test_check_monotone_propagator_passes(or_reader_file, capsys):
    assert main(["check-monotone", or_reader_file]) == 0
    assert capsys.readouterr().out == "PASS monotone\n"


def test_check_monotone_counterexample_csv(tmp_path, capsys):
    table = FunctionTable((1,), {
        fs({-1}): Matching.YES,
        fs({1}): Matching.NO,
        fs(): Matching.YES,
    }, names={1: "v"})
    path = tmp_path / "g.csv"
    path.write_text(table.format_csv())
    assert main(["check-monotone", str(path)]) == 1
    out = capsys.readouterr().out
    assert "monotonicity-violation" in out
    assert "I={}" in out and "J={v}" in out


def test_usage_error_exit_codes(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert main(["propagate", str(tmp_path / "missing.cnf")]) == 2


def test_check_monotone_rejects_short_csv_row(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("assignment,bits,outcome\nv1=1,10\n")
    assert main(["check-monotone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_count_below_one_is_usage_error(count, capsys):
    assert main(["verify", "th1-equiv", "--seed", "1", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_propagate_accepts_satlib_trailer(tmp_path, capsys):
    # SATLIB files end their clause section with a '%' line and a stray 0
    path = tmp_path / "uf.cnf"
    path.write_text("c SATLIB-style\np cnf 3 2\n 1 -2 0\n2 3 0\n%\n0\n\n")
    assert main(["propagate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n" and captured.err == ""


def test_check_monotone_csv_with_holes(tmp_path, capsys):
    # a=1,b=x and a=x,b=1 are missing: the violation spans two literals
    path = tmp_path / "holes.csv"
    path.write_text('assignment,bits,outcome\n"a=x,b=x",0000,yes\n"a=1,b=1",1100,no\n')
    assert main(["check-monotone", str(path)]) == 1
    assert capsys.readouterr().out == "monotonicity-violation I={} J={a,b} outcomes=yes/no\n"
