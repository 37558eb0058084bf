import os
import subprocess
import sys
from pathlib import Path

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



@pytest.mark.parametrize("clauses, names, expected", [
    ([[1, -2], [2], [-1, 3, -4]], {1: "a", 2: "b", 3: "c", 4: "d"},
     "U1: b\nU2: a\nU3:\nU4:\nU5:\nb a\n"),
    ([[1], [-1, 2], [-2, -1, 3], [-3, -2]], None,
     "U1: 1\nU2: 2\nU3: 3 -3\nU4: -1 -2\nUNSAT(UP)\n"),
    ([[1, 2], [-1, 3]], None, "U1:\nU2:\nU3:\nU4:\n\n"),
    ([[1], [-1], [-1, 2, -3], [-1, -2, -4], [2], [-2], [-2, 3, -4], [-2, -6], [3, -6],
      [4], [-4, -5]], None,
     "U1: 1 -1 2 -2 4\nU2: 3 -3 -4 -5 -6\nU3:\nU4:\nU5:\nU6:\nU7:\nUNSAT(UP)\n"),
])
def test_propagate_trace_output_is_pinned(tmp_path, capsys, clauses, names, expected):
    # every round up to n+1, past the fixpoint and past a clash
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(CnfFormula(clauses, names=names)))
    assert main(["propagate", str(path), "--trace"]) == 0
    assert capsys.readouterr().out == expected

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


def test_extract_circuit_accepts_names_shaped_like_node_labels(tmp_path, capsys):
    path = tmp_path / "clash.prop"
    path.write_text("c inputs 1 2\nc output 3\nc var 1 a\nc var 2 a_1+\nc var 3 s\n"
                    "p cnf 3 2\n-1 3 0\n-2 3 0\n")
    assert main(["extract-circuit", str(path)]) == 0
    assert capsys.readouterr().out.startswith("input 1\ninput 2\ninput ~1\ninput ~2\n")


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


def test_check_monotone_rejects_bits_that_are_not_the_assignments(tmp_path, capsys):
    path = tmp_path / "bits.csv"
    path.write_text('assignment,bits,outcome\n"a=x,b=x",1111,yes\n"a=x,b=1",banana,no\n')
    assert main(["check-monotone", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: bits '1111' do not match assignment 'a=x,b=x'\n")
    path.write_text('assignment,bits,outcome\n"a=x,b=1",banana,no\n"a=x,b=x",0000,yes\n')
    assert main(["check-monotone", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: bits 'banana' do not match assignment 'a=x,b=1'\n")


def test_check_monotone_keeps_a_named_column_apart_from_a_numeric_one(tmp_path, capsys):
    # no exactly where variable 2 is true; c would collide with 2 if given id 2
    rows = {a.literals: Matching.NO if 2 in a.literals else Matching.YES
            for a in iter_assignments((2, 3))}
    path = tmp_path / "t.csv"
    path.write_text(FunctionTable((2, 3), rows, names={3: "c"}).format_csv())
    assert main(["check-monotone", str(path)]) == 1
    assert capsys.readouterr().out == "monotonicity-violation I={} J={2} outcomes=yes/no\n"



def test_tabulate_then_check_monotone_with_names_a_cell_cannot_carry(tmp_path, capsys):
    path = tmp_path / "p.prop"
    path.write_text("c var 1 a,b\nc var 2 c=d\nc inputs 1 2\nc output 3\n"
                    "p cnf 3 2\n-1 3 0\n-2 3 0\n")
    table = tmp_path / "t.csv"
    assert main(["tabulate", str(path), "-o", str(table)]) == 0
    assert table.read_text().splitlines()[1] == '"1=x,2=x",0000,na'
    assert main(["check-monotone", str(table)]) == 0
    assert capsys.readouterr().out == "PASS monotone\n"

@pytest.mark.parametrize("rows", [
    "0=x,00,no\n0=1,10,yes\n",                 # read as monotone before
    "0=x,00,yes\n0=1,10,no\n",                 # read as 'not a literal: 0' before
    "0=x,00,no\n0=1,10,yes\n0=0,01,no\n",     # read as a repeated row before
    "00=x,00,no\n00=1,10,yes\n",
])
def test_check_monotone_rejects_a_column_naming_variable_0(tmp_path, capsys, rows):
    path = tmp_path / "zero.csv"
    path.write_text("assignment,bits,outcome\n" + rows)
    assert main(["check-monotone", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table column names variable 0\n"


def test_check_monotone_rejects_a_repeated_row(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("assignment,bits,outcome\nv=x,00,no\nv=1,10,yes\nv=0,01,no\nv=1,10,no\n")
    assert main(["check-monotone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: repeated table row: 'v=1'\n"


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


def test_tabulate_then_check_monotone_without_inputs(tmp_path, capsys):
    path = tmp_path / "const.prop"
    path.write_text("c inputs\nc output 1\np cnf 1 1\n1 0\n")
    table = tmp_path / "const.csv"
    assert main(["tabulate", str(path), "-o", str(table)]) == 0
    assert table.read_text() == "assignment,bits,outcome\n,,true\n"
    assert main(["check-monotone", str(table)]) == 0
    assert capsys.readouterr().out == "PASS monotone\n"


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_check_monotone_reports_the_same_violation_whatever_the_row_order(tmp_path, capsys, order):
    rows = ['"a=x,b=x",0000,yes\n', '"a=x,b=1",0100,no\n', '"a=1,b=x",1000,no\n']
    path = tmp_path / "tied.csv"
    path.write_text("assignment,bits,outcome\n" + "".join(rows[i] for i in order))
    assert main(["check-monotone", str(path)]) == 1
    assert capsys.readouterr().out == "monotonicity-violation I={} J={b} outcomes=yes/no\n"


def test_propagate_eval_and_tabulate_verbs_never_sort(chain_cnf, or_reader_file, sort_counter, capsys):
    sort_counter.clear()  # writing the files sorted
    assert main(["propagate", chain_cnf, "--trace"]) == 0
    assert main(["eval", or_reader_file, "--assign", "v1=1,v2=x"]) == 0
    assert main(["tabulate", or_reader_file]) == 0
    assert sort_counter == []
    assert capsys.readouterr().out.startswith("U1: b\nU2: a\n")


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "three.cnf"
    path.write_text("p cnf 3 3\n1 0\n-1 2 0\n-2 -3 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "unitprop", "propagate", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 2 -3\n", "")
