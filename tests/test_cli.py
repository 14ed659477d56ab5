import io
from pathlib import Path

import numpy as np
import pytest

from sumgraph.cli import (
    DocumentError,
    emit_graph,
    main,
    parse_graph,
)
from sumgraph.oracle import sample_system
from sumgraph.transform import summary_from_parent

from conftest import random_dag, random_spec

DATA = Path(__file__).parent / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def golden(name: str) -> str:
    return (DATA / "golden" / name).read_text()


# ---------------------------------------------------------------------------
# parsing and emission


def test_parse_chain_parent_graph():
    doc = parse_graph("nodes: 1 2 3\n1 <- 2\n2 <- 3\n")
    assert doc.is_parent
    assert doc.parent.nodes == ("1", "2", "3")
    assert doc.parent.amat[0, 1] == 1 and doc.parent.amat[1, 2] == 1


def test_parse_round_trips_with_system():
    text = (DATA / "iv.g").read_text()
    doc = parse_graph(text)
    assert doc.system is not None
    assert doc.system.coefficient("1", "2") == 0.4
    emitted = emit_graph(doc.parent, doc.system)
    again = parse_graph(emitted)
    assert again.parent == doc.parent
    assert np.allclose(again.system.a, doc.system.a)
    assert np.allclose(again.system.dvar, doc.system.dvar)
    # canonical: emitting the reparse is byte-identical
    assert emit_graph(again.parent, again.system) == emitted


def test_parse_placement_error_full_line_in_u():
    with pytest.raises(DocumentError):
        parse_graph("nodes: 1 2\nu: 1 2\nv:\n1 -- 2\n")


def test_parse_duplicate_edge_rejected():
    with pytest.raises(DocumentError):
        parse_graph("nodes: 1 2\n1 <- 2\n1 <- 2\n")


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(DocumentError) as exc:
        parse_graph("nodes: 1 2\n1 <>- 2\n")
    assert exc.value.line == 2


def test_parse_undeclared_node():
    with pytest.raises(DocumentError):
        parse_graph("nodes: 1 2\n1 <- 3\n")


def test_parse_rejects_reserved_node_ids():
    with pytest.raises(DocumentError):
        parse_graph("nodes: 1 --\n")


def test_parse_rejects_partial_coefficients():
    with pytest.raises(DocumentError):
        parse_graph("nodes: 1 2 3\n1 <- 2 : 0.4\n2 <- 3\n")


def test_emit_parse_round_trip_random_graphs():
    rng = np.random.default_rng(71)
    for trial in range(50):
        g = random_dag(rng, int(rng.integers(2, 8)), labels=None)
        g = type(g)(tuple(str(n) for n in g.nodes), g.amat)
        s = summary_from_parent(g, random_spec(rng, g.nodes))
        emitted = emit_graph(s)
        doc = parse_graph(emitted)
        assert doc.summary == type(doc.summary)(
            s.u_nodes, s.v_nodes, s.h_uu, s.h_uv, s.w_uu, s.s_vv
        )
        assert emit_graph(doc.summary) == emitted


def test_emit_parse_round_trip_system():
    rng = np.random.default_rng(72)
    for trial in range(20):
        g = random_dag(rng, int(rng.integers(2, 6)))
        g = type(g)(tuple(str(n) for n in g.nodes), g.amat)
        sys = sample_system(g, seed=trial)
        emitted = emit_graph(g, sys)
        doc = parse_graph(emitted)
        assert np.allclose(doc.system.a, sys.a)
        assert np.allclose(doc.system.dvar, sys.dvar)


# ---------------------------------------------------------------------------
# command contract


def test_transform_iv_golden():
    code, out, _ = run(["transform", str(DATA / "iv.g"), "--marginalise", "4"])
    assert code == 0
    assert out == golden("iv-transform.out")


def test_transform_indirect_golden():
    code, out, _ = run(["transform", str(DATA / "indirect.g"), "--marginalise", "5"])
    assert code == 0
    assert out == golden("indirect-transform.out")


def test_transform_stepwise_identical_stdout():
    plain_code, plain_out, _ = run(["transform", str(DATA / "indirect.g"), "--marginalise", "5"])
    step_code, step_out, step_err = run(
        ["transform", str(DATA / "indirect.g"), "--marginalise", "5", "--stepwise"]
    )
    assert plain_code == step_code == 0
    assert plain_out == step_out
    assert "# after marginalise 5" in step_err


def test_mag_iv_golden():
    code, out, _ = run(["mag", str(DATA / "iv-sum.g")])
    assert code == 0
    assert out == golden("iv-mag.out")


def test_query_iv_golden_not_implied():
    code, out, _ = run(
        ["query", str(DATA / "iv-sum.g"), "--alpha", "1", "--beta", "3", "--given", "2"]
    )
    assert code == 1
    assert out == golden("iv-query.out")


def test_query_implied_exit_zero():
    code, out, _ = run(["query", str(DATA / "indirect.g"), "--alpha", "2", "--beta", "4", "--given", "3"])
    assert code == 0
    assert out == "IMPLIED\n"


def test_audit_indirect_golden():
    code, out, _ = run(["audit", str(DATA / "indirect.g"), "--marginalise", "5"])
    assert code == 0
    assert out == golden("indirect-audit.out")


def test_audit_single_edge():
    code, out, _ = run(
        ["audit", str(DATA / "indirect.g"), "--marginalise", "5", "--edge", "1,4"]
    )
    assert code == 0
    assert out == "1 <- 4: INDIRECTLY CONFOUNDED via 1 ~~ 3 <- 4\n"


def test_audit_summary_input_indirect_only():
    code, out, _ = run(["audit", str(DATA / "iv-sum.g"), "--edge", "1,2"])
    assert code == 2  # double edge blocks the forefather-path scope


def test_audit_summary_input_reports_indirect_paths(tmp_path):
    _, doc, _ = run(["transform", str(DATA / "indirect.g"), "--marginalise", "5"])
    path = tmp_path / "reduced.g"
    path.write_text(doc)
    code, out, _ = run(["audit", str(path), "--edge", "1,4"])
    assert code == 0
    assert out == "1 <- 4: INDIRECTLY CONFOUNDED via 1 ~~ 3 <- 4\n"
    code, out, _ = run(["audit", str(path), "--edge", "1,4", "--order", "1,2,3,4"])
    assert code == 0 and "INDIRECTLY CONFOUNDED" in out


def test_verify_ok_exit_zero():
    code, out, _ = run(
        ["verify", str(DATA / "indirect.g"), "--marginalise", "5", "--draws", "10", "--seed", "0"]
    )
    assert code == 0
    assert out.endswith("verify: 10 draws, 0 violations\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--draws", "0"], "draws must be at least 1, got 0"),
        (["--draws", "-3"], "draws must be at least 1, got -3"),
        (["--seed", "-1"], "seed must be at least 0, got -1"),
    ],
)
def test_verify_rejects_invalid_draws_and_seed(flags, message):
    code, out, err = run(["verify", str(DATA / "iv.g")] + flags)
    assert code == 2
    assert out == ""
    assert err.startswith("sumgraph: ") and message in err


def test_classify_iv_summary():
    code, out, _ = run(["classify", str(DATA / "iv-sum.g")])
    assert code == 0
    assert out.splitlines()[0] == "SUMMARY_GRAPH_PROPER"
    assert "double edge: 1 2" in out


def test_equivalence_on_regression_graph():
    code, out, _ = run(["equivalence", str(DATA / "indirect.g")])
    assert code == 0
    assert out == "NO OBSTRUCTION FOUND\n"


def test_error_paths_exit_two():
    code, _, err = run(["transform", str(DATA / "iv.g"), "--marginalise", "99"])
    assert code == 2 and "unknown nodes" in err
    code, _, err = run(["query", str(DATA / "iv-sum.g"), "--alpha", "1", "--beta", "1"])
    assert code == 2
    code, _, err = run(["transform", "/nonexistent/file.g"])
    assert code == 2 and "cannot read" in err
    code, _, err = run(["transform", str(DATA / "iv.g"), "--condition", "4", "--marginalise", "4"])
    assert code == 2


# ---------------------------------------------------------------------------
# every generating document is checked before any command reads it

COMMANDS = [
    ["transform", "--marginalise", "2"],
    ["transform", "--marginalise", "2", "--stepwise"],
    ["query", "--alpha", "1", "--beta", "3", "--given", "2"],
    ["mag"],
    ["classify"],
    ["audit"],
    ["verify", "--draws", "2"],
    ["equivalence"],
]


def _run_on(tmp_path, text, command):
    path = tmp_path / "doc.g"
    path.write_text(text)
    return run([command[0], str(path)] + command[1:])


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c))
def test_cyclic_generating_document_exits_two(tmp_path, command):
    code, out, err = _run_on(tmp_path, "nodes: 1 2 3\n1 <- 2\n2 <- 3\n3 <- 1\n", command)
    assert code == 2 and out == ""
    assert "invalid generating graph: entry (3, 1) below the diagonal" in err


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c))
def test_out_of_order_generating_document_exits_two(tmp_path, command):
    code, out, err = _run_on(tmp_path, "nodes: 1 2 3\n3 <- 1\n2 <- 3\n", command)
    assert code == 2 and out == ""
    assert "invalid generating graph: entry (3, 1) below the diagonal" in err


def test_mag_on_out_of_order_document_exits_two(tmp_path):
    code, out, err = _run_on(tmp_path, "nodes: 1 2 3\n3 <- 1\n2 <- 3\n", ["mag"])
    assert (code, out) == (2, "")
    assert err.startswith("sumgraph: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c))
def test_non_finite_coefficient_document_exits_two(tmp_path, command, value):
    code, out, err = _run_on(tmp_path, f"nodes: 1 2 3\n1 <- 2 : {value}\n2 <- 3 : 0.5\n", command)
    assert code == 2 and out == ""
    assert f"line 2: bad coefficient '{value}'" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_variance_is_a_document_error(value):
    with pytest.raises(DocumentError, match=f"line 3: bad variance value '{value}'"):
        parse_graph(f"nodes: 1 2\n1 <- 2 : 0.5\nvar 1 : {value}\n")


def test_edge_matrix_errors_exit_two(monkeypatch):
    from sumgraph import cli
    from sumgraph.edge_matrix import EdgeMatrixError

    def broken(*args):
        raise EdgeMatrixError("edge matrix entries must be 0 or 1")

    monkeypatch.setattr(cli, "summary_from_parent", broken)
    code, out, err = run(["transform", str(DATA / "iv.g"), "--marginalise", "4"])
    assert (code, out) == (2, "")
    assert err == "sumgraph: edge matrix entries must be 0 or 1\n"


def test_ids_starting_with_a_dash_are_passed_with_an_equals_sign(tmp_path):
    path = tmp_path / "dash.g"
    path.write_text("nodes: -a 2 -3\n-a <- 2\n2 <- -3\n")
    code, out, _ = run(["transform", str(path), "--condition=-a,2"])
    assert code == 0 and out == "nodes: -3\nu:\nv: -3\n"
    code, out, _ = run(["query", str(path), "--alpha=-a", "--beta=-3", "--given=2"])
    assert code == 0 and out == "IMPLIED\n"
    # without it argparse reads the id as an option and exits 2
    assert run(["transform", str(path), "--condition", "-a"])[0] == 2
