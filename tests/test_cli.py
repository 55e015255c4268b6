import hashlib
import json

import pytest

from tracelift.cli import RUNNERS, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_sequences_listing(capsys):
    code, out = run_cli(capsys, "sequences", "--n", "2", "--l", "1")
    assert code == 0
    rows = json.loads(out)
    assert [r["bits"] for r in rows] == ["1001", "1100"]
    assert [r["s1"] for r in rows] == [2, 3]
    assert [r["reduced"] for r in rows] == ["101", "110"]


def test_sequences_pretty(capsys):
    code, out = run_cli(capsys, "sequences", "--n", "1", "--l", "1",
                        "--format", "pretty")
    assert code == 0
    assert out.splitlines() == ["100  s1=2  reduced=10"]


def test_sequences_rejects_bad_n(capsys):
    code, _ = run_cli(capsys, "sequences", "--n", "0", "--l", "1")
    assert code == 2


def test_build_psi_n1(capsys):
    code, out = run_cli(capsys, "build", "psi-n1", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["arity"] == 3
    assert len(obj["words"]) == 2


def test_build_psi0_2_2(capsys):
    code, out = run_cli(capsys, "build", "psi0", "--n", "2", "--l", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["arity"] == 5
    assert len(obj["words"]) == 3


def test_build_rejects_n1_for_interval_form(capsys):
    code, _ = run_cli(capsys, "build", "psi-n1", "--n", "1")
    assert code == 2


def test_build_bytes_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "build", "psi-nl", "--n", "2", "--l", "2",
                   "--out", str(p1))[0] == 0
    assert run_cli(capsys, "build", "psi-nl", "--n", "2", "--l", "2",
                   "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_unwritable_output(capsys):
    code, _ = run_cli(capsys, "build", "psi0", "--n", "1", "--l", "1",
                      "--out", "/nonexistent-dir/out.json")
    assert code == 3


def test_verify_thm11_passes(capsys):
    code, out = run_cli(capsys, "verify", "thm11", "--n", "2", "--l", "1",
                        "--commuting", "--trials", "3", "--seed", "7")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_thm11_fails_without_commuting(capsys):
    code, out = run_cli(capsys, "verify", "thm11", "--n", "2", "--l", "1",
                        "--trials", "3", "--seed", "7")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_thm21_matrix(capsys):
    code, out = run_cli(capsys, "verify", "thm21", "--n", "2",
                        "--trials", "2", "--seed", "7")
    assert code == 0


def test_verify_reports_deterministic(capsys):
    _, out1 = run_cli(capsys, "verify", "lemma12", "--n", "2", "--l", "1",
                      "--trials", "2", "--seed", "5")
    _, out2 = run_cli(capsys, "verify", "lemma12", "--n", "2", "--l", "1",
                      "--trials", "2", "--seed", "5")
    assert out1 == out2


def test_verify_lemma111_reports_observed_factor(capsys):
    code, out = run_cli(capsys, "verify", "lemma111", "--n", "1", "--l", "1")
    obj = json.loads(out)
    assert obj["params"]["observed_factor"] == [3, 1]
    assert obj["params"]["second_order_cancelled"] is True
    # the certificate checks the factor n + 2l that the expansion produces
    assert code == 0


def test_verify_bracket_series(capsys):
    code, out = run_cli(capsys, "verify", "bracket-series", "--cutoff", "3",
                        "--trials", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["params"]["coefficients"] == [[1, 1], [1, 2], [2, 3]]


def test_verify_psido_backend_requires_even_n(capsys):
    code, _ = run_cli(capsys, "verify", "axioms", "--backend", "psido",
                      "--n", "3", "--trials", "1")
    assert code == 2


def test_oracle_agreement(capsys):
    code, out = run_cli(capsys, "oracle", "--n", "2", "--l", "1",
                        "--trials", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_oracle_size_bound(capsys):
    code, _ = run_cli(capsys, "oracle", "--n", "4", "--l", "3")
    assert code == 2


def test_unknown_check_rejected(capsys):
    code, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv", [
    # the window is too shallow for an exact residue
    ("verify", "thm21", "--backend", "psido", "--n", "2", "--window", "1",
     "--trials", "3"),
    # no generators for the matrix context
    ("verify", "thm11", "--n", "0"),
    ("oracle", "--n", "0", "--l", "1"),
    # no even-run sequences
    ("verify", "lemma111", "--n", "0", "--l", "1"),
    # predicted cost 2.6e13, refused before walking C(39,19) bit patterns
    ("verify", "lemma111", "--n", "20", "--l", "10"),
    # a check needs at least one trial
    ("verify", "thm21", "--n", "2", "--trials", "0"),
    # the even sum vanishes only for commuting derivations
    ("verify", "lemma11", "--n", "2", "--l", "1"),
    # the bracket series takes the same trial and cutoff bounds
    ("verify", "bracket-series", "--trials", "0"),
    ("verify", "bracket-series", "--trials", "-3"),
    ("verify", "bracket-series", "--cutoff", "0"),
    # matrices must be at least 1x1
    ("verify", "thm21", "--n", "2", "--N", "-2"),
    ("verify", "axioms", "--N", "-1"),
    ("verify", "axioms", "--N", "0"),
    ("oracle", "--N", "-1"),
    # an option the chosen backend does not read
    ("verify", "thm21", "--backend", "psido", "--n", "2", "--N", "-5", "--trials", "1"),
    ("verify", "thm21", "--backend", "psido", "--n", "2", "--commuting", "--trials", "1"),
    ("verify", "thm21", "--n", "2", "--window", "-7", "--trials", "1"),
], ids=["psido-window", "thm11-n0", "oracle-n0", "lemma111-n0",
        "lemma111-over-budget", "no-trials", "lemma11-noncommuting",
        "bracket-series-no-trials", "bracket-series-negative-trials",
        "bracket-series-cutoff0", "thm21-N-negative", "axioms-N-negative",
        "axioms-N0", "oracle-N-negative", "psido-N", "psido-commuting",
        "matrix-window"])
def test_bad_parameters_are_usage_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def test_psido_shallow_window_fault_is_pinned(capsys):
    """Window 1 is too shallow for the residue on these trials: the fault is
    a usage error that names the exponent and the window."""
    try:
        code = main(["verify", "thm21", "--backend", "psido", "--n", "2",
                     "--window", "1", "--trials", "12", "--seed", "3"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "d-exponent (-1,) below window (0,)" in captured.err


@pytest.mark.parametrize("check,backend,message", [
    ("key-lemma", "psido",
     "the inner expansion needs inner derivations; the psido context has none"),
    ("lemma11", "psido", "lemma11 is inapplicable: derivations do not commute"),
    ("lemma11", "matrix",
     "lemma11 is inapplicable: derivations do not commute; pass --commuting"),
], ids=["key-lemma-psido", "lemma11-psido", "lemma11-matrix"])
def test_inapplicable_contexts_are_usage_errors(capsys, check, backend, message):
    """The psido derivations are outer and do not commute, so the inner
    expansion and the even sum do not apply there: exit 2, not a crash or a
    failed check, and only the matrix backend is told to pass --commuting."""
    try:
        code = main(["verify", check, "--backend", backend, "--n", "2", "--l", "1",
                     "--trials", "1"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("verify", "lemma111", "--n", "0", "--l", "1"),
    ("verify", "lemma111", "--n", "-1", "--l", "1"),
    ("verify", "lemma111", "--n", "2", "--l", "0"),
    # refused for its parameters before the context's derivations are read
    ("verify", "lemma11", "--n", "2", "--l", "0"),
    ("verify", "lemma11", "--n", "2", "--l", "0", "--commuting"),
], ids=["lemma111-n0", "lemma111-n-negative", "lemma111-l0", "lemma11-l0",
        "lemma11-l0-commuting"])
def test_bad_n_or_l_names_the_parameters(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: n >= 1 and l >= 1 required\n")


@pytest.mark.parametrize("error,code", [(RuntimeError, 4), (ValueError, 2)],
                         ids=["crash", "usage"])
def test_a_crash_exits_4_not_as_a_failed_check(capsys, monkeypatch, error, code):
    """An unexpected exception is an internal error (exit 4, traceback on
    stderr), never exit 1; a ``ValueError`` stays a usage error."""
    def broken(args):
        raise error("broken runner")

    monkeypatch.setitem(RUNNERS, "thm21", broken)
    try:
        got = main(["verify", "thm21", "--trials", "1"])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert "broken runner" in captured.err
    assert ("Traceback" in captured.err) == (code == 4)


@pytest.mark.parametrize("window,code,pinned", [
    ("7", 0, "5de87a678a569f036520a83abde2f8cb4e9d8b382d797082ddecfac21335533c"),
    ("6", 2, "error: d-exponent (-1,) below window (0,)\n"),
], ids=["window7-pass", "window6-fault"])
def test_psido_psi_nl_collapsed_to_classes_is_pinned(capsys, window, code, pinned):
    """Psi_nl(2,2) on psido symbols: the kernel walks 3 of its 5 words, one
    per orbit class, and the report (the SHA-256 of stdout) or the window
    fault is the one every word walked gives."""
    try:
        got = main(["verify", "thm23", "--backend", "psido", "--n", "2", "--l", "2",
                    "--window", window])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    if code == 0:
        assert hashlib.sha256(captured.out.encode()).hexdigest() == pinned
    else:
        assert captured.out == "" and captured.err.endswith(pinned)
