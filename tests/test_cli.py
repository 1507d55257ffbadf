import io
import json
import subprocess
import sys

import pytest

from knotdeform.cli import (
    MAX_DEFORM_PREC,
    MAX_KNOT_M,
    MAX_RAMIFIED_PREC,
    MAX_RING_M,
    main,
    parse_args,
    run,
)
from knotdeform.deform import DeformationData
from knotdeform.pseudorep import WordSet, trace_table
from knotdeform.riley import riley_rep
from knotdeform.rings import PrimeField


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    args = parse_args(argv)
    code = run(args, out, err)
    return code, out.getvalue(), err.getvalue()


def test_parse_args_examples():
    args = parse_args(["riley", "3", "1"])
    assert args.command == "riley" and (args.knot.m, args.knot.n) == (3, 1)
    args = parse_args(
        ["deform", "5", "3", "--coeff", "padic:7:4", "--beta", "3", "--prec", "8"]
    )
    assert args.coeff == "padic:7:4" and args.prec == 8


def test_usage_errors_exit_64():
    for argv in (
        ["roots", "4", "1", "--prime", "7"],   # m even
        ["riley", "3"],                        # missing n
        ["riley", "3", "1", "--bogus"],        # unknown flag
        ["frobnicate"],                        # unknown subcommand
        ["verify-all", "--primes", "3,x"],     # bad prime list
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 64


def test_riley_text_output():
    code, out, _ = invoke(["riley", "3", "1"])
    assert code == 0
    assert out == "Phi(x,u) = x^2 + u - 3; Phi(2,u) = u + 1; disc = 1\n"
    code, out, _ = invoke(["riley", "5", "3"])
    assert out == (
        "Phi(x,u) = x^2*u - x^2 + u^2 - 5*u + 5; "
        "Phi(2,u) = u^2 - u + 1; disc = -3\n"
    )


def test_riley_json_numbers_are_strings():
    code, out, _ = invoke(["riley", "5", "3", "--json"])
    obj = json.loads(out)
    assert obj["disc"] == "-3"
    assert all(isinstance(t, list) and all(isinstance(s, str) for s in t)
               for t in obj["Phi"]["terms"])


def test_epsilon_and_word_output():
    code, out, _ = invoke(["epsilon", "5", "3"])
    assert (code, out) == (0, "1 -1 -1 1\n")
    code, out, _ = invoke(["word", "5", "3"])
    assert (code, out) == (0, "a b^-1 a^-1 b\n")


def test_roots_output():
    code, out, _ = invoke(["roots", "5", "3", "--prime", "5"])
    assert (code, out) == (0, "[]\n")
    code, out, _ = invoke(["roots", "5", "3", "--prime", "7"])
    assert (code, out) == (0, "[3, 5]\n")


def test_roots_domain_error_exits_1():
    code, _, err = invoke(["roots", "5", "3", "--prime", "3"])
    assert code == 1 and "disc" in err


def test_charvar_output():
    code, out, _ = invoke(["charvar", "3", "1"])
    assert out == "(-x^2 + y + 2)*(y - 1) = 0\n"
    code, out, _ = invoke(["charvar", "5", "3", "--json"])
    obj = json.loads(out)
    assert obj["reducible"]["vars"] == ["x", "y"]


def test_trace_reduce_output():
    code, out, _ = invoke(["trace-reduce", "a", "b", "a^-1", "b^-1"])
    assert out == "-x*z*y + x^2 + z^2 + y^2 - 2\n"
    code, out, _ = invoke(["trace-reduce", "aB"])
    assert out == "x*z - y\n"
    code, _, err = invoke(["trace-reduce", "a c"])
    assert code == 1


def test_deform_text_and_verify():
    code, out, _ = invoke(
        ["deform", "3", "1", "--coeff", "rational", "--beta", "-1",
         "--prec", "8", "--verify"]
    )
    assert code == 0
    assert "relator: pass" in out
    assert "u(x) = -1 - 4*z - z^2 + O(z^8)" in out


def test_deform_beta_m_escape():
    code, _, _ = invoke(
        ["deform", "3", "1", "--coeff", "rational", "--beta", "m1",
         "--prec", "4", "--verify"]
    )
    assert code == 0


def test_deform_domain_error():
    code, _, err = invoke(
        ["deform", "3", "1", "--coeff", "rational", "--beta", "0", "--prec", "4"]
    )
    assert code == 1 and "beta = 0" in err
    trefoil = ["deform", "3", "1", "--coeff", "rational", "--beta", "m1"]
    for extra, fragment in (
        (["--prec", "1"], "z-precision must be at least 2"),
        (["--prec", "0"], "z-precision must be at least 2"),
        (["--prec", "4", "--ramified", "1"], "s-precision must be at least 2"),
        (["--prec", "4", "--ramified", "0"], "s-precision must be at least 2"),
    ):
        code, out, err = invoke(trefoil + extra)
        assert code == 1 and out == "" and fragment in err, extra
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deform_precision_caps():
    at_caps = ["--prec", str(MAX_DEFORM_PREC), "--ramified", str(MAX_RAMIFIED_PREC)]
    code, out, _ = invoke(
        ["deform", "3", "1", "--coeff", "fp:13", "--beta", "m1", "--verify"] + at_caps
    )
    assert code == 0 and "U_D_Uinv_is_B: pass" in out
    # past a cap: one error line, before the ring spec is read
    bad_ring = ["deform", "3", "1", "--coeff", "padic:9:2", "--beta", "m1"]
    for extra, fragment in (
        (["--prec", str(MAX_DEFORM_PREC + 1)], "--prec at most"),
        (["--prec", "4", "--ramified", str(MAX_RAMIFIED_PREC + 1)], "--ramified at most"),
    ):
        code, out, err = invoke(bad_ring + extra)
        assert code == 1 and out == "" and fragment in err, extra
        assert err.startswith("error: ") and err.count("\n") == 1


def test_knot_cap():
    m = str(MAX_KNOT_M + 2)
    for argv in (
        ["riley", m, "1"],
        ["roots", m, "1", "--prime", "7"],
        ["charvar", m, "1", "--json"],
        ["deform", m, "1", "--coeff", "rational", "--beta", "m1", "--prec", "4"],
    ):
        code, out, err = invoke(argv)
        assert code == 1 and out == "", argv
        assert err == f"error: {argv[0]} takes m at most {MAX_KNOT_M}, got {m}\n"


def test_ring_truncation_cap():
    at_cap = ["deform", "3", "1", "--coeff", f"padic:7:{MAX_RING_M}", "--beta", "m1"]
    code, out, _ = invoke(at_cap + ["--prec", "4", "--verify"])
    assert code == 0 and "relator: pass" in out
    for spec in ("padic:7", "hbar:5", "hbar:rational"):
        code, out, err = invoke(
            ["deform", "3", "1", "--coeff", f"{spec}:{MAX_RING_M + 1}",
             "--beta", "m1", "--prec", "4"]
        )
        assert code == 1 and out == "", spec
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"truncation M of at most {MAX_RING_M}" in err, spec


def test_deform_json_round_trip():
    code, out, _ = invoke(
        ["deform", "5", "3", "--coeff", "padic:7:4", "--beta", "3",
         "--prec", "8", "--verify", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert all(c["pass"] for c in obj["verification"])
    again = DeformationData.from_json(obj)
    assert again.passed


def test_deform_ramified_and_specialize():
    code, out, _ = invoke(
        ["deform", "3", "1", "--coeff", "hbar:5:3", "--beta", "m1", "--prec", "6",
         "--ramified", "8", "--specialize", "1", "--verify", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["specialized"]["x0"] == "2 + h^2"
    assert all(c["pass"] for c in obj["ramified"])


def test_pseudo_check_files(tmp_path):
    ring = PrimeField(7)
    rho = riley_rep(parse_args(["riley", "5", "3"]).knot, ring(1), ring(3))
    table = trace_table(rho, WordSet.ball(2))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(table.to_json()))
    code, out, _ = invoke(["pseudo-check", str(good)])
    assert code == 0 and "(P) pass" in out and "(C) pass" in out

    obj = table.to_json()
    obj["entries"][3][1] = "5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = invoke(["pseudo-check", str(bad)])
    assert code == 2 and "violated" in out

    code, out, _ = invoke(["pseudo-check", str(bad), "--json"])
    parsed = json.loads(out)
    assert parsed["agree"] is True and parsed["P"]["pass"] is False

    code, _, err = invoke(["pseudo-check", str(tmp_path / "missing.json")])
    assert code == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{not json", "is not JSON"),
        ('{"ring": "fp:7"}', '"entries"'),
        ('{"ring": "fp:7", "entries": [["b", "x"]]}', "entry ['b', 'x']"),
        ('{"ring": "fp:7", "entries": [["a b", "1"], ["ab", "2"]]}',
         "entry ['ab', '2'] repeats the word a b"),
        ('{"ring": "hbar:5:3", "entries": [["a", "1 + h^5"]]}',
         "h^5 in '1 + h^5' is outside h^0 .. h^2"),
        ('{"ring": "hbar:5:3", "entries": [["a", "1 + h + h"]]}',
         "two terms in h^1"),
    ],
    ids=["not-json", "no-entries", "bad-value", "repeated-word", "hbar-exponent",
         "hbar-repeated-exponent"],
)
def test_pseudo_check_malformed_tables(tmp_path, text, fragment):
    path = tmp_path / "table.json"
    path.write_text(text)
    code, out, err = invoke(["pseudo-check", str(path)])
    assert code == 1 and out == "" and fragment in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deterministic_output():
    first = invoke(["riley", "7", "3", "--json"])
    second = invoke(["riley", "7", "3", "--json"])
    assert first == second
    a = invoke(["verify-all", "--max-m", "7", "--primes", "3,5"])
    b = invoke(["verify-all", "--max-m", "7", "--primes", "3,5"])
    assert a == b


def test_verify_all_small():
    code, out, _ = invoke(["verify-all", "--max-m", "9", "--primes", "3,5,7"])
    assert code == 0
    assert "all checks passed" in out
    assert "\x1b[" not in out  # no ANSI color on a non-tty stream


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_verify_all_on_a_terminal_prints_no_color():
    out = _Terminal()
    code = run(parse_args(["verify-all", "--max-m", "5", "--primes", "3"]), out, io.StringIO())
    assert code == 0 and "all checks passed" in out.getvalue()
    assert "\x1b[" not in out.getvalue()


def test_no_color_env(monkeypatch):
    monkeypatch.setenv("KNOTDEFORM_NO_COLOR", "1")
    code, out, _ = invoke(["verify-all", "--max-m", "5", "--primes", "3"])
    assert "\x1b[" not in out


def test_module_entry_point():
    import os
    from pathlib import Path

    import knotdeform

    env = dict(os.environ)
    src = str(Path(knotdeform.__file__).parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "knotdeform", "riley", "3", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Phi(x,u) = x^2 + u - 3; Phi(2,u) = u + 1; disc = 1\n"
    usage = subprocess.run(
        [sys.executable, "-m", "knotdeform", "roots", "4", "1", "--prime", "7"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert usage.returncode == 64


def test_main_returns_exit_code():
    assert main(["epsilon", "3", "1"]) == 0
