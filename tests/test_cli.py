import subprocess
import sys
from pathlib import Path

import pytest

from holobundle import minvariant
from holobundle.cli import main, run
from holobundle.config import parse_config

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

GENERIC_NOT_COVERED = """
[surface]
kind = generic
gram = -1

[bundle]
rank = 2
c1 = 1
c2 = -2
"""

VII_TOTAL = """
[surface]
kind = class7
gram = -2, 0; 0, -1

[bundle]
rank = 2
c1 = 1, 3
c2 = 2
"""


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "holobundle", *args],
        capture_output=True,
        text=True,
    )


def test_golden_decide_exceptional():
    proc = cli("--command", "decide", "--config", str(DATA / "decide_exceptional.cfg"))
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "decide_exceptional.txt").read_text()


def test_golden_m_witness():
    proc = cli("--command", "m", "--config", str(DATA / "m_witness.cfg"))
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "m_witness.txt").read_text()


def test_golden_check_deterministic():
    first = cli("--command", "check", "--seed", "42")
    second = cli("--command", "check", "--seed", "42")
    assert first.returncode == 0
    assert first.stdout == second.stdout == (GOLDEN / "check_seed42.txt").read_text()


def _job(command, cfg, fmt):
    return ("--command", command, "--config", str(DATA / cfg), "--format", fmt)


REPORT_GOLDENS = [
    ("blowup_text.txt", _job("blowup", "blowup_total.cfg", "text")),
    ("blowup_structured.txt", _job("blowup", "blowup_total.cfg", "structured")),
    ("pushforward_text.txt", _job("pushforward", "blowup_total.cfg", "text")),
    ("pushforward_structured.txt", _job("pushforward", "blowup_total.cfg", "structured")),
    ("delta_text.txt", _job("delta", "blowup_total.cfg", "text")),
    ("chi_structured.txt", _job("chi", "blowup_total.cfg", "structured")),
    ("decide_outside_ns_text.txt", _job("decide", "decide_outside_ns.cfg", "text")),
    ("decide_outside_ns_structured.txt", _job("decide", "decide_outside_ns.cfg", "structured")),
    ("m_rank0_text.txt", _job("m", "m_rank0.cfg", "text")),
    ("m_rank0_structured.txt", _job("m", "m_rank0.cfg", "structured")),
    ("check_seed42_structured.txt", ("--command", "check", "--seed", "42", "--format", "structured")),
]


@pytest.mark.parametrize("golden, args", REPORT_GOLDENS, ids=[g for g, _ in REPORT_GOLDENS])
def test_golden_report_shapes(golden, args):
    proc = cli(*args)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / golden).read_text()


def test_structured_decide(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text((DATA / "m_witness.cfg").read_text())
    proc = cli("--command", "decide", "--config", str(cfg), "--format", "structured")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "delta=2",
        "m=2",
        "holomorphic=yes",
        "filtrable=yes",
        "clause=k3-criterion",
        "exceptional=false",
    ]


def test_structured_m_decomposition(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(VII_TOTAL)
    proc = cli("--command", "m", "--config", str(cfg), "--format", "structured")
    assert proc.returncode == 0
    lines = dict(line.split("=", 1) for line in proc.stdout.splitlines())
    assert lines["m"] == "3"
    assert lines["decomposition"] == "0,1;1,2"


def write(tmp_path, text):
    path = tmp_path / "job.cfg"
    path.write_text(text)
    return str(path)


def test_exit_zero_on_success(tmp_path):
    proc = cli("--command", "decide", "--config", write(tmp_path, VII_TOTAL))
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "text",
    [
        "[surface]\nkind = k3\ngram = 2\n[bundle]\nrank = 2\nc1 = 1\nc2 = 0\n",
        "[surface]\nkind = k3\ngram = -2\n[bundle]\nrank = 2\nc1 = 1\n",
        "[surface]\nkind = nope\ngram = -2\n[bundle]\nrank = 2\nc1 = 1\nc2 = 0\n",
    ],
)
def test_exit_two_on_config_errors(tmp_path, text):
    proc = cli("--command", "decide", "--config", write(tmp_path, text))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_exit_two_on_usage_errors(tmp_path):
    assert cli("--command", "decide").returncode == 2
    assert cli("--command", "decide", "--config", str(tmp_path / "nope.cfg")).returncode == 2
    assert cli("--command", "explode").returncode == 2


def test_exit_three_on_domain_errors(tmp_path):
    k3_rank3 = "[surface]\nkind = k3\ngram = -2\n[bundle]\nrank = 3\nc1 = 1\nc2 = 0\n"
    proc = cli("--command", "decide", "--config", write(tmp_path, k3_rank3))
    assert proc.returncode == 3
    assert "domain error" in proc.stderr

    bad_total = "[surface]\nkind = class7\ngram = -2, 0; 0, -2\n[bundle]\nrank = 2\nc1 = 1, 1\nc2 = 0\n"
    proc = cli("--command", "pushforward", "--config", write(tmp_path, bad_total))
    assert proc.returncode == 3


def test_exit_three_on_oracle_box_over_limit(capsys):
    # the first oracle instance of check --seed 42 has quotient rank 3,
    # and 50 is the smallest radius whose 101^3 box exceeds the limit
    assert main(["--command", "check", "--seed", "42", "--radius", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: radius 50 box has 1030301 points in rank 3")


def test_exit_four_only_in_strict_mode(tmp_path):
    cfg = write(tmp_path, GENERIC_NOT_COVERED)
    assert cli("--command", "decide", "--config", cfg).returncode == 0
    proc = cli("--command", "decide", "--config", cfg, "--strict")
    assert proc.returncode == 4
    assert "holomorphic = not_covered" in proc.stdout


def test_exit_five_on_internal_errors(monkeypatch, capsys):
    # every candidate is reported one unit too dear, so the witness check
    # in m_compute fails with an InvariantError
    enumerate_points = minvariant._ellipsoid

    def overpriced(ldl, s, r, bound, shrink=False):
        return [(c + 1, y) for c, y in enumerate_points(ldl, s, r, bound, shrink)]

    monkeypatch.setattr(minvariant, "_ellipsoid", overpriced)
    assert main(["--command", "m", "--config", str(DATA / "m_witness.cfg")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: scaled objective")


def test_run_api_smoke():
    cfg = parse_config(VII_TOTAL, "pushforward")
    report, code = run(cfg)
    assert code == 0
    lines = dict(
        part.split(" = ", 1) for part in report.splitlines() if " = " in part
    )
    assert lines["k raw"] == "3"
    assert lines["twist"] == "-1"
    assert lines["k"] == "1"
    assert lines["delta"] == "19"
    assert lines["delta bound"] == "18"
    assert lines["m margin"] == "0"


def test_run_blowup_report():
    cfg = parse_config(
        "[surface]\nkind = class7\ngram = -2\n[bundle]\nrank = 2\nc1 = 1\nc2 = 2\n",
        "blowup",
    )
    report, code = run(cfg)
    assert code == 0
    assert "invariant = true" in report
    assert "exceptional class = (0, 1)" in report


def test_chi_command(tmp_path):
    half = (
        "[surface]\nkind = generic\ngram = -1\n[bundle]\nrank = 2\nc1 = 1\nc2 = 0\n"
    )
    proc = cli("--command", "chi", "--config", write(tmp_path, half))
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["chi = -1/2", "integral = false"]


def test_delta_command(tmp_path):
    proc = cli(
        "--command", "delta", "--config", str(DATA / "m_witness.cfg"), "--format", "structured"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["delta=2", "p1=-2", "w2_vanishes=false"]
