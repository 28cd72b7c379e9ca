"""Byte-level pins of CLI and demo stdout, with exit codes.

Each case maps to ``(exit code, SHA-256 of stdout)``, and each error case
also to its one stderr line. The digests were recorded from the
`Fraction`-based exact engines that preceded the integer count ones, and
those of the 200-wide, width 0..2 and error cases from the root engine that
cached layers between calls, so any change to a pinned output fails here.
Regenerate a digest only for an intended output change, and say which one
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stripdep.cli import main

ROOT = Path(__file__).resolve().parents[1]

# case -> argv; the four verify calls are the exact-verify benchmark's
CLI_CASES = {
    "verify-all": ("verify", "--suite", "all"),
    "bench-verify-roots": ("verify", "--suite", "roots", "--kmax", "110"),
    "bench-verify-gaps": ("verify", "--suite", "gaps"),
    "bench-verify-tables": ("verify", "--suite", "tables"),
    "bench-verify-oracle": ("verify", "--suite", "oracle", "--kmax", "9"),
    "exact-roots-cyclic-json": ("exact-roots", "--kmax", "40"),
    "exact-roots-cyclic-csv": ("exact-roots", "--kmax", "40", "--format", "csv"),
    "exact-roots-aux-json": ("exact-roots", "--kmax", "40", "--mode", "aux"),
    "exact-roots-aux-csv": ("exact-roots", "--kmax", "40", "--mode", "aux",
                            "--format", "csv"),
    "exact-gaps-json": ("exact-gaps", "--kmax", "25", "--i", "1", "--i", "3"),
    "exact-gaps-csv": ("exact-gaps", "--kmax", "25", "--i", "1", "--i", "3",
                       "--format", "csv"),
    "exact-gaps-all-lengths-json": ("exact-gaps", "--kmax", "40",
                                    *(a for i in range(1, 8) for a in ("--i", str(i)))),
    "exact-roots-cyclic-200-json": ("exact-roots", "--kmax", "200"),
    "exact-roots-aux-200-json": ("exact-roots", "--kmax", "200", "--mode", "aux"),
    "exact-roots-aux-K0": ("exact-roots", "--mode", "aux", "--K", "0"),
    "exact-roots-aux-K1": ("exact-roots", "--mode", "aux", "--K", "1"),
    "exact-roots-aux-K2": ("exact-roots", "--mode", "aux", "--K", "2"),
    "exact-roots-K2-error": ("exact-roots", "--K", "2"),
    "exact-roots-aux-K-1-error": ("exact-roots", "--K", "-1", "--mode", "aux"),
    "exact-gaps-K2-error": ("exact-gaps", "--K", "2"),
}

ERROR_LINES = {
    "exact-roots-K2-error": "error: substrate width must be >= 3, got 2\n",
    "exact-roots-aux-K-1-error": "error: width must be non-negative, got -1\n",
    "exact-gaps-K2-error": "error: substrate width must be >= 3, got 2\n",
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

DEMOS = ("exact_gap_distributions.py", "exact_root_distributions.py")

GOLDEN = {
    "verify-all":
        (0, "ba6a72aa51e83160ae12a316cff034e7df18c4af4b193527290c9b2355f98fbf"),
    "bench-verify-roots":
        (0, "a6dce6c343f7a6ed7c8a6bc6a4fa76528f2cd9856be604e7ae3eac1dc0897230"),
    "bench-verify-gaps":
        (0, "3d6df2ffba8b848aefbfeacc89c6bffbc821538ff09a81ed1e3e31420a7d4945"),
    "bench-verify-tables":
        (0, "d5807c91cea5b73ed5bf6e0f03fb6ea42fa886aca159f79a7f6ad0b97fcc2440"),
    "bench-verify-oracle":
        (0, "ca5c15481081b3946780aba580707a106a136d692f3a5a22d24c90a4c36c043f"),
    "exact-roots-cyclic-json":
        (0, "f42bc7376c395057106166d9846b571840f2b425c2052f296b4dda3b872e3789"),
    "exact-roots-cyclic-csv":
        (0, "e197da44b4d28470cf2c68f4d82bfc6cc633cc8dfc83d84cbd80ddf3b302c985"),
    "exact-roots-aux-json":
        (0, "adb415ed7760ff216d7d0eeec8c4067ed17e130ce11b89e626368a48c6751920"),
    "exact-roots-aux-csv":
        (0, "7268f35d94ae2c4558b7d8917ead84ae7397cbbc67b46486af85ddf27cbd7e0d"),
    "exact-gaps-json":
        (0, "e46cd21e2401a8af75722dba858cc8a9dfe57d3918a16ed978c78fabdfda0940"),
    "exact-gaps-csv":
        (0, "14f93b371d21c33a6ac0fb2a668f771f94ebfe29170af2286d08b4ec07490b33"),
    "exact-gaps-all-lengths-json":
        (0, "9a01ba9f985228ac75417ddae86d9ecf37c46f7fdb1c1651334d2561272ad0fa"),
    "exact-roots-cyclic-200-json":
        (0, "440fd96983ffc1f8b931de3dca03f64b777d6fe1328f8851f2ef657d3a3916ed"),
    "exact-roots-aux-200-json":
        (0, "c93886f4175de440c30c394e2a6c93f91905a3db384ae7a501ac630439cefc40"),
    "exact-roots-aux-K0":
        (0, "239ba4ced9f09981b6b1f8ada6da5940648601a8b30ada437272c704389f06a3"),
    "exact-roots-aux-K1":
        (0, "c79ba032c8471fb644ec8fc5e4d825a284f347b8507f24a3ff5a2520aae6ef32"),
    "exact-roots-aux-K2":
        (0, "704004d1745b221926615c53a3e6d8f0aa46ea4e30f6a7d5f76e4485832fef52"),
    "exact-roots-K2-error": (2, EMPTY),
    "exact-roots-aux-K-1-error": (2, EMPTY),
    "exact-gaps-K2-error": (2, EMPTY),
    "exact_gap_distributions.py":
        (0, "49cc90a2cb0a0b2bb8a3214a3af81c24ba79a0b2bcb773c607f0fa0e1ce676d5"),
    "exact_root_distributions.py":
        (0, "0a1641eaabb64b30c91016caef0cddcd87f2c0e1e303c578fd60a16ff4d9bd31"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_output(argv) -> tuple[int, str, str]:
    """Exit code, stdout digest and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, _digest(out.getvalue()), err.getvalue()


def demo_output(script: str) -> tuple[int, str]:
    """Exit code and stdout digest of one demo run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, _digest(done.stdout)


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted([*CLI_CASES, *DEMOS])


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_is_pinned(case):
    code, digest, err = cli_output(CLI_CASES[case])
    assert (code, digest) == GOLDEN[case]
    if case in ERROR_LINES:
        assert err == ERROR_LINES[case]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_output_is_pinned(script):
    assert demo_output(script) == GOLDEN[script]
