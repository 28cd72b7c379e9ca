"""Byte-level pins of CLI and demo stdout, with exit codes.

Each case maps to ``(exit code, SHA-256 of stdout)``, and each error case
also to its one stderr line. The digests were recorded from the
`Fraction`-based exact engines that preceded the integer count ones, and
those of the 200-wide, width 0..2 and error cases from the root engine that
cached layers between calls, the `simulate` ones (with the `--gnuplot`
files) from the ensemble that merged `Counter` histograms chunk by chunk,
and the `oracle` ones from the sweep that rebuilt each distribution through
a `Counter`, so any change to a pinned output fails here.
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
    "oracle-K6-json": ("oracle", "--K", "6"),
    "oracle-K6-aux-json": ("oracle", "--K", "6", "--mode", "aux"),
    "oracle-K7-gaps-json": ("oracle", "--K", "7", "--i", "1", "--i", "3"),
}
CLI_CASES.update({name.replace("json", "csv"): (*argv, "--format", "csv")
                  for name, argv in list(CLI_CASES.items()) if name.startswith("oracle-")})

# `simulate` over both modes, each kind of statistic alone and together, two
# workers over two chunks, one run, and the fast-path benchmark's width
_ALL = ("--stat", "roots", "--stat", "gaps", "--stat", "empirical-gap-average")
SIMULATE_CASES = {
    "simulate-json": ("simulate", "--K", "30", "--runs", "3000", "--seed", "7", *_ALL,
                      "--i", "1", "--i", "4"),
    "simulate-threads2-json": ("simulate", "--K", "24", "--runs", "5000", "--seed", "11",
                               "--threads", "2", *_ALL, "--i", "2"),
    "simulate-aux-json": ("simulate", "--K", "25", "--mode", "aux", "--runs", "2000",
                          "--seed", "5"),
    "simulate-empirical-json": ("simulate", "--K", "40", "--runs", "1500", "--seed", "9",
                                "--stat", "empirical-gap-average"),
    "simulate-growth-json": ("simulate", "--K", "10", "--runs", "12", "--seed", "4",
                             "--stat", "height-growth", "--n-steps", "400"),
}
SIMULATE_CASES.update({name.replace("json", "csv"): (*argv, "--format", "csv")
                       for name, argv in list(SIMULATE_CASES.items())})
SIMULATE_CASES.update({
    "simulate-one-run-json": ("simulate", "--K", "12", "--runs", "1", "--seed", "2", *_ALL,
                              "--stat", "height-growth", "--i", "1", "--n-steps", "100"),
    "simulate-K1500-json": ("simulate", "--K", "1500", "--runs", "20000", "--seed", "1", *_ALL,
                            *(a for i in range(1, 7) for a in ("--i", str(i)))),
})
CLI_CASES.update(SIMULATE_CASES)

# one ensemble of every statistic; its stdout and each `--gnuplot` file
GNUPLOT_CASE = ("simulate", "--K", "12", "--runs", "300", "--seed", "3", *_ALL,
                "--stat", "height-growth", "--i", "1", "--i", "2", "--n-steps", "100")
GNUPLOT_GOLDEN = {
    "stdout": (0, "6a9e72c54393cff0b638567968cf633f12a20861d739f68acec60259fa925ea2"),
    "h_empirical_gap_average.dat":
        "bb1b62225fcadb75a928925224d241e52a759093dcd7c4415a3d5120a05c1df4",
    "h_gaps_1.dat": "47b0390090ee9c7df6badaa21f88501fc2cb86b6977c18f18b46b0567687af6b",
    "h_gaps_2.dat": "4d0eb74be883bdba80aa60c7f7a96a5bbd96b4fb4d6051c684067f0690ad0804",
    "h_height_growth.dat": "b9eedf45d9b43432d15c7b372efb0c24e8ed5928e51ee08610b08fec3169338b",
    "h_roots.dat": "612c4604014595f8d4cf5b5ae5c1755899f517e065ae490ec6a4b6371ad69d05",
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
    "oracle-K6-json":
        (0, "d159c8900f7e113aa76ebf0e28242d5c086f9ee16d741bba540ab2e02192ea1b"),
    "oracle-K6-csv":
        (0, "12d9a3808049fcf22944802532b786dd18e2ac0d548e6a2799b3585c2caacf81"),
    "oracle-K6-aux-json":
        (0, "215dbb5c7330e8849b3a9b9d83f4315b3e85b9e1f0079f09b1bde18114164dd9"),
    "oracle-K6-aux-csv":
        (0, "5519cc5180f4f60e5b99d1d0b0ddbc1144a8297759bdc1e76ae34ceba7c481c6"),
    "oracle-K7-gaps-json":
        (0, "4231070c409b15cc7f1bd9813c9be30d6c796a28d55b8804ac9e37f46c1efc63"),
    "oracle-K7-gaps-csv":
        (0, "f3c1377751ad055dce020744ebb8a3602c22dee66adb846064fcd21becbf103a"),
    "simulate-json":
        (0, "66bf289e46dcf2d9d83043f250bde825cd743fa3e314a13cdb70b42b2ef6d707"),
    "simulate-csv":
        (0, "6c3d13b86be241ecc73755f5f9c58ef13826671676afc8f9639f7c064af18e2c"),
    "simulate-threads2-json":
        (0, "7a8fc656c22c8ebbc80cf59a275999267c2e25cb2213ac43d8141530d8249cd9"),
    "simulate-threads2-csv":
        (0, "24609c96d32b919170b43ed4f590a563c741219b7c437b86b0544f5937e3fed1"),
    "simulate-aux-json":
        (0, "6e2f587bd84b6f579fd4182402c3f8aae1f237e10f96f34ac8c083d6ca2fd9bf"),
    "simulate-aux-csv":
        (0, "1d49b6b9345126f84aa0e78afa87b0f768422493e1c6f31a1b28285c573f9622"),
    "simulate-empirical-json":
        (0, "3f793961d6f6eddb4a5e7522dd8d11dc96a9d7c4c16622613cb6fbfa48444459"),
    "simulate-empirical-csv":
        (0, "d172ef591a4718d36c08ffae19cc33dcd0078b5a32ea6b2d5cfc602d9cbb1542"),
    "simulate-growth-json":
        (0, "7c045ab2deef231ae666d3a56cb1ab5b07202bb647259194e7a93bb44501cc47"),
    "simulate-growth-csv":
        (0, "7dab0b32977900920d810ac2390fc3187c4eedde40f141264323fffee8461a8f"),
    "simulate-one-run-json":
        (0, "b39a1a4a0887a57911411c63fed79f90c00e7607ce681a1703401d7d2af487ba"),
    "simulate-K1500-json":
        (0, "11fe061ac4feb1e07e1477f8d7c5a4e98aec74f6b4eb733518de04c54fe75bfd"),
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


def test_simulate_gnuplot_files_are_pinned(tmp_path):
    code, digest, _ = cli_output((*GNUPLOT_CASE, "--gnuplot", str(tmp_path / "h_")))
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert {"stdout": (code, digest), **files} == GNUPLOT_GOLDEN


@pytest.mark.parametrize("script", DEMOS)
def test_demo_output_is_pinned(script):
    assert demo_output(script) == GOLDEN[script]
