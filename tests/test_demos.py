"""Every walkthrough in demos/ runs to the end against the current API and
prints the pinned bytes.

A pin holds for one build of numpy and its OpenBLAS: another build may sum
in another order and change the last bits of a printed float.  The pins
were set on numpy 2.4.6 with its bundled OpenBLAS."""

import hashlib
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout, keyed by its file's stem
STDOUT_SHA256 = {
    "elementary_link_policies":
        "668cdb9ade5107fd4c5963ed126671a40f5582f685a016bc68c580eb87b5f4f8",
    "joining_and_distillation":
        "65f032005a496ae57deb631f934952030d38c3d52af2d18cff869ca98668e685",
    "satellite_key_rates":
        "ca7044d3d86cc73dbb9650d9d55ec90e754a4b9920afe2569bab70e2843755f3",
    "two_link_swapping":
        "36746801caebe3db389970f40bf040f8ad6de79fd1c80a0d5d36589a94566fa3",
    "waiting_times":
        "6c9e48961c3875c6b2c885edcc490b0eb56f1b5316dd7b61cf367835ec370c22",
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
