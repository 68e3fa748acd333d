"""Every command of README.md's CLI section runs and prints the pinned bytes,
and every API name the prose gives resolves."""

import hashlib
import importlib
import inspect
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import entlink
from entlink import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines():
    """The non-blank lines of the first sh block after "## CLI", with
    backslash continuations joined."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


LINES = readme_cli_lines()

# SHA-256 of each command's stdout, keyed by the command without "entlink "
STDOUT_SHA256 = {
    "--seed 42 simulate collective --M 2 --p 0.5":
        "ffc560668eb1e88f0f192750925af1d67a9a16a32503a61fa694358e74380dd0",
    "--seed 42 simulate elem --p 0.5 --m-star 2 --f 1,0.9,0.8 --t-star 2":
        "ee6d93215bf3710408fe6c20ca1404c9598ba0309fff1bd9027edb5bd87b4151",
    "--seed 42 simulate twolink --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2 --t1-star 2 --t2-star 2":
        "f400064880d1e0828f87f7764c86fa23339d65913019935f11e3fc1d3d651d16",
    "elem backward --p 0.3 --m-star 2 --f 1,0.9,0.8 --t 4":
        "5db85f75a74dba489c2fe8e429851703867b53005a77eb399cb9c99e2767d2d0",
    "elem forward --p 0.6 --m-star 3 --t-coh 100":
        "6870bef10458c6b8c30149e14e7e27f5b37eb141beced67e74391f6b4b2d98e4",
    # prints 0.6363636363636364, the double nearest 7/11, as `elem steady`
    # does for t* = 3
    "elem optimal --p 0.4 --m-star 3 --f 1,0.95,0.85,0.7":
        "2a4e982eab0bd28166880e59054bf0274575c78ace7bc7aee6bdf437a4530da1",
    "elem steady --p 0.5 --m-star 2 --f 1,0.9,0.8":
        "355802b1ebbb3cefb85656fb47e799e99ef32d5adfa8161e2eb700129cc3a16d",
    "satlink keyrates --d 500 --fs 0.99 --M 50":
        "a01641b2d70a527747e670c1e3dfd0704e6458f77732274642a44eaaa7a6f8ce",
    "satlink link --d 2000 --h 500 --fs 0.99 --nbar1 1e-4 --nbar2 1e-4":
        "082c648179fd29324dd242784690324096ae95eafe627c3f8eae9a336e15af2f",
    "satlink sweep --d-min 100 --d-max 2000 --steps 40 --fs 0.99":
        "3bd3e6c0fc006e4f1442cddea7883da4644d6b2297275014b6197449ef4938e7",
    "twolink analytic --p 0.5 --q 0.5 --t-star 0":
        "7e92daefca36d2a52f2ff4799a376cdffad4ce469754a17ec937d0c875d6a34d",
    # the wait 28/5 prints as 5.6000000000000005, one ulp above the double
    # nearest it: the censored solve's visits sum to 2.8000000000000003 and
    # its exit mass S.z to 1 exactly
    "twolink evaluate --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2 --t1-star 2 --t2-star 2":
        "c713cdb5e1700e2b931c2680eb0fe6627a085057c4e65cb3e18cee207874017f",
    "twolink lp-fidelity --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2 --t-coh 12":
        "09ee6f4f3c1c4d110ededd55d6ddce694d456d81fec1c15d7ca6570cf2e6c22d",
    # prints the wait 5.6000000000000005 too (cutoff (2, 2) is optimal)
    "twolink lp-waiting --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2":
        "fc9d33afebbe878e06df17c3b38749ccad09bfbe3d8b6fd6dfe02437c4e044c2",
    "waiting collective --M 4 --p 0.3 --t-req 2 --q 0.5":
        "dc5b6e9c0f854e50f4a689cd319fc555647f354ad8594a358acb18000ec04b96",
}


def test_readme_cli_block_holds_only_commands():
    assert LINES and all(line.startswith("entlink ") for line in LINES)


@pytest.mark.parametrize("command", LINES)
def test_readme_command_runs(command, capsys):
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command[len("entlink "):]]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259 has no NaN or Infinity)")


@pytest.mark.parametrize("command", [*LINES, "entlink satlink keyrates --d 500 --fs 0.7 --M 50"])
def test_json_output_is_strict_json(command, capsys):
    # below the CHSH bound the DI row printed "qber": NaN and
    # "key_fraction": -Infinity
    assert cli.main(["--format", "json", *shlex.split(command)[1:]]) == 0, \
        capsys.readouterr().err
    json.loads(capsys.readouterr().out, parse_constant=_not_json)


def _api_heads():
    """The package, its modules, and the public classes they define, by name."""
    heads = {"entlink": entlink}
    for info in pkgutil.iter_modules(entlink.__path__):
        module = importlib.import_module(f"entlink.{info.name}")
        heads[info.name] = module
        heads.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj) and not name.startswith("_")
                     and obj.__module__.startswith("entlink."))
    return heads


def readme_api_names():
    """The backticked dotted names of README.md's prose (code blocks left
    out), alone or called as in `Policy.stationary(d)`, whose head is the
    package, one of its modules or a public class."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", prose))
    heads = _api_heads()
    return sorted(name for name in names if name.split(".")[0] in heads)


def _resolves(name, heads):
    head, *rest = name.split(".")
    obj = heads[head]
    for attr in rest:
        # a dataclass field without a default is no class attribute
        if not (hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", {})):
            return False
        obj = getattr(obj, attr, None)
    return True


def test_readme_api_names_resolve():
    names = readme_api_names()
    assert "Policy.stationary" in names and "elemlink.evolve" in names
    heads = _api_heads()
    assert [name for name in names if not _resolves(name, heads)] == []


def test_readme_api_guard_sees_a_moved_name():
    heads = _api_heads()
    assert not _resolves("markov.evolve", heads)
    assert not _resolves("Policy.uniform", heads)
    assert _resolves("TwoLinkModel.f", heads)
