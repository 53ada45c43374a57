"""Driver-level checks: spec parsing, exit codes, output formats, bounds."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import fscat
from fscat import config, double_cosets, sym, sym_embed, verify
from fscat.cli import GroupSpec, main, parse_group_spec


def test_group_specs_round_trip():
    texts = ["sym:6", "alt:7", "cyclic:12", "tilde-sym:7", "sym-embed:3,6",
             "alt-embed:5,7", "sym-prime:2,6", "gens:(1,2)(3,4);(1,3)@4"]
    for text in texts:
        spec = parse_group_spec(text)
        assert spec.to_text() == text
        assert parse_group_spec(spec.to_text()) == spec


def test_group_specs_build_the_right_groups():
    assert parse_group_spec("cyclic:12").build().order() == 12
    assert parse_group_spec("tilde-sym:7").build().order() == 120
    klein = parse_group_spec("gens:(1,2)(3,4);(1,3)(2,4)@4").build()
    assert klein.order() == 4
    assert parse_group_spec("gens:@3").build().order() == 1


def test_gens_specs_are_canonicalized():
    spec = parse_group_spec("gens:( 1 , 2 );(1,3)@4")
    assert spec == GroupSpec("gens", cycles=("(1,2)", "(1,3)"), degree=4)


@pytest.mark.parametrize("bad", [
    "sym",              # no colon
    "blah:5",           # unknown family
    "sym:3,4",          # wrong arity
    "sym-embed:3",      # wrong arity
    "sym:x",            # not an integer
    "gens:(1,2)",       # no degree
    "gens:(1,2)@x",     # bad degree
    "gens:(1,5)@3",     # letter out of range
])
def test_bad_group_specs_are_rejected(bad):
    with pytest.raises(ValueError):
        parse_group_spec(bad)


def test_census_output_and_exit_code(capsys):
    assert main(["census", "--l", "3", "--n", "6"]) == 0
    assert capsys.readouterr().out == "34,20\n"


def test_python_dash_m_runs_the_command_line():
    # the package's parent directory goes first on the path, so the child
    # imports this checkout's fscat whether or not it is installed
    src = str(Path(fscat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "fscat", "census", "--l", "3", "--n", "6"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "34,20\n", "")


def test_census_rejects_bad_range(capsys):
    assert main(["census", "--l", "9", "--n", "3"]) == 2
    assert "1 <= l <= n" in capsys.readouterr().err


def test_indicators_human_output(capsys):
    assert main(["indicators", "--G", "sym:6", "--H", "alt:6"]) == 0
    out = capsys.readouterr().out
    assert "C(sym:6, alt:6)" in out
    assert "simples: 14" in out
    assert "-1" not in out


def test_indicators_pads_the_subgroup_degree(capsys):
    assert main(["indicators", "--G", "sym:6", "--H", "tilde-sym:5"]) == 0
    out = capsys.readouterr().out
    assert "-1 at rep" in out  # the even flip coset of this category


def test_indicators_json_matches_csv_row_count(capsys):
    assert main(["indicators", "--G", "sym:5", "--H", "sym-embed:2,5",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["category"] == {"G_spec": "sym:5", "H_spec": "sym-embed:2,5"}
    assert main(["indicators", "--G", "sym:5", "--H", "sym-embed:2,5",
                 "--csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) - 1 == len(payload["entries"])


def test_identical_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["indicators", "--G", "sym:6", "--H", "cyclic:6", "--json"]
    assert main(["--out", str(a)] + argv) == 0
    assert main(["--out", str(b)] + argv) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    before = config.ENUMERATION_BOUND, config.INDEX_BOUND
    out = tmp_path / "missing" / "x.txt"
    assert main(["--out", str(out), "--enum-bound", "100",
                 "census", "--l", "3", "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == "" and not out.exists()
    assert (config.ENUMERATION_BOUND, config.INDEX_BOUND) == before


def test_all_names_the_public_package_surface():
    public = {name for name, value in vars(fscat).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(fscat.__all__) == sorted(public)
    assert all(getattr(fscat, name) is not None for name in fscat.__all__)


def test_not_a_subgroup_is_a_usage_error(capsys):
    assert main(["indicators", "--G", "alt:4", "--H", "cyclic:4"]) == 2
    assert "not a subgroup" in capsys.readouterr().err
    assert main(["indicators", "--G", "sym:5", "--H", "sym:6"]) == 2
    assert "degree" in capsys.readouterr().err


def test_double_cosets_listing(capsys):
    assert main(["double-cosets", "--G", "sym:4",
                 "--H", "gens:(1,2)(3,4);(1,3)(2,4)@4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "6 double cosets"
    assert all("size 4" in line for line in out[1:])


def test_verify_pass_fail_and_unknown(capsys):
    assert main(["verify", "--claim", "thm-tilde", "--n", "6"]) == 0
    assert main(["verify", "--claim", "census", "--l", "4", "--n", "8"]) == 1
    out = capsys.readouterr().out
    assert "(209, 166)" in out
    assert main(["verify", "--claim", "no-such"]) == 2
    assert main(["verify", "--claim", "ex-nu-p", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "unknown claim" in err
    assert "wrong parameters" in err


def test_verify_json_has_no_runtime(capsys):
    assert main(["verify", "--claim", "thm-Cn", "--n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert "runtime" not in payload


def test_verify_all_quick_passes(capsys):
    assert main(["verify-all", "--profile", "quick", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 12
    assert {r["status"] for r in payload} == {"pass"}


def test_examples_print_their_facts(capsys):
    assert main(["example", "--id", "ex-minus-one"]) == 0
    out = capsys.readouterr().out
    assert "nu_2 = -1" in out
    assert "g^2 equals t^6: True" in out
    assert main(["example", "--id", "ex-nu-p"]) == 0
    assert "all degree-7 indicators vanish" in capsys.readouterr().out


_EXAMPLE_TEXT = {
    "ex-minus-one": """\
g = (1,2,7,8)(3,11,9,5)(4,12,10,6)
H = cyclic:12 generated by the 12-cycle t
g^2 equals t^6: True
conjugate (1,5,6,9,10,2,7,11,12,3,4,8) lies in H: False
conjugate (1,6,10,7,12,4)(2,11,3,8,5,9) lies in H: False
conjugate (1,9,7,3)(2,12,8,6)(4,5,10,11) lies in H: False
conjugate (1,10,12)(2,3,5)(4,6,7)(8,9,11) lies in H: False
stabilizer of the coset: order 2, generated by g^2
chi with chi(g^2) = -1: nu_2 = -1   <-- indicator -1
chi with chi(g^2) = 1: nu_2 = 1
""",
    "ex-nu-p": """\
coset of g = (5,6) in sym:7 over H = sym-embed:5,7, m = 7
some element of gH has its 7th power in H: False
stabilizer order 24
nu_7 over the 5 characters: [0, 0, 0, 0, 0]
all degree-7 indicators vanish
""",
}

_EXAMPLE_DETAIL = {
    "ex-minus-one": "stabilizer {e, g^2} of order 2, all four conjugates "
                    "outside the subgroup, indicator -1 attained",
    "ex-nu-p": "no witness and all 5 degree-7 indicators vanish on the coset "
               "of (5,6); stabilizer order 24",
}


@pytest.mark.parametrize("claim", sorted(_EXAMPLE_TEXT))
def test_example_text_and_exit_code(claim, capsys):
    assert main(["example", "--id", claim]) == 0
    captured = capsys.readouterr()
    assert captured.out == _EXAMPLE_TEXT[claim]
    assert captured.err == ""


@pytest.mark.parametrize("claim", sorted(_EXAMPLE_DETAIL))
def test_example_claims_pass_with_their_detail(claim):
    report = verify(claim)
    assert report.status == "pass"
    assert report.detail == _EXAMPLE_DETAIL[claim]


def test_example_exits_2_on_a_tripped_bound(capsys):
    assert main(["--enum-bound", "100", "example", "--id", "ex-nu-p"]) == 2
    captured = capsys.readouterr()
    assert "enumeration bound" in captured.err
    assert captured.out == ""


def test_index_bound_flag_shrinks_the_reach(capsys):
    assert main(["--index-bound", "10", "double-cosets",
                 "--G", "sym:5", "--H", "sym-embed:2,5"]) == 2
    assert "index bound" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["double-cosets", "--G", "sym:5", "--H", "sym-embed:2,5"],  # exits 2
    ["census", "--l", "2", "--n", "3"],                          # exits 0
])
def test_bound_flags_end_with_the_call(argv, capsys):
    before = config.ENUMERATION_BOUND, config.INDEX_BOUND
    main(["--enum-bound", "100", "--index-bound", "10"] + argv)
    assert (config.ENUMERATION_BOUND, config.INDEX_BOUND) == before
    assert len(double_cosets(sym(5), sym_embed(2, 5))) == 33


def test_verify_all_reports_a_tripped_bound_as_skipped(capsys):
    assert main(["--enum-bound", "100", "verify-all"]) == 0
    assert "skipped ex-nu-p: enumeration bound" in capsys.readouterr().out


def test_config_file_sets_bounds(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"index_bound": 10}')
    assert main(["--config", str(cfg), "double-cosets",
                 "--G", "sym:5", "--H", "sym-embed:2,5"]) == 2
    assert "index bound" in capsys.readouterr().err


def test_config_env_var_is_honored(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"index_bound": 10}')
    monkeypatch.setenv("FSCAT_CONFIG", str(cfg))
    assert main(["double-cosets", "--G", "sym:5",
                 "--H", "sym-embed:2,5"]) == 2
    assert "index bound" in capsys.readouterr().err


def test_bad_config_keys_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_cosets": 7}')
    assert main(["--config", str(cfg), "census", "--l", "2", "--n", "4"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["true", "false"])
def test_boolean_config_bounds_are_rejected(tmp_path, capsys, value):
    # JSON true would pass an isinstance(v, int) check as the bound 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"index_bound": {value}}}')
    with pytest.raises(ValueError, match="index_bound must be a positive"):
        config.load_config(str(cfg))
    assert main(["--config", str(cfg), "census", "--l", "2", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert "index_bound must be a positive integer" in err
    assert "limit is" not in err


@pytest.mark.parametrize("G, H", [("sym:0", "sym:1"),
                                  ("cyclic:-3", "cyclic:0")])
def test_nonpositive_family_parameters_are_usage_errors(capsys, G, H):
    assert main(["indicators", "--G", G, "--H", H]) == 2
    assert "need" in capsys.readouterr().err


def test_nonpositive_m_is_rejected(capsys):
    assert main(["indicators", "--G", "sym:4", "--H", "alt:4",
                 "--m", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_extended_profile_adds_the_degree_eleven_tilde_scans(monkeypatch,
                                                             capsys):
    # the schedule only: every check is answered by a stub
    from fscat import catalog

    def named(claim, **params):
        return catalog.VerificationReport(claim=claim, params=params,
                                          status="pass", detail="",
                                          runtime=0.0)

    monkeypatch.setattr(catalog, "verify", named)
    full = [(r.claim, r.params) for r in catalog.run_all("full")]
    extended = [(r.claim, r.params) for r in catalog.run_all("extended")]
    assert extended == full + [("thm-tilde", {"n": 11}),
                               ("thm-tilde-plus1", {"n": 11})]
    assert main(["verify-all", "--profile", "extended", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == len(extended)


def _readme_commands() -> list[list[str]]:
    """The argv of each line of the first fenced block under the README's
    "## Command line" heading, with shell comments stripped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line\n")[1]
    block = section.split("```\n")[1]
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_lines_run(argv, capsys):
    assert argv[0] == "fscat"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out
