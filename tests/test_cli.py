import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lexgate
from lexgate.cli import main, parse_scenario
from lexgate.errors import ScenarioFormatError

BORDER_TRIP = "scenarios/border-trip.scenario"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -------------------------------------------------------------------


def test_validate_shipped_pack_is_clean(capsys, fixtures_root):
    code, out, _ = run_cli(
        capsys,
        "validate",
        str(fixtures_root / "policies"),
        "--scopes",
        str(fixtures_root / "scopes.txt"),
    )
    assert code == 0
    assert "working-time.xml: ok" in out


def test_validate_reports_seeded_defect_with_file_and_line(capsys, tmp_path, fixtures_root):
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    shutil.copy(fixtures_root / "policies" / "working-time.xml", policy_dir / "ok.xml")
    mutant = (fixtures_root / "policies" / "working-time.xml").read_text().replace(
        '<Rule RuleId="FinalRule" Effect="Deny"/>',
        '<Rule RuleId="FinalRule" Effect="Deny"><Rule RuleId="inner" Effect="Deny"/></Rule>',
    )
    (policy_dir / "mutant.xml").write_text(mutant)
    code, out, _ = run_cli(capsys, "validate", str(policy_dir))
    assert code == 1
    assert "mutant.xml" in out and "rule-has-children" in out
    line = [l for l in out.splitlines() if "rule-has-children" in l][0]
    assert line.split(":")[1].isdigit()  # file:line: node: code


def test_validate_reports_an_ill_typed_application(capsys, tmp_path, fixtures_root):
    # The lower bound of the login window compared with a string.
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    mutant = (fixtures_root / "policies" / "working-time.xml").read_text().replace(
        '<Apply FunctionId="function:time-one-and-only">\n'
        '          <EnvironmentAttributeSelector DataType="XMLSchema#time"',
        '<Apply FunctionId="function:string-one-and-only">\n'
        '          <EnvironmentAttributeSelector DataType="XMLSchema#string"',
        1,
    )
    (policy_dir / "mutant.xml").write_text(mutant)
    code, out, _ = run_cli(capsys, "validate", str(policy_dir))
    assert code == 1
    assert out.splitlines() == [
        "mutant.xml:4: LoginRule: ill-typed:function:time-greater-than-or-equal"
    ]


def test_validate_empty_directory_warns_and_succeeds(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", str(tmp_path))
    assert code == 0
    assert "no policies" in out


def test_validate_missing_directory_is_an_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent"))
    assert code == 2
    assert "not a directory" in err


def test_validate_non_utf8_scopes_is_an_input_error(capsys, tmp_path, fixtures_root):
    scopes = tmp_path / "scopes.txt"
    scopes.write_bytes(b"scope id=EU kind=union note=caf\xe9\n")
    code, _, err = run_cli(
        capsys, "validate", str(fixtures_root / "policies"), "--scopes", str(scopes)
    )
    assert code == 2
    assert "scopes.txt:1: not UTF-8" in err


def test_validate_reports_an_unreadable_and_an_unparseable_policy(capsys, tmp_path, fixtures_root):
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    shutil.copy(fixtures_root / "policies" / "working-time.xml", policy_dir / "ok.xml")
    (policy_dir / "folder.xml").mkdir()  # globbed as a policy, read as none
    (policy_dir / "torn.xml").write_text("<Policy PolicyId=")
    code, out, err = run_cli(capsys, "validate", str(policy_dir))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("folder.xml: read error: ")
    assert lines[1] == "ok.xml: ok"
    assert lines[2].startswith("torn.xml: ") and len(lines) == 3


# -- eval ------------------------------------------------------------------------


def test_eval_noon_permits(capsys, fixtures_root):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--request", str(fixtures_root / "requests" / "login-noon.req"),
        "--at", "2026-03-10T12:00:00Z",
    )
    assert code == 0
    assert "decision: Permit" in out


def test_eval_evening_denies(capsys, fixtures_root):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--request", str(fixtures_root / "requests" / "login-noon.req"),
        "--at", "2026-03-10T19:30:00Z",
    )
    assert code == 0
    assert "decision: Deny" in out


def test_eval_explain_output_is_byte_identical_across_runs(capsys, fixtures_root):
    argv = (
        "eval",
        "--request", str(fixtures_root / "requests" / "portfolio-ch-window.req"),
        "--at", "2026-03-10T12:45:00Z",
        "--explain",
    )
    outputs = set()
    for _ in range(5):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert "trace:" in next(iter(outputs))
    assert "obligations: pseudonymize" in next(iter(outputs))


def test_eval_ignore_tags_flag_changes_the_outcome(capsys, fixtures_root, tmp_path):
    # An FR-tagged deny policy is dormant for a GB->LU request unless the
    # engine ignores legislation tags.
    store = tmp_path / "policies"
    store.mkdir()
    (store / "fr.xml").write_text(
        """
        <Policy PolicyId="FRLockdown" RuleCombiningAlgId="deny-overrides">
          <Legislation><Scope>FR</Scope></Legislation>
          <Rule RuleId="fr-deny" Effect="Deny"/>
        </Policy>
        """
    )
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_root, fixtures)
    shutil.rmtree(fixtures / "policies")
    shutil.copytree(store, fixtures / "policies")

    argv = [
        "eval",
        "--request", str(fixtures / "requests" / "login-noon.req"),
        "--fixtures", str(fixtures),
        "--at", "2026-03-10T12:00:00Z",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "decision: NotApplicable" in out
    code, out, _ = run_cli(capsys, *argv, "--ignore-legislation-tags")
    assert code == 0 and "decision: Deny" in out


def test_eval_missing_request_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--request", str(tmp_path / "none.req"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", [
    ("eval", "--request", "absent.req"),
    ("serve", "--user", "c.miller", "--secret", "miller-pass-1"),
], ids=["eval", "serve"])
def test_unreadable_at_is_an_input_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--at", "garbage")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "garbage" in err


# -- scenario ----------------------------------------------------------------------


def test_border_trip_scenario_passes(capsys, fixtures_root):
    code, out, _ = run_cli(capsys, "scenario", str(fixtures_root / BORDER_TRIP))
    assert code == 0
    assert "4 steps, 4 passed, 0 failed" in out
    assert out.count("PASS") == 4


def test_scenario_expectation_failure_sets_exit_one(capsys, fixtures_root, tmp_path):
    text = (fixtures_root / BORDER_TRIP).read_text().replace(
        "place=DE-FRA-customs-hall action=read resource=cust/4711/portfolio expect=Deny",
        "place=DE-FRA-customs-hall action=read resource=cust/4711/portfolio expect=Permit",
    )
    scenario = tmp_path / "broken.scenario"
    scenario.write_text(text)
    code, out, _ = run_cli(capsys, "scenario", str(scenario))
    assert code == 1
    assert "FAIL" in out


def test_scenario_with_zero_steps_passes_vacuously(capsys, tmp_path):
    scenario = tmp_path / "empty.scenario"
    scenario.write_text("scenario empty\n")
    code, out, _ = run_cli(capsys, "scenario", str(scenario))
    assert code == 0
    assert "0 steps" in out


def test_malformed_scenario_is_an_input_error(capsys, tmp_path):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text("scenario bad\nstep at=not-a-time actor=x place=y resource=z expect=Deny\n")
    code, _, err = run_cli(capsys, "scenario", str(scenario))
    assert code == 2
    assert "malformed scenario" in err


def test_non_utf8_scenario_is_an_input_error(capsys, tmp_path):
    scenario = tmp_path / "latin1.scenario"
    scenario.write_bytes(b"scenario caf\xe9\n")
    code, _, err = run_cli(capsys, "scenario", str(scenario))
    assert code == 2
    assert "malformed scenario: latin1.scenario:1: not UTF-8" in err


def _fixtures_copy(fixtures_root, tmp_path):
    root = tmp_path / "fixtures"
    shutil.copytree(fixtures_root, root)
    return root


def test_scenario_store_override_is_loaded(capsys, fixtures_root, tmp_path):
    root = _fixtures_copy(fixtures_root, tmp_path)
    (root / "trip-diary.txt").write_bytes((root / "diary.txt").read_bytes())
    (root / "diary.txt").write_text("not a diary record\n")  # read only if the override is ignored
    scenario = tmp_path / "override.scenario"
    scenario.write_text("diary trip-diary.txt\n" + (root / BORDER_TRIP).read_text())
    code, out, err = run_cli(capsys, "scenario", str(scenario), "--fixtures", str(root))
    assert (code, err) == (0, "")
    assert "4 steps, 4 passed, 0 failed" in out


def test_missing_scenario_store_override_is_an_input_error(capsys, fixtures_root, tmp_path):
    root = _fixtures_copy(fixtures_root, tmp_path)
    scenario = tmp_path / "override.scenario"
    scenario.write_text("diary absent-diary.txt\n" + (root / BORDER_TRIP).read_text())
    code, _, err = run_cli(capsys, "scenario", str(scenario), "--fixtures", str(root))
    assert code == 2
    assert "missing absent-diary.txt" in err


def test_scenario_steps_must_be_clock_monotone():
    text = (
        "scenario rewind\n"
        "step at=2026-03-10T10:00:00Z actor=a place=p resource=r expect=Deny\n"
        "step at=2026-03-10T09:00:00Z actor=a place=p resource=r expect=Deny\n"
    )
    with pytest.raises(ScenarioFormatError):
        parse_scenario(text)


def test_scenario_policies_record_names_the_policy_directory(capsys, fixtures_root, tmp_path):
    root = _fixtures_copy(fixtures_root, tmp_path)
    (root / "policies").rename(root / "pack")
    scenario = tmp_path / "pack.scenario"
    scenario.write_text("policies pack\n" + (root / BORDER_TRIP).read_text())
    assert parse_scenario(scenario.read_text()).policies == "pack"
    code, out, err = run_cli(capsys, "scenario", str(scenario), "--fixtures", str(root))
    assert (code, err) == (0, "")
    assert "4 steps, 4 passed, 0 failed" in out


@pytest.mark.parametrize("text, message", [
    ("scenario s\ndiary\n", "line 2: diary needs one path"),
    ("scenario s\nzones a.xml b.xml\n", "line 2: zones needs one path"),
    ("scenario s\npolicies\n", "line 2: policies needs one path"),
    ("scenario s\npolicies a b\n", "line 2: policies needs one path"),
    ("scenario s\nstep at=2026-03-10T07:45:00Z actor\n", "line 2: expected key=value, got 'actor'"),
    ("scenario s\nexpect Deny\n", "line 2: unknown record 'expect'"),
    ("# no name\nstep at=2026-03-10T07:45:00Z actor=a place=p resource=r expect=Deny\n",
     "scenario file needs a 'scenario <name>' line"),
])
def test_a_malformed_scenario_record_is_refused_with_its_message(capsys, tmp_path, text, message):
    with pytest.raises(ScenarioFormatError) as refused:
        parse_scenario(text)
    assert str(refused.value) == message
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(text)
    assert run_cli(capsys, "scenario", str(scenario)) == (2, "", f"error: malformed scenario: {message}\n")


def test_a_missing_scenario_file_is_an_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "scenario", str(tmp_path / "absent.scenario"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "absent.scenario" in err


def test_a_step_at_an_unknown_place_is_an_input_error(capsys, tmp_path):
    scenario = tmp_path / "lost.scenario"
    scenario.write_text(
        "scenario lost\n"
        "step at=2026-03-10T07:45:00Z actor=c.miller place=atlantis resource=cust/4711/portfolio expect=Deny\n"
    )
    code, out, err = run_cli(capsys, "scenario", str(scenario))
    assert (code, out) == (2, "")
    assert err == "error: step 1: unknown place 'atlantis'\n"


# -- serve -----------------------------------------------------------------------


def serve(request, *argv, **env):
    """`lexgate serve` in a child process that imports the package this
    test process imported, whether or not PYTHONPATH names it."""
    source = str(Path(lexgate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "lexgate.cli", "serve", *argv],
        input=request,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        check=False,
    )


def test_serve_handles_one_request_over_stdio(fixtures_root, tmp_path):
    from lexgate.parsing.wire import parse_response

    request = (fixtures_root / "requests" / "portfolio-ch-window.req").read_bytes()
    result = serve(
        request,
        "--user", "c.miller", "--secret", "miller-pass-1",
        "--at", "2026-03-10T12:45:00Z",
        "--audit", str(tmp_path / "audit.log"),
        LEXGATE_PSEUDONYM_KEY="stdio-key",
    )
    assert result.returncode == 0, result.stderr
    response, view = parse_response(result.stdout)
    from lexgate.model import Decision

    assert response.decision is Decision.PERMIT
    assert [ob.id for ob in response.obligations] == ["pseudonymize"]
    assert view is not None and view.mode is lexgate.ViewMode.PSEUDONYMOUS
    assert "cust:4711" not in view.payload
    assert (tmp_path / "audit.log").read_text().count("\n") == 1


def test_serve_rejects_bad_credentials_over_stdio(fixtures_root):
    from lexgate.model import Decision
    from lexgate.parsing.wire import parse_response

    request = (fixtures_root / "requests" / "login-noon.req").read_bytes()
    result = serve(
        request,
        "--user", "c.miller", "--secret", "wrong",
        "--at", "2026-03-10T12:00:00Z",
    )
    assert result.returncode == 0
    response, view = parse_response(result.stdout)
    assert response.decision is Decision.DENY
    assert view is None


def test_scenario_audit_file_is_written(capsys, fixtures_root, tmp_path):
    audit_path = tmp_path / "audit.log"
    code, _, _ = run_cli(
        capsys, "scenario", str(fixtures_root / BORDER_TRIP), "--audit", str(audit_path)
    )
    assert code == 0
    lines = audit_path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].split("|")[4] == "Deny"
    assert lines[2].split("|")[4] == "Permit"
