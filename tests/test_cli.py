"""CLI surface: exit codes, JSON schema conformance, reproducibility."""

import hashlib
import json
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "kannanlab.cli", *args],
                          capture_output=True, text=True)
    return proc


def load_schema(name):
    path = resources.files("kannanlab") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def test_gallery_json_passes_and_validates():
    proc = run_cli("gallery", "--gornicki-n", "50", "--prefix", "20",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("gallery_report"))
    assert payload["ok"] is True
    assert [s["name"] for s in payload["sections"]] == [
        "orbit_probes", "incomplete_interval_iteration", "split_set_drop",
        "gornicki_answer", "reciprocal_counterexample"]


def test_gallery_human_format():
    proc = run_cli("gallery", "--gornicki-n", "20", "--prefix", "10")
    assert proc.returncode == 0
    assert "overall: ok" in proc.stdout


def test_check_condition_report_schema_and_expect():
    args = ["check",
            "--space", '{"kind": "split_set"}',
            "--map", '{"kind": "piecewise_drop"}',
            "--condition", '{"kind": "strict_kannan"}',
            "--pairs", '[["3/2", "2"], ["2", "-1"], ["0", "2"]]']
    proc = run_cli(*args, "--expect", "holds")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload["report"], load_schema("condition_report"))
    assert payload["report"]["verdict"] == "holds"

    proc = run_cli(*args, "--expect", "violated")
    assert proc.returncode == 1


def test_check_violation_witness_in_json():
    proc = run_cli("check",
                   "--space", '{"kind": "finite", "labels": ["a", "b"], '
                              '"d": [["0", "1"], ["1", "0"]]}',
                   "--map", '{"kind": "table", "assign": {"a": "a", "b": "b"}}',
                   "--condition", '{"kind": "strict_kannan"}')
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload["report"], load_schema("condition_report"))
    assert payload["report"]["verdict"]["violated"]["rhs"] == "0"


def test_corrupted_space_file_is_config_error(tmp_path):
    bad = tmp_path / "space.json"
    bad.write_text('{"kind": "finite", "labels": ["a", "b"], '
                   '"d": [["0", "1"], ["2", "0"]]}')
    proc = run_cli("check", "--space", str(bad),
                   "--map", '{"kind": "piecewise_drop"}',
                   "--condition", '{"kind": "strict_kannan"}')
    assert proc.returncode == 2
    assert "symmetry" in proc.stderr


def test_membership_error_exit_code():
    proc = run_cli("check",
                   "--space", '{"kind": "split_set"}',
                   "--map", '{"kind": "piecewise_drop"}',
                   "--condition", '{"kind": "strict_kannan"}',
                   "--pairs", '[["5", "7"]]')
    assert proc.returncode == 3
    assert "not a point" in proc.stderr


def test_iterate_json_schema_and_csv_trace():
    space = '{"kind": "unit_interval_right"}'
    mp = '{"kind": "scale", "c": "1/2"}'
    proc = run_cli("iterate", "--space", space, "--map", mp,
                   "--x0", "1/2", "--horizon", "6")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload["run"], load_schema("picard_run"))
    assert payload["run"]["gaps"][0] == "1/4"

    proc = run_cli("iterate", "--space", space, "--map", mp,
                   "--x0", "1/2", "--horizon", "6", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "step,point,gap"
    assert lines[2] == "0,1/2,1/4"


def test_census_csv_and_json():
    proc = run_cli("census", "--size", "2", "--seed", "0")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 6  # config comment + header + 4 rows
    strict_col = lines[1].split(",").index("strict_kannan")
    verdicts = [line.split(",")[strict_col] for line in lines[2:]]
    assert verdicts.count("true") == 2

    proc = run_cli("census", "--size", "2", "--seed", "0", "--format", "json")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("census_report"))
    assert len(payload["rows"]) == 4


def test_counterexample_schema():
    proc = run_cli("counterexample", "--prefix", "12", "--scan", "500")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload["report"], load_schema("counterexample_report"))
    assert payload["report"]["construction"][0] == {"source_index": 1,
                                                    "target_index": 5}


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("census", "--size", "2", "--seed", "1", "--format", "json",
                   "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 1


def test_unknown_condition_is_config_error():
    proc = run_cli("check", "--space", '{"kind": "split_set"}',
                   "--map", '{"kind": "piecewise_drop"}',
                   "--condition", '{"kind": "zamfirescu"}')
    assert proc.returncode == 2


def test_exhaustive_pairs_rejected_on_infinite_space():
    proc = run_cli("check", "--space", '{"kind": "half_line"}',
                   "--map", '{"kind": "stair_scale"}',
                   "--condition", '{"kind": "strict_kannan"}')
    assert proc.returncode == 2
    assert "sample" in proc.stderr


def test_counterexample_scan_below_one_is_config_error():
    proc = run_cli("counterexample", "--prefix", "5", "--scan", "-5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "count must be >= 1" in proc.stderr


def test_gallery_sizes_are_refused_before_any_section(monkeypatch):
    from kannanlab import cli
    from kannanlab.completeness import _VECTOR_SAFE_N

    def no_work(*args, **kwargs):
        pytest.fail("a gallery section ran before the sizes were checked")
    monkeypatch.setattr(cli, "orbit", no_work)
    monkeypatch.setattr(cli, "verify_gornicki_answer", no_work)
    for gornicki_n, prefix, message in ((10_000, 0, "prefix must be >= 1"),
                                        (1, 200, "n >= 2"),
                                        (_VECTOR_SAFE_N + 1, 200, "exceeds")):
        with pytest.raises(ValueError, match=message):
            cli.build_gallery(gornicki_n, prefix)


def test_counterexample_scan_is_refused_before_the_prefix_scan(monkeypatch, capsys):
    from kannanlab import cli

    def no_scan(*args, **kwargs):
        pytest.fail("the prefix scan ran before --scan was checked")
    monkeypatch.setattr(cli, "verify_counterexample", no_scan)
    assert cli.main(["counterexample", "--prefix", "600", "--scan", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: scan count must be >= 1\n"


HALF_LINE = ("--space", '{"kind": "half_line"}', "--pairs", '[["1", "2"]]')
HALVING = '{"kind": "scale", "c": "1/2"}'
STRICT = '{"kind": "strict_kannan"}'


@pytest.mark.parametrize("args", [
    (*HALF_LINE, "--map", HALVING, "--condition", '{"kind": "kannan_k", "k": 0.25}'),
    (*HALF_LINE, "--map", HALVING, "--condition", '{"kind": "kannan_k", "k": true}'),
    (*HALF_LINE, "--map", HALVING, "--condition", '{"kind": "chen_yeh", "a": 0.5}'),
    (*HALF_LINE, "--map", HALVING, "--condition", '{"kind": "iterated_kannan", "m": 1.5}'),
    (*HALF_LINE, "--map", HALVING, "--condition", '{"kind": "iterated_kannan", "m": true}'),
    (*HALF_LINE, "--map", '{"kind": "scale", "c": 0.5}', "--condition", STRICT),
    ("--space", '{"kind": "finite", "labels": ["a", "b"], "d": [[0, 1.5], [1.5, 0]]}',
     "--map", '{"kind": "table", "assign": {"a": "a", "b": "a"}}', "--condition", STRICT),
    ("--space", '{"kind": "half_line"}', "--pairs", '[[1.00000000000000001, 2]]',
     "--map", HALVING, "--condition", STRICT),
])
def test_json_float_or_bool_in_a_scalar_field_is_config_error(args):
    proc = run_cli("check", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: ")
    assert "Traceback" not in proc.stderr


TWO_POINT_TABLE = ("--map", '{"kind": "table", "assign": {"a": "a", "b": "a"}}',
                   "--condition", STRICT)


@pytest.mark.parametrize("fields", [
    '"labels": 5, "d": [[0, 1], [1, 0]]',
    '"labels": ["a", "b"], "d": 5',
    '"labels": ["a", "b"], "d": [5, 6]',
])
def test_finite_space_field_that_is_not_a_list_is_config_error(fields):
    proc = run_cli("check", "--space", '{"kind": "finite", ' + fields + "}",
                   *TWO_POINT_TABLE)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: finite space ")
    assert "Traceback" not in proc.stderr


TWO_POINT_SPACE = ("--space", '{"kind": "finite", "labels": ["a", "b"], '
                               '"d": [[0, 1], [1, 0]]}')


@pytest.mark.parametrize("assign", ["5", '["a", "b"]'])
def test_table_assign_that_is_not_an_object_is_config_error(assign):
    proc = run_cli("check", *TWO_POINT_SPACE,
                   "--map", '{"kind": "table", "assign": ' + assign + "}",
                   "--condition", STRICT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: table map 'assign' must be an object")
    assert "Traceback" not in proc.stderr


HALF_LINE_HALVING = ("--space", '{"kind": "half_line"}', "--map", HALVING,
                     "--condition", STRICT)


@pytest.mark.parametrize("config, pairs", [
    (HALF_LINE_HALVING, '["12"]'),
    (HALF_LINE_HALVING, "[1]"),
    ((*TWO_POINT_SPACE, *TWO_POINT_TABLE), '["ab"]'),
    ((*TWO_POINT_SPACE, *TWO_POINT_TABLE), '{"ab": 0}'),
])
def test_pairs_that_are_not_a_list_of_point_pairs_are_config_error(config, pairs):
    proc = run_cli("check", *config, "--pairs", pairs)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "config error: --pairs must be a JSON list of [x, y] pairs\n"


@pytest.mark.parametrize("value", ['"false"', "0", "null"])
def test_uniqueness_bounds_must_be_a_json_boolean(value):
    condition = '{"kind": "chen_yeh", "uniqueness_bounds": ' + value + "}"
    proc = run_cli("check", *HALF_LINE, "--map", HALVING, "--condition", condition)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: uniqueness_bounds must be true or false")


THREE_POINT = ("--space", '{"kind": "finite", "labels": ["a", "b", "c"], '
                          '"d": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}',
               "--map", '{"kind": "table", "assign": {"a": "b", "b": "c", "c": "c"}}')


def test_iterated_kannan_shift_at_the_cap_is_checked():
    proc = run_cli("check", *THREE_POINT,
                   "--condition", '{"kind": "iterated_kannan", "m": 512}')
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["condition"] == {
        "kind": "iterated_kannan", "m": 512}


@pytest.mark.parametrize("m", ["513", '"99999999999"'])
def test_iterated_kannan_shift_past_the_cap_is_config_error(m):
    condition = '{"kind": "iterated_kannan", "m": ' + m + "}"
    proc = run_cli("check", *THREE_POINT, "--condition", condition)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: iteration shift m capped at 512")
    proc = run_cli("census", "--size", "3", "--conditions", "[" + condition + "]")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: iteration shift m capped at 512")


def test_census_workers_has_no_effect_on_stdout():
    outputs = set()
    for workers in ("1", "2", "64"):
        proc = run_cli("census", "--size", "4", "--seed", "1", "--workers", workers)
        assert (proc.returncode, proc.stderr) == (0, ""), workers
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_census_refuses_fewer_than_one_worker(workers, tmp_path):
    out = tmp_path / "census.csv"
    for extra in ((), ("--out", str(out))):
        proc = run_cli("census", "--size", "3", "--workers", workers, *extra)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"config error: --workers must be at least 1, not {workers}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, digest", [
    (("--size", "6", "--mode", "line", "--seed", "3"),
     "94d4d0a05034e5d8e8fa49be7561ab08a42240bad78227eb89bde51433e252a9"),
    (("--size", "6", "--seed", "0", "--format", "json"),
     "72744e813773759f2d144fa4018e66b7dc54d28e1fbc3605bcb6164ba1f6a36a"),
    (("--size", "7", "--mode", "line", "--seed", "0"),
     "2326af98091527d9383da2ab1fa750b6912aa835c102f1f27a12ec4dd10a19ce"),
])
def test_census_bytes_past_the_reference_sizes_are_pinned(args, digest):
    # the plain reference of tests/test_census_memo.py reaches size 5; these
    # digests pin the bytes of larger censuses, CSV line ends included
    proc = subprocess.run([sys.executable, "-m", "kannanlab.cli", "census", *args],
                          capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_census_with_no_conditions_lists_every_map(fmt):
    proc = run_cli("census", "--size", "2", "--conditions", "[]", "--format", fmt)
    assert (proc.returncode, proc.stderr) == (0, "")
    if fmt == "csv":
        assert proc.stdout.splitlines()[1:] == [
            "map_id,fixed_point_count,converges,common_limit",
            "00,1,true,p0", "01,2,true,", "10,0,false,", "11,1,true,p1"]
    else:
        rows = json.loads(proc.stdout)["rows"]
        assert [r["map_id"] for r in rows] == ["00", "01", "10", "11"]
        assert all(r["satisfies"] == {} for r in rows)
        assert proc.stdout.count('"satisfies": {}\n') == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_census_repeated_condition_keeps_one_json_key_and_every_csv_column(fmt):
    conditions = '[{"kind": "fisher"}, {"kind": "khan"}, {"kind": "fisher"}]'
    proc = run_cli("census", "--size", "3", "--seed", "1", "--mode", "line",
                   "--conditions", conditions, "--format", fmt)
    assert (proc.returncode, proc.stderr) == (0, "")
    if fmt == "csv":
        lines = proc.stdout.splitlines()
        assert lines[1] == ("map_id,fisher,khan,fisher,fixed_point_count,"
                            "converges,common_limit")
        assert len(lines) == 2 + 27
        assert lines[2] == "000,true,false,true,1,true,p0"
        assert all(row.split(",")[1] == row.split(",")[3] for row in lines[2:])
    else:
        rows = json.loads(proc.stdout)["rows"]
        assert len(rows) == 27
        assert all(sorted(r["satisfies"]) == ["fisher", "khan"] for r in rows)
        assert proc.stdout.count('"fisher": ') == 27  # one key per row


@pytest.mark.parametrize("conditions", [
    [], [{"kind": "strict_kannan"}],
    [{"kind": "fisher"}, {"kind": "khan"}, {"kind": "fisher"}],
    [{"kind": "chen_yeh", "a": "1/3", "b": "3"}, {"kind": "iterated_kannan", "m": 1},
     {"kind": "kannan_k", "k": "1/4"}],
])
def test_census_json_template_writes_what_render_json_writes(conditions):
    from kannanlab.census import enumerate_census, random_finite_space, render_census
    from kannanlab.cli import render_json
    from kannanlab.conditions import load_condition
    space = random_finite_space(4, seed=2, mode="line")
    census = enumerate_census(space, [load_condition(c) for c in conditions])
    config = {"command": "census", "conditions": conditions, "rows": []}
    document = {"config": config, "space": space.to_json(),
                "rows": [{"map_id": r.map_id, "satisfies": dict(r.satisfies),
                          "fixed_point_count": r.fixed_point_count,
                          "converges": r.picard_converges_from_all_starts,
                          "common_limit": r.common_limit} for r in census]}
    assert "".join(render_census(census, config, "json")) == render_json(document)


def test_a_contradiction_in_the_last_census_chunk_writes_no_byte(monkeypatch, capsys,
                                                                 tmp_path):
    import kannanlab.census
    from kannanlab import cli
    fill = kannanlab.census._verdict_table

    def flipped(space, cond):
        # every pair (p0, p1) sent to (p3, p3) gets the wrong verdict: the
        # maps 33xx, ids 240-255, all in the last chunk of ids 194-255
        table = fill(space, cond)
        table[0, 1, 3, 3] = not table[0, 1, 3, 3]
        return table

    monkeypatch.setattr(kannanlab.census, "_verdict_table", flipped)
    monkeypatch.setattr(kannanlab.census, "CHUNK_MAPS", 97)
    out = tmp_path / "census.csv"
    argv = ["census", "--size", "4", "--seed", "1", "--mode", "line"]
    for extra in ([], ["--format", "json"], ["--out", str(out)]):
        assert cli.main(argv + extra) == 4
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert re.fullmatch(r"THEOREM CONTRADICTION \(implementation defect\): census "
                            r"kernel and classify_map disagree on map 33\d\d\n", stderr)
    assert not out.exists()


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # the census is written chunk by chunk, so a reader that closes the
    # pipe, as `| head` does, leaves writes that fail with EPIPE
    proc = subprocess.Popen([sys.executable, "-m", "kannanlab.cli", "census", "--size", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b'# {"command": "census"')
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
