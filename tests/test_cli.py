"""Command-line surface: config resolution, artifacts, exit codes, replay."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapver import __version__
from trapver.cli import (
    ARTIFACT_SCHEMA,
    CliError,
    SessionConfig,
    _option_table,
    _subparsers,
    build_parser,
    main,
    parse_config,
)
from trapver.graphs import (
    ROLE_COMPUTATIONAL, ROLE_DUMMY, ROLES, SCHEMA_VERSION, GraphSpec, carve_target,
    lattice_edges,
)
from trapver.protocol import ENGINE_VERSION


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- configuration resolution -------------------------------------------------


def test_empty_argv_prints_help(capsys):
    assert parse_config([]).subcommand == "help"
    assert main([]) == 0
    assert "trapver" in capsys.readouterr().out


def test_unknown_flag_is_an_error(capsys):
    assert main(["carve", "--bogus"]) == 1
    assert main(["frobnicate"]) == 1


def test_precedence_flags_env_file(tmp_path):
    cfg_file = tmp_path / "defaults.json"
    cfg_file.write_text(json.dumps({"kappa": 3, "seed": 9}))

    base = ["verify", "--m-rounds", "3", "--n-rounds", "3"]
    from_file = parse_config(base, config_path=str(cfg_file))
    assert from_file.kappa == 3 and from_file.seed == 9

    env = {"TRAPVER_KAPPA": "2"}
    from_env = parse_config(base, env=env, config_path=str(cfg_file))
    assert from_env.kappa == 2 and from_env.seed == 9

    from_flag = parse_config(
        base + ["--kappa", "1"], env=env, config_path=str(cfg_file)
    )
    assert from_flag.kappa == 1

    via_env_path = parse_config(
        base, env={"TRAPVER_CONFIG": str(cfg_file)}
    )
    assert via_env_path.kappa == 3


def test_config_file_errors(tmp_path):
    with pytest.raises(CliError, match="cannot read"):
        parse_config(["carve"], config_path=str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(CliError, match="JSON object"):
        parse_config(["carve"], config_path=str(bad))


def test_env_and_file_values_are_checked_like_flags(tmp_path, capsys):
    with mock.patch.dict(os.environ, {"TRAPVER_FMT": "xml"}):
        assert main(["carve", "--m", "3", "--n", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: bad value for fmt: 'xml', choose from ['json']\n"
    )
    # choices come from the running subcommand: carve writes only json
    with pytest.raises(CliError, match="fmt"):
        parse_config(["carve"], env={"TRAPVER_FMT": "csv"})
    assert parse_config(["ft"], env={"TRAPVER_FMT": "csv"}).fmt == "csv"

    cfg_file = tmp_path / "bad.json"
    for doc, key in (
        ({"kind": "spiral"}, "kind"),
        ({"seed": 1.5}, "seed"),
        ({"kappa": [1]}, "kappa"),
        ({"exact": "maybe"}, "exact"),
        ({"eps_v": None}, "eps_v"),
    ):
        cfg_file.write_text(json.dumps(doc))
        with pytest.raises(CliError, match=f"bad value for {key}"):
            parse_config(["simulate"], config_path=str(cfg_file))

    # a file shared across subcommands: keys of other subcommands still
    # parse, and one that verify lacks takes the union of their choices
    cfg_file.write_text(json.dumps(
        {"kind": "trap-odd", "basis": "z_only", "trials": "3", "fmt": "csv",
         "exact": 1, "seed": 4}
    ))
    cfg = parse_config(["verify"], config_path=str(cfg_file))
    assert cfg.seed == 4 and cfg.fmt == "csv"
    assert cfg.extras["trials"] == 3 and cfg.extras["exact"] is True


def test_auto_params_mutually_exclusive_with_explicit():
    with pytest.raises(CliError, match="mutually"):
        parse_config(
            ["verify", "--auto-params", "--scheme-M", "5", "--beta", "0.05"]
        )


def test_missing_required_option(capsys):
    assert main(["verify", "--kappa", "1"]) == 1  # no lattice shape
    # the message names the subcommand's own flag, read from the parser
    assert "missing required option --m-rounds" in capsys.readouterr().err
    assert main(["bounds", "delta-kappa"]) == 1  # no kappa


def test_parser_is_built_once_and_left_unchanged(capsys):
    """Every lookup shares one parser, and parsing, errors and help leave
    it exactly as a fresh build is."""
    assert build_parser() is build_parser()
    main([])
    main(["carve", "--bogus"])
    main(["verify", "--kappa", "1"])
    main(["bounds", "delta-kappa", "--kappa", "2"])
    parse_config(["ft"], env={"TRAPVER_FMT": "csv"})
    shared, fresh = build_parser(), build_parser.__wrapped__()
    assert shared.format_help() == fresh.format_help()
    for name, sub in _subparsers(fresh).items():
        assert _subparsers(shared)[name].format_help() == sub.format_help()
        assert _option_table(shared, name) == _option_table(fresh, name)


# -- carve ---------------------------------------------------------------------


def test_carve_round_trip(tmp_path):
    out = tmp_path / "layout.json"
    code = main(
        ["carve", "--m", "3", "--n", "3", "--kind", "target",
         "--check-isomorphism", "--out", str(out)]
    )
    assert code == 0
    doc = read_json(out)
    # a layout is versioned by the layout schema, not the artifact schema
    assert doc["schema_version"] == SCHEMA_VERSION == 1
    assert doc["tool_version"] == __version__
    assert doc["seed"] == 0
    assert GraphSpec.from_json_dict(doc) == carve_target(3, 3)


def test_carve_trap_kinds(tmp_path):
    for kind, traps in (("trap-even", (0, 2, 6, 8)), ("trap-odd", (1, 5, 7))):
        out = tmp_path / f"{kind}.json"
        assert main(
            ["carve", "--m", "3", "--n", "3", "--kind", kind,
             "--check-isomorphism", "--out", str(out)]
        ) == 0
        assert GraphSpec.from_json_dict(read_json(out)).trap_ids() == traps


def test_carve_rejects_unknown_kind():
    assert main(["carve", "--m", "3", "--n", "3", "--kind", "spiral"]) == 1


def test_carve_rejects_impossible_shape():
    assert main(["carve", "--m", "3", "--n", "5", "--kind", "target"]) == 1


# -- simulate -------------------------------------------------------------------


@pytest.fixture()
def layout_file(tmp_path):
    out = tmp_path / "target.json"
    main(["carve", "--m", "3", "--n", "3", "--kind", "target", "--out", str(out)])
    return out


def test_simulate_exact(tmp_path, layout_file):
    out = tmp_path / "dist.json"
    assert main(
        ["simulate", "--graph", str(layout_file), "--exact", "--out", str(out)]
    ) == 0
    doc = read_json(out)
    assert doc["kind"] == "distribution"
    probs = doc["probs"]
    assert len(probs) == 128
    assert abs(sum(probs.values()) - 1) <= 1e-10


def test_simulate_outputs_are_deterministic(tmp_path, layout_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate", "--graph", str(layout_file), "--samples", "500",
            "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = read_json(a)
    assert doc["kind"] == "samples"
    assert sum(doc["counts"].values()) == 500


def test_simulate_angle_override(tmp_path, layout_file):
    # all-zero angles detach the chain rotations; the exact table changes
    angles = tmp_path / "angles.json"
    angles.write_text(json.dumps({str(v): 0 for v in range(9)}))
    out_base = tmp_path / "base.json"
    out_flat = tmp_path / "flat.json"
    main(["simulate", "--graph", str(layout_file), "--exact", "--out", str(out_base)])
    main(["simulate", "--graph", str(layout_file), "--exact",
          "--angles", str(angles), "--out", str(out_flat)])
    assert read_json(out_base)["probs"] != read_json(out_flat)["probs"]


@pytest.mark.parametrize(
    "content, message",
    [
        ("[0, 1]", "integer grid steps"),
        ('{"0": 1.5}', "integer grid steps"),
        ('{"0": "3"}', "integer grid steps"),
        ('{"zero": 3}', "cannot read angles"),
        ("{not json", "cannot read angles"),
        (None, "cannot read angles"),
    ],
    ids=["list", "fractional-step", "string-step", "bad-vertex", "not-json",
         "missing-file"],
)
def test_simulate_rejects_bad_angle_files(
    tmp_path, layout_file, capsys, content, message
):
    angles = tmp_path / "angles.json"
    if content is not None:
        angles.write_text(content)
    capsys.readouterr()
    assert main(
        ["simulate", "--graph", str(layout_file), "--angles", str(angles)]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_simulate_csv(tmp_path, layout_file):
    out = tmp_path / "dist.csv"
    assert main(
        ["simulate", "--graph", str(layout_file), "--exact",
         "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("string,")
    assert len(lines) == 129


def test_simulate_draws_any_sample_count_in_fixed_memory(tmp_path, layout_file):
    """10^11 samples are one multinomial draw over the 128 strings, not an
    array of 10^11 picks."""
    out = tmp_path / "many.json"
    argv = ["simulate", "--graph", str(layout_file), "--samples", str(10**11),
            "--out", str(out)]
    assert main(argv) == 0
    counts = read_json(out)["counts"]
    assert sum(counts.values()) == 10**11 and len(counts) == 128


def test_memory_error_is_one_error_line(layout_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr("trapver.cli.exact_output_distribution", refuse)
    assert main(["simulate", "--graph", str(layout_file), "--exact"]) == 1
    assert capsys.readouterr() == ("", "error: Unable to allocate 745. GiB\n")


def test_simulate_missing_graph(tmp_path):
    assert main(["simulate", "--graph", str(tmp_path / "nope.json")]) == 1


def _target_doc(**changes) -> dict:
    return {**carve_target(3, 3).to_json_dict(), **changes}


def _with_vertex(index: int, **changes) -> dict:
    doc = _target_doc()
    doc["vertices"][index] = {**doc["vertices"][index], **changes}
    return doc


def _without(doc: dict, key: str, index: int | None = None) -> dict:
    (doc if index is None else doc["vertices"][index]).pop(key)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "must be a JSON object"),
        (_without(_target_doc(), "n"), "'n' must be an integer"),
        (_without(_target_doc(), "role", 4), "unknown role None"),
        (_target_doc(m=None), "'m' must be an integer"),
        (_target_doc(edges=5), "'edges' lists"),
        (_with_vertex(4, id=9), "vertex id 9 is out of range 0..8 or repeated"),
        (_with_vertex(8, id=-1), "vertex id -1"),
        (_with_vertex(4, id=3), "vertex id 3"),
        (_target_doc(m=100_000, n=100_000, vertices=[]), "has 10000000000 vertices, got 0"),
        (_target_doc(edges=[[0, 1, 2]]), "not a pair of vertex ids"),
        (_with_vertex(4, phi_k=2.5), "'phi_k' must be an integer"),
    ],
    ids=["list", "missing-n", "missing-role", "null-m", "edges-not-a-list",
         "id-too-large", "id-negative", "id-repeated", "huge-and-empty",
         "edge-not-a-pair", "fractional-phi"],
)
def test_simulate_rejects_malformed_layouts(tmp_path, capsys, doc, message):
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", "--graph", str(path), "--exact"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


# -- verify and replay ----------------------------------------------------------


def verify_argv(tmp_path, name, extra):
    out = tmp_path / name
    argv = ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
            "--seed", "5", "--out", str(out)] + extra
    return argv, out


def test_verify_honest_artifact(tmp_path):
    argv, out = verify_argv(
        tmp_path, "honest.json", ["--scheme-M", "4", "--scheme-l", "0.9"]
    )
    assert main(argv) == 0
    doc = read_json(out)
    assert set(doc) == {
        "schema_version", "tool_version", "engine_version", "seed", "config",
        "scheme", "records", "verdict", "telemetry",
    }
    assert doc["engine_version"] == ENGINE_VERSION
    assert doc["verdict"]["accept"] is True
    assert doc["verdict"]["pass_fraction"] == 1.0
    assert len(doc["records"]) == 4
    assert doc["scheme"] == {
        "m": 4, "l": 0.9, "derived": False, "n_qubits": 7,
    }


def test_verify_deterministic_modulo_telemetry(tmp_path):
    argv_a, out_a = verify_argv(
        tmp_path, "a.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    argv_b, out_b = verify_argv(
        tmp_path, "b.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv_a)
    main(argv_b)
    a, b = read_json(out_a), read_json(out_b)
    a.pop("telemetry")
    b.pop("telemetry")
    assert a == b


@pytest.fixture()
def kill_attack_file(tmp_path):
    path = tmp_path / "kill.json"
    path.write_text(
        json.dumps(
            {
                "pauli_terms": [
                    {"weight": 1.0,
                     "letters": {"0:0": "Z", "1:0": "Z", "2:0": "Z"}}
                ]
            }
        )
    )
    return path


def test_verify_attacked_rejects(tmp_path, kill_attack_file):
    argv, out = verify_argv(
        tmp_path, "attacked.json",
        ["--scheme-M", "4", "--scheme-l", "0.9", "--attack",
         str(kill_attack_file)],
    )
    assert main(argv) == 2
    doc = read_json(out)
    assert doc["verdict"]["accept"] is False
    assert doc["verdict"]["pass_fraction"] == 0.0
    # the attack document travels inside the artifact
    assert "attack_doc" in doc["config"]["extras"]


def test_replay_round_trip(tmp_path, kill_attack_file):
    argv, out = verify_argv(
        tmp_path, "session.json",
        ["--scheme-M", "5", "--scheme-l", "0.5", "--attack",
         str(kill_attack_file)],
    )
    main(argv)
    assert main(["replay", str(out)]) == 2

    honest_argv, honest_out = verify_argv(
        tmp_path, "honest.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(honest_argv)
    assert main(["replay", str(honest_out)]) == 0
    # reformatted for reading, as by python -m json.tool, it still replays
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(read_json(honest_out), indent=4))
    assert main(["replay", str(pretty)]) == 0


def test_replay_prints_its_verdict_under_a_shared_out(tmp_path, capsys):
    """replay has no --out, so an out from a config shared with verify
    leaves the artifact it reads alone and prints the verdict."""
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    assert main(argv) == 0
    before = out.read_bytes()
    capsys.readouterr()
    with mock.patch.dict(os.environ, {"TRAPVER_OUT": str(out)}):
        assert main(["replay", str(out)]) == 0
    assert out.read_bytes() == before
    assert json.loads(capsys.readouterr().out) == read_json(out)["verdict"]


def test_replay_detects_tampering(tmp_path, capsys):
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv)

    doc = read_json(out)
    doc["config"]["seed"] = 999  # different stream, different output string
    tampered = tmp_path / "tampered-seed.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert "mismatch" in capsys.readouterr().err

    doc = read_json(out)
    doc["verdict"]["pass_fraction"] = 0.5
    tampered = tmp_path / "tampered-verdict.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1

    doc = read_json(out)
    doc["schema_version"] = 99
    tampered = tmp_path / "tampered-schema.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert "schema" in capsys.readouterr().err


def test_replay_compares_the_whole_artifact(tmp_path, capsys):
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv)

    doc = read_json(out)
    raw = doc["records"][1]["raw"][0]  # verdict and output untouched
    doc["records"][1]["raw"][0] = raw[:4] + "10"[int(raw[4])] + raw[5:]
    tampered = tmp_path / "tampered-raw.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert "mismatch at $.records[1].raw[0]:" in capsys.readouterr().err

    doc = read_json(out)
    doc["verdict"]["accept"] = 1  # equal to true in Python, not in JSON
    tampered = tmp_path / "tampered-type.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert "mismatch at $.verdict.accept:" in capsys.readouterr().err

    argv, zero_l = verify_argv(
        tmp_path, "zero-l.json", ["--scheme-M", "3", "--scheme-l", "0"]
    )
    main(argv)
    doc = read_json(zero_l)
    assert repr(doc["verdict"]["l"]) == "0.0"
    doc["verdict"]["l"] = -0.0  # equal to 0.0 in Python, not in JSON
    tampered = tmp_path / "tampered-sign.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert "mismatch at $.verdict.l:" in capsys.readouterr().err

    doc = read_json(out)
    flipped = "1" if doc["records"][0]["target_output"][0] == "0" else "0"
    doc["records"][0]["target_output"] = (
        flipped + doc["records"][0]["target_output"][1:]
    )
    tampered = tmp_path / "tampered-output.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert "$.records[0].target_output" in capsys.readouterr().err

    doc = read_json(out)
    doc["telemetry"]["wall_clock_s"] = 1e9  # telemetry is not replayed
    edited = tmp_path / "edited-telemetry.json"
    edited.write_text(json.dumps(doc))
    assert main(["replay", str(edited)]) == 0


def test_deeply_nested_json_inputs_are_errors(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    layout = tmp_path / "layout.json"
    assert main(["carve", "--m", "3", "--n", "3", "--out", str(layout)]) == 0
    verify = ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1"]
    for argv, what in [
        (["replay", str(deep)], "artifact"),
        (["--config", str(deep), "carve"], "config file"),
        (["simulate", "--graph", str(deep)], "layout"),
        (["simulate", "--graph", str(layout), "--angles", str(deep)], "angles"),
        (verify + ["--scheme-M", "1", "--scheme-l", "1", "--attack", str(deep)], "attack file"),
    ]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {deep}: ") and err.count("\n") == 1


def test_replay_refuses_list_record_artifacts_by_schema(tmp_path, capsys):
    """Schema 1 wrote each slot's outcomes as a list of ints; such an
    artifact is refused for its schema, not reported as tampered."""
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv)
    doc = read_json(out)
    assert doc["schema_version"] == ARTIFACT_SCHEMA == 2
    for rec in doc["records"]:
        assert all(set(s) <= {"0", "1"} for s in rec["raw"] + rec["decrypted"])
        rec["raw"] = [list(map(int, s)) for s in rec["raw"]]
        rec["decrypted"] = [list(map(int, s)) for s in rec["decrypted"]]
    doc["schema_version"] = 1
    old = tmp_path / "schema1.json"
    old.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert main(["replay", str(old)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unsupported artifact schema 1\n"


def test_artifacts_are_one_compact_line(tmp_path):
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv)
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_replay_refuses_other_engine_versions(tmp_path, capsys):
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv)
    for engine in (1, 2, 3):
        doc = read_json(out)
        if engine == 1:
            del doc["engine_version"]  # artifacts without a stamp are engine 1
        else:
            doc["engine_version"] = engine
        old = tmp_path / f"engine{engine}.json"
        old.write_text(json.dumps(doc))
        assert main(["replay", str(old)]) == 1
        err = capsys.readouterr().err
        assert f"engine version {engine}" in err
        assert "tampering" not in err


def test_replay_rejects_non_verify_documents(tmp_path, capsys):
    out = tmp_path / "thm1.json"
    main(["bounds", "thm1", "--n-qubits", "7", "--kappa", "1",
          "--eps-v", "1e-3", "--eps-p", "1e-3", "--beta", "0.05",
          "--out", str(out)])
    assert main(["replay", str(out)]) == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("eps_v", "x", "bad value for eps_v: 'x'"),
        ("seed", "abc", "bad value for seed: 'abc'"),
        ("m", [3], "bad value for m: [3]"),
        ("extras", [1], "holds no readable config"),
    ],
)
def test_replay_checks_the_stored_config(tmp_path, capsys, key, value, message):
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "1", "--scheme-l", "0.5"]
    )
    assert main(argv) == 0
    doc = read_json(out)
    doc["config"][key] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1  # one line, no traceback


def test_replay_applies_the_flag_rules_to_the_stored_config(tmp_path, capsys):
    # scheme_m is ignored under --auto-params, so only the rule shows this
    argv, out = verify_argv(
        tmp_path, "auto.json",
        ["--auto-params", "--beta", "0.05", "--eps-v", "0.05", "--eps-p", "0.05"],
    )
    assert main(argv) == 0
    doc = read_json(out)
    doc["config"]["scheme_m"] = 0
    out.write_text(json.dumps(doc))
    assert main(["replay", str(out)]) == 1
    assert "mutually exclusive" in capsys.readouterr().err


# The config member of this artifact as written before the option table was
# derived from the parser; a drift in the artifact format shows here.
PINNED_SNAPSHOT = {
    "attack": "kill.json",
    "auto_params": True,
    "beta": 0.05,
    "eps_p": 0.05,
    "eps_v": 0.05,
    "extras": {
        "attack_doc": {
            "pauli_terms": [
                {"letters": {"0:0": "Z", "1:0": "Z", "2:0": "Z"}, "weight": 1.0}
            ]
        },
        "basis": "full",
        "cap": 22,
        "distance": 2,
        "kind": "target",
        "poly_prefactor": 1.0,
        "saw_prefactor": 1.2,
        "syndromes": 564,
        "trials": 20,
    },
    "fmt": "json",
    "kappa": 1,
    "m": 3,
    "n": 3,
    "scheme_l": None,
    "scheme_m": None,
    "seed": 5,
    "subcommand": "verify",
}


def test_config_snapshot_is_pinned_and_round_trips(
    tmp_path, monkeypatch, kill_attack_file
):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
            "--seed", "5", "--attack", kill_attack_file.name, "--auto-params",
            "--beta", "0.05", "--eps-v", "0.05", "--eps-p", "0.05",
            "--out", "snap.json"]
    assert main(argv) == 0
    snapshot = read_json(tmp_path / "snap.json")["config"]
    assert snapshot == PINNED_SNAPSHOT
    assert SessionConfig.from_json_dict(snapshot).to_json_dict() == snapshot
    cfg = parse_config(argv)
    assert SessionConfig.from_json_dict(cfg.to_json_dict()) == replace(cfg, out=None)


@pytest.mark.parametrize(
    "attack, message",
    [
        ({"pauli_terms": [{"weight": 1.0, "letters": {"7:0": "Z"}}]}, "slot 7"),
        ({"pauli_terms": [{"weight": 1.0, "letters": {"0:99": "Z"}}]}, "vertex 99"),
        ({"pauli_terms": [{"letters": {"0:0": "Z"}}]}, "weight"),
        ({"unitary": [[1]]}, "malformed unitary"),
        ({"unitary": [1]}, "malformed unitary"),
        ({"unitary": [[[1, 0]]], "private_qubits": 1.5}, "private_qubits"),
        ({"unitary": [[[1, 0]]], "private_qubits": 10**9}, "27 protocol + 1000000000 private"),
        ({}, "needs 'pauli_terms' or 'unitary'"),
        ([], "must be an object"),
    ],
    ids=["slot-out-of-range", "vertex-out-of-range", "missing-weight",
         "unitary-cell-not-a-pair", "unitary-row-not-a-list",
         "unitary-private-not-an-integer", "unitary-private-too-large",
         "empty-object", "empty-list"],
)
def test_verify_rejects_bad_attacks(
    tmp_path, capsys, attack, message
):
    path = tmp_path / "attack.json"
    path.write_text(json.dumps(attack))
    argv, _ = verify_argv(
        tmp_path, "attacked.json",
        ["--scheme-M", "2", "--scheme-l", "0.5", "--attack", str(path)],
    )
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_verify_auto_params(tmp_path):
    argv, out = verify_argv(
        tmp_path, "auto.json",
        ["--auto-params", "--beta", "0.05", "--eps-v", "0.05",
         "--eps-p", "0.05"],
    )
    assert main(argv) == 0
    doc = read_json(out)
    # ceil(ln 20 / (2 * 49 * 0.01)) on 7 surviving target vertices
    assert doc["scheme"]["m"] == 4
    assert doc["scheme"]["derived"] is True
    assert doc["scheme"]["out_of_regime"] is True  # l formula goes negative
    assert doc["scheme"]["l"] == 0.0
    assert main(["replay", str(out)]) == 0


def test_seed7_artifact_bytes_are_pinned(tmp_path):
    """The seed-7 3x3 `verify --auto-params` artifact at ε=4e-3, β=0.05
    (M=478), encoded without its telemetry, hashes to the digest recorded
    before run batches became columnar: no record, field or byte of the
    artifact changed.  A schema, engine or tool-version bump re-pins it;
    engine 5 did, after the artifact with ``engine_version`` also removed
    was checked to hash as it did under engine 4 (732aa92740cff03e…)."""
    out = tmp_path / "seed7.json"
    argv = ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
            "--eps-v", "4e-3", "--eps-p", "4e-3", "--beta", "0.05",
            "--auto-params", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    doc = read_json(out)
    doc.pop("telemetry")
    assert len(doc["records"]) == 478
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "6f1f70cc37337a342b992a52da92727b0f49a7b4e110f359660a1160572c6d82"


def test_verify_refuses_a_run_beyond_physical_memory(tmp_path, capsys):
    """ε_V = 1e-9 derives M = 30 568 696 668 918 272, whose records could
    never be held: verify exits 1 before the run, naming M and κ."""
    argv, out = verify_argv(
        tmp_path, "huge.json", ["--auto-params", "--beta", "0.05", "--eps-v", "1e-9"]
    )
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: M = 30568696668918272 repetitions at kappa = 1 ")
    assert "bytes of physical memory" in err and err.count("\n") == 1
    assert not out.exists()


def test_replay_refuses_an_artifact_edited_beyond_physical_memory(tmp_path, capsys):
    """κ edited to 10⁶: the 2κ+1 slot strings of M repetitions would not
    fit, so replay exits 1 before the run.  M is chosen so that they
    would not fit in this machine's memory, whatever its size."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    scheme_m = memory // (2 * (2 * 10**6 + 1) * 9) + 1
    argv, out = verify_argv(
        tmp_path, "edited.json", ["--scheme-M", str(scheme_m), "--scheme-l", "0.5"]
    )
    assert main(argv) == 0
    doc = read_json(out)
    doc["config"]["kappa"] = 10**6
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: M = {scheme_m} repetitions at kappa = 1000000 ")
    assert err.count("\n") == 1


def test_verify_auto_params_needs_noise(tmp_path):
    argv, _ = verify_argv(
        tmp_path, "degenerate.json", ["--auto-params", "--beta", "0.05"]
    )
    assert main(argv) == 1


# -- bounds ----------------------------------------------------------------------


def test_bounds_delta_kappa_stdout(capsys):
    assert main(["bounds", "delta-kappa", "--kappa", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/10"


@pytest.mark.parametrize(
    "argv",
    [
        ["delta-kappa", "--kappa", "2"],
        ["thm1", "--n-qubits", "9", "--kappa", "1", "--eps-v", "0.001",
         "--eps-p", "0.001", "--beta", "0.05"],
        ["thm2", "--eps2", "0.01", "--kappa", "2", "--beta", "0.05"],
        ["thm3", "--alpha1", "0.9", "--alpha2", "0.1", "--beta1", "0.05",
         "--beta2", "0.05", "--n-qubits", "9"],
        ["twirl", "--n-qubits", "1", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_bounds_verbs_without_a_table_refuse_csv(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    for extra in ([], ["--out", str(out)]):
        assert main(["bounds", *argv, "--format", "csv", *extra]) == 1
        assert capsys.readouterr() == (
            "", f"error: bounds {argv[0]} has no CSV output; use --format json\n"
        )
    assert not out.exists()
    assert main(["bounds", *argv, "--out", str(out)]) == 0


def test_verify_keeps_json_under_a_shared_csv_format(tmp_path):
    """verify has no --format of its own, so fmt: csv from a config file
    shared with other subcommands leaves its artifact JSON."""
    out = tmp_path / "art.json"
    with mock.patch.dict(os.environ, {"TRAPVER_FMT": "csv"}):
        assert main(
            ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
             "--scheme-M", "2", "--scheme-l", "0.5", "--out", str(out)]
        ) == 0
    assert read_json(out)["config"]["fmt"] == "csv"


def test_bounds_attack_table(tmp_path):
    out_csv = tmp_path / "table.csv"
    assert main(
        ["bounds", "attack-table", "--kappa", "1", "--format", "csv",
         "--out", str(out_csv)]
    ) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "kappa,lam,xi,trap_term,escape_bound,gap"
    assert "1,2,1,1/2,1/3,1/6" in lines  # the sign-claim violator

    out_json = tmp_path / "table.json"
    main(["bounds", "attack-table", "--kappa", "2", "--out", str(out_json)])
    classes = read_json(out_json)["classes"]
    assert len(classes) == 6
    assert classes[-1] == {
        "kappa": 2, "lam": 5, "xi": 3, "trap_term": "1/10",
        "escape_bound": "0", "gap": "1/10",
    }


def test_bounds_thm_verbs(tmp_path):
    out = tmp_path / "thm1.json"
    assert main(
        ["bounds", "thm1", "--n-qubits", "9", "--kappa", "1",
         "--eps-v", "0.001", "--eps-p", "0.001", "--beta", "0.05",
         "--out", str(out)]
    ) == 0
    params = read_json(out)["params"]
    assert params["m"] == 4624
    assert params["out_of_regime"] is False
    assert "raw" in params

    out = tmp_path / "thm2.json"
    assert main(
        ["bounds", "thm2", "--eps2", "0.01", "--kappa", "2",
         "--beta", "0.05", "--out", str(out)]
    ) == 0
    assert read_json(out)["params"]["m"] == 14979

    out = tmp_path / "thm3.json"
    assert main(
        ["bounds", "thm3", "--alpha1", "0.1", "--alpha2", "0.2",
         "--beta1", "0.9", "--beta2", "0.9", "--n-qubits", "10",
         "--out", str(out)]
    ) == 0
    doc = read_json(out)
    assert doc["feasible"] is True
    assert doc["epsilon"] == pytest.approx(0.007990234375, rel=1e-12)

    assert main(["bounds", "thm1", "--kappa", "1", "--beta", "0.05"]) == 1


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_bounds_thm1_refuses_non_finite_rates(tmp_path, capsys, rate):
    out = tmp_path / "thm1.json"
    capsys.readouterr()
    assert main(
        ["bounds", "thm1", "--n-qubits", "9", "--kappa", "1", "--eps-v", rate,
         "--eps-p", "0.001", "--beta", "0.05", "--out", str(out)]
    ) == 1
    assert "noise rates must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_twirl_verb(tmp_path):
    out = tmp_path / "twirl.json"
    assert main(
        ["bounds", "twirl", "--n", "2", "--q", "XI", "--q-prime", "XX",
         "--basis", "z_only", "--trials", "5", "--out", str(out)]
    ) == 0
    doc = read_json(out)
    assert doc["max_residual"] <= 1e-12
    assert doc["trials"] == 5


def test_bounds_twirl_default_basis(tmp_path):
    out = tmp_path / "twirl.json"
    assert main(
        ["bounds", "twirl", "--n", "1", "--q", "X", "--q-prime", "Z",
         "--trials", "10", "--out", str(out)]
    ) == 0
    doc = read_json(out)
    assert doc["max_residual"] <= 1e-12
    assert doc["basis"] == "full"


def test_bounds_twirl_rejects_bad_words():
    assert main(
        ["bounds", "twirl", "--n", "1", "--q", "Z", "--q-prime", "X",
         "--basis", "z_only"]
    ) == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--n-qubits", "4"], "--n-qubits must be 1, 2 or 3, not 4"),
        (["--trials", "0"], "--trials must be at least 1, not 0"),
    ],
)
def test_bounds_twirl_checks_inputs_before_drawing(capsys, extra, message):
    assert main(["bounds", "twirl", *extra]) == 1
    assert message in capsys.readouterr().err


# -- ft ---------------------------------------------------------------------------


def test_ft_report(tmp_path):
    out = tmp_path / "ft.json"
    assert main(
        ["ft", "--fraction-of-threshold", "0.01", "--out", str(out)]
    ) == 0
    report = read_json(out)["report"]
    assert report["m_real"] == pytest.approx(54.01457407954804, rel=1e-12)
    assert report["m"] == 55
    assert report["converges"] is True


def test_ft_requires_exactly_one_rate(capsys):
    assert main(["ft"]) == 1
    assert main(["ft", "--eps", "0.001", "--fraction-of-threshold", "0.1"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_ft_csv_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(
        ["ft", "--fraction-of-threshold", "0.01", "--format", "csv",
         "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("fraction,")


# sha256 of each calculator's stdout, recorded before the handlers returned
# their payloads and the bounds verbs became one table
PINNED_CALCULATOR_DIGESTS = {
    "delta-kappa": (
        ["bounds", "delta-kappa", "--kappa", "2"],
        "54142ecf32950a6324db3fded22e0da191a8d881ae586026d22eb580acb5802b",
    ),
    "attack-table-json": (
        ["bounds", "attack-table", "--kappa", "2"],
        "459211493931fa5f58defb1ecf1844e640d6ecd14f436c949f4d1c41b0e994fb",
    ),
    "attack-table-csv": (
        ["bounds", "attack-table", "--kappa", "2", "--format", "csv"],
        "fb2d12720fd1859d0f2c0bef8322167bcf5e7d763faf2519fcad88c16f708533",
    ),
    "thm1": (
        ["bounds", "thm1", "--n-qubits", "5", "--kappa", "2", "--eps-v", "0.001",
         "--eps-p", "0.001", "--beta", "0.05"],
        "48bb05005d180ff915a4d1f5de9a15afe0c129cd8d82e52fdfafbe7353cb7947",
    ),
    "thm2": (
        ["bounds", "thm2", "--eps2", "0.01", "--kappa", "2", "--beta", "0.05"],
        "2509a717584ec52230aefaeb3292678fa2df3461f5a57016c049d89946c5f55a",
    ),
    "thm3": (
        ["bounds", "thm3", "--alpha1", "0.1", "--alpha2", "0.2", "--beta1", "0.05",
         "--beta2", "0.05", "--n-qubits", "5"],
        "1834834a356fbfa2b92c44d2b19bd75bd34aad8f3f7962d667314088a244c1c8",
    ),
    "twirl": (
        ["bounds", "twirl", "--n-qubits", "2", "--trials", "5", "--seed", "3"],
        "b569aaf95c5fa1ff1911871bf553ec99b57e3aae00902c99443cc5c5f12d911d",
    ),
    "ft-json": (
        ["ft", "--fraction-of-threshold", "0.01"],
        "f562b769a82191438588f32149f23b27e10aec05d18cca06531d43c8f9ec7e81",
    ),
    "ft-csv": (
        ["ft", "--fraction-of-threshold", "0.01", "--format", "csv"],
        "7713dc5f9179e6851b1161e5916ddce96061133d150ffbc68d45c00dda6f5469",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CALCULATOR_DIGESTS))
def test_calculator_outputs_are_pinned(name, capsys):
    argv, digest = PINNED_CALCULATOR_DIGESTS[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every float option is swept on each of these; an option that a base does
# not read still has to leave its output valid.
_SWEEP_BASES = {
    "verify": ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
               "--scheme-M", "2", "--scheme-l", "0.5"],
    "verify-auto": ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
                    "--auto-params", "--beta", "0.05", "--eps-v", "0.05",
                    "--eps-p", "0.05"],
    "thm1": ["bounds", "thm1", "--n-qubits", "9", "--kappa", "1", "--eps-v", "0.001",
             "--eps-p", "0.001", "--beta", "0.05"],
    "thm2": ["bounds", "thm2", "--eps2", "0.01", "--kappa", "2", "--beta", "0.05"],
    "thm3": ["bounds", "thm3", "--alpha1", "0.1", "--alpha2", "0.2", "--beta1", "0.9",
             "--beta2", "0.9", "--n-qubits", "10"],
    "ft-eps": ["ft", "--eps", "0.001"],
    "ft-fraction": ["ft", "--fraction-of-threshold", "0.01"],
}
_SWEEP = [
    (base, action.option_strings[0], value)
    for base, argv in _SWEEP_BASES.items()
    for action in _subparsers(build_parser())[argv[0]]._actions
    if action.type is float
    for value in ("nan", "inf", "-inf", "-1")
]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_strict_json_or_exit_1(code, out, err):
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 2)
        json.loads(out, parse_constant=_refuse_constant)


@pytest.mark.parametrize(
    "base, flag, value", _SWEEP, ids=["-".join(case) for case in _SWEEP]
)
def test_float_options_give_valid_json_or_exit_1(base, flag, value, capsys):
    """NaN, infinities and -1 in any float option either exit 1 or give
    output that strict JSON accepts: no NaN or Infinity is written."""
    code = main(_SWEEP_BASES[base] + [f"{flag}={value}"])
    _assert_strict_json_or_exit_1(code, *capsys.readouterr())


_FLOAT_KEYS = {
    action.option_strings[0]: action.dest
    for sub in _subparsers(build_parser()).values()
    for action in sub._actions
    if action.type is float
}


@pytest.mark.parametrize("source", ["env", "file"])
@pytest.mark.parametrize(
    "base, flag, value", _SWEEP, ids=["-".join(case) for case in _SWEEP]
)
def test_float_keys_from_env_and_file_refuse_non_finite_values(
    base, flag, value, source, tmp_path, capsys
):
    """The float sweep through the environment and a config file, which
    reach every option, read or not: NaN and the infinities exit 1 naming
    their key, and -1 exits 1 or gives strict JSON."""
    key = _FLOAT_KEYS[flag]
    if source == "env":
        with mock.patch.dict(os.environ, {f"TRAPVER_{key.upper()}": value}):
            code = main(_SWEEP_BASES[base])
    else:
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({key: float(value)}))  # NaN, Infinity
        code = main(["--config", str(cfg_file)] + _SWEEP_BASES[base])
    out, err = capsys.readouterr()
    _assert_strict_json_or_exit_1(code, out, err)
    if value != "-1":
        assert code == 1
        assert err.startswith(f"error: bad value for {key}: ") and err.endswith(" is not finite\n")


# -- fuzzing the config sources ----------------------------------------------

FUZZ_ARGV = ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
             "--scheme-M", "1", "--scheme-l", "0.5"]
FUZZ_KEYS = sorted(_option_table(build_parser(), "verify")) + ["bogus"]

# Small numbers only: no drawn value may size an allocation.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), "1e400", "nan", "yes"]),
    st.sampled_from(["xml", "csv", "json", "full", "z_only", "trap-odd", "thm1"]),
    st.text(alphabet="0123456789.-+eE x", max_size=4),
)
_JSON = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.text(alphabet="abkmnx_", max_size=3), _SCALARS, max_size=2),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert main(FUZZ_ARGV + ["--out", str(path / "honest.json")]) == 0
    return path


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(["env", "file", "config", "extras"]),
    key=st.sampled_from(FUZZ_KEYS + ["subcommand", "extras", "attack_doc"]),
    value=_JSON,
)
def test_config_sources_exit_cleanly(fuzz_dir, source, key, value):
    """Wrong-typed values in any config source give exit 0, 1 or 2."""
    out = ["--out", str(fuzz_dir / "out.json")]
    if source == "env":
        raw = value if isinstance(value, str) else json.dumps(value)
        with mock.patch.dict(os.environ, {f"TRAPVER_{key.upper()}": raw}):
            code = main(FUZZ_ARGV + out)
    elif source == "file":
        cfg_file = fuzz_dir / "config.json"
        cfg_file.write_text(json.dumps({key: value}))
        code = main(["--config", str(cfg_file)] + FUZZ_ARGV + out)
    else:
        doc = read_json(fuzz_dir / "honest.json")
        target = doc["config"] if source == "config" else doc["config"]["extras"]
        target[key] = value
        artifact = fuzz_dir / "tampered.json"
        artifact.write_text(json.dumps(doc))
        code = main(["replay", str(artifact)])
    assert code in (0, 1, 2)


# -- fuzzing attack documents -------------------------------------------------

_CELL_KEY = st.one_of(
    st.tuples(st.integers(-2, 4), st.integers(-2, 12)).map("{0[0]}:{0[1]}".format),
    st.sampled_from(["0", "0:", ":1", "a:b", "1:2:3", ""]),
)
_LETTER = st.one_of(st.sampled_from(["I", "X", "Y", "Z", "", "XY", "W", "z"]), _SCALARS)
_LETTERS = st.dictionaries(_CELL_KEY, _LETTER, max_size=3)
_TERM = st.one_of(
    st.fixed_dictionaries(
        {"weight": st.one_of(st.floats(-0.5, 1.5), _SCALARS), "letters": _LETTERS}
    ),
    _JSON,
)
# terms whose weights do sum to 1, so that their letters reach the runs
_WEIGHED_TERMS = st.lists(_LETTERS, min_size=1, max_size=3).map(
    lambda terms: [{"weight": 1 / len(terms), "letters": t} for t in terms]
)
_MATRIX_CELL = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(list),
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
)
_ATTACK_DOC = st.one_of(
    st.fixed_dictionaries(
        {"pauli_terms": st.one_of(_WEIGHED_TERMS, st.lists(_TERM, max_size=3), _JSON)}
    ),
    st.fixed_dictionaries(
        {"unitary": st.one_of(
            st.just([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
            st.lists(st.lists(_MATRIX_CELL, max_size=2), max_size=2),
            _JSON,
        )},
        optional={"private_qubits": _SCALARS},
    ),
    _JSON,
)


@settings(max_examples=200, deadline=None)
@given(doc=_ATTACK_DOC)
def test_attack_documents_exit_cleanly(fuzz_dir, doc):
    """Malformed attack JSON — wrong types, weights off 1, letters outside
    IXYZ, slots and vertices out of range, bad unitary cells — gives
    exit 0, 1 or 2 and never an escaping exception."""
    path = fuzz_dir / "attack.json"
    path.write_text(json.dumps(doc))
    out = ["--attack", str(path), "--out", str(fuzz_dir / "attacked.json")]
    assert main(FUZZ_ARGV + out) in (0, 1, 2)


# -- fuzzing layout documents -------------------------------------------------


@st.composite
def _shaped_layouts(draw):
    """Layouts of m·n vertices with ids 0..m·n−1 in any order, so that
    they reach the role, angle and edge checks and the simulator."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    roles = st.sampled_from((ROLE_COMPUTATIONAL, ROLE_DUMMY) * 3 + ROLES)
    vertices = [
        {"id": v, "role": draw(roles), "phi_k": draw(st.sampled_from([0, 0, 4, 15, 16]))}
        for v in draw(st.permutations(range(m * n)))
    ]
    edges = [list(e) for e in lattice_edges(m, n) if draw(st.booleans())]
    edges += draw(st.lists(st.lists(st.integers(-1, m * n), max_size=3), max_size=1))
    return {"schema_version": SCHEMA_VERSION, "m": m, "n": n, "vertices": vertices, "edges": edges}


_VERTEX = st.one_of(
    st.fixed_dictionaries(
        {"id": st.one_of(st.integers(-1, 9), _SCALARS), "role": st.one_of(st.sampled_from(ROLES), _SCALARS)},
        optional={"phi_k": st.one_of(st.integers(-1, 16), _SCALARS)},
    ),
    _JSON,
)
_LAYOUT_DOC = st.one_of(
    _shaped_layouts(),
    st.fixed_dictionaries(
        {
            "schema_version": st.one_of(st.just(SCHEMA_VERSION), _SCALARS),
            "vertices": st.one_of(st.lists(_VERTEX, max_size=9), _JSON),
            "edges": st.one_of(st.lists(st.lists(_SCALARS, max_size=3), max_size=3), _JSON),
        },
        optional={"m": _SCALARS, "n": _SCALARS},
    ),
    _JSON,
)


@settings(max_examples=200, deadline=None)
@given(doc=_LAYOUT_DOC)
def test_layout_documents_exit_cleanly(fuzz_dir, doc):
    """Malformed layouts for `simulate --graph` — wrong types, missing
    fields, vertex ids out of range or repeated, bad roles, angles and
    edges — give exit 0, 1 or 2 and never an escaping exception."""
    path = fuzz_dir / "layout.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--graph", str(path), "--exact", "--out", str(fuzz_dir / "dist.json")]
    assert main(argv) in (0, 1, 2)


# -- fuzzing the replayed part of a verify artifact ---------------------------


@pytest.fixture(scope="module")
def records_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "honest.json"
    argv = FUZZ_ARGV[:-4] + ["--scheme-M", "3", "--scheme-l", "0.5"]
    assert main(argv + ["--out", str(path)]) == 0
    return path


def _paths(node, here=()):
    """Every member and element below ``node``, as key/index tuples."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield here + (key,)
        yield from _paths(child, here + (key,))


# a packed string with characters outside 0/1, or of the wrong length
_PACKED_LIKE = st.text(alphabet="01 2x", max_size=10)
_EDIT = st.one_of(
    st.tuples(
        st.just("set"), st.one_of(_SCALARS, _PACKED_LIKE, st.lists(_SCALARS, max_size=3))
    ),
    st.tuples(st.just("delete"), st.none()),
    # an equal number of another JSON type: true -> 1, 1 -> 1.0
    st.tuples(st.just("retype"), st.none()),
    # one character of a string replaced or dropped
    st.tuples(
        st.just("char"),
        st.tuples(st.integers(0, 9), st.sampled_from(["0", "1", "2", " ", ""])),
    ),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), edit=_EDIT, indent=st.sampled_from([None, 2]))
def test_replay_refuses_any_edit_of_records_verdict_or_scheme(
    records_artifact, data, edit, indent
):
    """One edited field of ``records``, ``verdict`` or ``scheme`` — a bad
    character or length in a packed string, a number or list for a
    string, a missing key, null, true for 1 — exits 1 with one
    ``error:`` line; an edit that leaves the JSON as it was replays
    cleanly, whether written as verify writes it or reformatted."""
    doc = read_json(records_artifact)
    original = json.dumps(doc, sort_keys=True)
    paths = [p for sec in ("records", "verdict", "scheme") for p in _paths(doc[sec], (sec,))]
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind, value = edit
    if kind == "set":
        parent[path[-1]] = value
    elif kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        value = parent[path[-1]]
        parent[path[-1]] = {bool: int, int: float}.get(type(value), str)(value)
    elif isinstance(parent[path[-1]], str):
        pos, char = value
        text = parent[path[-1]]
        parent[path[-1]] = text[:pos] + char + text[pos + 1 :]
    edited = records_artifact.parent / "edited.json"
    edited.write_text(json.dumps(doc, sort_keys=True, indent=indent) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["replay", str(edited)])
    err = err.getvalue()
    if json.dumps(doc, sort_keys=True) == original:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err.startswith("error: replay mismatch at $.") and err.count("\n") == 1
