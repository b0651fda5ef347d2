"""Command-line surface: config resolution, artifacts, exit codes, replay."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapver import __version__
from trapver.cli import (
    ARTIFACT_SCHEMA,
    CliError,
    _COMMANDS,
    SessionConfig,
    _option_table,
    _record_bytes,
    build_parser,
    main,
    parse_config,
)
from trapver.graphs import (
    ROLE_COMPUTATIONAL, ROLE_DUMMY, ROLES, SCHEMA_VERSION, GraphSpec, carve_target,
    lattice_edges,
)
from trapver.protocol import ENGINE_VERSION, RunRecord


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
    with_file = ["--config", str(cfg_file)] + base
    from_file = parse_config(with_file)
    assert from_file.options["kappa"] == 3 and from_file.options["seed"] == 9

    env = {"TRAPVER_KAPPA": "2"}
    from_env = parse_config(with_file, env=env)
    assert from_env.options["kappa"] == 2 and from_env.options["seed"] == 9

    from_flag = parse_config(with_file + ["--kappa", "1"], env=env)
    assert from_flag.options["kappa"] == 1

    via_env_path = parse_config(
        base, env={"TRAPVER_CONFIG": str(cfg_file)}
    )
    assert via_env_path.options["kappa"] == 3


def test_config_file_errors(tmp_path):
    with pytest.raises(CliError, match="cannot read"):
        parse_config(["--config", str(tmp_path / "missing.json"), "carve"])
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(CliError, match="JSON object"):
        parse_config(["--config", str(bad), "carve"])


def test_env_and_file_values_are_checked_like_flags(tmp_path, capsys):
    with mock.patch.dict(os.environ, {"TRAPVER_FMT": "xml"}):
        assert main(["carve", "--m", "3", "--n", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: bad value for fmt: 'xml', choose from ['json']\n"
    )
    # choices come from the running subcommand: carve writes only json
    with pytest.raises(CliError, match="fmt"):
        parse_config(["carve"], env={"TRAPVER_FMT": "csv"})
    assert parse_config(["ft"], env={"TRAPVER_FMT": "csv"}).options["fmt"] == "csv"

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
            parse_config(["--config", str(cfg_file), "simulate"])

    # a file shared across subcommands: keys of other subcommands are
    # checked, one that verify lacks against the union of their choices,
    # and then dropped
    cfg_file.write_text(json.dumps(
        {"kind": "trap-odd", "basis": "z_only", "trials": "3", "fmt": "csv",
         "exact": 1, "seed": 4}
    ))
    cfg = parse_config(["--config", str(cfg_file), "verify"])
    assert cfg.options["seed"] == 4
    assert not {"kind", "basis", "trials", "fmt", "exact"} & set(cfg.options)
    for doc, key in (({"trials": "3.5"}, "trials"), ({"fmt": "xml"}, "fmt")):
        cfg_file.write_text(json.dumps(doc))
        with pytest.raises(CliError, match=f"bad value for {key}"):
            parse_config(["--config", str(cfg_file), "verify"])


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


def _subcommand_help(parser, name):
    """What ``trapver NAME --help`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args([name, "--help"])
    return out.getvalue()


def test_parser_is_built_once_and_left_unchanged(capsys):
    """Every lookup shares one parser, and parsing, errors and help leave
    it exactly as a fresh build is; each subcommand's parser sets exactly
    the keys its rows of the option table declare."""
    assert build_parser() is build_parser()
    main([])
    main(["carve", "--bogus"])
    main(["verify", "--kappa", "1"])
    main(["bounds", "delta-kappa", "--kappa", "2"])
    parse_config(["ft"], env={"TRAPVER_FMT": "csv"})
    shared, fresh = build_parser(), build_parser.__wrapped__()
    assert shared.format_help() == fresh.format_help()
    for name, (_, options) in _COMMANDS.items():
        assert _subcommand_help(shared, name) == _subcommand_help(fresh, name)
        argv = [name, *_positionals(options)]
        parsed = vars(shared.parse_args(argv))
        assert parsed == vars(fresh.parse_args(argv))
        assert set(parsed) - {"config", "subcommand"} == {o.key for o in options}


def _positionals(options):
    """One value per positional: a choice when it has some."""
    return [(o.choices or ("x",))[0] for o in options if not o.flags[0].startswith("-")]


def test_each_key_has_one_default_and_the_defaults_are_pinned():
    """Every row that declares a key gives it the same default, and with no
    source set each subcommand resolves to exactly its own defaults (and
    its positionals), types included: the parent's thirteen defaults, each
    kept by the subcommands that declare its key."""
    declared: dict[str, set] = {}
    for _, options in _COMMANDS.values():
        for o in options:
            declared.setdefault(o.key, set()).add((type(o.default), o.default))
    assert {key: found for key, found in declared.items() if len(found) > 1} == {}
    common = {"seed": 0, "fmt": "json"}
    pinned = {
        "carve": {**common, "kind": "target"},
        "simulate": {**common, "cap": 22},
        "verify": {"seed": 0, "cap": 22, "eps_v": 0.0, "eps_p": 0.0, "auto_params": False},
        "bounds": {**common, "eps_v": 0.0, "eps_p": 0.0, "basis": "full", "trials": 20,
                   "verb": "delta-kappa"},
        "ft": {**common, "distance": 2, "syndromes": 564, "saw_prefactor": 1.2,
               "poly_prefactor": 1.0},
        "replay": {"artifact": "x"},
    }
    assert set(pinned) == set(_COMMANDS)
    for name, (_, options) in _COMMANDS.items():
        got = parse_config([name, *_positionals(options)]).options
        assert {k: (type(v), v) for k, v in got.items()} == {
            k: (type(v), v) for k, v in pinned[name].items()
        }, name


def _valid_values(key):
    """Values every row that declares ``key`` accepts, inside each row's
    interval, as JSON a config file may carry."""
    rows = [o for _, options in _COMMANDS.values() for o in options if o.key == key]
    low = max([0, *(o.interval[0] for o in rows if o.interval and o.interval[0] is not None)])
    high = min([9, *(o.interval[1] for o in rows if o.interval and o.interval[1] is not None)])
    choices = [set(o.choices) for o in rows if o.choices]
    if choices:
        return st.sampled_from(sorted(set.intersection(*choices)))
    if key == "auto_params":  # true beside scheme_m would break the cross-option rule
        return st.just(False)
    conv = rows[0].conv
    if conv is None:
        return st.booleans()
    if conv is int:
        return st.integers(low, high)
    if conv is float:
        return st.floats(low, min(high, 1.0))
    return st.text(alphabet="abc./", min_size=1, max_size=4)


_ALL_KEYS = sorted({o.key for _, options in _COMMANDS.values() for o in options})


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_COMMANDS)),
    values=st.fixed_dictionaries({k: _valid_values(k) for k in _ALL_KEYS}),
    in_env=st.sets(st.sampled_from(_ALL_KEYS)),
)
def test_options_hold_only_the_subcommands_own_keys(tmp_path_factory, name, values, in_env):
    """A config file and the environment that set every key of every
    subcommand leave the resolved options holding exactly the running
    subcommand's keys, each with the value its source gave (the
    positionals come from the command line)."""
    _, options = _COMMANDS[name]
    cfg_file = tmp_path_factory.mktemp("shared") / "config.json"
    cfg_file.write_text(json.dumps({k: v for k, v in values.items() if k not in in_env}))
    env = {f"TRAPVER_{k.upper()}": json.dumps(values[k]).strip('"') for k in in_env}
    argv = [name, *_positionals(options)]
    got = parse_config(["--config", str(cfg_file), *argv], env=env).options
    flags = {o.key: v for o, v in zip((o for o in options if not o.flags[0].startswith("-")), argv[1:])}
    assert set(got) == {o.key for o in options}
    assert got == {o.key: flags.get(o.key, values[o.key]) for o in options}


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


@pytest.mark.parametrize("options", [["--exact"], ["--samples", "500", "--seed", "7"]])
def test_simulate_angle_steps_count_mod_16(tmp_path, layout_file, options):
    """Grid steps outside 0..15 measure where their residues do."""
    nd = GraphSpec.from_json_dict(read_json(layout_file)).non_dummy_ids()
    steps = [-16, 17, -14, 21, -10, 23, -8]
    written = []
    for name, ks in (("steps", steps), ("residues", [k % 16 for k in steps])):
        angles, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
        angles.write_text(json.dumps(dict(zip(map(str, nd), ks))))
        assert main(["simulate", "--graph", str(layout_file), *options,
                     "--angles", str(angles), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


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


# sha256 of `simulate --graph` stdout on the 5x3 target carving, recorded
# while the exact distribution was still a dict of outcome strings; the JSON
# entries re-pinned for schema 3 to the same documents with schema_version 3
PINNED_SIMULATE_DIGESTS = {
    "exact-json": (
        ["--exact"],
        "9cb52974bd6c3d3fdb19cc9e6e43165ab002e1299197024c9c88948a4d4bf894",
    ),
    "exact-csv": (
        ["--exact", "--format", "csv"],
        "101c05c7e0929826cc5da81361d7a1b94a9f00be1b942d9a822f6a68a619b17b",
    ),
    "samples-json": (
        ["--samples", "500", "--seed", "7"],
        "e50435d955f197c7c27b090d6edade10adc927480919bc73d2383420a4ce8089",
    ),
    "samples-csv": (
        ["--samples", "500", "--seed", "7", "--format", "csv"],
        "787aed025d8280dd27016418de1f3b239ed949f08f7a7417fdc6d7703d4738ee",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SIMULATE_DIGESTS))
def test_simulate_outputs_are_pinned(name, tmp_path, capsys):
    graph = tmp_path / "target5x3.json"
    assert main(["carve", "--m", "5", "--n", "3", "--out", str(graph)]) == 0
    options, digest = PINNED_SIMULATE_DIGESTS[name]
    capsys.readouterr()
    assert main(["simulate", "--graph", str(graph), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
     (MemoryError(), "MemoryError")],
    ids=["numpy", "no-text"],
)
def test_memory_error_is_one_error_line(layout_file, capsys, monkeypatch, exc, message):
    """A MemoryError with no text of its own still prints a message."""
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr("trapver.cli.exact_probability_array", refuse)
    assert main(["simulate", "--graph", str(layout_file), "--exact"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("samples", [-5, 2**63])
def test_simulate_refuses_a_sample_count_out_of_range(layout_file, capsys, monkeypatch, samples):
    """numpy would refuse a negative count as ``n < 0`` and one past a C
    long as too large to convert; both are refused by the flag's interval
    first."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the refused run was started")

    monkeypatch.setattr("trapver.cli.exact_probability_array", unreachable)
    assert main(["simulate", "--graph", str(layout_file), "--samples", str(samples)]) == 1
    assert capsys.readouterr() == (
        "", f"error: simulate: --samples must lie in [0, {2**63 - 1}], got {samples}\n"
    )


def test_simulate_draws_zero_samples_as_empty_counts(layout_file, capsys):
    assert main(["simulate", "--graph", str(layout_file), "--samples", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["count"], doc["counts"]) == ("samples", 0, {})


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
    assert "attack_doc" in doc["config"]


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
    slot = doc["records"][0]["target_slot"]  # its decrypted string is the output
    output = doc["records"][0]["decrypted"][slot]
    doc["records"][0]["decrypted"][slot] = "10"[int(output[0])] + output[1:]
    tampered = tmp_path / "tampered-output.json"
    tampered.write_text(json.dumps(doc))
    assert main(["replay", str(tampered)]) == 1
    assert f"$.records[0].decrypted[{slot}]" in capsys.readouterr().err

    doc = read_json(out)
    doc["telemetry"]["wall_clock_s"] = 1e9  # telemetry is not replayed
    edited = tmp_path / "edited-telemetry.json"
    edited.write_text(json.dumps(doc))
    assert main(["replay", str(edited)]) == 0


def test_replay_names_a_record_in_the_second_batch(tmp_path, capsys):
    """M = 1030 runs as two batches; an edit of run 1029's raw outcomes is
    named by its index in the whole artifact."""
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "1030", "--scheme-l", "0.5"]
    )
    assert main(argv) == 0
    doc = read_json(out)
    assert len(doc["records"]) == 1030
    raw = doc["records"][1029]["raw"][2]
    doc["records"][1029]["raw"][2] = "10"[int(raw[0])] + raw[1:]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(tampered)]) == 1
    assert "mismatch at $.records[1029].raw[2]:" in capsys.readouterr().err


def test_verify_and_replay_build_no_record_dict(tmp_path, monkeypatch):
    """The artifact's records are spliced in from each batch's text: a
    verify and its replay never ask a record for its dict."""

    def refused(self):
        raise AssertionError("a record's dict was built")

    monkeypatch.setattr(RunRecord, "to_json_dict", refused)
    argv, out = verify_argv(
        tmp_path, "session.json",
        ["--auto-params", "--beta", "0.05", "--eps-v", "4e-3", "--eps-p", "4e-3"],
    )
    assert main(argv) == 0
    assert len(read_json(out)["records"]) == 478
    assert main(["replay", str(out)]) == 0


def test_records_are_spliced_after_an_attack_file_holding_the_hole(tmp_path):
    """An attack file may hold any text, the records' stand-in included;
    the records still land in their own place."""
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps({
        "pauli_terms": [{"weight": 1.0, "letters": {"0:4": "Z"}}],
        "records": "\u0000records",
        "note": ["\u0000records"],
    }))
    argv, out = verify_argv(
        tmp_path, "session.json",
        ["--scheme-M", "3", "--scheme-l", "0.5", "--attack", str(attack)],
    )
    code = main(argv)
    assert code in (0, 2)
    doc = read_json(out)
    assert doc["config"]["attack_doc"]["note"] == ["\u0000records"]
    assert [r["attack_letters"] for r in doc["records"]] == [[[0, 4, "Z"]]] * 3
    assert main(["replay", str(out)]) == code


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


def _as_schema2(doc: dict) -> dict:
    """A schema-3 verify artifact as schema 2 wrote it: the config split
    into twelve top-level options and ``extras`` (which also held the
    defaults of other subcommands' options), and each record's
    computation string repeated as ``target_output``."""
    config = dict(doc["config"])
    top = ("subcommand", "m", "n", "kappa", "eps_v", "eps_p", "scheme_m", "scheme_l",
           "auto_params", "beta", "attack", "seed")
    extras = {k: config.pop(k) for k in list(config) if k not in top}
    extras.update(basis="full", distance=2, kind="target", poly_prefactor=1.0,
                  saw_prefactor=1.2, syndromes=564, trials=20)
    for rec in doc["records"]:
        rec["target_output"] = rec["decrypted"][rec["target_slot"]]
    return {**doc, "config": {**config, "fmt": "json", "extras": extras}, "schema_version": 2}


def _as_schema1(doc: dict) -> dict:
    """Schema 1 also wrote each slot's outcomes as a list of ints."""
    doc = _as_schema2(doc)
    for rec in doc["records"]:
        assert all(set(s) <= {"0", "1"} for s in rec["raw"] + rec["decrypted"])
        rec["raw"] = [list(map(int, s)) for s in rec["raw"]]
        rec["decrypted"] = [list(map(int, s)) for s in rec["decrypted"]]
    return {**doc, "schema_version": 1}


@pytest.mark.parametrize("schema, older", [(1, _as_schema1), (2, _as_schema2)], ids=["1", "2"])
def test_replay_refuses_list_record_artifacts_by_schema(tmp_path, capsys, schema, older):
    """Schema 1 wrote each slot's outcomes as a list of ints, and schema 2
    split the config and repeated each computation string; such an
    artifact is refused for its schema, not reported as tampered."""
    argv, out = verify_argv(
        tmp_path, "session.json", ["--scheme-M", "3", "--scheme-l", "0.9"]
    )
    main(argv)
    doc = read_json(out)
    assert doc["schema_version"] == ARTIFACT_SCHEMA == 3
    old = tmp_path / f"schema{schema}.json"
    old.write_text(json.dumps(older(doc), indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["replay", str(old)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unsupported artifact schema {schema}\n"


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
    # a version that is not an integer is quoted as stored: "5" reads '5'
    for engine in (1, 2, 3, "5", 5.0):
        doc = read_json(out)
        if engine == 1:
            del doc["engine_version"]  # artifacts without a stamp are engine 1
        else:
            doc["engine_version"] = engine
        old = tmp_path / f"engine{engine}.json"
        old.write_text(json.dumps(doc))
        assert main(["replay", str(old)]) == 1
        err = capsys.readouterr().err
        assert f"engine version {engine!r};" in err
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
        ("extras", {"cap": 22}, "unknown configuration key 'extras'"),
        ("subcommand", ["verify"], "holds no readable config"),
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
# derived from the parser, flattened to verify's own options for schema 3;
# a drift in the artifact format shows here.
PINNED_SNAPSHOT = {
    "attack": "kill.json",
    "attack_doc": {
        "pauli_terms": [
            {"letters": {"0:0": "Z", "1:0": "Z", "2:0": "Z"}, "weight": 1.0}
        ]
    },
    "auto_params": True,
    "beta": 0.05,
    "cap": 22,
    "eps_p": 0.05,
    "eps_v": 0.05,
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
    unwritten = {k: v for k, v in cfg.options.items() if k != "out"}
    assert SessionConfig.from_json_dict(cfg.to_json_dict()) == SessionConfig(cfg.subcommand, unwritten)


def test_snapshot_stores_each_verify_option_once(tmp_path):
    """Schema 3's layout: a verify snapshot is flat, the subcommand and
    each option the verify parser declares but ``out``, null when unset;
    nothing else, under a shared config either."""
    dests = {o.key for o in _COMMANDS["verify"][1]}
    argv, out = verify_argv(tmp_path, "layout.json", ["--scheme-M", "1", "--scheme-l", "0.5"])
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps({"kind": "trap-odd", "fmt": "csv", "trials": 3}))
    for config in ([], ["--config", str(shared)]):
        assert main(config + argv) == 0
        snapshot = read_json(out)["config"]
        assert set(snapshot) == {"subcommand"} | dests - {"out"}
        assert snapshot["attack"] is None and snapshot["beta"] is None


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
    was checked to hash as it did under engine 4 (732aa92740cff03e…), and
    schema 3 did, after the schema-2 artifact (6f1f70cc37337a34…) mapped
    to schema 3 (config flattened, ``target_output`` dropped) was checked
    to hash to the digest below."""
    out = tmp_path / "seed7.json"
    argv = ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
            "--eps-v", "4e-3", "--eps-p", "4e-3", "--beta", "0.05",
            "--auto-params", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    doc = read_json(out)
    doc.pop("telemetry")
    assert len(doc["records"]) == 478
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "4bc4cb52ca14724792488c2ee957193006a699ce74dbf6c35d439717c73881c1"


def test_verify_refuses_a_run_beyond_physical_memory(tmp_path, capsys):
    """ε_V = 1e-9 derives M = 30 568 696 668 918 272, whose records could
    never be held: verify exits 1 before the run, naming M and κ."""
    argv, out = verify_argv(
        tmp_path, "huge.json", ["--auto-params", "--beta", "0.05", "--eps-v", "1e-9"]
    )
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: verify: M = 30568696668918272 repetitions at --kappa 1 ")
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
    assert err.startswith(f"error: verify: M = {scheme_m} repetitions at --kappa 1000000 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "shape, scheme_m", [((3, 3, 1), 10_000), ((5, 3, 2), 5_000)], ids=["3x3-kappa1", "5x3-kappa2"]
)
def test_record_estimate_brackets_what_a_verify_holds(tmp_path, shape, scheme_m):
    """The records check's bytes per repetition lie between 1 and 2 times
    the tracemalloc peak of the whole `verify`, plans already cached,
    divided by M: 1.65 and 1.47 times since records dropped
    ``target_output``.  At smaller M the peak's part that does not grow
    with M weighs more."""
    m, n, kappa = shape
    argv = ["verify", "--m-rounds", str(m), "--n-rounds", str(n), "--kappa", str(kappa),
            "--scheme-l", "0.5", "--out", str(tmp_path / "a.json"), "--scheme-M"]
    assert main(argv + ["1"]) == 0
    tracemalloc.start()
    try:
        assert main(argv + [str(scheme_m)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= _record_bytes(kappa, m * n) / (peak / scheme_m) <= 2


def test_a_cap_beyond_physical_memory_is_refused_before_allocating(
    tmp_path, capsys, monkeypatch
):
    """On 5x3 the target's 12-qubit component peaks at 24·2^12 bytes, and
    `simulate` adds the 8·2^12-byte joint distribution: with 50 000 bytes
    of memory both subcommands exit 1, naming c and the bytes, before
    anything is computed."""
    graph = tmp_path / "target5x3.json"
    assert main(["carve", "--m", "5", "--n", "3", "--out", str(graph)]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("the refused run was started")

    monkeypatch.setattr("trapver.cli._physical_memory", lambda: 50_000)
    monkeypatch.setattr("trapver.cli.exact_probability_array", unreachable)
    monkeypatch.setattr("trapver.cli.run_scheme", unreachable)
    capsys.readouterr()
    assert main(["simulate", "--graph", str(graph), "--exact"]) == 1
    assert capsys.readouterr().err == (
        "error: a component of 12 qubits and the 12-bit joint distribution would "
        "keep 131,072 bytes, more than the 50,000 bytes of physical memory\n"
    )
    out = tmp_path / "capped.json"
    assert main(["verify", "--m-rounds", "5", "--n-rounds", "3", "--kappa", "1",
                 "--scheme-M", "1", "--scheme-l", "0.5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: a component of 12 qubits would keep 98,304 bytes, more than "
        "the 50,000 bytes of physical memory\n"
    )
    assert not out.exists()


_VERIFY_ONE = ["verify", "--kappa", "1", "--scheme-M", "1", "--scheme-l", "0.5"]


_CAP_CASES = [
    ("simulate", ["simulate", "--cap", "6"], {}, "instance needs 7 qubits, cap is 6"),
    ("verify-flag", [*_VERIFY_ONE, "--m-rounds", "3", "--n-rounds", "3", "--cap", "6"], {},
     "instance needs 7 qubits, cap is 6"),
    ("verify-env", [*_VERIFY_ONE, "--m-rounds", "3", "--n-rounds", "3"], {"TRAPVER_CAP": "6"},
     "instance needs 7 qubits, cap is 6"),
    ("replay", ["replay"], {}, "instance needs 7 qubits, cap is 6"),
    ("verify-7x5", [*_VERIFY_ONE, "--m-rounds", "7", "--n-rounds", "5"], {},
     "instance needs 24 qubits, cap is 22"),
]


@pytest.mark.parametrize("case, argv, env, message", _CAP_CASES, ids=[c[0] for c in _CAP_CASES])
def test_the_qubit_cap_is_refused_with_one_error_line(tmp_path, capsys, case, argv, env, message):
    """`simulate` caps the joint distribution's N non-dummy bits, `verify`
    each connected component of the target; the 3x3 target is one
    component of 7 qubits, the 7x5 target's largest holds 24.  A cap set
    by flag, by TRAPVER_CAP or in a replayed artifact's stored config is
    refused alike, before anything is written."""
    out = tmp_path / "out.json"
    if case == "simulate":
        graph = tmp_path / "target3x3.json"
        assert main(["carve", "--m", "3", "--n", "3", "--out", str(graph)]) == 0
        argv = [*argv, "--graph", str(graph), "--exact"]
    elif case == "replay":
        assert main([*_VERIFY_ONE, "--m-rounds", "3", "--n-rounds", "3", "--out", str(out)]) == 0
        doc = read_json(out)
        doc["config"]["cap"] = 6
        out.write_text(json.dumps(doc))
        argv = [*argv, str(out)]
    if case != "replay":
        argv = [*argv, "--out", str(out)]
    capsys.readouterr()
    with mock.patch.dict(os.environ, env):
        assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert case == "replay" or not out.exists()


def test_verify_at_9x3_runs_under_the_default_cap(tmp_path):
    """The 9x3 lattice has 27 cells, more than the default cap of 22, but
    the cap bounds each component of the target, and none is that large."""
    out = tmp_path / "a.json"
    assert main([*_VERIFY_ONE, "--m-rounds", "9", "--n-rounds", "3", "--out", str(out)]) == 0
    assert read_json(out)["config"]["cap"] == 22


def test_verify_auto_params_needs_noise(tmp_path):
    argv, _ = verify_argv(
        tmp_path, "degenerate.json", ["--auto-params", "--beta", "0.05"]
    )
    assert main(argv) == 1


# -- bounds ----------------------------------------------------------------------


def test_bounds_delta_kappa_stdout(capsys):
    assert main(["bounds", "delta-kappa", "--kappa", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/10"


def test_bounds_delta_kappa_past_the_digit_limit_names_kappa(capsys):
    """From κ = 7146 on the denominator has more digits than Python
    converts to text by default; the refusal names --kappa, comes at once
    for a κ far past the limit, and leaves the interpreter's limit as it
    was.  κ = 7145 still prints."""
    limit = sys.get_int_max_str_digits()
    assert main(["bounds", "delta-kappa", "--kappa", "7145"]) == 0
    assert capsys.readouterr().out.startswith("1/")
    for kappa in [7146, 8000, 10**6, 2**63]:
        started = time.perf_counter()
        assert main(["bounds", "delta-kappa", "--kappa", str(kappa)]) == 1
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr() == (
            "",
            f"error: bounds delta-kappa: the fraction at --kappa {kappa} has more digits "
            f"than Python converts to text, {limit}\n",
        )
    assert sys.get_int_max_str_digits() == limit


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
    shared with other subcommands leaves its artifact JSON, and out of
    its config."""
    out = tmp_path / "art.json"
    with mock.patch.dict(os.environ, {"TRAPVER_FMT": "csv"}):
        assert main(
            ["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1",
             "--scheme-M", "2", "--scheme-l", "0.5", "--out", str(out)]
        ) == 0
    assert "fmt" not in read_json(out)["config"]


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


def test_bounds_thm1_at_huge_kappa_exits_at_once(capsys):
    """κ = 10^8: no exact (2κ+1)! is built, so the verb answers within a
    second, with the float of Δ_κ, 0.0, in its soundness radicand."""
    started = time.perf_counter()
    code = main(
        ["bounds", "thm1", "--n-qubits", "20", "--kappa", "100000000", "--eps-v", "1e-3",
         "--eps-p", "1e-3", "--beta", "0.05"]
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["raw"]["radicand_soundness"] == 10**8 * 20 * (3e-3 + 5e-3)


@pytest.mark.parametrize(
    "argv, kappa, message",
    [
        (["thm1", "--n-qubits", "20", "--eps-v", "1e-3", "--eps-p", "1e-3"], 10**400,
         f"bounds thm1: --kappa must lie in (-inf, 1.7976931348623157e+308], got {10**400}"),
        (["thm2", "--eps2", "0.01"], 10**400,
         f"bounds thm2: --kappa must lie in (-inf, 1.7976931348623157e+308], got {10**400}"),
        (["thm1", "--n-qubits", "20", "--eps-v", "1e-3", "--eps-p", "1e-3"], 10**160,
         "bounds thm1: 2*kappa^2*N^2 of --kappa and --n-qubits exceeds the largest float, "
         "1.79769e+308"),
    ],
    ids=["thm1", "thm2", "thm1-denominator"],
)
def test_bounds_theorems_name_a_kappa_beyond_floats(argv, kappa, message, capsys):
    """A 401-digit κ exits 1 naming --kappa and the largest float, not
    with the converter's own overflow message; so does a κ whose 2κ²N²
    alone passes the largest float."""
    capsys.readouterr()
    assert main(["bounds", *argv, "--kappa", str(kappa), "--beta", "0.05"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bounds_thm2_answers_up_to_the_largest_float(capsys):
    """Theorem 2's M does not read κ, and Δ_κ falls with κ: at κ = 10^306,
    where lgamma of κ overflows, the radicand is 3ε″ plus Δ_κ's float, 0.0."""
    assert main(["bounds", "thm2", "--eps2", "0.01", "--kappa", str(10**306), "--beta", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["raw"]["radicand_soundness"] == 3 * 0.01


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "thm1", "--n-qubits", "5", "--kappa", "1", "--eps-v", "1e200", "--beta", "0.05"],
         "bounds thm1: the repetition count M underflows to 0 at these "
         "--beta, --eps-v, --eps-p, --kappa and --n-qubits"),
        (["bounds", "thm1", "--n-qubits", "5", "--kappa", "1", "--eps-v", "1e-300", "--beta", "0.05"],
         "bounds thm1: the repetition count M overflows the float range at these "
         "--beta, --eps-v, --eps-p, --kappa and --n-qubits"),
        (["bounds", "thm2", "--eps2", "1e-300", "--kappa", "1", "--beta", "0.05"],
         "bounds thm2: the repetition count M overflows the float range at these --beta and --eps2"),
        (["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1", "--auto-params",
          "--eps-v", "1e-300", "--beta", "0.05"],
         "verify --auto-params: the repetition count M overflows the float range at these "
         "--beta, --eps-v, --eps-p, --kappa, --m-rounds and --n-rounds"),
    ],
    ids=["thm1-underflow", "thm1-overflow", "thm2-overflow", "verify-overflow"],
)
def test_an_m_outside_the_float_range_names_the_flags(argv, message, capsys):
    """ε_V = 1e200 squares past the largest float, so M would round to 0;
    1e-300 squares to 0, so M would be infinite.  Each exits 1 with one
    line naming the flags M is computed from."""
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, m",
    [
        (["bounds", "thm1", "--n-qubits", "5", "--kappa", "1", "--eps-v", "1e-3"], 14736545),
        (["bounds", "thm2", "--eps2", "1e-3", "--kappa", "1"], 368413621),
        (["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1", "--auto-params",
          "--eps-v", "0.05", "--eps-p", "0.05"], 752),
    ],
    ids=["thm1", "thm2", "verify"],
)
def test_a_subnormal_beta_derives_a_finite_m(argv, m, capsys):
    """β = 1e-320 has no finite 1/β, but −ln β ≈ 737: M comes out finite."""
    capsys.readouterr()
    assert main(argv + ["--beta", "1e-320"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["params"] if "params" in doc else doc["scheme"])["m"] == m


@pytest.mark.parametrize(
    "subcommand, flag, key, source",
    [
        ("carve", "--m", "m", "flag"),
        ("verify", "--m-rounds", "m", "flag"),
        ("verify", "--n-rounds", "n", "flag"),
        ("verify", "--kappa", "kappa", "env"),
        ("verify", "--n-rounds", "n", "file"),
    ],
)
def test_a_size_beyond_an_index_is_refused_by_its_flag(tmp_path, capsys, subcommand, flag, key, source):
    """A lattice size or κ of 10^20, past sys.maxsize, would fail inside
    numpy or a tuple repeat, naming no option; it is refused by its flag,
    whether a flag, TRAPVER_* or a config file set it."""
    big, env = 10**20, {}
    others = {"carve": ["--m", "--n"], "verify": ["--m-rounds", "--n-rounds", "--kappa", "--scheme-M"]}
    argv = [subcommand, *(x for f in others[subcommand] if f != flag for x in (f, "3"))]
    argv += ["--scheme-l", "0.5"] if subcommand == "verify" else []
    if source == "flag":
        argv += [flag, str(big)]
    elif source == "env":
        env = {f"TRAPVER_{key.upper()}": str(big)}
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: big}))
        argv = ["--config", str(cfg_file), *argv]
    capsys.readouterr()
    with mock.patch.dict(os.environ, env):
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {subcommand}: {flag} must lie in (-inf, 9223372036854775807], got {big}\n"
    )


def test_a_cell_count_beyond_an_index_names_both_flags(capsys):
    """Each size fits an index, but the m·n cells do not."""
    capsys.readouterr()
    assert main(["carve", "--m", str(2**62), "--n", "3"]) == 1
    assert capsys.readouterr().err == (
        f"error: carve: the --m x --n lattice's cell count {3 * 2**62} does not fit "
        "an index, at most 9223372036854775807\n"
    )


def test_carve_beyond_physical_memory_names_its_flags(capsys, monkeypatch):
    """Sizes that fit an index but not memory are refused before the
    carving is allocated, not by an empty MemoryError, by carve and by
    verify."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the refused carving was started")

    monkeypatch.setattr("trapver.cli._physical_memory", lambda: 10**9)
    monkeypatch.setattr("trapver.cli.carve_target", unreachable)
    capsys.readouterr()
    for argv in [
        ["carve", "--m", str(10**15), "--n", "3"],
        ["verify", "--m-rounds", str(10**15), "--n-rounds", "3", "--kappa", "1", "--scheme-M", "1",
         "--scheme-l", "0.5"],
    ]:
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "",
            f"error: {argv[0]}: the {argv[1]} {10**15} x {argv[3]} 3 lattice would keep "
            "1,500,000,000,000,000,000 bytes, more than the 1,000,000,000 bytes of physical memory\n",
        )


def test_verify_beyond_physical_memory_names_m_and_kappa_before_the_layout(capsys, monkeypatch):
    """A κ whose 2κ+1 rounds fit an index but not memory is refused by the
    records check, before `make_round_layout` builds them, whether M is
    given or derived from the target's N (here also 1)."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the layout was built")

    monkeypatch.setattr("trapver.cli._physical_memory", lambda: 10**9)
    monkeypatch.setattr("trapver.cli.make_round_layout", unreachable)
    capsys.readouterr()
    for scheme in [["--scheme-M", "1", "--scheme-l", "0.5"],
                   ["--auto-params", "--beta", "0.05", "--eps-v", "0.001"]]:
        started = time.perf_counter()
        assert main(["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", str(10**15), *scheme]) == 1
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr() == (
            "",
            f"error: verify: M = 1 repetitions at --kappa {10**15} would keep 240,000,000,000,000,504 "
            "bytes, more than the 1,000,000,000 bytes of physical memory\n",
        )


@pytest.mark.parametrize("subcommand", ["carve", "verify"])
def test_out_into_a_missing_directory_names_the_out_path(tmp_path, capsys, monkeypatch, subcommand):
    """The directory is checked before the run, which is never started."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the run was started")

    monkeypatch.setattr("trapver.cli.carve_target", unreachable)
    monkeypatch.setattr("trapver.cli.run_scheme", unreachable)
    out = tmp_path / "missing" / "g.json"
    argv = {
        "carve": ["carve", "--m", "3", "--n", "3"],
        "verify": ["verify", "--kappa", "1", "--scheme-M", "100000", "--scheme-l", "0.5",
                   "--m-rounds", "3", "--n-rounds", "3"],
    }[subcommand]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write --out {out}: No such file or directory\n"
    )


def test_a_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    """The rename onto a directory fails after the temporary file is
    written; the file is removed and the error names --out."""
    out = tmp_path / "taken"
    out.mkdir()
    capsys.readouterr()
    assert main(["carve", "--m", "3", "--n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write --out {out}: Is a directory\n")
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("key", ["m", "kappa"])
def test_replay_refuses_a_stored_size_beyond_an_index(tmp_path, capsys, key):
    argv, out = verify_argv(tmp_path, "a.json", ["--scheme-M", "1", "--scheme-l", "0.5"])
    assert main(argv) == 0
    doc = read_json(out)
    doc["config"][key] = 10**20
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    flag = {"m": "--m-rounds", "kappa": "--kappa"}[key]
    assert capsys.readouterr().err == (
        f"error: verify: {flag} must lie in (-inf, 9223372036854775807], got {10**20}\n"
    )


@pytest.mark.parametrize(
    "argv, env",
    [
        (["simulate", "--samples", "5", "--seed", "-1"], {}),
        (["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1", "--scheme-M", "1",
          "--scheme-l", "0.5", "--seed", "-1"], {}),
        (["verify", "--m-rounds", "3", "--n-rounds", "3", "--kappa", "1", "--scheme-M", "1",
          "--scheme-l", "0.5"], {"TRAPVER_SEED": "-3"}),
        (["bounds", "twirl", "--seed", "-1"], {}),
    ],
    ids=["simulate", "verify-flag", "verify-env", "bounds-twirl"],
)
def test_a_negative_seed_is_refused_by_its_flag(tmp_path, capsys, argv, env):
    """A seeded draw needs a nonnegative seed; the error names --seed, not
    numpy's own message."""
    if argv[0] == "simulate":
        graph = tmp_path / "g.json"
        assert main(["carve", "--m", "3", "--n", "3", "--out", str(graph)]) == 0
        argv = [*argv, "--graph", str(graph)]
    capsys.readouterr()
    with mock.patch.dict(os.environ, env):
        assert main(argv) == 1
    seed = env.get("TRAPVER_SEED", "-1")
    name = " ".join(argv[:2]) if argv[0] == "bounds" else argv[0]
    assert capsys.readouterr().err == f"error: {name}: --seed must lie in [0, inf), got {seed}\n"


@pytest.mark.parametrize("argv", [["carve", "--m", "3", "--n", "3"], ["ft", "--eps", "0.001"]])
def test_carve_and_ft_echo_a_negative_seed(capsys, argv):
    """carve and ft draw nothing: they only stamp the seed they are given."""
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == -1


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
        (["--trials", "0"], "--trials must lie in [1, inf), got 0"),
    ],
)
def test_bounds_twirl_checks_inputs_before_drawing(capsys, extra, message):
    assert main(["bounds", "twirl", *extra]) == 1
    assert capsys.readouterr().err == f"error: bounds twirl: {message}\n"


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


def test_ft_overhead_beyond_floats_is_one_error_line(capsys):
    assert main(["ft", "--eps", "0.001", "--syndromes", "10000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "eps = 0.001, syndromes = 10000000" in err


@pytest.mark.parametrize("flag", ["--saw-prefactor", "--poly-prefactor"])
def test_ft_refuses_a_result_json_cannot_write(capsys, flag):
    """A prefactor of 1e308 makes the series bound infinite; no document
    is written with a bare Infinity, which is not JSON."""
    capsys.readouterr()
    assert main(["ft", "--eps", "0.001", flag, "1e308"]) == 1
    assert capsys.readouterr() == (
        "", "error: ft: the result holds NaN or an infinity, which JSON cannot write\n"
    )


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
# their payloads and the bounds verbs became one table; the JSON entries
# re-pinned for schema 3 to the same documents with schema_version 3
PINNED_CALCULATOR_DIGESTS = {
    "delta-kappa": (
        ["bounds", "delta-kappa", "--kappa", "2"],
        "54142ecf32950a6324db3fded22e0da191a8d881ae586026d22eb580acb5802b",
    ),
    "attack-table-json": (
        ["bounds", "attack-table", "--kappa", "2"],
        "459055bd32a13861ede0e56360f8c3fb0eff6373df9a2b190f75062560d9f14d",
    ),
    "attack-table-csv": (
        ["bounds", "attack-table", "--kappa", "2", "--format", "csv"],
        "fb2d12720fd1859d0f2c0bef8322167bcf5e7d763faf2519fcad88c16f708533",
    ),
    "thm1": (
        ["bounds", "thm1", "--n-qubits", "5", "--kappa", "2", "--eps-v", "0.001",
         "--eps-p", "0.001", "--beta", "0.05"],
        "4a009dff7ca994d468e9caf1994d49e8b40a2cae90ab98b177c2ee40eafac336",
    ),
    "thm2": (
        ["bounds", "thm2", "--eps2", "0.01", "--kappa", "2", "--beta", "0.05"],
        "f99cbfeef82545195c730e2b3ae4edbbca89eb36d3e4764a9e1c30a91cf50097",
    ),
    "thm3": (
        ["bounds", "thm3", "--alpha1", "0.1", "--alpha2", "0.2", "--beta1", "0.05",
         "--beta2", "0.05", "--n-qubits", "5"],
        "d85964ea073976e983a44ca9e756d797e8ebd9f0dd557554d8a5fb8a1f5d2735",
    ),
    "twirl": (
        ["bounds", "twirl", "--n-qubits", "2", "--trials", "5", "--seed", "3"],
        "4e2074a43586d1c79c355f1d37cbdf3807fe93301f56c062de1f71e83afd6de3",
    ),
    "ft-json": (
        ["ft", "--fraction-of-threshold", "0.01"],
        "b962951ea75f5684e1596aad230c57cbe8262595771897c8be275b2fb5c2061e",
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
    (base, option.flags[0], value)
    for base, argv in _SWEEP_BASES.items()
    for option in _COMMANDS[argv[0]][1]
    if option.conv is float
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
    option.flags[0]: option.key
    for _, options in _COMMANDS.values()
    for option in options
    if option.conv is float
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
FUZZ_KEYS = sorted(_option_table("verify")) + ["bogus"]

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
    source=st.sampled_from(["env", "file", "config"]),
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
        doc["config"][key] = value
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


# -- option intervals, by every source ------------------------------------------

# A cheap valid invocation of each subcommand, and of each bounds verb, run
# from a directory that holds layout.json (a 3x3 target) and honest.json (a
# 3x3, κ = 1, M = 3 verify artifact): its words (subcommand and positional)
# -> its flags.
_BASELINES = {
    "carve": {"--m": "3", "--n": "3"},
    "simulate": {"--graph": "layout.json", "--samples": "3"},
    "verify": {"--m-rounds": "3", "--n-rounds": "3", "--kappa": "1", "--scheme-M": "3",
               "--scheme-l": "0.5"},
    "bounds delta-kappa": {"--kappa": "2"},
    "bounds attack-table": {"--kappa": "2"},
    "bounds thm1": {"--n-qubits": "9", "--kappa": "1", "--eps-v": "0.001", "--beta": "0.05"},
    "bounds thm2": {"--eps2": "0.01", "--kappa": "2", "--beta": "0.05"},
    "bounds thm3": {"--alpha1": "0.1", "--alpha2": "0.2", "--beta1": "0.05", "--beta2": "0.05",
                    "--n-qubits": "5"},
    "bounds twirl": {"--n-qubits": "1", "--trials": "2"},
    "ft": {"--eps": "0.001"},
    "replay honest.json": {},
}


@pytest.fixture(scope="module")
def rows_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("rows")
    assert main(["carve", "--m", "3", "--n", "3", "--out", str(path / "layout.json")]) == 0
    flags = [x for kv in _BASELINES["verify"].items() for x in kv]
    assert main(["verify", *flags, "--out", str(path / "honest.json")]) == 0
    return path


@pytest.fixture()
def rows_dir(rows_files, tmp_path, monkeypatch):
    """A fresh working directory holding the baselines' files, so that an
    --out or a path under test lands in it."""
    for f in rows_files.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _row(name: str, key: str):
    return next(o for o in _COMMANDS[name.split()[0]][1] if o.key == key)


def _main_with(name: str, option, value, source: str) -> int:
    """`main` on ``name``'s baseline with ``option`` set to ``value`` by
    ``source``: its flag (or positional), TRAPVER_*, the config file, or the
    config of a replayed honest.json."""
    words, env = name.split(), {}
    flags = {f: v for f, v in _BASELINES[name].items() if f not in option.flags}
    if source == "flag" and not option.flags[0].startswith("-"):
        words[1] = str(value)  # the positional after the subcommand
    elif source == "flag":
        flags[option.flags[0]] = str(value)
    elif source == "env":
        env = {f"TRAPVER_{option.key.upper()}": str(value)}
    elif source == "file":
        with open("config.json", "w") as fh:
            json.dump({option.key: value}, fh)
        words = ["--config", "config.json", *words]
    else:
        doc = read_json("honest.json")
        doc["config"][option.key] = value
        with open("tampered.json", "w") as fh:
            json.dump(doc, fh)
        words, flags = ["replay", "tampered.json"], {}
    with mock.patch.dict(os.environ, env):
        return main([*words, *(x for kv in flags.items() for x in kv)])


# each option with an interval: a value outside it, and the interval as the
# error prints it
_INDEX = "(-inf, 9223372036854775807]"
_OUTSIDE = [
    ("carve", "m", 2**63, _INDEX),
    ("carve", "n", 2**63, _INDEX),
    ("simulate", "samples", -1, "[0, 9223372036854775807]"),
    ("simulate", "samples", 2**63, "[0, 9223372036854775807]"),
    ("simulate", "seed", -1, "[0, inf)"),
    ("verify", "kappa", 2**63, _INDEX),
    ("verify", "m", 2**63, _INDEX),
    ("verify", "n", 2**63, _INDEX),
    ("verify", "beta", 0.0, "[5e-324, 0.9999999999999999]"),
    ("verify", "beta", 1.0, "[5e-324, 0.9999999999999999]"),
    ("verify", "beta", float("nan"), "[5e-324, 0.9999999999999999]"),
    ("verify", "seed", -1, "[0, inf)"),
    ("bounds thm2", "kappa", 10**400, "(-inf, 1.7976931348623157e+308]"),
    ("bounds thm2", "trials", 0, "[1, inf)"),
    ("bounds thm2", "seed", -1, "[0, inf)"),
]


def test_every_interval_is_exercised():
    assert {(name.split()[0], key) for name, key, *_ in _OUTSIDE} == {
        (sub, o.key) for sub, (_, options) in _COMMANDS.items() for o in options if o.interval
    }


@pytest.mark.parametrize(
    "name, key, value, interval, source",
    [
        (*case, source)
        for case in _OUTSIDE
        for source in ["flag", "env", "file"] + ["artifact"] * (case[0] == "verify")
        # NaN reaches only a flag: the other sources refuse it as not finite
        if source == "flag" or case[2] == case[2]
    ],
)
def test_a_value_outside_its_interval_is_refused_by_every_source(
    rows_dir, capsys, name, key, value, interval, source
):
    """One check serves every source, and its one line names the run, the
    flag, the interval and the value."""
    option = _row(name, key)
    capsys.readouterr()
    assert _main_with(name, option, value, source) == 1
    assert capsys.readouterr() == (
        "", f"error: {name}: {option.flags[0]} must lie in {interval}, got {value}\n"
    )


# -- a fuzz over every row ---------------------------------------------------------

# 2^63 is sys.maxsize + 1 on a 64-bit build; dict.fromkeys keeps one of them
_BOUNDARY = list(dict.fromkeys([0, -1, 2**63, sys.maxsize + 1, 1e308, float("nan"), float("inf"), ""]))
# seconds an example may take; each takes milliseconds
_EXAMPLE_LIMIT = 2.0


class _Hang(BaseException):
    """An example past its time limit: `main` catches no BaseException."""


def _refuse_constant(name):
    raise ValueError(f"the output holds {name}, which is not JSON")


@pytest.mark.parametrize(
    "name, key",
    [(name, o.key) for name in _BASELINES for o in _COMMANDS[name.split()[0]][1] if o.conv],
)
def test_every_row_takes_boundary_values_cleanly(rows_dir, capsys, name, key):
    """Each row with a conversion, set to each boundary value by each
    source on an otherwise cheap valid run, exits 0, 1 or 2 within the
    time limit, with at most one stderr line and only standard JSON on
    stdout.  An example that runs too long is interrupted and fails (one
    call into C runs to its end first)."""
    option = _row(name, key)

    def expire(signum, frame):
        raise _Hang(f"{name} with {option.flags[0]} = {value!r} by {source} ran past {_EXAMPLE_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for source in ["flag", "env", "file"] + ["artifact"] * (name == "verify"):
            for value in _BOUNDARY:
                capsys.readouterr()
                signal.setitimer(signal.ITIMER_REAL, _EXAMPLE_LIMIT)
                try:
                    code = _main_with(name, option, value, source)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                out, err = capsys.readouterr()
                case = (name, option.flags[0], value, source, err)
                assert code in (0, 1, 2), case
                assert err.count("\n") <= 1, case
                if out.startswith("{"):
                    json.loads(out, parse_constant=_refuse_constant)
    finally:
        signal.signal(signal.SIGALRM, previous)
