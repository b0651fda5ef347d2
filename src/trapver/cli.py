"""Command-line front end: configuration, dispatch, artifacts, replay.

Option precedence is flags > environment (TRAPVER_*) > config file >
defaults.  `build_parser` is the one declaration of the options: env, file
and replayed-artifact values are converted and checked by its actions.
Every emitted JSON document carries schema_version, tool_version and the
root seed; verification artifacts embed enough to be re-executed
bit-identically by `trapver replay`.  Handlers write nothing: each returns
(exit code, payload, CSV rows or None), and `main` writes the result once
through `_emit`.

Exit codes: 0 scheme accept (or plain success), 2 scheme reject,
1 operational error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from . import __version__, bounds, ftcalc
from .graphs import GraphSpec, carve_target, carve_trap_graph, check_embedding, k_to_radians
from .protocol import (
    ENGINE_VERSION,
    AttackSpec,
    RoundLayout,
    RunRecord,
    make_round_layout,
    run_scheme,
    unitary_attack,
)
from .simulator import (
    DEFAULT_QUBIT_CAP,
    NoiseModel,
    exact_output_distribution,
)

ARTIFACT_SCHEMA = 2
ENV_PREFIX = "TRAPVER_"

EXIT_ACCEPT = 0
EXIT_ERROR = 1
EXIT_REJECT = 2


class CliError(Exception):
    """Configuration or dispatch failure the user can act on."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CliError(message)


@dataclass(frozen=True)
class SessionConfig:
    """One resolved invocation: subcommand plus merged options."""

    subcommand: str
    m: int | None = None
    n: int | None = None
    kappa: int | None = None
    eps_v: float = 0.0
    eps_p: float = 0.0
    scheme_m: int | None = None
    scheme_l: float | None = None
    auto_params: bool = False
    beta: float | None = None
    attack: str | None = None
    seed: int = 0
    # where the payload is written is not part of the run, so not snapshotted
    out: str | None = field(default=None, metadata={"snapshot": False})
    fmt: str = "json"
    extras: Mapping[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("snapshot", True)
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SessionConfig":
        """Rebuild a snapshot; every stored value is checked as its flag is.

        Raises TypeError or KeyError when ``doc`` has no config shape, and
        CliError for a value its option would refuse.
        """
        extras = doc.get("extras", {})
        if not isinstance(extras, Mapping):
            raise TypeError("extras is not an object")
        stored = {**extras, **doc}
        subcommand = stored.pop("subcommand")
        stored.pop("extras", None)
        # the parsed attack document is the one replay-only key; it is
        # checked by attack_spec_from_json when the run starts
        attack_doc = stored.pop("attack_doc", None)
        # a snapshot stores null for each option that was left unset
        return _resolve(
            subcommand,
            [{k: v for k, v in stored.items() if v is not None}],
            {} if attack_doc is None else {"attack_doc": attack_doc},
        )


def _resolve(
    subcommand: str,
    sources: Sequence[Mapping[str, object]],
    flags: Mapping[str, object],
) -> SessionConfig:
    """The one merge of option values: defaults, then each source in turn,
    its values converted as their flags would be, then the flags; then the
    cross-option rule, and the split into fields and extras."""
    table = _option_table(build_parser(), subcommand)
    merged = dict(_DEFAULTS)
    for source in sources:
        for name, raw in source.items():
            merged[name] = _convert(table, name, raw)
    merged.update(flags)
    if merged.get("auto_params") and (
        merged.get("scheme_m") is not None or merged.get("scheme_l") is not None
    ):
        raise CliError(
            "--auto-params and explicit --scheme-M/--scheme-l are mutually "
            "exclusive"
        )
    names = {f.name for f in fields(SessionConfig)}
    return SessionConfig(
        subcommand=subcommand,
        extras={k: v for k, v in merged.items() if k not in names},
        **{k: v for k, v in merged.items() if k in names},
    )


def _parse_bool(raw: str) -> bool:
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    (action,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


@cache
def _option_table(parser: argparse.ArgumentParser, subcommand: str) -> dict:
    """Option key -> (converter, choices or None), read off the subparsers.

    A ``store_const`` flag is a boolean; any other option converts with its
    ``type`` (default ``str``) and checks its ``choices``.  The running
    subcommand's own action decides; a key that only other subcommands
    define stays accepted, with the union of their choices, so one config
    file can serve every subcommand.  The table is cached: read it, never
    change it.
    """
    table: dict[str, tuple] = {}
    # stable sort: the running subcommand's actions come last and override
    for name, sub in sorted(
        _subparsers(parser).items(), key=lambda kv: kv[0] == subcommand
    ):
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._StoreConstAction):
                conv = _parse_bool
            else:
                conv = action.type or str
            choices = set(action.choices) if action.choices else None
            if name != subcommand and action.dest in table:
                seen = table[action.dest][1]
                choices = None if seen is None or choices is None else seen | choices
            table[action.dest] = (conv, choices)
    return table


def _convert(table: Mapping[str, tuple], name: str, raw: object) -> object:
    """Convert one env, file or artifact value exactly as its flag would be."""
    if name not in table:
        raise CliError(f"unknown configuration key {name!r}")
    conv, choices = table[name]
    try:
        # a JSON scalar reaches the converter as the text a flag would carry
        if not isinstance(raw, (str, int, float)):
            raise TypeError(raw)
        value = conv(str(raw))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad value for {name}: {raw!r}") from exc
    # NaN or an infinity would reach an artifact's config, which is JSON
    if isinstance(value, float) and not math.isfinite(value):
        raise CliError(f"bad value for {name}: {raw!r} is not finite")
    if choices is not None and value not in choices:
        raise CliError(f"bad value for {name}: {raw!r}, choose from {sorted(choices)}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: read it, never add to it."""
    parser = _Parser(
        prog="trapver",
        description=(
            "Trap-based verification of a nonadaptive sampler: carvings, "
            "protocol simulation, bound calculators, artifacts."
        ),
    )
    parser.add_argument("--config", help="JSON file with default options")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("carve", help="emit a carved lattice layout")
    p.add_argument("--m", type=int, help="lattice columns")
    p.add_argument("--n", type=int, help="lattice rows")
    p.add_argument(
        "--kind",
        choices=["target", "trap-even", "trap-odd"],
        help="which carving to emit",
    )
    p.add_argument(
        "--check-isomorphism",
        action="store_const",
        const=True,
        default=None,
        help="validate the carving against the intended adjacency",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=["json"])

    p = sub.add_parser("simulate", help="exact distribution or samples")
    p.add_argument("--graph", help="layout JSON path")
    p.add_argument("--angles", help="JSON {vertex: grid steps}; default: layout angles")
    p.add_argument("--exact", action="store_const", const=True, default=None)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=["json", "csv"])

    p = sub.add_parser("verify", help="run the M-repetition scheme")
    p.add_argument("--kappa", type=int)
    p.add_argument("--m-rounds", dest="m", type=int, help="lattice columns")
    p.add_argument("--n-rounds", dest="n", type=int, help="lattice rows")
    p.add_argument("--eps-v", type=float)
    p.add_argument("--eps-p", type=float)
    p.add_argument("--attack", help="AttackSpec JSON path")
    p.add_argument("--scheme-M", dest="scheme_m", type=int)
    p.add_argument("--scheme-l", dest="scheme_l", type=float)
    p.add_argument(
        "--auto-params",
        action="store_const",
        const=True,
        default=None,
        help="derive (M, l) from the noise-rate bound calculator",
    )
    p.add_argument("--beta", type=float, help="confidence budget for --auto-params")
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")

    p = sub.add_parser("bounds", help="closed-form calculators")
    p.add_argument("verb", choices=list(_BOUNDS_VERBS))
    p.add_argument("--kappa", type=int)
    p.add_argument("--n-qubits", "--n", type=int)
    p.add_argument("--eps-v", type=float)
    p.add_argument("--eps-p", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--q")
    p.add_argument("--q-prime")
    p.add_argument("--basis", choices=["full", "z_only"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=["json", "csv"])

    p = sub.add_parser("ft", help="fault-tolerance report")
    p.add_argument("--eps", type=float)
    p.add_argument("--fraction-of-threshold", type=float)
    p.add_argument("--distance", type=int)
    p.add_argument("--syndromes", type=int)
    p.add_argument("--saw-prefactor", type=float)
    p.add_argument("--poly-prefactor", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument(
        "--format",
        dest="fmt",
        choices=["json", "csv"],
        help="csv emits the overhead table instead of the report",
    )

    p = sub.add_parser(
        "replay", help="re-execute a verify artifact, compare all but telemetry"
    )
    p.add_argument("artifact")

    return parser


# defaults of the options that are not SessionConfig fields
_DEFAULTS: dict[str, object] = {
    "kind": "target",
    "basis": "full",
    "trials": 20,
    "distance": 2,
    "syndromes": ftcalc.DEFAULT_SYNDROMES,
    "saw_prefactor": ftcalc.DEFAULT_SAW_PREFACTOR,
    "poly_prefactor": 1.0,
    "cap": DEFAULT_QUBIT_CAP,
}


def parse_config(
    argv: Sequence[str],
    env: Mapping[str, str] | None = None,
    config_path: str | None = None,
) -> SessionConfig:
    """Resolve one invocation; precedence flags > env > file > defaults."""
    env = env or {}
    parser = build_parser()
    flags = vars(parser.parse_args(list(argv)))
    subcommand, path = flags.pop("subcommand"), flags.pop("config")
    if subcommand is None:
        return SessionConfig(subcommand="help")
    sources = []
    path = config_path or path or env.get(ENV_PREFIX + "CONFIG")
    if path:
        file_doc = _read_json(path, "config file")
        if not isinstance(file_doc, dict):
            raise CliError(f"config file {path} must hold a JSON object")
        sources.append(file_doc)
    env_keys = {
        name: ENV_PREFIX + name.upper() for name in _option_table(parser, subcommand)
    }
    sources.append({name: env[key] for name, key in env_keys.items() if key in env})
    return _resolve(
        subcommand, sources, {k: v for k, v in flags.items() if v is not None}
    )


# ---------------------------------------------------------------------------
# Payload helpers


def _stamp(cfg: SessionConfig, payload: dict) -> dict:
    return {
        "schema_version": ARTIFACT_SCHEMA,
        "tool_version": __version__,
        "seed": cfg.seed,
        **payload,
    }


def _emit(cfg: SessionConfig, payload: dict | str, csv_rows: list[list] | None) -> None:
    """Write a handler's result to --out (atomically) or stdout: its CSV
    rows under ``--format csv``, a JSON document encoded, text as it is.

    A subcommand whose own ``--format`` offers csv refuses it, rather than
    writing JSON, when the payload has no CSV rows.  An ``out`` set by a
    config shared with other subcommands does not redirect one without
    ``--out``, so ``replay`` never writes over the artifact it reads.
    """
    if cfg.fmt == "csv" and csv_rows is None and _offers(cfg.subcommand, "fmt", "csv"):
        what = " ".join(filter(None, (cfg.subcommand, cfg.extras.get("verb"))))
        raise CliError(f"{what} has no CSV output; use --format json")
    if cfg.fmt == "csv" and csv_rows is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = payload if isinstance(payload, str) else _encode(payload)
    if cfg.out and _offers(cfg.subcommand, "out"):
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _encode(doc: dict) -> str:
    """Every JSON document's text: one compact, key-sorted encoder call.
    Documents are trees, so the encoder's cycle check is skipped."""
    return json.dumps(doc, sort_keys=True, check_circular=False) + "\n"


def _offers(subcommand: str, dest: str, choice: str | None = None) -> bool:
    """Whether the subcommand's own parser has the option (and the choice)."""
    sub = _subparsers(build_parser())[subcommand]
    return any(
        a.dest == dest and (choice is None or choice in (a.choices or ()))
        for a in sub._actions
    )


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _read_json(path: str, what: str) -> object:
    """The JSON document in ``path``; failing to read or decode it, even
    for nesting too deep for the decoder, is a CliError naming ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _require(cfg: SessionConfig, *names: str) -> list[object]:
    vals = []
    for name in names:
        v = getattr(cfg, name, None)
        if v is None:
            v = cfg.extras.get(name)
        if v is None:
            sub = _subparsers(build_parser())[cfg.subcommand]
            flag = next(a.option_strings[0] for a in sub._actions if a.dest == name)
            raise CliError(f"{cfg.subcommand}: missing required option {flag}")
        vals.append(v)
    return vals


def attack_spec_from_json(doc: Mapping, layout: RoundLayout) -> AttackSpec:
    """Deserialize an attack on ``layout``: a Pauli mixture, or a unitary
    converted to its mixture by `unitary_attack`."""
    if not isinstance(doc, Mapping):
        raise CliError("attack JSON must be an object")
    if "pauli_terms" in doc:
        terms = []
        try:
            for term in doc["pauli_terms"]:
                letters = []
                for key, letter in term["letters"].items():
                    slot_s, _, v_s = key.partition(":")
                    letters.append(((int(slot_s), int(v_s)), str(letter)))
                terms.append((float(term["weight"]), tuple(sorted(letters))))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise CliError(
                f"malformed Pauli term in attack JSON "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        return AttackSpec(pauli_terms=tuple(terms))
    if "unitary" in doc:
        try:
            # each cell is a [re, im] pair; unpacking refuses any other shape
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in doc["unitary"]],
                dtype=np.complex128,
            )
            private = doc.get("private_qubits", 0)
            if type(private) is not int:
                raise TypeError(f"private_qubits {private!r} is not an integer")
        except (TypeError, ValueError) as exc:
            raise CliError(
                f"malformed unitary in attack JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return unitary_attack(layout, matrix, private)
    raise CliError("attack JSON needs 'pauli_terms' or 'unitary'")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a Result and writes nothing.

Result = tuple[int, dict | str, list[list] | None]


def _cmd_help(cfg: SessionConfig) -> Result:
    return EXIT_ACCEPT, build_parser().format_help(), None


def _cmd_carve(cfg: SessionConfig) -> Result:
    m, n, kind = _require(cfg, "m", "n", "kind")
    if kind == "target":
        g = carve_target(m, n)
    else:
        g = carve_trap_graph(m, n, kind.removeprefix("trap-"))
    if cfg.extras.get("check_isomorphism"):
        if kind == "target":
            check_embedding(g)
        else:
            target = carve_target(m, n)
            want = {
                v
                for v in target.non_dummy_ids()
                if target.parity(v) == (0 if kind == "trap-even" else 1)
            }
            if set(g.trap_ids()) != want:
                raise CliError("trap positions do not match the target carving")
    doc = g.to_json_dict()
    doc["tool_version"] = __version__
    doc["seed"] = cfg.seed
    return EXIT_ACCEPT, doc, None


def _load_angles(path: str) -> dict[int, float]:
    """Read a JSON object mapping vertex ids to integer grid steps."""
    raw = _read_json(path, "angles")
    try:
        if isinstance(raw, dict) and all(type(v) is int for v in raw.values()):
            return {int(k): k_to_radians(v) for k, v in raw.items()}
    except ValueError as exc:  # a key that is not a vertex id
        raise CliError(f"cannot read angles {path}: {exc}") from exc
    raise CliError(f"angles file {path} must map vertex ids to integer grid steps")


def _cmd_simulate(cfg: SessionConfig) -> Result:
    (graph_path,) = _require(cfg, "graph")
    g = GraphSpec.from_json_dict(_read_json(graph_path, "layout"))
    angles_path = cfg.extras.get("angles")
    angles = _load_angles(angles_path) if angles_path else g.base_angles()
    samples = cfg.extras.get("samples")
    exact = cfg.extras.get("exact") or samples is None
    dist = exact_output_distribution(g, angles, cap=cfg.extras["cap"])
    strings = sorted(dist.probs)
    if exact:
        probs = {s: dist.probs[s] for s in strings}
        rows = [["string", "probability"]] + [[s, repr(p)] for s, p in probs.items()]
        return EXIT_ACCEPT, _stamp(cfg, {"kind": "distribution", "probs": probs}), rows
    # one multinomial draw over the sorted strings: memory does not grow
    # with the sample count
    weights = np.array([dist.probs[s] for s in strings])
    drawn = _rng(cfg.seed).multinomial(samples, weights / weights.sum())
    counts = {s: int(c) for s, c in zip(strings, drawn) if c}
    payload = _stamp(cfg, {"kind": "samples", "count": samples, "counts": counts})
    rows = [["string", "count"]] + [[s, c] for s, c in counts.items()]
    return EXIT_ACCEPT, payload, rows


def _scheme_parameters(cfg: SessionConfig, n_qubits: int, kappa: int) -> tuple[int, float, dict]:
    # the artifact's config carries --beta even when --auto-params is off
    if cfg.beta is not None and not 0 < cfg.beta < 1:
        raise CliError(f"--beta must lie in (0, 1), got {cfg.beta}")
    if cfg.auto_params:
        if cfg.beta is None:
            raise CliError("--auto-params needs --beta")
        params = bounds.theorem1_params(
            n_qubits, kappa, cfg.eps_v, cfg.eps_p, cfg.beta
        )
        meta = {
            "derived": True,
            "beta": cfg.beta,
            "out_of_regime": params.out_of_regime,
            "completeness": list(params.completeness),
            "soundness": list(params.soundness),
        }
        return params.m, params.l, meta
    if cfg.scheme_m is None or cfg.scheme_l is None:
        raise CliError("verify needs --scheme-M and --scheme-l, or --auto-params")
    return cfg.scheme_m, cfg.scheme_l, {"derived": False}


def _check_records_fit(scheme_m: int, kappa: int, cells: int) -> None:
    """Refuse a run whose records cannot fit in physical memory: each of
    the M repetitions keeps a raw and a decrypted string of one character
    per cell for each of its 2κ+1 slots."""
    need = 2 * scheme_m * (2 * kappa + 1) * cells
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise CliError(
            f"M = {scheme_m} repetitions at kappa = {kappa} would keep "
            f"{need:,} bytes of slot strings, more than the {have:,} bytes "
            f"of physical memory"
        )


def _cmd_verify(cfg: SessionConfig) -> Result:
    m, n, kappa = _require(cfg, "m", "n", "kappa")
    layout = make_round_layout(m, n, kappa)
    noise = NoiseModel(eps_v=cfg.eps_v, eps_p=cfg.eps_p)
    # The parsed attack document is embedded in the artifact so replay
    # does not depend on the original file still existing.
    attack_doc = cfg.extras.get("attack_doc")
    if attack_doc is None and cfg.attack:
        attack_doc = _read_json(cfg.attack, "attack file")
    strategy = None if attack_doc is None else attack_spec_from_json(attack_doc, layout)
    n_qubits = len(layout.target.non_dummy_ids())
    scheme_m, scheme_l, meta = _scheme_parameters(cfg, n_qubits, kappa)
    _check_records_fit(scheme_m, kappa, m * n)
    records: list[RunRecord] = []
    started = time.time()
    verdict = run_scheme(
        layout,
        strategy,
        noise,
        scheme_m,
        scheme_l,
        _rng(cfg.seed),
        cap=cfg.extras["cap"],
        record_sink=records,
    )
    elapsed = time.time() - started
    snapshot = cfg.to_json_dict()
    if attack_doc is not None:
        snapshot["extras"] = {**snapshot["extras"], "attack_doc": attack_doc}
    artifact = _stamp(
        cfg,
        {
            "engine_version": ENGINE_VERSION,
            "config": snapshot,
            "scheme": {"m": scheme_m, "l": scheme_l, **meta, "n_qubits": n_qubits},
            "records": [r.to_json_dict() for r in records],
            "verdict": verdict.to_json_dict(),
            "telemetry": {
                "wall_clock_s": elapsed,
                "finished_unix": time.time(),
            },
        },
    )
    return (EXIT_ACCEPT if verdict.accept else EXIT_REJECT), artifact, None


def _bounds_delta_kappa(cfg: SessionConfig) -> tuple[dict | str, None]:
    (kappa,) = _require(cfg, "kappa")
    value = bounds.delta_kappa(kappa)
    # stdout gets the bare fraction, a file the stamped document
    if cfg.out:
        return _stamp(cfg, {"kappa": kappa, "delta_kappa": str(value)}), None
    return f"{value}\n", None


def _bounds_attack_table(cfg: SessionConfig) -> tuple[dict, list[list]]:
    (kappa,) = _require(cfg, "kappa")
    header = ["kappa", "lam", "xi", "trap_term", "escape_bound", "gap"]
    table = []
    for cls in bounds.valid_attack_classes(kappa):
        values = (cls.kappa, cls.lam, cls.xi, *map(str, bounds.attack_gap(cls)))
        table.append(dict(zip(header, values)))
    rows = [header] + [list(entry.values()) for entry in table]
    return _stamp(cfg, {"classes": table}), rows


def _bounds_thm1(cfg: SessionConfig) -> tuple[dict, None]:
    n_qubits, kappa, beta = _require(cfg, "n_qubits", "kappa", "beta")
    params = bounds.theorem1_params(n_qubits, kappa, cfg.eps_v, cfg.eps_p, beta)
    return _stamp(cfg, {"params": asdict(params)}), None


def _bounds_thm2(cfg: SessionConfig) -> tuple[dict, None]:
    eps2, kappa, beta = _require(cfg, "eps2", "kappa", "beta")
    params = bounds.theorem2_params(eps2, kappa, beta)
    return _stamp(cfg, {"params": asdict(params)}), None


def _bounds_thm3(cfg: SessionConfig) -> tuple[dict, None]:
    alpha1, alpha2, beta1, beta2, n_qubits = _require(
        cfg, "alpha1", "alpha2", "beta1", "beta2", "n_qubits"
    )
    hb = bounds.theorem3_epsilon(alpha1, alpha2, beta1, beta2, n_qubits)
    return _stamp(cfg, {"epsilon": hb.value, "feasible": hb.feasible}), None


def _bounds_twirl(cfg: SessionConfig) -> tuple[dict, None]:
    n = cfg.extras.get("n_qubits", 1)
    q = cfg.extras.get("q") or "X" * n
    qprime = cfg.extras.get("q_prime") or "Z" * n
    basis, trials = cfg.extras["basis"], cfg.extras["trials"]
    # checked before any 2^n x 2^n matrix is drawn
    if not 1 <= n <= 3:
        raise CliError(f"bounds twirl: --n-qubits must be 1, 2 or 3, not {n}")
    if trials < 1:
        raise CliError(f"bounds twirl: --trials must be at least 1, not {trials}")
    rng = _rng(cfg.seed)
    residuals = []
    for _ in range(trials):
        mat = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        residuals.append(bounds.twirl_check(n, q, qprime, rho, basis))
    return _stamp(
        cfg,
        {
            "n": n,
            "q": q,
            "q_prime": qprime,
            "basis": basis,
            "trials": trials,
            "max_residual": max(residuals),
        },
    ), None


# verb -> its payload function, which returns (payload, CSV rows or None);
# the parser's choices of verb are this table's keys
_BOUNDS_VERBS = {
    "delta-kappa": _bounds_delta_kappa,
    "attack-table": _bounds_attack_table,
    "thm1": _bounds_thm1,
    "thm2": _bounds_thm2,
    "thm3": _bounds_thm3,
    "twirl": _bounds_twirl,
}


def _cmd_bounds(cfg: SessionConfig) -> Result:
    payload, rows = _BOUNDS_VERBS[cfg.extras["verb"]](cfg)
    return EXIT_ACCEPT, payload, rows


def _cmd_ft(cfg: SessionConfig) -> Result:
    eps = cfg.extras.get("eps")
    fraction = cfg.extras.get("fraction_of_threshold")
    if (eps is None) == (fraction is None):
        raise CliError("ft needs exactly one of --eps / --fraction-of-threshold")
    if fraction is not None:
        eps = fraction * ftcalc.physical_threshold()
    report = ftcalc.ft_report(
        ftcalc.FtConfig(
            distance=cfg.extras["distance"],
            eps=eps,
            syndromes=cfg.extras["syndromes"],
            saw_prefactor=cfg.extras["saw_prefactor"],
            poly_prefactor=cfg.extras["poly_prefactor"],
        )
    )
    header = [f.name for f in fields(ftcalc.OverheadRow)]
    rows = [header] + [list(astuple(row)) for row in ftcalc.overhead_table()]
    return EXIT_ACCEPT, _stamp(cfg, {"report": asdict(report)}), rows


def _first_difference(a: object, b: object, path: str = "$") -> str | None:
    """JSON path of the first place two values encode differently, else None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            here = f"{path}.{k}"
            if k not in a or k not in b:
                return here
            found = _first_difference(a[k], b[k], here)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if json.dumps(a) == json.dumps(b) else path


def _cmd_replay(cfg: SessionConfig) -> Result:
    path = cfg.extras["artifact"]
    artifact = _read_json(path, "artifact")
    if not isinstance(artifact, dict):
        raise CliError(f"artifact {path} must hold a JSON object")
    if artifact.get("schema_version") != ARTIFACT_SCHEMA:
        raise CliError(
            f"unsupported artifact schema {artifact.get('schema_version')!r}"
        )
    try:
        saved_cfg = SessionConfig.from_json_dict(artifact["config"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"artifact {path} holds no readable config") from exc
    if saved_cfg.subcommand != "verify":
        raise CliError(f"artifact {path} is not from a verify run")
    # Artifacts from before engine versions were stamped are engine 1.
    engine = artifact.get("engine_version", 1)
    if engine != ENGINE_VERSION:
        raise CliError(
            f"artifact was made by simulation engine version {engine}; "
            f"this build runs engine version {ENGINE_VERSION}, which draws "
            f"different outcomes from the same seed, so it cannot replay it"
        )
    code, fresh, _ = execute(saved_cfg)
    # All but the telemetry, compared as JSON text, where true and 1 differ.
    stored, rerun = ({**doc, "telemetry": None} for doc in (artifact, fresh))
    if _encode(stored) != _encode(rerun):
        raise CliError(
            f"replay mismatch at {_first_difference(stored, rerun)}: the "
            f"re-run differs from the stored artifact (nondeterminism or "
            f"tampering)"
        )
    return code, fresh["verdict"], None


_HANDLERS = {
    "help": _cmd_help,
    "carve": _cmd_carve,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "ft": _cmd_ft,
    "replay": _cmd_replay,
}


def execute(cfg: SessionConfig) -> Result:
    """Run one resolved configuration and return its result; write nothing."""
    return _HANDLERS[cfg.subcommand](cfg)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv, env=os.environ)
        code, payload, csv_rows = execute(cfg)
        _emit(cfg, payload, csv_rows)
        return code
    except (CliError, ValueError, ArithmeticError, OSError, RecursionError, MemoryError) as exc:
        # RecursionError: JSON nested too deep; MemoryError: an allocation
        # the machine cannot hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
