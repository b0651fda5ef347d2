"""Command-line front end: configuration, dispatch, artifacts, replay.

Option precedence is flags > environment (TRAPVER_*) > config file >
defaults.  `_COMMANDS` is the one declaration of the options: the parser,
the conversion and check of every env, file and replayed-artifact value,
the defaults and the range each value must lie in, whichever source set
it, are all read off its rows.
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
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from functools import cache
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__, bounds, ftcalc
from .graphs import GraphSpec, carve_target, carve_trap_graph, check_embedding
from .protocol import (
    ENGINE_VERSION,
    AttackSpec,
    RoundLayout,
    RunRecord,
    make_round_layout,
    run_scheme,
    unitary_attack,
)
from .simulator import NoiseModel, bit_strings, exact_probability_array, index_bits

ARTIFACT_SCHEMA = 3
# The qubit budget of `simulate` and `verify`, overridden by --cap.
DEFAULT_QUBIT_CAP = 22
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
    """One resolved invocation: subcommand plus each of its own options, by
    key; an option no source set and with no default is absent."""

    subcommand: str
    options: Mapping[str, object]

    @property
    def name(self) -> str:
        """What messages call the run: the subcommand, and its verb."""
        return " ".join(filter(None, (self.subcommand, self.options.get("verb"))))

    def to_json_dict(self) -> dict:
        """The schema-3 snapshot: every option the subcommand declares, null
        when unset, and the attack document when there is one.  Where the
        payload is written, ``out``, is not part of the run, so it is not
        stored."""
        _, options = _COMMANDS[self.subcommand]
        doc = {"subcommand": self.subcommand, **dict.fromkeys(o.key for o in options), **self.options}
        doc.pop("out", None)
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SessionConfig":
        """Rebuild a snapshot; every stored value is checked as its flag is.

        Raises TypeError or KeyError when ``doc`` has no config shape, and
        CliError for a value its option would refuse.
        """
        stored = {**doc}
        subcommand = stored.pop("subcommand")
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
    """The one merge of option values: the subcommand's defaults, then each
    source in turn, its values converted as their flags would be, then the
    flags; then the cross-option rule, then each own option's interval.  A
    source's key that only other subcommands declare is checked like
    theirs, then dropped."""
    _, options = _COMMANDS[subcommand]
    own = {o.key: o.default for o in options}
    table = _option_table(subcommand)
    merged = {k: v for k, v in own.items() if v is not None}
    for source in sources:
        for name, raw in source.items():
            value = _convert(table, name, raw)
            if name in own:
                merged[name] = value
    merged.update(flags)
    if merged.get("auto_params") and (
        merged.get("scheme_m") is not None or merged.get("scheme_l") is not None
    ):
        raise CliError(
            "--auto-params and explicit --scheme-M/--scheme-l are mutually "
            "exclusive"
        )
    cfg = SessionConfig(subcommand, merged)
    for o in options:
        v, (lo, hi) = merged.get(o.key), o.interval or (None, None)
        # written so that NaN lies in no interval
        if v is not None and not ((lo is None or lo <= v) and (hi is None or v <= hi)):
            interval = f"{'(-inf' if lo is None else f'[{lo}'}, {'inf)' if hi is None else f'{hi}]'}"
            raise CliError(f"{cfg.name}: {o.flags[0]} must lie in {interval}, got {v}")
    return cfg


def _parse_bool(raw: str) -> bool:
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


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


def parse_config(argv: Sequence[str], env: Mapping[str, str] | None = None) -> SessionConfig:
    """Resolve one invocation; precedence flags > env > file > defaults."""
    env = env or {}
    flags = vars(build_parser().parse_args(list(argv)))
    subcommand, path = flags.pop("subcommand"), flags.pop("config")
    if subcommand is None:
        return SessionConfig("help", {})
    sources = []
    path = path or env.get(ENV_PREFIX + "CONFIG")
    if path:
        file_doc = _read_json(path, "config file")
        if not isinstance(file_doc, dict):
            raise CliError(f"config file {path} must hold a JSON object")
        sources.append(file_doc)
    env_keys = {name: ENV_PREFIX + name.upper() for name in _option_table(subcommand)}
    sources.append({name: env[key] for name, key in env_keys.items() if key in env})
    return _resolve(subcommand, sources, {k: v for k, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# Payload helpers


def _stamp(cfg: SessionConfig, payload: dict) -> dict:
    return {
        "schema_version": ARTIFACT_SCHEMA,
        "tool_version": __version__,
        "seed": cfg.options["seed"],
        **payload,
    }


def _emit(cfg: SessionConfig, payload: dict | str, csv_rows: list[list] | None) -> None:
    """Write a handler's result to --out (atomically) or stdout: its CSV
    rows under ``--format csv``, a JSON document encoded, text as it is.

    A payload without CSV rows refuses ``--format csv`` rather than being
    written as JSON.  Options hold only the subcommand's own keys, so an
    ``fmt`` or ``out`` from a config shared with other subcommands reaches
    none that lacks the option: ``replay`` never writes over the artifact
    it reads.
    """
    csv_out, out = cfg.options.get("fmt") == "csv", cfg.options.get("out")
    if csv_out and csv_rows is None:
        raise CliError(f"{cfg.name} has no CSV output; use --format json")
    if csv_out and csv_rows is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    else:
        try:
            text = payload if isinstance(payload, str) else _encode(payload)
        except ValueError as exc:
            what = "NaN or an infinity, which JSON cannot write"
            raise CliError(f"{cfg.name}: the result holds {what}") from exc
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


class _JsonItems(tuple):
    """A JSON list as texts already encoded: each text is one or more of
    its items, joined by ", " as `json.dumps` joins them."""


# stands in for a verify artifact's records until their texts are spliced in
_HOLE = "\x00records"


def _encode(doc: dict, allow_nan: bool = False) -> str:
    """Every JSON document's text: one compact, key-sorted encoder call.
    Documents are trees, so the encoder's cycle check is skipped.  NaN and
    the infinities are not JSON: unless ``allow_nan``, they raise
    ValueError.

    Records given as `_JsonItems` are encoded as `_HOLE` and their texts
    spliced in at the hole's last occurrence, which is theirs: the keys
    that sort after "records" hold only values the program computed."""
    records = doc.get("records")
    how = {"sort_keys": True, "check_circular": False, "allow_nan": allow_nan}
    if not isinstance(records, _JsonItems):
        return json.dumps(doc, **how) + "\n"
    text = json.dumps({**doc, "records": _HOLE}, **how)
    head, _, tail = text.rpartition(json.dumps(_HOLE))
    items = [part for t in records for part in (", ", t)][1:]
    return "".join([head, "[", *items, "]", tail, "\n"])


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` through a temporary file renamed over ``path``, in
    slices of 64 KiB, so the document is never copied or encoded whole.
    A failed write removes the temporary file and names ``path``."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            for lo in range(0, len(text), 2**16):
                fh.write(text[lo : lo + 2**16])
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CliError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


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


def _flag(subcommand: str, name: str) -> str:
    """The flag of ``subcommand``'s option ``name``."""
    _, options = _COMMANDS[subcommand]
    return next(o.flags[0] for o in options if o.key == name)


def _require(cfg: SessionConfig, *names: str) -> list[object]:
    vals = []
    for name in names:
        v = cfg.options.get(name)
        if v is None:
            raise CliError(f"{cfg.subcommand}: missing required option {_flag(cfg.subcommand, name)}")
        vals.append(v)
    return vals


# Less than one carving holds per cell: the tracemalloc peak of
# `carve_target` is 590 to 720 bytes per cell from 300 to 310 000 cells, and
# that of `carve`, with its JSON text, 790 to 2300.
_CARVE_BYTES_PER_CELL = 500


def _lattice_sizes(cfg: SessionConfig, *names: str) -> list[int]:
    """The required sizes ``names``, lattice columns and rows first.  Their
    cell count m·n must fit an index (at most sys.maxsize), as each size's
    own interval does, and its carving memory, or the error names both
    flags; past either, numpy, tuple repeats and lists fail without naming
    any option."""
    sizes = _require(cfg, *names)
    m, n = sizes[:2]
    flags = [_flag(cfg.subcommand, name) for name in names]
    if abs(m * n) > sys.maxsize:
        raise CliError(
            f"{cfg.subcommand}: the {flags[0]} x {flags[1]} lattice's cell count "
            f"{m * n} does not fit an index, at most {sys.maxsize}"
        )
    what = f"{cfg.subcommand}: the {flags[0]} {m} x {flags[1]} {n} lattice"
    _check_fits(_CARVE_BYTES_PER_CELL * m * n, what)
    return sizes


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
    m, n = _lattice_sizes(cfg, "m", "n")
    (kind,) = _require(cfg, "kind")
    if kind == "target":
        g = carve_target(m, n)
    else:
        g = carve_trap_graph(m, n, kind.removeprefix("trap-"))
    if cfg.options.get("check_isomorphism"):
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
    doc["seed"] = cfg.options["seed"]
    return EXIT_ACCEPT, doc, None


def _load_angles(path: str) -> dict[int, int]:
    """Read a JSON object mapping vertex ids to integer grid steps."""
    raw = _read_json(path, "angles")
    try:
        if isinstance(raw, dict) and all(type(v) is int for v in raw.values()):
            return {int(k): v for k, v in raw.items()}
    except ValueError as exc:  # a key that is not a vertex id
        raise CliError(f"cannot read angles {path}: {exc}") from exc
    raise CliError(f"angles file {path} must map vertex ids to integer grid steps")


def _cmd_simulate(cfg: SessionConfig) -> Result:
    (graph_path,) = _require(cfg, "graph")
    g = GraphSpec.from_json_dict(_read_json(graph_path, "layout"))
    opts = cfg.options
    angles_path = opts.get("angles")
    steps = _load_angles(angles_path) if angles_path else None
    samples = opts.get("samples")
    exact = opts.get("exact") or samples is None
    _check_components_fit(g, opts["cap"], joint=True)
    probs = exact_probability_array(g, steps)
    n = len(g.non_dummy_ids())
    # row k spells k in binary, so the strings come out sorted; character j
    # is bit j of the probability index
    bits = index_bits(n)[:, ::-1]
    strings = bit_strings(bits)
    weights = probs[bits @ (1 << np.arange(n))]
    if exact:
        table = dict(zip(strings, weights.tolist()))  # Python floats: the CSV holds their repr
        rows = [["string", "probability"]] + [[s, repr(p)] for s, p in table.items()]
        return EXIT_ACCEPT, _stamp(cfg, {"kind": "distribution", "probs": table}), rows
    # one multinomial draw over the sorted strings: memory does not grow
    # with the sample count
    drawn = _rng(opts["seed"]).multinomial(samples, weights / weights.sum())
    counts = {s: int(c) for s, c in zip(strings, drawn) if c}
    payload = _stamp(cfg, {"kind": "samples", "count": samples, "counts": counts})
    rows = [["string", "count"]] + [[s, c] for s, c in counts.items()]
    return EXIT_ACCEPT, payload, rows


def _scheme_parameters(opts: Mapping, n_qubits: int, kappa: int) -> tuple[int, float, dict]:
    beta = opts.get("beta")
    if opts["auto_params"]:
        if beta is None:
            raise CliError("--auto-params needs --beta")
        params = _params_in_range(
            "verify --auto-params", "--beta, --eps-v, --eps-p, --kappa, --m-rounds and --n-rounds",
            bounds.theorem1_params, n_qubits, kappa, opts["eps_v"], opts["eps_p"], beta,
        )
        meta = {
            "derived": True,
            "beta": beta,
            "out_of_regime": params.out_of_regime,
            "completeness": list(params.completeness),
            "soundness": list(params.soundness),
        }
        return params.m, params.l, meta
    scheme_m, scheme_l = opts.get("scheme_m"), opts.get("scheme_l")
    if scheme_m is None or scheme_l is None:
        raise CliError("verify needs --scheme-M and --scheme-l, or --auto-params")
    return scheme_m, scheme_l, {"derived": False}


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(need: int, what: str) -> None:
    """Refuse, before anything is allocated, ``what`` that needs more
    bytes than physical memory holds."""
    if need > (have := _physical_memory()):
        raise CliError(
            f"{what} would keep {need:,} bytes, more than the {have:,} bytes of physical memory"
        )


def _check_components_fit(g: GraphSpec, cap: int, joint: bool) -> None:
    """The one size check of a run of ``g``, before anything is computed.
    ``cap`` bounds each connected component, or with ``joint`` the N
    non-dummy vertices of the exact distribution; then memory must hold
    the largest component of c qubits, 24·2^c bytes (amplitudes and a
    half-size WHT scratch), plus with ``joint`` the distribution's 8·2^N."""
    sizes = [len(vs) for vs, _ in g.components]
    n = len(g.non_dummy_ids())
    for need in [n] if joint else sizes:
        if need > cap:
            raise CliError(f"instance needs {need} qubits, cap is {cap}")
    c = max(sizes, default=0)
    what = f"a component of {c} qubits" + (f" and the {n}-bit joint distribution" if joint else "")
    _check_fits(24 * 2**c + joint * 8 * 2**n, what)


def _record_bytes(kappa: int, cells: int) -> int:
    """What a verify holds per repetition until its artifact is written (the
    batch columns, each batch's record text and the document spliced from
    it): 1 to 2 times the tracemalloc peak per repetition at 3x3 and 5x3."""
    return 384 + (2 * kappa + 1) * (48 + 8 * cells)


def _cmd_verify(cfg: SessionConfig) -> Result:
    m, n, kappa = _lattice_sizes(cfg, "m", "n", "kappa")
    opts = cfg.options
    noise = NoiseModel(eps_v=opts["eps_v"], eps_p=opts["eps_p"])
    target = carve_target(m, n)
    n_qubits = len(target.non_dummy_ids())
    scheme_m, scheme_l, meta = _scheme_parameters(opts, n_qubits, kappa)
    # trap carvings hold only isolated traps: the target's components are the largest
    _check_components_fit(target, opts["cap"], joint=False)
    # M repetitions' records, before the layout builds its 2κ+1 rounds (an
    # M or κ below 1 is refused by the layout or the run)
    what = f"verify: M = {scheme_m} repetitions at --kappa {kappa}"
    _check_fits(scheme_m * _record_bytes(kappa, m * n), what)
    layout = make_round_layout(m, n, kappa)
    # The parsed attack document is embedded in the artifact so replay
    # does not depend on the original file still existing.
    attack_doc = opts.get("attack_doc")
    if attack_doc is None and opts.get("attack"):
        attack_doc = _read_json(opts["attack"], "attack file")
    if attack_doc is not None:
        opts = {**opts, "attack_doc": attack_doc}
    strategy = None if attack_doc is None else attack_spec_from_json(attack_doc, layout)
    sink: list[RunRecord] = []
    started = time.time()
    verdict = run_scheme(
        layout,
        strategy,
        noise,
        scheme_m,
        scheme_l,
        _rng(opts["seed"]),
        record_sink=sink,
    )
    elapsed = time.time() - started
    # each batch once, in run order, as the text of its runs' records
    records = _JsonItems(batch.json_text for batch in dict.fromkeys(r.batch for r in sink))
    artifact = _stamp(
        cfg,
        {
            "engine_version": ENGINE_VERSION,
            "config": SessionConfig(cfg.subcommand, opts).to_json_dict(),
            "scheme": {"m": scheme_m, "l": scheme_l, **meta, "n_qubits": n_qubits},
            "records": records,
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
    limit = sys.get_int_max_str_digits()
    too_long = CliError(
        f"bounds delta-kappa: the fraction at --kappa {kappa} has more digits "
        f"than Python converts to text, {limit}"
    )
    # Δ_κ = 1/C(2κ+1, κ), and C(2κ+1, κ) ≥ 4^κ/(κ+1), the mean of the 2κ+2
    # binomials that sum to 2^(2κ+1): a κ past the limit by that bound is
    # refused before the fraction is built, one near it by str()
    if limit and kappa >= 1 and kappa * math.log10(4) - math.log10(kappa + 1) >= limit:
        raise too_long
    fraction = bounds.delta_kappa(kappa)
    try:
        value = str(fraction)
    except ValueError as exc:
        # the process-wide limit stays: other code may share this interpreter
        raise too_long from exc
    # stdout gets the bare fraction, a file the stamped document
    if cfg.options.get("out"):
        return _stamp(cfg, {"kappa": kappa, "delta_kappa": value}), None
    return f"{value}\n", None


def _bounds_attack_table(cfg: SessionConfig) -> tuple[dict, list[list]]:
    (kappa,) = _require(cfg, "kappa")
    header = ["kappa", "lam", "xi", "trap_term", "escape_bound", "gap"]
    # at least κ²/2 classes, each held as a dict of the header's keys at least
    what = f"bounds attack-table: the table at --kappa {kappa}"
    _check_fits(max(kappa, 0) ** 2 // 2 * sys.getsizeof(dict.fromkeys(header)), what)
    table = []
    for cls in bounds.valid_attack_classes(kappa):
        values = (cls.kappa, cls.lam, cls.xi, *map(str, bounds.attack_gap(cls)))
        table.append(dict(zip(header, values)))
    rows = [header] + [list(entry.values()) for entry in table]
    return _stamp(cfg, {"classes": table}), rows


def _params_in_range(what: str, flags: str, theorem: Callable, *args) -> bounds.SchemeParams:
    """``theorem(*args)``, Theorem 1's or 2's parameters; an M that rounds
    to 0 or leaves the float range is an error naming ``flags``."""
    try:
        return theorem(*args)
    except bounds.RepetitionRangeError as exc:
        raise CliError(f"{what}: {exc} at these {flags}") from exc


def _bounds_thm1(cfg: SessionConfig) -> tuple[dict, None]:
    n_qubits, kappa, beta = _require(cfg, "n_qubits", "kappa", "beta")
    # the repetition formula's float denominator holds 2κ²N²
    if 2 * (kappa * n_qubits) ** 2 > sys.float_info.max:
        what = "2*kappa^2*N^2 of --kappa and --n-qubits"
        raise CliError(f"bounds thm1: {what} exceeds the largest float, {sys.float_info.max:g}")
    eps_v, eps_p = cfg.options["eps_v"], cfg.options["eps_p"]
    params = _params_in_range(
        "bounds thm1", "--beta, --eps-v, --eps-p, --kappa and --n-qubits",
        bounds.theorem1_params, n_qubits, kappa, eps_v, eps_p, beta,
    )
    return _stamp(cfg, {"params": asdict(params)}), None


def _bounds_thm2(cfg: SessionConfig) -> tuple[dict, None]:
    eps2, kappa, beta = _require(cfg, "eps2", "kappa", "beta")
    params = _params_in_range("bounds thm2", "--beta and --eps2", bounds.theorem2_params, eps2, kappa, beta)
    return _stamp(cfg, {"params": asdict(params)}), None


def _bounds_thm3(cfg: SessionConfig) -> tuple[dict, None]:
    alpha1, alpha2, beta1, beta2, n_qubits = _require(
        cfg, "alpha1", "alpha2", "beta1", "beta2", "n_qubits"
    )
    hb = bounds.theorem3_epsilon(alpha1, alpha2, beta1, beta2, n_qubits)
    return _stamp(cfg, {"epsilon": hb.value, "feasible": hb.feasible}), None


def _bounds_twirl(cfg: SessionConfig) -> tuple[dict, None]:
    opts = cfg.options
    n = opts.get("n_qubits", 1)
    q = opts.get("q") or "X" * n
    qprime = opts.get("q_prime") or "Z" * n
    basis, trials = opts["basis"], opts["trials"]
    # checked before any 2^n x 2^n matrix is drawn
    if not 1 <= n <= 3:
        raise CliError(f"bounds twirl: --n-qubits must be 1, 2 or 3, not {n}")
    # each trial's residual is kept, a float object at least
    _check_fits(trials * sys.getsizeof(0.0), f"bounds twirl: --trials {trials}")
    rng = _rng(opts["seed"])
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
    payload, rows = _BOUNDS_VERBS[cfg.options["verb"]](cfg)
    return EXIT_ACCEPT, payload, rows


def _cmd_ft(cfg: SessionConfig) -> Result:
    opts = cfg.options
    eps, fraction = opts.get("eps"), opts.get("fraction_of_threshold")
    if (eps is None) == (fraction is None):
        raise CliError("ft needs exactly one of --eps / --fraction-of-threshold")
    if fraction is not None:
        eps = fraction * ftcalc.physical_threshold()
    report = ftcalc.ft_report(
        ftcalc.FtConfig(
            distance=opts["distance"],
            eps=eps,
            syndromes=opts["syndromes"],
            saw_prefactor=opts["saw_prefactor"],
            poly_prefactor=opts["poly_prefactor"],
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
    path = cfg.options["artifact"]
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
    if type(engine) is not int or engine != ENGINE_VERSION:
        raise CliError(
            f"artifact was made by simulation engine version {engine!r}; "
            f"this build runs engine version {ENGINE_VERSION}, which draws "
            f"different outcomes from the same seed, so it cannot replay it"
        )
    code, fresh, _ = execute(saved_cfg)
    # All but the telemetry, compared as JSON text, where true and 1 differ;
    # the re-run is decoded only to name where a mismatch lies.
    stored = {**artifact, "telemetry": None}
    rerun = _encode({**fresh, "telemetry": None})
    # a tampered artifact may hold NaN: it then differs from the re-run
    if _encode(stored, allow_nan=True) != rerun:
        raise CliError(
            f"replay mismatch at {_first_difference(stored, json.loads(rerun))}: "
            f"the re-run differs from the stored artifact (nondeterminism or "
            f"tampering)"
        )
    return code, artifact["verdict"], None


_HANDLERS = {
    "help": _cmd_help,
    "carve": _cmd_carve,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "ft": _cmd_ft,
    "replay": _cmd_replay,
}


# ---------------------------------------------------------------------------
# The option table: one row per option feeds the parser, the conversion of
# env, file and artifact values, the defaults, the range check and
# `_require`.


class _Option(NamedTuple):
    """One option: its flags (a positional's name), its conversion (None
    for a store-true flag), its choices, its default, its help, its dest
    and its inclusive interval (low, high), None for an open side, which
    `_resolve` checks whatever source set the value.  Its key is ``dest``
    when given, else the first flag as argparse names it."""

    flags: tuple[str, ...]
    conv: Callable[[str], object] | None = str
    choices: tuple | None = None
    default: object = None
    help: str | None = None
    dest: str | None = None
    interval: tuple | None = None

    @property
    def key(self) -> str:
        return self.dest or self.flags[0].lstrip("-").replace("-", "_")


# subcommand -> (its help, its options in --help order); an option has an
# interval where a value outside it would fail without naming the option:
# a size past an index, a negative seed, a float past the largest one
_COMMANDS: dict[str, tuple[str, tuple[_Option, ...]]] = {
    "carve": ("emit a carved lattice layout", (
        _Option(("--m",), int, help="lattice columns", interval=(None, sys.maxsize)),
        _Option(("--n",), int, help="lattice rows", interval=(None, sys.maxsize)),
        _Option(("--kind",), choices=("target", "trap-even", "trap-odd"), default="target",
                help="which carving to emit"),
        _Option(("--check-isomorphism",), None,
                help="validate the carving against the intended adjacency"),
        _Option(("--seed",), int, default=0),
        _Option(("--out",)),
        _Option(("--format",), choices=("json",), default="json", dest="fmt"),
    )),
    "simulate": ("exact distribution or samples", (
        _Option(("--graph",), help="layout JSON path"),
        _Option(("--angles",), help="JSON {vertex: grid steps}; default: layout angles"),
        _Option(("--exact",), None),
        # numpy's multinomial draws a count in a C long
        _Option(("--samples",), int, interval=(0, 2**63 - 1)),
        _Option(("--seed",), int, default=0, interval=(0, None)),
        _Option(("--cap",), int, default=DEFAULT_QUBIT_CAP),
        _Option(("--out",)),
        _Option(("--format",), choices=("json", "csv"), default="json", dest="fmt"),
    )),
    "verify": ("run the M-repetition scheme", (
        _Option(("--kappa",), int, interval=(None, sys.maxsize)),
        _Option(("--m-rounds",), int, help="lattice columns", dest="m", interval=(None, sys.maxsize)),
        _Option(("--n-rounds",), int, help="lattice rows", dest="n", interval=(None, sys.maxsize)),
        _Option(("--eps-v",), float, default=0.0),
        _Option(("--eps-p",), float, default=0.0),
        _Option(("--attack",), help="AttackSpec JSON path"),
        _Option(("--scheme-M",), int, dest="scheme_m"),
        _Option(("--scheme-l",), float, dest="scheme_l"),
        _Option(("--auto-params",), None, default=False,
                help="derive (M, l) from the noise-rate bound calculator"),
        # (0, 1), checked even without --auto-params: the artifact stores it
        _Option(("--beta",), float, help="confidence budget for --auto-params",
                interval=(math.ulp(0.0), math.nextafter(1.0, 0.0))),
        _Option(("--seed",), int, default=0, interval=(0, None)),
        _Option(("--cap",), int, default=DEFAULT_QUBIT_CAP),
        _Option(("--out",)),
    )),
    "bounds": ("closed-form calculators", (
        _Option(("verb",), choices=tuple(_BOUNDS_VERBS)),
        _Option(("--kappa",), int, interval=(None, sys.float_info.max)),
        _Option(("--n-qubits", "--n"), int),
        _Option(("--eps-v",), float, default=0.0),
        _Option(("--eps-p",), float, default=0.0),
        _Option(("--beta",), float),
        _Option(("--eps2",), float),
        _Option(("--alpha1",), float),
        _Option(("--alpha2",), float),
        _Option(("--beta1",), float),
        _Option(("--beta2",), float),
        _Option(("--q",)),
        _Option(("--q-prime",)),
        _Option(("--basis",), choices=("full", "z_only"), default="full"),
        _Option(("--trials",), int, default=20, interval=(1, None)),
        _Option(("--seed",), int, default=0, interval=(0, None)),
        _Option(("--out",)),
        _Option(("--format",), choices=("json", "csv"), default="json", dest="fmt"),
    )),
    "ft": ("fault-tolerance report", (
        _Option(("--eps",), float),
        _Option(("--fraction-of-threshold",), float),
        _Option(("--distance",), int, default=2),
        _Option(("--syndromes",), int, default=ftcalc.DEFAULT_SYNDROMES),
        _Option(("--saw-prefactor",), float, default=ftcalc.DEFAULT_SAW_PREFACTOR),
        _Option(("--poly-prefactor",), float, default=1.0),
        _Option(("--seed",), int, default=0),
        _Option(("--out",)),
        _Option(("--format",), choices=("json", "csv"), default="json", dest="fmt",
                help="csv emits the overhead table instead of the report"),
    )),
    "replay": ("re-execute a verify artifact, compare all but telemetry", (
        _Option(("artifact",)),
    )),
}

@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use from `_COMMANDS`: read
    it, never add to it."""
    parser = _Parser(
        prog="trapver",
        description=(
            "Trap-based verification of a nonadaptive sampler: carvings, "
            "protocol simulation, bound calculators, artifacts."
        ),
    )
    parser.add_argument("--config", help="JSON file with default options")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for o in options:
            # every flag defaults to None, so an unset flag overrides no
            # env, file or artifact value
            if o.conv is None:
                how = {"action": "store_const", "const": True}
            else:
                how = {"type": o.conv, "choices": o.choices}
            # argparse refuses a dest beside a positional's name
            if o.dest:
                how["dest"] = o.dest
            p.add_argument(*o.flags, **how, help=o.help)
    return parser


@cache
def _option_table(subcommand: str) -> dict:
    """Option key -> (converter, choices or None), read off `_COMMANDS`.

    A store-true flag is a boolean; any other option converts with its
    conversion and checks its choices.  The running subcommand's own row
    decides; a key that only other subcommands define stays accepted, with
    the union of their choices, so one config file can serve every
    subcommand (`_resolve` then drops it).  The table is cached: read it,
    never change it.
    """
    table: dict[str, tuple] = {}
    # stable sort: the running subcommand's rows come last and override
    for name, (_, options) in sorted(_COMMANDS.items(), key=lambda kv: kv[0] == subcommand):
        for o in options:
            choices = set(o.choices) if o.choices else None
            if name != subcommand and o.key in table:
                seen = table[o.key][1]
                choices = None if seen is None or choices is None else seen | choices
            table[o.key] = (o.conv or _parse_bool, choices)
    return table


def execute(cfg: SessionConfig) -> Result:
    """Run one resolved configuration and return its result; write nothing."""
    return _HANDLERS[cfg.subcommand](cfg)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv, env=os.environ)
        # before the run, so that a long run is not lost to a typo in the path
        out = cfg.options.get("out")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise CliError(f"cannot write --out {out}: No such file or directory")
        code, payload, csv_rows = execute(cfg)
        _emit(cfg, payload, csv_rows)
        return code
    except (CliError, ValueError, ArithmeticError, OSError, RecursionError, MemoryError) as exc:
        # RecursionError: JSON nested too deep; MemoryError: an allocation
        # the machine cannot hold, often with no text of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
