"""Run configuration: a flat INI file with sections model/grid/witnesses/
measures/search/output/backend, presets only (no expression evaluation).

The documented schema lives in the README.  The [model] vocabulary is the name
tables of :mod:`dynamics`: a preset's keys are its class's fields, and a key
left out takes the class default.  Named qubit presets come from one
table per vocabulary: states (``maxmixed`` and the kets), pure states and
observables; each lookup returns a fresh array.  A witness descriptor such as
``trace_norm_extended(pauli:xx)`` or ``renyi(plus,maxmixed,alpha=1.5)`` is one
row of ``_WITNESS_KINDS``: the spec class, one parser per positional argument
and the spec field each keyword sets.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import (
    KERNELS,
    RATES,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TARGETS,
    VARIANTS,
    ConstantTarget,
    GeneratorModel,
    Lindblad,
)
from .measures import DIVISIBILITY_TOL, SearchConfig
from .witnesses import (
    DualOperatorNormWitness,
    ExtendedTraceNormWitness,
    FidelityPair,
    HeisenbergSkew,
    InformationFlowPair,
    InvariantOverlap,
    PlainTraceNormWitness,
    RelativeEntropyPair,
    RenyiPair,
    SchrodingerSkew,
    TsallisPair,
)


# Fewest grid nodes a run accepts, from [grid] or from an imported trajectory.
MIN_NODES = 16


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


_KETS = {
    "ground": np.array([1, 0], dtype=complex),
    "excited": np.array([0, 1], dtype=complex),
    "zero": np.array([1, 0], dtype=complex),
    "one": np.array([0, 1], dtype=complex),
    "plus": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "minus": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "plus_i": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "minus_i": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}

_STATES = {"maxmixed": 0.5 * np.eye(2, dtype=complex),
           **{name: np.outer(v, v.conj()) for name, v in _KETS.items()}}

_OBSERVABLES = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "identity": np.eye(2, dtype=complex),
    "sigma_minus": SIGMA_MINUS,
    "sigma_plus": SIGMA_PLUS,
}

_PAULI_LETTERS = {"i": np.eye(2, dtype=complex), "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _preset(table: dict, vocabulary: str, name: str, fieldname: str) -> np.ndarray:
    """A fresh copy of ``table[name]``; ConfigError naming the field otherwise."""
    key = name.strip().lower()
    if key not in table:
        raise ConfigError(fieldname, f"unknown {vocabulary} preset {key!r}")
    return table[key].copy()


state_preset = partial(_preset, _STATES, "state")
vector_preset = partial(_preset, _KETS, "pure-state")
observable_preset = partial(_preset, _OBSERVABLES, "observable")


def pauli_product(arg: str, fieldname: str) -> np.ndarray:
    """(a ⊗ b)/2 from a ``pauli:<ab>`` argument, a and b each one of i/x/y/z."""
    prefix, _, code = arg.partition(":")
    code = code.strip().lower()
    if prefix != "pauli" or len(code) != 2 or any(c not in _PAULI_LETTERS for c in code):
        raise ConfigError(fieldname, f"expected pauli:<ab> with a, b each one of i/x/y/z, "
                                     f"got {arg!r}")
    return 0.5 * np.kron(_PAULI_LETTERS[code[0]], _PAULI_LETTERS[code[1]])


# ---------------------------------------------------------------------------
# Witness descriptors
# ---------------------------------------------------------------------------

_DESCRIPTOR_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^()]*)\)\s*$")

# Witness kind -> (spec class, one parser per positional argument,
# {descriptor keyword: spec field}).  A keyword left out takes the field's default.
_WITNESS_KINDS = {
    "trace_norm_extended": (ExtendedTraceNormWitness, (pauli_product,), {}),
    "dual_operator_norm": (DualOperatorNormWitness, (pauli_product,), {}),
    "trace_norm_plain": (PlainTraceNormWitness, (observable_preset,), {}),
    "blp": (InformationFlowPair, (state_preset, state_preset), {}),
    "relative_entropy": (RelativeEntropyPair, (state_preset, state_preset), {}),
    "renyi": (RenyiPair, (state_preset, state_preset), {"alpha": "alpha"}),
    "tsallis": (TsallisPair, (state_preset, state_preset), {"q": "q"}),
    "fidelity": (FidelityPair, (state_preset, state_preset), {}),
    "overlap": (InvariantOverlap, (state_preset, vector_preset), {}),
    "skew_schrodinger": (SchrodingerSkew, (state_preset, observable_preset), {"p": "exponent"}),
    "skew_heisenberg": (HeisenbergSkew, (state_preset, observable_preset), {"p": "exponent"}),
}


def _split_args(body: str, fieldname: str):
    args = []
    kwargs = {}
    for token in filter(None, (p.strip() for p in body.split(","))):
        if "=" in token:
            key, val = (part.strip() for part in token.split("=", 1))
            if key in kwargs:
                raise ConfigError(fieldname, f"argument {key!r} given twice in {body!r}")
            kwargs[key] = val
        else:
            args.append(token)
    return args, kwargs


def parse_witness_descriptor(text: str, fieldname: str = "witnesses.specs"):
    """Build a witness spec from a descriptor such as ``blp(plus,minus)``."""
    match = _DESCRIPTOR_RE.match(text)
    if not match:
        raise ConfigError(fieldname, f"malformed witness descriptor {text!r}")
    kind, body = match.groups()
    if kind not in _WITNESS_KINDS:
        raise ConfigError(fieldname, f"unknown witness kind {kind!r}")
    cls, parsers, keywords = _WITNESS_KINDS[kind]
    args, kwargs = _split_args(body, fieldname)
    if len(args) != len(parsers):
        problem = "too many" if len(args) > len(parsers) else "missing"
        raise ConfigError(fieldname, f"{problem} arguments in {text!r}: {kind} takes "
                          f"{len(parsers)}, got {len(args)}")
    unknown = sorted(set(kwargs) - set(keywords))
    if unknown:
        raise ConfigError(fieldname, f"unknown argument {unknown[0]!r} to {kind} in {text!r}")
    values = [parse(arg, fieldname) for parse, arg in zip(parsers, args)]
    numbers = {keywords[key]: _number(raw, fieldname) for key, raw in kwargs.items()}
    try:
        return cls(*values, **numbers)
    except ValueError as exc:
        raise ConfigError(fieldname, f"invalid witness {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------

def _number(raw, fieldname: str) -> float:
    """A finite number from a config value; ConfigError naming the field otherwise."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(fieldname, f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(fieldname, f"must be finite, got {raw!r}")
    return value


def _parse_preset(section, key: str, fieldname: str, slot: dict, default: str,
                  t_max: float | None):
    """The preset of ``slot`` (a name table of :mod:`dynamics`) that ``key``
    names, each dataclass field read from ``<key>.<field>``: one number if the
    field has a default, which a key left out takes, else a number list.  A
    preset with ``times`` is a table that must span [0, ``t_max``] (any, if None)."""
    name = section.get(key, default).strip().lower()
    if name not in slot:
        raise ConfigError(fieldname, f"unknown preset {name!r}, expected one of "
                                     f"{', '.join(slot)}")
    values = {}
    for field in fields(slot[name]):
        listed = field.default is MISSING
        raw = section.get(f"{key}.{field.name}", "" if listed else field.default)
        number = partial(_number, fieldname=f"{fieldname}.{field.name}")
        values[field.name] = tuple(map(number, raw.split(","))) if listed else number(raw)
    table = "times" in values
    try:
        preset = slot[name](**values)
        if table and t_max is not None and (preset.times[0] > 0.0 or preset.times[-1] < t_max):
            raise ValueError(f"the table spans [{preset.times[0]:.6g}, {preset.times[-1]:.6g}],"
                             f" not [0, grid.t_max = {t_max:.6g}]")
    except ValueError as exc:
        raise ConfigError(f"{fieldname}.times" if table else fieldname, str(exc)) from exc
    return preset


def _parse_target(section, t_max: float | None):
    """``omega``: a target preset, or else a state preset as a constant target."""
    omega = section.get("omega", "maxmixed")
    if TARGETS.get(omega.strip().lower(), ConstantTarget) is ConstantTarget:
        return ConstantTarget(state_preset(omega, "model.omega"))
    return _parse_preset(section, "omega", "model.omega", TARGETS, omega, t_max)


def parse_model(section, t_max: float | None = None) -> GeneratorModel:
    """The model of a [model] section, its tables spanning [0, ``t_max``] (any,
    if None): one preset per field of the variant's class, or for gksl a
    Hamiltonian ``<observable>:<coefficient>`` and numbered noise terms."""
    name = section.get("variant", "").strip().lower()
    if name not in VARIANTS:
        raise ConfigError("model.variant", f"unknown model variant {name!r}")
    variant = VARIANTS[name]
    if variant is not Lindblad:
        slots = {"rate": partial(_parse_preset, section, "rate", "model.rate", RATES, "constant"),
                 "kernel": partial(_parse_preset, section, "kernel", "model.kernel", KERNELS,
                                   "exponential"),
                 "target": partial(_parse_target, section)}
        return variant(**{field.name: slots[field.name](t_max) for field in fields(variant)})
    ham_spec = section.get("hamiltonian", "none").strip().lower()
    hamiltonian = None
    if ham_spec != "none":
        name, _, coef = ham_spec.partition(":")
        hamiltonian = _number(coef or 1.0, "model.hamiltonian") * observable_preset(
            name, "model.hamiltonian")
    noise = []
    while f"noise.{len(noise) + 1}.op" in section:
        term = f"noise.{len(noise) + 1}"
        op = observable_preset(section[f"{term}.op"], f"model.{term}.op")
        noise.append((op, _parse_preset(section, f"{term}.rate", f"model.{term}.rate", RATES,
                                        "constant", t_max)))
    if not noise and hamiltonian is None:
        raise ConfigError("model.noise", "gksl model needs a hamiltonian or noise terms")
    return Lindblad(hamiltonian=hamiltonian, noise=tuple(noise), dim=2)


# ---------------------------------------------------------------------------
# Full run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    model: GeneratorModel | None
    t_max: float
    nodes: int
    backend: str
    witnesses: list  # (descriptor, spec) pairs in the order given
    measures_enabled: bool
    measure_rhp: bool
    measure_witness: bool
    measure_blp: bool
    search: SearchConfig
    out_dir: Path
    prefix: str
    divisibility_tol: float = DIVISIBILITY_TOL

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.nodes)


class _ReadTracking(configparser.ConfigParser):
    """A parser that remembers every (section, key) pair read from it."""

    def __init__(self):
        super().__init__(interpolation=None)
        self.read_keys = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def load_config(path, seed_override: int | None = None,
                backend_override: str | None = None,
                out_override: str | None = None,
                for_import: bool = False) -> RunConfig:
    """Parse and validate a run configuration.

    With ``for_import=True`` the [model] and [grid] sections become optional.
    An import reads them, [backend] and the backend override, and validates
    them, but takes the model echo, grid, backend and maps from the trajectory
    file; a file carries no generator, so the RHP measure is skipped.
    A key that parsing never reads is rejected, so the parser below is the
    whole schema; a key that an override replaces is still read and validated.
    """
    parser = _ReadTracking()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("config", str(exc)) from exc
    if not read:
        raise ConfigError("config", f"cannot read config file {path!r}")

    grid = parser["grid"] if "grid" in parser else {}
    if not grid and for_import:
        grid = {"t_max": "1.0", "nodes": str(MIN_NODES)}  # placeholders, file supplies the grid
    t_max = _number(grid.get("t_max"), "grid.t_max")
    if t_max <= 0:
        raise ConfigError("grid.t_max", f"must be positive, got {grid.get('t_max')!r}")
    try:
        nodes = int(grid.get("nodes", "257"))
    except ValueError as exc:
        raise ConfigError("grid.nodes", "must be an integer") from exc
    if nodes < MIN_NODES:
        raise ConfigError("grid.nodes", f"must be at least {MIN_NODES}, got {nodes}")

    model = None
    if "model" in parser and parser["model"].get("variant", "").strip():
        model = parse_model(parser["model"], None if for_import else t_max)
    elif not for_import:
        raise ConfigError("model", "missing [model] section")

    kind = parser["backend"].get("kind", "auto") if "backend" in parser else "auto"
    backend = (backend_override or kind).lower()
    for value in (kind.lower(), backend):
        if value not in ("auto", "analytic", "numeric"):
            raise ConfigError("backend.kind", f"must be auto/analytic/numeric, got {value!r}")

    specs = parser["witnesses"].get("specs", "") if "witnesses" in parser else ""
    witnesses = [(d, parse_witness_descriptor(d)) for d in map(str.strip, specs.split(";")) if d]

    meas = parser["measures"] if "measures" in parser else {}

    def flag(key: str) -> bool:
        raw = meas.get(key, "true")
        if raw.lower() not in parser.BOOLEAN_STATES:
            raise ConfigError(f"measures.{key}", f"expected true/false, yes/no, on/off or 1/0, "
                                                 f"got {raw!r}")
        return parser.BOOLEAN_STATES[raw.lower()]

    divisibility_tol = _number(meas.get("divisibility_tol", DIVISIBILITY_TOL),
                               "measures.divisibility_tol")
    if divisibility_tol <= 0:
        raise ConfigError("measures.divisibility_tol", "must be positive")

    opt = parser["search"] if "search" in parser else {}
    try:
        rng_seed = int(opt.get("rng_seed", SearchConfig.rng_seed))
        budget = [int(opt.get(key, getattr(SearchConfig, key))) for key in ("seeds", "iterations")]
    except ValueError as exc:
        raise ConfigError("search", f"invalid search setting: {exc}") from exc
    for seed in (rng_seed, seed_override):
        if seed is not None and seed < 0:
            raise ConfigError("search.rng_seed", f"must be non-negative, got {seed}")
    try:
        search = SearchConfig(*budget, rng_seed if seed_override is None else seed_override)
    except ValueError as exc:
        raise ConfigError("search", f"invalid search setting: {exc}") from exc

    out = parser["output"] if "output" in parser else {}
    directory = out.get("directory", ".")
    prefix = out.get("prefix", "run")
    enabled, rhp, witness, blp = (flag(key) for key in ("enabled", "rhp", "witness", "blp"))

    for name in parser.sections():
        unread = sorted(key for key in parser[name] if (name, key) not in parser.read_keys)
        if unread:
            raise ConfigError(f"{name}.{unread[0]}", "unknown section or key")

    return RunConfig(
        model=model,
        t_max=t_max,
        nodes=nodes,
        backend=backend,
        witnesses=witnesses,
        measures_enabled=enabled,
        measure_rhp=rhp,
        measure_witness=witness,
        measure_blp=blp,
        search=search,
        out_dir=Path(out_override or directory),
        prefix=prefix,
        divisibility_tol=divisibility_tol,
    )
