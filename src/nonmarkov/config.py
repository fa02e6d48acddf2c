"""Run configuration: a flat INI file with sections model/grid/witnesses/
measures/search/output/backend, presets only (no expression evaluation).

The documented schema lives in the README.  Named qubit presets come from one
table per vocabulary: states (``maxmixed`` and the kets), pure states and
observables; each lookup returns a fresh array.  A witness descriptor such as
``trace_norm_extended(pauli:xx)`` or ``renyi(plus,maxmixed,alpha=1.5)`` is one
row of ``_WITNESS_KINDS``: the spec class, one parser per positional argument
and the spec field each keyword sets.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochZSineTarget,
    Constant,
    ConstantTarget,
    Dephasing,
    GeneratorModel,
    Lindblad,
    OffsetSine,
    Sine,
    SpinBoson,
    Table,
    TraceReplacement,
)
from .measures import DIVISIBILITY_TOL, SearchConfig
from .volterra import ExponentialKernel, TabulatedKernel
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


def _floats(raw: str, fieldname: str):
    return tuple(_number(x, fieldname) for x in raw.split(","))


# Scalar presets: the class and its (parameter, default) pairs in argument order.
_SCALARS = {
    "constant": (Constant, (("value", 1.0),)),
    "sine": (Sine, (("amplitude", 1.0), ("angular_frequency", 1.0), ("phase", 0.0))),
    "offset_sine": (OffsetSine, (("offset", 0.0), ("amplitude", 1.0),
                                 ("angular_frequency", 1.0), ("phase", 0.0))),
}


def _parse_scalar(section, prefix: str, fieldname: str):
    preset = section.get(prefix, "constant").strip().lower()
    if preset in _SCALARS:
        cls, params = _SCALARS[preset]
        return cls(*(_number(section.get(f"{prefix}.{key}", default), f"{fieldname}.{key}")
                     for key, default in params))
    if preset == "table":
        times = _floats(section.get(f"{prefix}.times", ""), f"{fieldname}.times")
        values = _floats(section.get(f"{prefix}.values", ""), f"{fieldname}.values")
        if len(times) != len(values) or len(times) < 2:
            raise ConfigError(fieldname, "table needs matching times/values lists")
        try:
            return Table(times, values)
        except ValueError as exc:
            raise ConfigError(f"{fieldname}.times", str(exc)) from exc
    raise ConfigError(fieldname, f"unknown scalar preset {preset!r}")


def parse_model(section) -> GeneratorModel:
    variant = section.get("variant", "").strip().lower()
    if variant == "dephasing":
        return Dephasing(rate=_parse_scalar(section, "rate", "model.rate"))
    if variant == "trace_replacement":
        rate = _parse_scalar(section, "rate", "model.rate")
        omega = section.get("omega", "maxmixed")
        if omega.strip().lower() == "bloch_z_sine":
            target = BlochZSineTarget(*(
                _number(section.get(f"omega.{key}", 1.0), f"model.omega.{key}")
                for key in ("scale", "angular_frequency")))
        else:
            target = ConstantTarget(state_preset(omega, "model.omega"))
        return TraceReplacement(rate=rate, target=target)
    if variant == "spin_boson":
        kind = section.get("kernel", "exponential").strip().lower()
        if kind == "exponential":
            build = ExponentialKernel
            args = [_number(section.get(f"kernel.{key}", 1.0), f"model.kernel.{key}")
                    for key in ("coupling", "rate")]
        elif kind == "table":
            build = TabulatedKernel
            args = [np.asarray(_floats(section.get(f"kernel.{key}", ""), f"model.kernel.{key}"))
                    for key in ("times", "values")]
        else:
            raise ConfigError("model.kernel", f"unknown kernel preset {kind!r}")
        try:
            return SpinBoson(kernel=build(*args))
        except ValueError as exc:
            raise ConfigError("model.kernel", str(exc)) from exc
    if variant == "gksl":
        ham_spec = section.get("hamiltonian", "none").strip().lower()
        hamiltonian = None
        if ham_spec != "none":
            name, _, coef = ham_spec.partition(":")
            hamiltonian = _number(coef or 1.0, "model.hamiltonian") * observable_preset(
                name, "model.hamiltonian")
        noise = []
        index = 1
        while f"noise.{index}.op" in section:
            op = observable_preset(section[f"noise.{index}.op"], f"model.noise.{index}.op")
            rate = _parse_scalar(section, f"noise.{index}.rate", f"model.noise.{index}.rate")
            noise.append((op, rate))
            index += 1
        if not noise and hamiltonian is None:
            raise ConfigError("model.noise", "gksl model needs a hamiltonian or noise terms")
        return Lindblad(hamiltonian=hamiltonian, noise=tuple(noise), dim=2)
    raise ConfigError("model.variant", f"unknown model variant {variant!r}")


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

    model = None
    if "model" in parser and parser["model"].get("variant", "").strip():
        model = parse_model(parser["model"])
    elif not for_import:
        raise ConfigError("model", "missing [model] section")

    grid = parser["grid"] if "grid" in parser else {}
    if not grid and for_import:
        grid = {"t_max": "1.0", "nodes": str(MIN_NODES)}  # placeholders, file supplies the grid
    t_max = _number(grid.get("t_max"), "grid.t_max")
    if t_max <= 0:
        raise ConfigError("grid.t_max", f"must be positive, got {grid.get('t_max')!r}")
    tables = {f"model.{key}": getattr(model, key, None) for key in ("rate", "kernel")}
    tables.update((f"model.noise.{n}.rate", rate)
                  for n, (_, rate) in enumerate(getattr(model, "noise", ()), 1))
    for name, table in tables.items():
        if (not for_import and isinstance(table, (Table, TabulatedKernel))
                and (table.times[0] > 0.0 or table.times[-1] < t_max)):
            raise ConfigError(f"{name}.times", f"the table spans [{table.times[0]:.6g}, "
                              f"{table.times[-1]:.6g}], not [0, grid.t_max = {t_max:.6g}]")
    try:
        nodes = int(grid.get("nodes", "257"))
    except ValueError as exc:
        raise ConfigError("grid.nodes", "must be an integer") from exc
    if nodes < MIN_NODES:
        raise ConfigError("grid.nodes", f"must be at least {MIN_NODES}, got {nodes}")

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
        search = SearchConfig(
            seeds=int(opt.get("seeds", SearchConfig.seeds)),
            iterations=int(opt.get("iterations", SearchConfig.iterations)),
            rng_seed=rng_seed if seed_override is None else seed_override,
        )
    except ValueError as exc:
        raise ConfigError("search", f"invalid search setting: {exc}") from exc
    if search.seeds < 1 or search.iterations < 0:
        raise ConfigError("search", "seeds must be >= 1 and iterations >= 0")
    for seed in (rng_seed, search.rng_seed):
        if seed < 0:
            raise ConfigError("search.rng_seed", f"must be non-negative, got {seed}")

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
