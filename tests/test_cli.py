import configparser
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nonmarkov import __version__, cli, config, measures
from nonmarkov.cli import main
from nonmarkov.config import ConfigError, load_config, parse_witness_descriptor
from nonmarkov.dynamics import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    BlochZSineTarget,
    Constant,
    ConstantTarget,
    Dephasing,
    Lindblad,
    OffsetSine,
    Sine,
    SpinBoson,
    Table,
    TraceReplacement,
    Trajectory,
    describe_model,
    evolve,
    load_trajectory,
    save_trajectory,
)
from nonmarkov.volterra import ExponentialKernel
from nonmarkov.witnesses import (
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

from conftest import KET0, KET1, KET_MINUS, KET_PLUS, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, projector

EXAMPLE1 = """
[model]
variant = dephasing
rate = sine
rate.amplitude = 1.0

[grid]
t_max = 6.283185307179586
nodes = 257

[backend]
kind = analytic

[witnesses]
specs = trace_norm_extended(pauli:xx); blp(plus,minus)

[measures]
enabled = true

[search]
seeds = 16
iterations = 30
rng_seed = 7

[output]
prefix = run
"""

ROOT = Path(__file__).resolve().parent.parent

MARKOVIAN = EXAMPLE1.replace(
    "rate = sine\nrate.amplitude = 1.0", "rate = constant\nrate.value = 1.0"
)


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _model_section(echo: dict) -> str:
    """A [model] section for the model that ``echo`` describes: a constant
    target by its state preset, a jump operator by its observable preset and
    a Hamiltonian as <observable>:<coefficient>."""
    def matrix(fields, key):
        return np.array(fields[f"{key}_real"]) + 1j * np.array(fields[f"{key}_imag"])

    def named(table, m):
        return next(name for name, preset in table.items() if np.array_equal(preset, m))

    def preset(prefix, fields):
        lines = [f"{prefix} = {fields['preset']}"]
        for key, value in fields.items():
            if key != "preset":
                text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
                lines.append(f"{prefix}.{key} = {text}")
        return lines

    lines = ["[model]", f"variant = {echo['variant']}"]
    for key in ("rate", "kernel"):
        if key in echo:
            lines += preset(key, echo[key])
    target = echo.get("target")
    if target is not None and target["preset"] == "constant":
        lines.append(f"omega = {named(config._STATES, matrix(target, 'matrix'))}")
    elif target is not None:
        lines += preset("omega", target)
    if "hamiltonian_real" in echo:
        h = matrix(echo, "hamiltonian")
        scale = {name: float(np.vdot(obs, h).real / np.vdot(obs, obs).real)
                 for name, obs in config._OBSERVABLES.items()}
        name = next(n for n, c in scale.items() if np.array_equal(c * config._OBSERVABLES[n], h))
        lines.append(f"hamiltonian = {name}:{scale[name]!r}")
    for n, term in enumerate(echo.get("noise", ()), 1):
        lines.append(f"noise.{n}.op = {named(config._OBSERVABLES, matrix(term, 'operator'))}")
        lines += preset(f"noise.{n}.rate", term["rate"])
    return "\n".join(lines)


class TestConfigParsing:
    def test_witness_descriptors(self):
        spec = parse_witness_descriptor("renyi(plus,maxmixed,alpha=1.5)")
        assert spec.alpha == 1.5
        spec = parse_witness_descriptor("skew_heisenberg(ground,sigma_x,p=0.3)")
        assert spec.exponent == 0.3
        with pytest.raises(ConfigError):
            parse_witness_descriptor("nonsense(foo)")
        with pytest.raises(ConfigError):
            parse_witness_descriptor("blp(plus)")
        with pytest.raises(ConfigError):
            parse_witness_descriptor("blp(plus,not_a_state)")

    @pytest.mark.parametrize("descriptor", [
        "renyi(plus,maxmixed,alhpa=1.5)",
        "tsallis(plus,maxmixed,alpha=0.9)",
        "blp(plus,minus,foo=3)",
        "blp(plus,minus,zero)",
        "trace_norm_plain(sigma_x,sigma_z)",
        "trace_norm_extended(pauli:xx,pauli:yy)",
        "skew_heisenberg(ground,sigma_x,q=0.3)",
        "renyi(plus,maxmixed,alpha=1.5,alpha=0.9)",
    ])
    def test_unknown_or_surplus_argument_exits_2(self, tmp_path, capsys, descriptor):
        with pytest.raises(ConfigError, match="witnesses.specs"):
            parse_witness_descriptor(descriptor)
        text = EXAMPLE1.replace("blp(plus,minus)", descriptor, 1)
        assert main(["verdict", "--config", _write(tmp_path, text), "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert "invalid configuration: witnesses.specs:" in capsys.readouterr().err

    def test_documented_descriptors_parse(self):
        texts = [ROOT.joinpath("README.md").read_text()]
        texts += [p.read_text() for p in sorted(ROOT.glob("perfbench/workloads/*.ini"))]
        specs = [spec for text in texts
                 for line in re.findall(r"^specs = (.*)$", text, flags=re.M)
                 for spec in line.split(";")]
        specs += re.findall(r"^\| `([a-z_]+\(.*\))` \|", texts[0], flags=re.M)
        assert len(specs) > 20
        for spec in specs:
            parse_witness_descriptor(spec.strip())

    def test_readme_configuration_example_runs(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", ROOT.joinpath("README.md").read_text(),
                          flags=re.S).group(1)
        cfg_path = _write(tmp_path, block)
        assert main(["verdict", "--config", cfg_path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0

    def test_readme_library_quick_start_runs(self):
        block = re.search(r"```python\n(.*?)```", ROOT.joinpath("README.md").read_text(),
                          flags=re.S).group(1)
        scope = {}
        exec(block, scope)
        assert scope["best"].value >= 1.0 - np.exp(-2.0) - 1e-3
        assert scope["n_rhp"] == pytest.approx(2.0, abs=1e-2)

    def test_node_floor(self, tmp_path):
        bad = EXAMPLE1.replace("nodes = 257", "nodes = 8")
        with pytest.raises(ConfigError, match="grid.nodes"):
            load_config(_write(tmp_path, bad))

    def test_seed_override(self, tmp_path):
        cfg = load_config(_write(tmp_path, EXAMPLE1), seed_override=99)
        assert cfg.search.rng_seed == 99

    MODEL = "variant = dephasing\nrate = sine\nrate.amplitude = 1.0"

    @pytest.mark.parametrize("old, new, field", [
        ("enabled = true", "enabled = true\ndivisibility_tol = nan", "measures.divisibility_tol"),
        ("enabled = true", "enabled = true\ndivisibility_tol = inf", "measures.divisibility_tol"),
        ("rate.amplitude = 1.0", "rate.amplitude = abc", "model.rate.amplitude"),
        ("rate.amplitude = 1.0", "rate.amplitude = nan", "model.rate.amplitude"),
        (MODEL, "variant = trace_replacement\nomega = bloch_z_sine\nomega.scale = abc",
         "model.omega.scale"),
        (MODEL, "variant = spin_boson\nkernel.coupling = abc", "model.kernel.coupling"),
        (MODEL, "variant = spin_boson\nkernel.coupling = -1", "model.kernel"),
        (MODEL, "variant = spin_boson\nkernel = table\nkernel.times = 0.5,9\nkernel.values = 1,1",
         "model.kernel.times"),
        (MODEL, "variant = spin_boson\nkernel = table\nkernel.times = 0,1\nkernel.values = 1,1",
         "model.kernel.times"),
        (MODEL, "variant = gksl\nhamiltonian = sigma_z:abc", "model.hamiltonian"),
        ("rate.amplitude = 1.0", "rate.amplitude = 1.0\nrate.amplitude = 2.0", "config"),
        ("[model]\n", "", "config"),
        ("rng_seed = 7", "rng_seed = -1", "search.rng_seed"),
        (MODEL, "variant = dephasing\nrate = table\nrate.times = 0,2,1,7\nrate.values = 1,1,1,1",
         "model.rate.times"),
        (MODEL, "variant = dephasing\nrate = table\nrate.times = 0,1,1,7\nrate.values = 1,1,1,1",
         "model.rate.times"),
        # np.interp would hold the end values of a short table: a rate never given
        (MODEL, "variant = dephasing\nrate = table\nrate.times = 0,1\nrate.values = 1,-1",
         "model.rate.times"),
        (MODEL, "variant = dephasing\nrate = table\nrate.times = 0.5,7\nrate.values = 1,-1",
         "model.rate.times"),
        (MODEL, "variant = gksl\nnoise.1.op = sigma_z\nnoise.1.rate = constant\n"
                "noise.2.op = sigma_minus\nnoise.2.rate = table\nnoise.2.rate.times = 0,1\n"
                "noise.2.rate.values = 1,1", "model.noise.2.rate.times"),
        ("enabled = true", "enabled = true\nwitness = ture", "measures.witness"),
        ("enabled = true", "enabled =", "measures.enabled"),
        ("rng_seed = 7", "seed = 7", "search.seed"),
        ("enabled = true", "enabled = true\nwitnes = false", "measures.witnes"),
        ("rate.amplitude = 1.0", "rat.amplitude = 3", "model.rat.amplitude"),
        (MODEL, MODEL + "\nkernel.coupling = 4.0", "model.kernel.coupling"),
        ("[output]", "[outptu]", "outptu.prefix"),
        ("rate = sine", "rate = cosine", "model.rate"),
        (MODEL, "variant = spin_boson\nkernel = gaussian", "model.kernel"),
        (MODEL, "variant = gksl\nnoise.1.op = sigma_z\nnoise.1.rate = cosine",
         "model.noise.1.rate"),
        ("variant = dephasing", "variant = amplitude_damping", "model.variant"),
        (MODEL, "variant = dephasing\nrate = table\nrate.times = 0,7\nrate.values = 1,1,1",
         "model.rate.times"),
        (MODEL, "variant = gksl", "model.noise"),
        ("seeds = 16", "seeds = 0", "search"),
        ("iterations = 30", "iterations = -3", "search"),
    ], ids=["tol_nan", "tol_inf", "amplitude_abc", "amplitude_nan", "omega_scale_abc",
            "coupling_abc", "coupling_negative", "table_after_zero", "table_before_t_max",
            "hamiltonian_abc", "duplicate_option",
            "no_section_header", "negative_seed", "rate_table_unsorted", "rate_table_repeated",
            "rate_table_ends_early", "rate_table_starts_late", "noise_rate_table_ends_early",
            "flag_misspelt", "flag_empty", "unknown_search_key", "unknown_measures_key",
            "unknown_model_key", "key_of_another_variant", "unknown_section",
            "unknown_rate_preset", "unknown_kernel_preset", "unknown_noise_rate_preset",
            "unknown_variant", "table_lengths_differ", "gksl_without_terms", "seeds_zero",
            "iterations_negative"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, old, new, field):
        cfg_path = _write(tmp_path, EXAMPLE1.replace(old, new, 1))
        assert main(["verdict", "--config", cfg_path, "--out", str(tmp_path), "--quiet"]) == 2
        assert f"invalid configuration: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, slot, cls", [
        ("variant = dephasing\nrate = constant", "rate", Constant),
        ("variant = dephasing\nrate = sine", "rate", Sine),
        ("variant = dephasing\nrate = offset_sine", "rate", OffsetSine),
        ("variant = gksl\nnoise.1.op = sigma_z\nnoise.1.rate = constant", "noise", Constant),
        ("variant = gksl\nnoise.1.op = sigma_z\nnoise.1.rate = sine", "noise", Sine),
        ("variant = gksl\nnoise.1.op = sigma_z\nnoise.1.rate = offset_sine", "noise", OffsetSine),
        ("variant = trace_replacement\nomega = bloch_z_sine", "target", BlochZSineTarget),
        ("variant = spin_boson\nkernel = exponential", "kernel", ExponentialKernel),
    ], ids=["constant", "sine", "offset_sine", "noise_constant", "noise_sine",
            "noise_offset_sine", "bloch_z_sine", "exponential"])
    def test_preset_without_keys_takes_the_class_defaults(self, section, slot, cls):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(f"[model]\n{section}")
        model = config.parse_model(parser["model"])
        assert (model.noise[0][1] if slot == "noise" else getattr(model, slot)) == cls()

    def test_rate_table_may_end_at_t_max(self, tmp_path):
        text = EXAMPLE1.replace(self.MODEL, "variant = dephasing\nrate = table\n"
                                "rate.times = 0,6.283185307179586\nrate.values = 1,-1")
        assert isinstance(load_config(_write(tmp_path, text)).model.rate, Table)

    @pytest.mark.parametrize("old, new, flag, field", [
        ("kind = analytic", "kind = analytc", ["--backend", "numeric"], "backend.kind"),
        ("rng_seed = 7", "rng_seed = -1", ["--seed", "3"], "search.rng_seed"),
        # the first unread key is named, so `directory` must count as read under --out
        ("prefix = run", "prefix = run\ndirectory = out\ndirectroy = out", [],
         "output.directroy"),
    ], ids=["backend", "seed", "out"])
    def test_overridden_keys_are_still_read(self, tmp_path, capsys, old, new, flag, field):
        cfg_path = _write(tmp_path, EXAMPLE1.replace(old, new, 1))
        argv = ["verdict", "--config", cfg_path, "--out", str(tmp_path), "--quiet", *flag]
        assert main(argv) == 2
        assert f"invalid configuration: {field}:" in capsys.readouterr().err

    def test_measure_flags_take_the_configparser_booleans(self, tmp_path):
        text = EXAMPLE1.replace("enabled = true",
                                "enabled = Yes\nrhp = off\nwitness = 0\nblp = ON")
        cfg = load_config(_write(tmp_path, text))
        flags = (cfg.measures_enabled, cfg.measure_rhp, cfg.measure_witness, cfg.measure_blp)
        assert flags == (True, False, False, True)

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.ini"
        path.write_bytes(EXAMPLE1.encode().replace(b"run", b"r\xffn"))
        assert main(["verdict", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        assert "invalid configuration: config:" in capsys.readouterr().err

    def test_values_read_literally(self, tmp_path):
        cfg = load_config(_write(tmp_path, EXAMPLE1.replace("prefix = run", "prefix = 50%run")))
        assert cfg.prefix == "50%run"

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, EXAMPLE1)
        assert main(["verdict", "--config", cfg_path, "--out", str(tmp_path), "--seed", "-1",
                     "--quiet"]) == 2
        assert "search.rng_seed" in capsys.readouterr().err


def _readme_descriptors():
    """The descriptors of the README witness table, in table order."""
    return re.findall(r"^\| `([a-z_]+\(.*\))` \|", ROOT.joinpath("README.md").read_text(),
                      flags=re.M)


def _assert_same_spec(got, want):
    assert type(got) is type(want)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
        np.testing.assert_array_equal(a, b, err_msg=f.name)


class TestWitnessKindTable:
    """Every row of the descriptor table against the README."""

    P_PLUS, P_MINUS = projector(KET_PLUS), projector(KET_MINUS)
    MAXMIXED = 0.5 * PAULI_I
    XY = 0.5 * np.kron(PAULI_X, PAULI_Y)
    # The spec each README example builds: the class and its arguments, spelled out.
    EXPECTED = {
        "trace_norm_extended": ExtendedTraceNormWitness(XY),
        "dual_operator_norm": DualOperatorNormWitness(XY),
        "trace_norm_plain": PlainTraceNormWitness(PAULI_X),
        "blp": InformationFlowPair(P_PLUS, P_MINUS),
        "relative_entropy": RelativeEntropyPair(P_PLUS, MAXMIXED),
        "renyi": RenyiPair(P_PLUS, MAXMIXED, alpha=0.5),
        "tsallis": TsallisPair(P_PLUS, MAXMIXED, q=0.5),
        "fidelity": FidelityPair(P_PLUS, MAXMIXED),
        "overlap": InvariantOverlap(projector(KET1), KET0),
        "skew_schrodinger": SchrodingerSkew(P_PLUS, PAULI_Z, exponent=0.5),
        "skew_heisenberg": HeisenbergSkew(projector(KET0), PAULI_X, exponent=0.5),
    }

    def test_readme_table_names_every_kind_once(self):
        kinds = [d.split("(")[0] for d in _readme_descriptors()]
        assert sorted(kinds) == sorted(set(kinds)) == sorted(config._WITNESS_KINDS)
        assert set(self.EXPECTED) == set(config._WITNESS_KINDS)

    @pytest.mark.parametrize("descriptor", _readme_descriptors())
    def test_readme_example_builds_the_spec(self, descriptor):
        kind = descriptor.split("(")[0]
        _assert_same_spec(parse_witness_descriptor(descriptor), self.EXPECTED[kind])

    @pytest.mark.parametrize("descriptor", _readme_descriptors())
    def test_omitted_keyword_takes_the_readme_value(self, descriptor):
        keywords = config._WITNESS_KINDS[descriptor.split("(")[0]][2]
        shown = dict(re.findall(r"([a-z]+)=([0-9.]+)", descriptor))
        assert set(shown) == set(keywords)
        bare = re.sub(r",[a-z]+=[0-9.]+", "", descriptor)
        spec = parse_witness_descriptor(bare)
        for key, value in shown.items():
            assert getattr(spec, keywords[key]) == float(value)

    @pytest.mark.parametrize("descriptor", _readme_descriptors())
    def test_missing_positional_argument_exits_2(self, tmp_path, capsys, descriptor):
        kind, body = descriptor[:-1].split("(")
        tokens = body.split(",")
        last = max(i for i, token in enumerate(tokens) if "=" not in token)
        short = f"{kind}({','.join(tokens[:last] + tokens[last + 1:])})"
        with pytest.raises(ConfigError, match="witnesses.specs: missing"):
            parse_witness_descriptor(short)
        text = EXAMPLE1.replace("blp(plus,minus)", short, 1)
        assert main(["verdict", "--config", _write(tmp_path, text), "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert "invalid configuration: witnesses.specs:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["trace_norm_extended", "dual_operator_norm"])
    def test_pauli_argument_needs_its_prefix(self, tmp_path, capsys, kind):
        text = EXAMPLE1.replace("blp(plus,minus)", f"{kind}(xx)", 1)
        assert main(["verdict", "--config", _write(tmp_path, text), "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert "invalid configuration: witnesses.specs:" in capsys.readouterr().err

    REPLACEMENT = EXAMPLE1.replace("variant = dephasing", "variant = trace_replacement")

    def test_omega_takes_any_state_preset(self, tmp_path):
        text = self.REPLACEMENT.replace("rate = sine", "omega = plus\nrate = sine")
        cfg = load_config(_write(tmp_path, text))
        np.testing.assert_array_equal(cfg.model.target.matrix, self.P_PLUS)

    def test_unknown_omega_exits_2(self, tmp_path, capsys):
        text = self.REPLACEMENT.replace("rate = sine", "omega = bogus\nrate = sine")
        assert main(["verdict", "--config", _write(tmp_path, text), "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert "invalid configuration: model.omega:" in capsys.readouterr().err

    def test_readme_preset_lists_match_the_tables(self):
        text = " ".join(ROOT.joinpath("README.md").read_text().split())
        listed = lambda head: set(re.findall(r"`([a-z_]+)`", text.split(head, 1)[1]
                                             .split(".", 1)[0]))
        assert listed("State presets:") == set(config._STATES)
        assert listed("Observable presets:") == set(config._OBSERVABLES)
        assert set(config._KETS) == set(config._STATES) - {"maxmixed"}

    def test_every_preset_model_echo_parses_back_to_itself(self):
        # the report's model echo, written back as a [model] section, gives a
        # model with the same echo
        models = [
            Dephasing(Constant(0.5)),
            Dephasing(Sine(1.0, 2.0, 0.25)),
            Dephasing(OffsetSine(0.5, 1.0, 3.0, -0.5)),
            Dephasing(Table((0.0, 1.0, 2.0), (1.0, -1.0, 0.5))),
            TraceReplacement(Constant(1.0), ConstantTarget(config._STATES["plus"])),
            TraceReplacement(Sine(1.0), BlochZSineTarget(1.2, 0.5)),
            SpinBoson(ExponentialKernel(4.0, 1.0)),
            SpinBoson(Table(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25]))),
            Lindblad(hamiltonian=0.5 * SIGMA_Z, noise=((SIGMA_MINUS, OffsetSine(0.2, 1.0)),
                                                       (SIGMA_Z, Sine(0.5))), dim=2),
            Lindblad(hamiltonian=-1.5 * SIGMA_X, noise=(), dim=2),
            Lindblad(hamiltonian=None, noise=((SIGMA_Z, Table((0.0, 4.0), (1.0, -0.5))),), dim=2),
            Lindblad(hamiltonian=None, noise=((SIGMA_MINUS, Constant(2.0)),), dim=2),
        ]
        presets = set()
        for model in models:
            echo = describe_model(model)
            parser = configparser.ConfigParser(interpolation=None)
            parser.read_string(_model_section(echo))
            assert describe_model(config.parse_model(parser["model"])) == echo
            scalars = [echo.get(key) for key in ("rate", "kernel", "target")]
            presets |= {echo["variant"]} | {fields["preset"] for fields in scalars if fields}
            presets |= {term["rate"]["preset"] for term in echo.get("noise", ())}
        assert presets == {"dephasing", "trace_replacement", "spin_boson", "gksl", "constant",
                           "sine", "offset_sine", "table", "bloch_z_sine", "exponential"}


class TestPipeline:
    def test_example1_report(self, tmp_path):
        cfg_path = _write(tmp_path, EXAMPLE1)
        out = tmp_path / "out"
        assert main(["report", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["verdict"]["markovian"] is False
        assert report["measures"]["rhp"] == pytest.approx(2.0, abs=1e-2)
        assert report["measures"]["witness"]["value"] == pytest.approx(
            1.0 - np.exp(-2.0), abs=1e-3)
        assert report["measures"]["blp"]["value"] == pytest.approx(
            1.0 - np.exp(-2.0), abs=1e-3)
        assert (out / "run_trajectory.traj").exists()
        assert len(report["witness_series_files"]) == 2

    def test_markovian_report(self, tmp_path):
        cfg_path = _write(tmp_path, MARKOVIAN)
        out = tmp_path / "out"
        assert main(["report", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["verdict"]["markovian"] is True
        assert report["measures"]["rhp"] == 0.0
        assert report["measures"]["witness"]["value"] == 0.0
        assert report["measures"]["blp"]["value"] == 0.0

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = EXAMPLE1.replace("t_max = 6.283185307179586", "t_max = -1")
        assert main(["report", "--config", _write(tmp_path, bad), "--quiet"]) == 2
        assert "t_max" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        config = """
[model]
variant = spin_boson
kernel = exponential
kernel.coupling = 4.0
kernel.rate = 1.0

[grid]
t_max = 10.0
nodes = 16

[backend]
kind = numeric

[measures]
enabled = false

[output]
prefix = sb
"""
        assert main(["report", "--config", _write(tmp_path, config), "--quiet"]) == 3
        assert "evolve" in capsys.readouterr().err

    def test_integration_past_the_budget_exit_code(self, tmp_path, capsys):
        # too stiff for RK4 at every refinement within dynamics.STEP_STACK_BUDGET
        config = MARKOVIAN.replace("rate.value = 1.0", "rate.value = 1e6").replace(
            "nodes = 257", "nodes = 65").replace("kind = analytic", "kind = numeric")
        assert main(["report", "--config", _write(tmp_path, config), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure in evolve: trajectory integration failed" in err

    @pytest.mark.parametrize("backend", ["analytic", "numeric"])
    def test_spin_boson_probe_stops_at_the_first_zero_of_g(self, tmp_path, capsys, backend):
        # the INI of perfbench/workloads/spin_boson_probe.ini
        cfg_path = _write(tmp_path, SPIN_BOSON_PROBE)
        assert main(["report", "--config", cfg_path, "--out", str(tmp_path / "out"),
                     "--backend", backend, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure in measure:rhp: G changes sign between t=1.46 and t=1.465" in err

    def test_search_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def failing(traj, spec):
            raise FloatingPointError("objective failed in a search")

        monkeypatch.setattr(measures, "series", failing)
        cfg_path = _write(tmp_path, EXAMPLE1)
        assert main(["report", "--config", cfg_path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure in measure:witness: objective failed in a search" in err

    def test_witness_search_takes_the_verdict_tolerance(self, tmp_path, monkeypatch):
        # At rate 1e-7 only a tolerance below the default finds the window; the
        # witness search seeds from the steps that the verdict judges violating.
        tols = []
        search = cli.witness_measure

        def record(traj, search_cfg, steps, tol):
            tols.append(tol)
            return search(traj, search_cfg, steps, tol)

        monkeypatch.setattr(cli, "witness_measure", record)
        text = EXAMPLE1.replace("rate.amplitude = 1.0", "rate.amplitude = 1e-7").replace(
            "enabled = true", "enabled = true\ndivisibility_tol = 1e-10")
        out = tmp_path / "out"
        assert main(["report", "--config", _write(tmp_path, text), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert tols == [1e-10]
        assert len(report["verdict"]["violation_intervals"]) == 1
        assert report["measures"]["witness"]["value"] > 0.0

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg_path = _write(tmp_path, EXAMPLE1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["report", "--config", cfg_path, "--out", str(out1), "--quiet"]) == 0
        assert main(["report", "--config", cfg_path, "--out", str(out2), "--quiet"]) == 0
        strip = lambda p: re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""',
                                 (p / "run_report.json").read_text())
        assert strip(out1) == strip(out2)

    def test_csv_format(self, tmp_path):
        cfg_path = _write(tmp_path, EXAMPLE1)
        out = tmp_path / "out"
        main(["witness", "--config", cfg_path, "--out", str(out), "--quiet"])
        csv_path = next(out.glob("run_witness_0_*.csv"))
        lines = csv_path.read_text().split("\n")
        assert lines[0] == "t,value,violating"
        assert lines[-1] == ""  # newline-terminated
        t_str, value_str, flag = lines[1].split(",")
        assert flag in ("0", "1")
        # 17 significant digits round-trip exactly
        assert float(t_str) == float(f"{float(t_str):.17g}")
        assert re.fullmatch(r"-?\d+(\.\d+)?(e[+-]?\d+)?", value_str)

    def test_csv_writer_matches_csv_module(self, tmp_path):
        fmt = lambda x: f"{float(x):.17g}"
        values = np.array([0.1, np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1 / 3, 2.0])
        times = np.linspace(0, 1, values.size)
        flags = values > 0
        cells = ["" if w != w else "%.17g" % w for w in values.tolist()]
        cases = [  # (row format, columns, the same rows as csv-module cells)
            ("%.17g,%s,%d", (times, cells, flags),
             [[fmt(t), "" if np.isnan(w) else fmt(w), int(bad)]
              for t, w, bad in zip(times, values, flags)]),
            ("%.17g,%.17g,%d", (times, values, flags),
             [[fmt(t), fmt(v), int(bad)] for t, v, bad in zip(times, values, flags)]),
            ("%.17g,%.17g,%d", (times[:0], values[:0], flags[:0]), []),
        ]
        header = ["t", "value", "flag"]
        for row_format, columns, rows in cases:
            cli._write_csv(tmp_path / "new.csv", header, row_format, *columns)
            with open(tmp_path / "reference.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            written = (tmp_path / "new.csv").read_bytes()
            assert written == (tmp_path / "reference.csv").read_bytes()
        assert written == b"t,value,flag\n"

    def test_simulate_writes_trajectory_only(self, tmp_path):
        cfg_path = _write(tmp_path, EXAMPLE1)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        assert (out / "run_trajectory.traj").exists()
        assert not (out / "run_report.json").exists()


class TestImport:
    def test_import_round_trip_same_verdict(self, tmp_path):
        cfg_path = _write(tmp_path, EXAMPLE1)
        out = tmp_path / "out"
        main(["report", "--config", cfg_path, "--out", str(out), "--quiet"])
        imported = tmp_path / "imported"
        code = main(["import", str(out / "run_trajectory.traj"),
                     "--config", cfg_path, "--out", str(imported), "--quiet"])
        assert code == 0
        original = json.loads((out / "run_report.json").read_text())
        loaded = json.loads((imported / "run_report.json").read_text())
        assert original["verdict"] == loaded["verdict"]

    def test_import_bit_exact_round_trip(self, tmp_path):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 65))
        path = tmp_path / "t.traj"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        save_trajectory(loaded, tmp_path / "t2.traj")
        assert (tmp_path / "t.traj").read_bytes() == (tmp_path / "t2.traj").read_bytes()

    def test_import_rejects_tampered_file(self, tmp_path, capsys):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 1, 17))
        traj.maps[7, 0, 0] = 3.0
        path = tmp_path / "bad.traj"
        save_trajectory(traj, path)
        cfg_path = _write(tmp_path, EXAMPLE1)
        assert main(["import", str(path), "--config", cfg_path, "--quiet"]) == 2
        assert "node 7" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_import_rejects_non_finite_maps(self, tmp_path, capsys, bad):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 1, 17))
        traj.maps[7, 1, 2] = bad
        path = tmp_path / "bad.traj"
        save_trajectory(traj, path)
        cfg_path = _write(tmp_path, EXAMPLE1)
        assert main(["import", str(path), "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert "node 7" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_import_rejects_too_few_nodes(self, tmp_path, capsys, nodes):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 1, 17))
        short = Trajectory(times=traj.times[:nodes], maps=traj.maps[:nodes])
        path = tmp_path / "short.traj"
        save_trajectory(short, path)
        cfg_path = _write(tmp_path, EXAMPLE1)
        assert main(["import", str(path), "--config", cfg_path, "--quiet"]) == 2
        assert f"{nodes} nodes, fewer than 16" in capsys.readouterr().err

    def test_import_without_model_section(self, tmp_path):
        traj = evolve(Dephasing(rate=Sine(1.0)), np.linspace(0, 2 * np.pi, 65))
        path = tmp_path / "t.traj"
        save_trajectory(traj, path)
        minimal = """
[witnesses]
specs = blp(plus,minus)

[measures]
enabled = false

[output]
prefix = imp
"""
        cfg_path = _write(tmp_path, minimal)
        out = tmp_path / "out"
        assert main(["import", str(path), "--config", cfg_path,
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "imp_report.json").read_text())
        assert report["verdict"]["markovian"] is False

    def test_import_rejects_witness_of_another_dimension(self, tmp_path, capsys):
        model = TraceReplacement(Constant(1.0), ConstantTarget(np.eye(3) / 3))
        path = tmp_path / "qutrit.traj"
        save_trajectory(evolve(model, np.linspace(0, 1, 17)), path)
        cfg_path = _write(tmp_path, "[witnesses]\nspecs = trace_norm_extended(pauli:xx)\n")
        out = tmp_path / "out"
        assert main(["import", str(path), "--config", cfg_path, "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "witnesses.specs" in err and "trace_norm_extended(pauli:xx)" in err
        assert "dimension 2" in err and "on 3" in err
        assert not out.exists()

    def test_import_echoes_file_model_and_skips_rhp(self, tmp_path):
        model = TraceReplacement(Constant(1.0), BlochZSineTarget(1.2))
        path = tmp_path / "example2.traj"
        save_trajectory(evolve(model, np.linspace(0, 2 * np.pi, 129)), path)
        with_model = EXAMPLE1.replace("enabled = true", "witness = false\nblp = false")
        without_model = re.sub(r"\[model\].*?\n\n", "", with_model, flags=re.S)
        assert "[model]" in with_model and "[model]" not in without_model
        outs = {}
        for name, text in (("with", with_model), ("without", without_model)):
            outs[name] = tmp_path / name
            assert main(["import", str(path), "--config", _write(tmp_path, text, f"{name}.ini"),
                         "--out", str(outs[name]), "--quiet"]) == 0
        reports = {name: json.loads((out / "run_report.json").read_text())
                   for name, out in outs.items()}
        report = reports["with"]
        assert report["model"] == load_trajectory(path).meta
        assert report["model"]["variant"] == "trace_replacement"
        assert report["measures"]["rhp"] is None
        assert not list(outs["with"].glob("*_rhp_rate.csv"))
        assert report["verdict"] == reports["without"]["verdict"]
        csvs = sorted(p.name for p in outs["with"].glob("*_witness_*.csv"))
        assert len(csvs) == 2
        for name in csvs:
            assert (outs["with"] / name).read_bytes() == (outs["without"] / name).read_bytes()


def test_python_m_nonmarkov_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "nonmarkov", "--version"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"nonmarkov {__version__}"


SCIPY_GUARD = """
import json, sys
from pathlib import Path

def loaded():
    return {name: name in sys.modules for name in ("scipy.integrate", "scipy.interpolate")}

import nonmarkov.cli as cli
seen = {"import": loaded()}
config, out = sys.argv[1], Path(sys.argv[2])
assert cli.main(["report", "--config", config, "--out", str(out / "analytic"), "--quiet"]) == 0
seen["analytic_report"] = loaded()
assert cli.main(["import", str(out / "analytic" / "run_trajectory.traj"), "--config", config,
                 "--out", str(out / "imported"), "--quiet"]) == 0
seen["import_trajectory"] = loaded()
assert cli.main(["report", "--config", config, "--out", str(out / "numeric"),
                 "--backend", "numeric", "--quiet"]) == 0
seen["numeric_report"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_loaded_only_by_the_numeric_backend(tmp_path):
    cfg_path = _write(tmp_path, EXAMPLE1.replace("enabled = true", "enabled = false"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", SCIPY_GUARD, cfg_path, str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    neither = {"scipy.integrate": False, "scipy.interpolate": False}
    assert seen["import"] == neither
    assert seen["analytic_report"] == neither
    assert seen["import_trajectory"] == neither
    # the numeric backend chains RK4 step maps in numpy: it loads scipy no longer either
    assert seen["numeric_report"] == neither


SPIN_BOSON_PROBE = """
[model]
variant = spin_boson
kernel = exponential
kernel.coupling = 4.0
kernel.rate = 1.0

[grid]
t_max = 10.0
nodes = 2001

[witnesses]
specs = trace_norm_extended(pauli:xx); blp(plus,minus); relative_entropy(plus,maxmixed); fidelity(plus,maxmixed)

[measures]
witness = false
blp = false

[output]
prefix = spin_boson
"""


# an overdamped kernel: G never vanishes, so both backends report
OVERDAMPED_SPIN_BOSON = SPIN_BOSON_PROBE.replace("coupling = 4.0", "coupling = 1.0").replace(
    "rate = 1.0", "rate = 4.0")


def test_spin_boson_reports_load_no_scipy(tmp_path):
    script = """
import sys
import nonmarkov.cli as cli
config, out = sys.argv[1], sys.argv[2]
for backend in ("analytic", "numeric"):
    assert cli.main(["report", "--config", config, "--out", f"{out}/{backend}",
                     "--backend", backend, "--quiet"]) == 0
print(sorted(name for name in ("scipy.integrate", "scipy.interpolate") if name in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script, _write(tmp_path, OVERDAMPED_SPIN_BOSON),
                           str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import nonmarkov.cli as cli
out, runs = sys.argv[1], json.loads(sys.argv[2])
for k, (config, backend) in enumerate(runs):
    code = cli.main(["report", "--config", config, "--out", f"{out}/{k}",
                     "--backend", backend, "--quiet"])
    assert code == 0, (config, backend, code)
assert cli.main(["import", f"{out}/0/run_trajectory.traj", "--config", runs[0][0],
                 "--out", f"{out}/imported", "--quiet"]) == 0
print("ok")
"""


def test_runs_with_scipy_blocked(tmp_path):
    off = EXAMPLE1.replace("enabled = true", "enabled = false")
    replacement = off.replace("variant = dephasing\nrate = sine\nrate.amplitude = 1.0",
                              "variant = trace_replacement\nrate = constant\nrate.value = 1.0\n"
                              "omega = bloch_z_sine\nomega.scale = 1.2")
    gksl = (ROOT / "perfbench" / "workloads" / "gksl_bank.ini").read_text().replace(
        "nodes = 2001", "nodes = 201")
    configs = {name: _write(tmp_path, text, f"{name}.ini") for name, text in [
        ("dephasing", off), ("replacement", replacement), ("gksl", gksl),
        ("spin_boson", OVERDAMPED_SPIN_BOSON)]}
    runs = [(configs[name], backend) for name in ("dephasing", "replacement", "spin_boson")
            for backend in ("analytic", "numeric")] + [(configs["gksl"], "numeric")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(tmp_path), json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
