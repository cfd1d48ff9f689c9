"""Run configuration: YAML loading, defaults, key validation, output dir."""

from pathlib import Path

import pytest
import yaml

from platoonrl.config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    resolve_output_dir,
)
from platoonrl.errors import ConfigError


class TestConfigFromDict:
    def test_empty_mapping_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.scenario.n_vehicles == 4
        assert cfg.train.gamma == 0.99
        assert cfg.reward.power_norm == 135.0
        assert cfg.vehicle.mass_kg == 1718.4
        assert cfg.ovm.d_stop == 5.0
        assert cfg.output_dir is None
        assert cfg.seeds == [0, 1, 2]

    def test_nested_overrides(self):
        cfg = config_from_dict({
            "scenario": {"n_vehicles": 6, "perturbation": {"depth": 0.8}},
            "train": {"consensus": {"protocol": "dcea", "eps": 0.05}},
            "seeds": [4, 5],
        })
        assert cfg.scenario.n_vehicles == 6
        assert cfg.scenario.perturbation.depth == 0.8
        assert cfg.train.consensus.protocol == "dcea"
        assert cfg.train.consensus.eps == 0.05
        assert cfg.seeds == [4, 5]

    def test_null_perturbation(self):
        cfg = config_from_dict({"scenario": {"perturbation": None}})
        assert cfg.scenario.perturbation is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="simulator: unknown key"):
            config_from_dict({"simulator": {}})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match=r"scenario\.speed: unknown key"):
            config_from_dict({"scenario": {"speed": 20}})

    @pytest.mark.parametrize("key", ["gear_ratio", "wheel_radius_m"])
    def test_vehicle_knob_that_no_law_reads_is_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"vehicle\.{key}: unknown key"):
            config_from_dict({"vehicle": {key: 4.0}})

    def test_unknown_consensus_key_names_path(self):
        with pytest.raises(ConfigError, match=r"train\.consensus\.rate: unknown key"):
            config_from_dict({"train": {"consensus": {"rate": 1}}})

    def test_invalid_value_names_section(self):
        with pytest.raises(ConfigError, match="scenario"):
            config_from_dict({"scenario": {"n_vehicles": 1}})

    def test_rejects_non_mapping_section(self):
        with pytest.raises(ConfigError, match="train: expected a mapping"):
            config_from_dict({"train": [1, 2]})

    def test_rejects_bad_seeds(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seeds": []})
        with pytest.raises(ConfigError):
            config_from_dict({"seeds": [-1]})
        with pytest.raises(ConfigError):
            config_from_dict({"seeds": "012"})


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = config_from_dict({
            "scenario": {"n_vehicles": 8, "v_star": 12.0},
            "train": {"total_steps": 1000},
            "output_dir": "out",
            "seeds": [7],
        })
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = config_from_dict({
            "scenario": {"leader_mode": "virtual-target", "episode_steps": 120},
            "train": {"obs_mode": "fprint"},
        })
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_load_handwritten_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "scenario:\n  n_vehicles: 4\n  d_star: 20.0\n"
            "train:\n  total_steps: 50000\n  consensus:\n    protocol: bdc\n"
            "seeds: [0, 1]\n"
        )
        cfg = load_config(path)
        assert cfg.train.total_steps == 50000
        assert cfg.seeds == [0, 1]

    def test_empty_yaml_gives_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("")
        assert load_config(path) == RunConfig()

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("scenario: [unclosed")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")


class TestResolveOutputDir:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("CACC_OUTPUT_DIR", "/tmp/envdir")
        cfg = config_from_dict({"output_dir": "cfgdir"})
        assert resolve_output_dir(cfg, "flagdir") == Path("flagdir")

    def test_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv("CACC_OUTPUT_DIR", "/tmp/envdir")
        cfg = config_from_dict({"output_dir": "cfgdir"})
        assert resolve_output_dir(cfg, None) == Path("cfgdir")

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("CACC_OUTPUT_DIR", "/tmp/envdir")
        assert resolve_output_dir(config_from_dict({}), None) == Path("/tmp/envdir")

    def test_default(self, monkeypatch):
        monkeypatch.delenv("CACC_OUTPUT_DIR", raising=False)
        assert resolve_output_dir(config_from_dict({}), None) == Path("runs")


class TestActionGains:
    """The car-following gains come from the action set, not the config."""

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_gain_key_is_rejected(self, key):
        with pytest.raises(ConfigError, match=rf"^ovm\.{key}: unknown key$"):
            config_from_dict({"ovm": {key: 0.0, "d_stop": 4.0}})

    def test_saved_config_has_no_gain_keys(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(RunConfig())))
        assert set(config_to_dict(RunConfig())["ovm"]) == {"d_stop", "d_go", "v_max"}
        assert "alpha" not in path.read_text() and "beta" not in path.read_text()
        assert load_config(path) == RunConfig()


class TestFieldTypes:
    """Each field takes its declared type; the error names the field path."""

    @pytest.mark.parametrize("raw, message", [
        ({"scenario": {"n_vehicles": 4.5}}, r"scenario\.n_vehicles: expected an integer"),
        ({"scenario": {"episode_steps": 20.5}}, r"scenario\.episode_steps: expected an integer"),
        ({"train": {"eval_seeds": 2.5}}, r"train\.eval_seeds: expected an integer"),
        ({"train": {"consensus": {"period": 1.5}}},
         r"train\.consensus\.period: expected an integer"),
        ({"scenario": {"n_vehicles": True}}, r"scenario\.n_vehicles: expected an integer"),
        ({"scenario": {"d_star": float("inf")}}, r"scenario\.d_star: expected a finite number"),
        ({"reward": {"w_power": float("nan")}}, r"reward\.w_power: expected a finite number"),
        ({"scenario": {"perturbation": {"depth": True}}},
         r"scenario\.perturbation\.depth: expected a finite number"),
        ({"train": {"normalize_advantages": 1}},
         r"train\.normalize_advantages: expected true or false"),
        ({"seeds": [True]}, "seeds must be non-negative integers"),
    ])
    def test_wrong_type_is_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_int_value_for_float_field(self):
        assert config_from_dict({"scenario": {"d_star": 25}}).scenario.d_star == 25
