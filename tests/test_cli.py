"""Command line interface: exit codes, emitted files, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from platoonrl.cli import main
from platoonrl.consensus import comm_bits_per_round
from platoonrl.nn import init_agent_net, save_params

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli("simulate") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli("fit-energy", "--turbo") == 1
        assert "error:" in capsys.readouterr().err

    def test_train_requires_config(self, capsys):
        assert run_cli("train") == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["fit-energy", "train", "eval", "replay", "consensus-bench", "sweep-size"]
    )
    def test_bad_config_key(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("simulator: {}\n")
        assert run_cli(command, "--config", str(cfg), "--output-dir", "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key" in err
        assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"], "no output directory"

    @pytest.mark.parametrize(
        "flags",
        [("--trace",), ("--window",), ("--trace", "--window"), ("--leader-col",),
         ("--trace", "--window", "--leader-col")],
        ids=["trace", "window", "both", "leader-col", "all"],
    )
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_trace_flags_need_trace_replay(
        self, command, flags, tiny_config, trace_20s, tmp_path, capsys
    ):
        # tiny_config's leader follows its virtual target, so a trace, a
        # window or a leader column there would be ignored.
        values = {"--trace": str(trace_20s), "--window": "1:10", "--leader-col": "v2"}
        out = tmp_path / "tv"
        argv = [command, "--config", str(tiny_config), "--output-dir", str(out)]
        for flag in flags:
            argv += [flag, values[flag]]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scenario.leader_mode: trace-replay" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unknown_protocol_override_is_config_error(self, tiny_config, tmp_path, capsys):
        code = run_cli(
            "train", "--config", str(tiny_config), "--protocol", "foo",
            "--output-dir", str(tmp_path / "p"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'foo'" in err
        assert len(err.strip().splitlines()) == 1

    def test_ovm_gain_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "gains.yaml"
        cfg.write_text(
            "ovm: {alpha: 0.0, beta: 2.0}\n"
            "scenario: {n_vehicles: 2, episode_steps: 40}\n"
            "train: {total_steps: 40, eval_seeds: 1}\n"
        )
        code = run_cli("train", "--config", str(cfg), "--output-dir", str(tmp_path / "g"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: ovm.alpha: unknown key\n"
        assert not (tmp_path / "g").exists()

    def test_mistyped_config_field_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "typed.yaml"
        cfg.write_text(
            "scenario: {n_vehicles: 4.5, episode_steps: 40}\n"
            "train: {total_steps: 40, eval_seeds: 1}\n"
        )
        code = run_cli("train", "--config", str(cfg), "--output-dir", str(tmp_path / "t"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: scenario.n_vehicles: expected an integer, got 4.5\n"

    @pytest.mark.parametrize("missing", ["--trace", "--window"])
    def test_replay_requires_trace_and_window(
        self, missing, tiny_config, trace_20s, tmp_path, capsys
    ):
        flags = {"--trace": str(trace_20s), "--window": "0:5"}
        del flags[missing]
        code = run_cli(
            "replay", "--config", str(tiny_config), "--output-dir", str(tmp_path / "m"),
            *(x for pair in flags.items() for x in pair),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err

    def test_fit_energy_takes_no_seed(self, tmp_path, capsys):
        # The fit is deterministic: a seed would change nothing.
        out = tmp_path / "fit"
        assert run_cli("fit-energy", "--seed", "3", "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "replay"])
    def test_missing_checkpoint_dir_is_config_error(
        self, command, tiny_config, trace_20s, tmp_path, capsys
    ):
        # An explicit directory is never replaced by untrained networks.
        missing, out = tmp_path / "no_such_ckpt", tmp_path / "out"
        argv = [command, "--config", str(tiny_config), "--output-dir", str(out),
                "--checkpoint-dir", str(missing)]
        if command == "replay":
            argv += ["--trace", str(trace_20s), "--window", "0:5"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint directory {missing} does not exist\n"
        assert not out.exists()

    def test_malformed_grid_is_usage_error(self, tmp_path, capsys):
        assert run_cli(
            "fit-energy", "--grid", "fine", "--output-dir", str(tmp_path)
        ) == 1
        assert "--grid" in capsys.readouterr().err

    def test_degenerate_grid_is_runtime_error(self, tmp_path, capsys):
        assert run_cli(
            "fit-energy", "--grid", "2x2", "--output-dir", str(tmp_path)
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_window_outside_span(self, tiny_config, trace_20s, tmp_path, capsys):
        code = run_cli(
            "replay", "--config", str(tiny_config),
            "--trace", str(trace_20s), "--window", "10:90",
            "--output-dir", str(tmp_path / "w"),
        )
        assert code == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", ["5:3", "5:5", "nan:5", "5:nan", "0:inf", "5:", "5", "1:2:3"]
    )
    def test_replay_window_that_is_not_an_interval(
        self, window, tiny_config, trace_20s, tmp_path, capsys
    ):
        # A window that does not parse to finite t0 < t1 is a usage error,
        # whatever the trace holds.
        out = tmp_path / "w"
        code = run_cli(
            "replay", "--config", str(tiny_config),
            "--trace", str(trace_20s), "--window", window, "--output-dir", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: --window expects finite t0:t1 with t0 < t1, got {window!r}\n"
        )
        assert not out.exists()

    def test_replay_missing_trace_file(self, tiny_config, tmp_path, capsys):
        code = run_cli(
            "replay", "--config", str(tiny_config),
            "--trace", str(tmp_path / "absent.csv"),
            "--window", "0:5", "--output-dir", str(tmp_path / "m"),
        )
        assert code == 2

    def test_replay_trace_with_a_repeated_column(self, tiny_config, trace_20s, tmp_path, capsys):
        lines = trace_20s.read_text().splitlines()
        trace = tmp_path / "repeated.csv"
        trace.write_text("\n".join(["time,v1,v1"] + lines[1:]) + "\n")
        code = run_cli(
            "replay", "--config", str(tiny_config), "--trace", str(trace),
            "--window", "0:5", "--output-dir", str(tmp_path / "r"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeated column 'v1'" in err


class TestFitEnergy:
    def test_writes_coefficient_table(self, tmp_path, capsys):
        assert run_cli(
            "fit-energy", "--grid", "21x21", "--output-dir", str(tmp_path)
        ) == 0
        assert "rmse_kw=" in capsys.readouterr().out
        lines = (tmp_path / "energy_poly.csv").read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "p00" and header[-1] == "p44" and len(header) == 25
        coeffs = [float(c) for c in lines[1].split(",")]
        assert len(coeffs) == 25
        assert all(np.isfinite(coeffs))


class TestTrainCli:
    def test_writes_log_and_checkpoints(self, tiny_config, tmp_path, capsys):
        assert run_cli("train", "--config", str(tiny_config)) == 0
        out = capsys.readouterr().out
        assert "train: seed=0" in out and "wall_s=" in out
        run_dir = tmp_path / "runs"
        log = run_dir / "train_log_seed0.csv"
        lines = log.read_text().splitlines()
        assert lines[0] == "episode,steps,mean_reward,collisions,comm_bits_cum"
        assert len(lines) == 3, "80 steps at 40 per episode"
        ckpt = run_dir / "checkpoints" / "seed0"
        assert (ckpt / "agent0.npz").exists()
        assert (ckpt / "agent1.npz").exists()

    def test_logs_byte_identical_across_runs(self, tiny_config, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "train", "--config", str(tiny_config),
                "--output-dir", str(tmp_path / sub),
            ) == 0
        a = (tmp_path / "a" / "train_log_seed0.csv").read_bytes()
        b = (tmp_path / "b" / "train_log_seed0.csv").read_bytes()
        assert a == b

    def test_outputs_do_not_depend_on_blas_threads(self, tiny_config, tmp_path):
        # One BLAS thread or two, in fresh processes: the same log and
        # checkpoint bytes.
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-m", "platoonrl.cli", "train",
                 "--config", str(tiny_config), "--output-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append({
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
            })
        assert len(outputs[0]) == 3, "one log and two checkpoints"
        assert outputs[0] == outputs[1]

    def test_steps_override(self, tiny_config, tmp_path):
        assert run_cli(
            "train", "--config", str(tiny_config), "--steps", "40",
            "--output-dir", str(tmp_path / "short"),
        ) == 0
        lines = (tmp_path / "short" / "train_log_seed0.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_seed_override(self, tiny_config, tmp_path):
        assert run_cli(
            "train", "--config", str(tiny_config), "--seed", "5",
            "--output-dir", str(tmp_path / "s5"),
        ) == 0
        assert (tmp_path / "s5" / "train_log_seed5.csv").exists()

    def test_protocol_override_changes_bits(self, tiny_config, tmp_path):
        for sub, protocol in (("p1", "bdc"), ("p2", "wac")):
            assert run_cli(
                "train", "--config", str(tiny_config), "--protocol", protocol,
                "--output-dir", str(tmp_path / sub),
            ) == 0
        bits = {}
        for sub in ("p1", "p2"):
            last = (tmp_path / sub / "train_log_seed0.csv").read_text().splitlines()[-1]
            bits[sub] = int(last.split(",")[-1])
        assert bits["p1"] * 16 == bits["p2"]


class TestEvalCli:
    def test_eval_after_train(self, tiny_config, tmp_path, capsys):
        assert run_cli("train", "--config", str(tiny_config)) == 0
        assert run_cli("eval", "--config", str(tiny_config)) == 0
        out = capsys.readouterr().out
        assert "using checkpoints from" in out
        lines = (tmp_path / "runs" / "eval_report.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "seed"
        assert len(lines) == 4, "two eval seeds plus aggregate"
        assert lines[-1].startswith("all,")

    def test_checkpoint_obs_mode_mismatch_is_config_error(self, tiny_config, capsys):
        # ia2c checkpoints take 15 observation values; fprint gives 23
        assert run_cli("train", "--config", str(tiny_config)) == 0
        capsys.readouterr()
        assert run_cli("eval", "--config", str(tiny_config), "--obs-mode", "fprint") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "agent0.npz" in err and "'fprint'" in err

    @pytest.mark.parametrize(
        "defect", ["one parameter short", "no hidden_dim", "float obs_dim", "complex flat"]
    )
    def test_bad_checkpoint_is_data_error(self, defect, tiny_config, tmp_path, capsys):
        assert run_cli("train", "--config", str(tiny_config)) == 0
        path = tmp_path / "runs" / "checkpoints" / "seed0" / "agent1.npz"
        with np.load(path) as data:
            entries = dict(data)
        if defect == "one parameter short":
            entries["flat"] = entries["flat"][:-1]
        elif defect == "float obs_dim":
            entries["obs_dim"] = entries["obs_dim"] + 0.9
        elif defect == "complex flat":
            entries["flat"] = entries["flat"] + 1j
        else:
            del entries["hidden_dim"]
        np.savez(path, **entries)
        capsys.readouterr()
        assert run_cli("eval", "--config", str(tiny_config)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "agent1.npz" in err

    def test_non_finite_checkpoint_is_runtime_error(self, tiny_config, tmp_path, capsys):
        # load_params keeps non-finite values; load_checkpoints rejects them
        assert run_cli("train", "--config", str(tiny_config)) == 0
        path = tmp_path / "runs" / "checkpoints" / "seed0" / "agent1.npz"
        with np.load(path) as data:
            entries = dict(data)
        entries["flat"][0] = np.nan
        np.savez(path, **entries)
        capsys.readouterr()
        assert run_cli("eval", "--config", str(tiny_config)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert "agent1.npz" in err

    def test_agent_count_mismatch_is_config_error(self, tiny_config, capsys):
        assert run_cli("train", "--config", str(tiny_config), "--n-vehicles", "3") == 0
        capsys.readouterr()
        assert run_cli("eval", "--config", str(tiny_config), "--n-vehicles", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "3 agent checkpoints" in err and "2 agents" in err

    def test_mixed_network_sizes_are_data_error(self, tiny_config, tmp_path, capsys):
        # Evaluation stacks the agents' networks, which needs equal sizes.
        assert run_cli("train", "--config", str(tiny_config)) == 0
        capsys.readouterr()
        small = init_agent_net(15, hidden_dim=8, rng=np.random.default_rng(0))
        save_params(small, tmp_path / "runs" / "checkpoints" / "seed0" / "agent1.npz")
        assert run_cli("eval", "--config", str(tiny_config)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "agent1.npz" in err

    @pytest.mark.parametrize("n_actions", [3, 5])
    def test_wrong_action_count_is_data_error(self, n_actions, tiny_config, tmp_path, capsys):
        # The action set has four gain pairs: a policy over three would run
        # on the wrong gains, one over five would pick a gain pair that does
        # not exist.
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        rng = np.random.default_rng(0)
        for i in range(2):
            save_params(init_agent_net(15, 8, n_actions, rng), ckpt / f"agent{i}.npz")
        code = run_cli("eval", "--config", str(tiny_config), "--checkpoint-dir", str(ckpt))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "agent0.npz" in err and f"{n_actions} actions" in err

    def test_eval_without_checkpoints_uses_fresh_nets(self, tiny_config, tmp_path, capsys):
        assert run_cli(
            "eval", "--config", str(tiny_config),
            "--output-dir", str(tmp_path / "no_ckpt"),
        ) == 0
        assert "untrained networks" in capsys.readouterr().out
        assert (tmp_path / "no_ckpt" / "eval_report.csv").exists()


class TestReplayCli:
    def test_replay_outputs(self, tiny_config, trace_20s, tmp_path, capsys):
        code = run_cli(
            "replay", "--config", str(tiny_config),
            "--trace", str(trace_20s), "--window", "0:10",
            "--output-dir", str(tmp_path / "rp"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples=100" in out and "steps=99" in out

        profile_lines = (tmp_path / "rp" / "leader_profile.csv").read_text().splitlines()
        assert profile_lines[0].startswith("# source=v1:0-10 ")
        assert profile_lines[1] == "velocity_mps"
        assert len(profile_lines) == 102

        log_lines = (tmp_path / "rp" / "replay_log.csv").read_text().splitlines()
        assert log_lines[0] == (
            "step,vehicle,spacing_m,velocity_mps,accel_mps2,power_kw,reward"
        )
        assert len(log_lines) == 1 + 99 * 2, "99 steps, 2 vehicles"
        leader_row = log_lines[1].split(",")
        assert leader_row[0] == "1" and leader_row[1] == "0"
        assert leader_row[2] == "nan" and leader_row[6] == "nan"

        stats_lines = (tmp_path / "rp" / "replay_stats.csv").read_text().splitlines()
        assert len(stats_lines) == 3

    def test_leader_col_picks_the_replayed_column(self, tiny_config, trace_20s, tmp_path):
        assert run_cli(
            "replay", "--config", str(tiny_config), "--trace", str(trace_20s),
            "--window", "0:10", "--leader-col", "v2", "--output-dir", str(tmp_path / "rp"),
        ) == 0
        profile_lines = (tmp_path / "rp" / "leader_profile.csv").read_text().splitlines()
        assert profile_lines[0].startswith("# source=v2:0-10 ")

    def test_replay_deterministic(self, tiny_config, trace_20s, tmp_path):
        logs = []
        for sub in ("r1", "r2"):
            assert run_cli(
                "replay", "--config", str(tiny_config),
                "--trace", str(trace_20s), "--window", "2:8",
                "--output-dir", str(tmp_path / sub), "--n-vehicles", "2",
            ) == 0
            logs.append((tmp_path / sub / "replay_log.csv").read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("defect, code", [("one agent short", 1), ("non-finite", 2)])
    def test_failed_replay_writes_nothing(self, defect, code, tiny_config, trace_20s, tmp_path):
        # Three vehicles behind a replayed leader: two agents. The directory
        # holds one checkpoint, or two of which one has a nan parameter.
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        rng = np.random.default_rng(0)
        n_saved = 1 if defect == "one agent short" else 2
        nets = [init_agent_net(15, 8, rng=rng) for _ in range(n_saved)]
        if defect == "non-finite":
            nets[1].params[0] = np.nan
        for i, net in enumerate(nets):
            save_params(net, ckpt / f"agent{i}.npz")
        out = tmp_path / "rp"
        assert run_cli(
            "replay", "--config", str(tiny_config), "--n-vehicles", "3",
            "--trace", str(trace_20s), "--window", "0:10",
            "--checkpoint-dir", str(ckpt), "--output-dir", str(out),
        ) == code
        assert not (out / "leader_profile.csv").exists()
        assert list(out.glob("*")) == []


class TestHelp:
    @pytest.mark.parametrize("command, flags", [
        ("fit-energy", ["--config", "--output-dir", "--grid"]),
        ("train", ["--config", "--seed", "--protocol", "--steps", "--n-vehicles", "--obs-mode",
                   "--trace", "--window", "--leader-col"]),
        ("eval", ["--config", "--seed", "--n-vehicles", "--obs-mode", "--checkpoint-dir",
                  "--trace", "--window", "--leader-col"]),
        ("replay", ["--config", "--seed", "--n-vehicles", "--obs-mode", "--checkpoint-dir",
                    "--trace", "--window", "--leader-col"]),
        ("consensus-bench", ["--config", "--seed", "--protocol", "--rounds", "--n-vehicles"]),
        ("sweep-size", ["--config", "--seed", "--protocol", "--steps", "--obs-mode"]),
    ])
    def test_help_lists_the_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert f"{flag} " in out, flag


class TestConsensusBenchCli:
    def test_all_protocols(self, tiny_config, tmp_path, capsys):
        assert run_cli(
            "consensus-bench", "--config", str(tiny_config),
            "--rounds", "10", "--output-dir", str(tmp_path / "cb"),
        ) == 0
        assert "final_spread" in capsys.readouterr().out
        lines = (tmp_path / "cb" / "consensus_bench.csv").read_text().splitlines()
        assert lines[0] == "round,protocol,spread,bits_cumulative"
        assert len(lines) == 1 + 3 * 11, "three protocols, rounds 0..10"

    def test_single_protocol(self, tiny_config, tmp_path):
        assert run_cli(
            "consensus-bench", "--config", str(tiny_config),
            "--protocol", "wac", "--rounds", "5",
            "--output-dir", str(tmp_path / "cb1"),
        ) == 0
        lines = (tmp_path / "cb1" / "consensus_bench.csv").read_text().splitlines()
        assert len(lines) == 7
        assert all(line.split(",")[1] == "wac" for line in lines[1:])

    def test_counts_the_agents_behind_a_replayed_leader(self, tmp_path, capsys):
        # Four vehicles behind a replayed leader train three agents; the
        # bench mixes as many.
        cfg = tmp_path / "replay.yaml"
        cfg.write_text("scenario: {n_vehicles: 4, leader_mode: trace-replay}\nseeds: [0]\n")
        assert run_cli(
            "consensus-bench", "--config", str(cfg), "--protocol", "bdc",
            "--rounds", "1", "--output-dir", str(tmp_path / "cb3"),
        ) == 0
        assert "agents=3 " in capsys.readouterr().out
        lines = (tmp_path / "cb3" / "consensus_bench.csv").read_text().splitlines()
        assert int(lines[2].split(",")[3]) == comm_bits_per_round("bdc", 64, 3)

    def test_negative_rounds_is_config_error(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "cb2"
        assert run_cli(
            "consensus-bench", "--config", str(tiny_config),
            "--rounds", "-3", "--output-dir", str(out),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rounds" in err
        assert not (out / "consensus_bench.csv").exists()


class TestSweepSizeCli:
    def test_sweep_writes_summary(self, tiny_config, tmp_path, capsys):
        code = run_cli(
            "sweep-size", "--config", str(tiny_config), "--steps", "40",
            "--output-dir", str(tmp_path / "sweep"),
        )
        assert code == 0
        lines = (tmp_path / "sweep" / "sweep_size.csv").read_text().splitlines()
        assert lines[0].startswith("n_vehicles,episodes,final_reward")
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "6", "8"]
        for n in (2, 4, 6, 8):
            assert (tmp_path / "sweep" / f"train_log_n{n}_seed0.csv").exists()
