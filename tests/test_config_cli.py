"""YAML config loading and the command-line surface, including exit codes."""
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import graphbandits
import graphbandits.graph as graph_module
from graphbandits import (
    ConfigError,
    disjoint_cliques,
    experiment_config_from_dict,
    load_experiment_config,
)
from graphbandits.cli import main
from graphbandits.lemma import VerificationReport


def config_dict(**overrides):
    data = {
        "instance": {"means": [0.9, 0.6, 0.6], "graph": "cliques:2,1"},
        "policy": {"name": "ucb-n"},
        "run": {"horizon": 64, "runs": 2, "seed": 3},
    }
    data.update(overrides)
    return data


# the CLI subprocesses import the same package as the tests, installed or not
_SRC = str(Path(graphbandits.__file__).resolve().parents[1])
_CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, env=None, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "graphbandits.cli", *args],
        capture_output=True,
        text=True,
        env={**_CLI_ENV, **(env or {})},
        **kwargs,
    )


def run_cli_capped(*args, **kwargs):
    # 2 GiB of address space: a request that outgrows its limits fails its
    # allocation instead of taking the machine's memory
    cap = 2 << 30
    return run_cli(
        *args,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        **kwargs,
    )


@pytest.fixture
def config_file(tmp_path):
    def write(data=None, name="exp.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(data if data is not None else config_dict()))
        return str(path)

    return write


class TestConfigParsing:
    def test_full_round_trip(self, config_file):
        config = load_experiment_config(config_file())
        assert config.policy == "ucb-n"
        assert config.horizon == 64
        assert config.num_runs == 2
        assert config.base_seed == 3
        assert config.instance.graph == disjoint_cliques((2, 1))
        assert np.allclose(config.instance.means, [0.9, 0.6, 0.6])

    def test_graph_mapping_form(self):
        data = config_dict()
        data["instance"]["graph"] = {"edges": ["0-1", [1, 2]], "num_arms": 3}
        config = experiment_config_from_dict(data)
        assert config.instance.graph.edges() == [(0, 1), (1, 2)]

    def test_graph_mapping_infers_arm_count(self):
        data = config_dict()
        data["instance"]["means"] = [0.9, 0.6]
        data["instance"]["graph"] = {"edges": ["0-1"]}
        config = experiment_config_from_dict(data)
        assert config.instance.graph.num_arms == 2

    def test_optional_blocks(self):
        data = config_dict(mis={"exact_limit": 12, "allow_approximate": True})
        data["policy"]["delta"] = 0.05
        data["run"]["checkpoints"] = [1, 8, 64]
        config = experiment_config_from_dict(data)
        assert config.mis_exact_limit == 12
        assert config.allow_approximate_mis
        assert config.delta == 0.05
        assert config.checkpoints == (1, 8, 64)

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.pop("instance"), "instance"),
            (lambda d: d["instance"].pop("means"), "instance.means"),
            (lambda d: d["instance"].pop("graph"), "instance.graph"),
            (lambda d: d.pop("policy"), "policy"),
            (lambda d: d["policy"].pop("name"), "policy.name"),
            (lambda d: d.pop("run"), "run"),
            (lambda d: d["run"].pop("horizon"), "run.horizon"),
        ],
    )
    def test_missing_fields_are_named(self, mutate, needle):
        data = config_dict()
        mutate(data)
        with pytest.raises(ConfigError, match=needle):
            experiment_config_from_dict(data)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["instance"].update(means="0.9"),
            lambda d: d["instance"].update(means=[]),
            lambda d: d["instance"].update(means=[0.9, 2.0, 0.6]),
            lambda d: d["instance"].update(graph="triangle:3"),
            lambda d: d["instance"].update(graph={"edges": ["0+1"]}),
            lambda d: d["instance"].update(graph={"edges": "0-1"}),
            lambda d: d["policy"].update(name="greedy"),
            lambda d: d["policy"].update(delta="lots"),
            lambda d: d["run"].update(horizon=0),
            lambda d: d["run"].update(checkpoints=12),
            lambda d: d.update(mis=[1, 2]),
            lambda d: d.update(mis={"allow_approximate": "false"}),
            lambda d: d.update(mis={"allow_approximate": 1}),
            lambda d: d.update(mis={"exact_limit": 2.9}),
            lambda d: d.update(mis={"exact_limit": True}),
            lambda d: d.update(mis={"exact_limit": -1}),
            lambda d: d.update(mis={"exact_limit": "30"}),
            lambda d: d["run"].update(seed=1.5),
            lambda d: d["run"].update(runs=True),
            lambda d: d["run"].update(checkpoints=[1, 2.5]),
            lambda d: d["instance"].update(graph={"edges": [[0, 1]], "num_arms": 3.0}),
        ],
    )
    def test_bad_values_become_config_errors(self, mutate):
        data = config_dict()
        mutate(data)
        with pytest.raises(ConfigError):
            experiment_config_from_dict(data)

    def test_arity_mismatch_is_a_config_error(self):
        data = config_dict()
        data["instance"]["graph"] = "cycle:5"
        with pytest.raises(ConfigError):
            experiment_config_from_dict(data)

    def test_non_mapping_top_level(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict(["not", "a", "mapping"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("instance: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_experiment_config(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_experiment_config(path)


class TestSimulateCommand:
    def test_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["simulate", "--config", config_file(), "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mean final regret" in stdout
        assert "over 2 run(s)" in stdout
        csv_text = (out / "regret.csv").read_text()
        assert csv_text.startswith("checkpoint,mean_regret,stderr,min,max\n")
        sidecar = (out / "bounds.txt").read_text()
        assert "theorem=" in sidecar and "alpha=2" in sidecar

    def test_byte_deterministic(self, config_file, tmp_path):
        path = config_file()
        for sub in ("a", "b"):
            assert main(["simulate", "--config", path, "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a/regret.csv").read_bytes() == (
            tmp_path / "b/regret.csv"
        ).read_bytes()
        assert (tmp_path / "a/bounds.txt").read_bytes() == (
            tmp_path / "b/bounds.txt"
        ).read_bytes()

    def test_out_dir_from_environment(self, config_file, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("GRAPHBANDITS_OUT", str(target))
        assert main(["simulate", "--config", config_file()]) == 0
        assert (target / "regret.csv").exists()

    def test_missing_config_field_exits_two(self, config_file, capsys):
        data = config_dict()
        del data["instance"]["means"]
        code = main(["simulate", "--config", config_file(data)])
        assert code == 2
        assert "instance.means" in capsys.readouterr().err

    def test_negative_seed_exits_two_without_traceback(self, config_file):
        data = config_dict()
        data["run"]["seed"] = -1
        proc = run_cli("simulate", "--config", config_file(data))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "seed must be nonnegative" in proc.stderr

    @pytest.mark.parametrize("policy", ["ucb-n", "ts-n"])
    def test_horizon_one_without_delta_exits_two(self, config_file, policy):
        data = config_dict()
        data["policy"]["name"] = policy
        data["run"]["horizon"] = 1
        proc = run_cli("simulate", "--config", config_file(data))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "run.horizon" in proc.stderr
        assert "1/horizon" in proc.stderr

    @pytest.mark.parametrize("name", ["UCB-N", " Ucb-N "])
    def test_policy_name_is_canonical(self, tmp_path, name):
        # any case and surrounding space name the same policy, byte for byte
        out = {}
        for label, policy in (("given", name), ("lower", "ucb-n")):
            data = config_dict()
            data["policy"]["name"] = policy
            path = _write(tmp_path / f"{label}.yaml", data)
            proc = run_cli("simulate", "--config", path, "--out", str(tmp_path / label))
            assert proc.returncode == 0, proc.stderr
            out[label] = [
                (tmp_path / label / f).read_bytes() for f in ("regret.csv", "bounds.txt")
            ]
        assert out["given"] == out["lower"]
        assert b"policy=ucb-n\n" in out["given"][1]

    def test_unreadable_config_exits_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_huge_vertex_id_in_config_edge_exits_two(self, config_file):
        data = config_dict()
        data["instance"]["graph"] = {"edges": [[0, 99999999999999999999]], "num_arms": 3}
        proc = run_cli("simulate", "--config", config_file(data))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "outside the vertex range 0..2" in proc.stderr

    def test_oversized_graph_exits_three(self, config_file, capsys):
        data = config_dict()
        data["instance"]["means"] = [0.5] * 40
        data["instance"]["graph"] = "complete:40"
        code = main(["simulate", "--config", config_file(data)])
        assert code == 3
        assert "capability" in capsys.readouterr().err


class TestMisSettingsPrecedence:
    """The config's mis block holds unless a flag is passed."""

    @pytest.fixture
    def greedy_calls(self, monkeypatch):
        calls = []
        real = graph_module._greedy_set

        def spy(adj, weights, positions):
            calls.append(len(positions))
            return real(adj, weights, positions)

        monkeypatch.setattr(graph_module, "_greedy_set", spy)
        return calls

    @pytest.mark.parametrize("command", ["simulate", "bounds", "phases", "sweep-alpha"])
    def test_config_allows_approximation(
        self, command, config_file, tmp_path, greedy_calls, capsys
    ):
        data = config_dict(mis={"allow_approximate": True})
        data["instance"] = {"means": [0.9] + [0.5] * 34, "graph": "cycle:35"}
        args = [command, "--config", config_file(data)]
        args += {
            "simulate": ["--out", str(tmp_path / "out")],
            "sweep-alpha": ["--graphs", "cycle:35"],
        }.get(command, [])
        assert main(args) == 0
        assert 35 in greedy_calls
        greedy_calls.clear()
        assert main(args + ["--mis-limit", "40"]) == 0
        assert greedy_calls == []
        assert main(args + ["--mis-limit", "-1"]) == 2
        assert "--mis-limit" in capsys.readouterr().err

    def test_flag_overrides_config(self, config_file, tmp_path, capsys):
        data = config_dict(mis={"exact_limit": 20})
        data["instance"] = {"means": [0.9] + [0.5] * 24, "graph": "cycle:25"}
        path = config_file(data)
        assert main(["bounds", "--config", path]) == 3
        assert "limited to 20 vertices" in capsys.readouterr().err
        assert main(["bounds", "--config", path, "--approx-mis"]) == 0
        assert main(["bounds", "--config", path, "--mis-limit", "30"]) == 0


class TestBoundsCommand:
    def test_key_value_output(self, config_file, capsys):
        assert main(["bounds", "--config", config_file()]) == 0
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split()[0] for line in lines]
        assert keys == [
            "T", "K", "delta", "alpha", "H", "L",
            "lemma_original", "lemma_improved", "theorem", "corollary",
        ]

    def test_csv_flag_and_horizon_override(self, config_file, capsys):
        code = main(
            ["bounds", "--config", config_file(), "--horizon", "1000", "--csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "T,K,delta,alpha,H,L,lemma_original,lemma_improved,theorem,corollary" in lines
        row = lines[lines.index("T,K,delta,alpha,H,L,lemma_original,lemma_improved,theorem,corollary") + 1]
        assert row.startswith("1000,3,")

    def test_delta_override(self, config_file, capsys):
        assert main(["bounds", "--config", config_file(), "--delta", "0.5"]) == 0
        out = capsys.readouterr().out
        pairs = dict(line.split(None, 1) for line in out.splitlines())
        assert pairs["delta"].strip() == "0.5"


class TestPhasesCommand:
    def test_table(self, config_file, capsys):
        data = config_dict()
        data["instance"] = {"means": [0.9, 0.5, 0.2], "graph": "complete:3"}
        data["run"]["horizon"] = 1000000
        assert main(["phases", "--config", config_file(data)]) == 0
        out = capsys.readouterr().out
        assert "alpha=1 max_phase=" in out
        assert "phase  arms  indep  term  peak" in out
        assert "peak_phase=2" in out
        assert "weighted_total=6" in out
        starred = [line for line in out.splitlines() if line.endswith("*")]
        assert len(starred) == 1 and starred[0].lstrip().startswith("2")

    def test_empty_decomposition(self, config_file, capsys):
        data = config_dict()
        data["instance"] = {"means": [0.5, 0.5, 0.5], "graph": "complete:3"}
        assert main(["phases", "--config", config_file(data)]) == 0
        assert "empty decomposition" in capsys.readouterr().out


class TestMisCommand:
    def test_unweighted(self, capsys):
        assert main(["mis", "--graph", "cycle:5"]) == 0
        out = capsys.readouterr().out
        assert "alpha=2" in out
        assert "vertices=0,2" in out
        assert "approximate" not in out

    def test_weighted(self, capsys):
        code = main(
            ["mis", "--graph", "cycle:5", "--weights", "10", "1", "1", "1", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "value=11" in out
        assert "vertices=0,2" in out

    def test_capability_gate_and_greedy_escape(self, capsys):
        assert main(["mis", "--graph", "complete:40"]) == 3
        err = capsys.readouterr().err
        assert "--approx-mis" in err and "mis.allow_approximate" in err
        assert main(["mis", "--graph", "cycle:5", "--mis-limit", "-1"]) == 2
        assert capsys.readouterr().err == (
            "input error: exact_limit (--mis-limit, mis.exact_limit) must be "
            "nonnegative, got -1\n"
        )
        # a search deeper than the interpreter's stack is refused, not crashed
        proc = run_cli("mis", "--graph", "edgeless:1000", "--mis-limit", "5000")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "capability error: exact independent-set search on 1000 vertices "
            "is deeper than the interpreter's recursion limit\n"
        )
        assert main(["mis", "--graph", "complete:40", "--approx-mis"]) == 0
        out = capsys.readouterr().out
        assert "alpha=1" in out
        assert "approximate=true" in out

    def test_bad_spec_exits_two(self, capsys):
        assert main(["mis", "--graph", "torus:5"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_greedy_weight_overflow_exits_two(self):
        proc = run_cli(
            "mis", "--graph", "edgeless:31", "--approx-mis", "--weights", *["1e308"] * 31
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "input error: the greedy independent-set weight overflows\n"

    @pytest.mark.parametrize("spec", ["complete:16384", "er:16384,0.5,1"])
    def test_dense_graph_at_the_arm_limit_solves(self, spec):
        proc = run_cli_capped("mis", "--graph", spec, "--approx-mis")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.endswith("approximate=true\n")
        if spec.startswith("complete"):
            assert proc.stdout == "alpha=1\nvertices=0\napproximate=true\n"

    def _assert_arm_limit_error(self, proc):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "num_arms must be at most 16384" in proc.stderr

    @pytest.mark.parametrize(
        "spec", ["complete:100000000000", "cliques:100000000000", "er:100000000000,0.5,1"]
    )
    def test_huge_family_arm_count_exits_two(self, spec):
        self._assert_arm_limit_error(run_cli_capped("mis", "--graph", spec))

    def test_huge_file_arm_count_exits_two(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("100000000000\n")
        self._assert_arm_limit_error(run_cli_capped("mis", "--graph", f"file:{path}"))


class TestVerifyLemmaCommand:
    def test_exhaustive_box(self, capsys):
        assert main(["verify-lemma", "--alpha", "2", "--phases", "4"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "81 sequences, 0 violations\n"
            "tightest ratio 2.75 at counts=(2,2,2,1); threshold 4\n"
        )

    # 2^14284 has 4,300 digits, the most that str() converts
    @pytest.mark.parametrize(
        "alpha, phases", [(3, 1000), (1, 1100), (3, 5000), (1, 14284)]
    )
    def test_long_box_exits_zero_in_bounded_memory(self, alpha, phases):
        # these boxes once crashed the sampled mode (74.5 GiB asked of
        # numpy) or overflowed a float; the certificate needs neither
        proc = run_cli_capped(
            "verify-lemma", "--alpha", str(alpha), "--phases", str(phases)
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == f"{(alpha + 1) ** phases} sequences, 0 violations"
        assert lines[1].startswith("tightest ratio ")

    @pytest.mark.parametrize("alpha, phases", [(1, 14285), (3, 12800), (2, 15700)])
    def test_box_size_past_the_decimal_conversion_limit(self, alpha, phases):
        # (alpha + 1)^P has more than 4,300 digits here, which str() refuses
        proc = run_cli_capped(
            "verify-lemma", "--alpha", str(alpha), "--phases", str(phases)
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[0] == f"{alpha + 1}^{phases} sequences, 0 violations"
        assert lines[1].startswith("tightest ratio ")

    @pytest.mark.parametrize(
        "alpha, phases, want",
        [
            # the work count alpha * P * (8 + P // 64) has 7,999 digits,
            # past what str() converts
            ("2", "9" * 4000, "certifying alpha=2 over <4000 digits> phases "
             "costs <7999 digits> steps, above the limit of 8000000"),
            ("9" * 4000, "3", "certifying alpha=<4000 digits> over 3 phases "
             "costs <4002 digits> steps, above the limit of 8000000"),
            # a refusal of ordinary size reads as it always has
            ("100000", "100000", "certifying alpha=100000 over 100000 phases "
             "costs 15700000000000 steps, above the limit of 8000000"),
        ],
        ids=["phases-of-4000-digits", "alpha-of-4000-digits", "ordinary"],
    )
    def test_huge_box_exits_three_with_one_short_line(self, alpha, phases, want):
        proc = run_cli_capped("verify-lemma", "--alpha", alpha, "--phases", phases)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"capability error: {want}\n"

    def test_over_limit_box_exits_three(self):
        proc = run_cli_capped("verify-lemma", "--alpha", "3", "--phases", "20000")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("capability error: ")
        assert proc.stdout == ""

    def test_sampling_flags_are_gone(self, capsys):
        for flag in ("--budget", "--seed"):
            with pytest.raises(SystemExit) as excinfo:
                main(["verify-lemma", "--alpha", "2", "--phases", "4", flag, "5"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_violations_exit_one(self, capsys, monkeypatch):
        # no real counterexample exists, so exercise the failure path with
        # a stubbed report
        fake = VerificationReport(
            alpha=2,
            num_phases=3,
            instances_checked=27,
            nonzero_checked=26,
            violation_count=1,
            violations=((2, 1, 0),),
            tightest_ratio=9.9,
            tight_witness=(2, 1, 0),
            exhaustive=True,
        )
        monkeypatch.setattr(
            "graphbandits.cli.exhaustive_verify", lambda *a, **k: fake
        )
        assert main(["verify-lemma", "--alpha", "2", "--phases", "3"]) == 1
        out = capsys.readouterr().out
        assert "27 sequences, 1 violations" in out
        assert "violation: counts=(2,1,0)" in out

    def test_bad_alpha_exits_two(self, capsys):
        assert main(["verify-lemma", "--alpha", "0", "--phases", "3"]) == 2


class TestSweepAlphaCommand:
    def test_stdout_table(self, config_file, capsys):
        code = main(
            [
                "sweep-alpha", "--config", config_file(),
                "--graphs", "complete:3", "edgeless:3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "graph,alpha,mean_final_regret,stderr,theorem,corollary"
        assert lines[1].startswith("complete:3,1,")
        assert lines[2].startswith("edgeless:3,3,")

    def test_csv_file_output(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-alpha", "--config", config_file(),
                "--graphs", "complete:3", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("graph,alpha,")

    def test_arity_mismatch_exits_two(self, config_file):
        code = main(
            ["sweep-alpha", "--config", config_file(), "--graphs", "cycle:7"]
        )
        assert code == 2


class TestParserPlumbing:
    @pytest.mark.parametrize(
        "command",
        ["simulate", "bounds", "phases", "mis", "verify-lemma", "sweep-alpha"],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out

    def test_entry_point_script(self):
        proc = run_cli("verify-lemma", "--alpha", "2", "--phases", "4")
        assert proc.returncode == 0
        assert "81 sequences, 0 violations" in proc.stdout


def _write(path, content):
    """``content`` as raw bytes, or a config mapping as YAML; returns the path."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(yaml.safe_dump(content))
    return str(path)


def _simulate(t, section, **fields):
    """simulate argv for the default config with ``fields`` set in ``section``."""
    data = config_dict()
    data[section].update(fields)
    return ["simulate", "--config", _write(t / "c.yaml", data), "--out", str(t / "out")]


def _config(t):
    return _write(t / "c.yaml", config_dict())


def _long_integer(t, section, field):
    """simulate argv for the default config with a 5,000-digit ``section.field``."""
    data = config_dict()
    data.setdefault(section, {})[field] = "LONG"
    # safe_dump would convert the integer to decimal, which str() refuses
    text = yaml.safe_dump(data).replace("LONG", "7" * 5000)
    path = _write(t / "c.yaml", text.encode())
    return ["simulate", "--config", path, "--out", str(t / "out")]


# a gap of 1e-306 gives H = 1e306, which finite bounds cannot carry
_TINY_GAP = config_dict(
    instance={"means": [1.0e-306, 0.0], "graph": "edgeless:2"}
)

# exit code, text in stderr, build(tmp_path) -> (argv, extra environment)
_BAD_INPUTS = [
    pytest.param(
        2, "cannot write output to",
        lambda t: (
            ["simulate", "--config", _config(t), "--out", _write(t / "f", b"")], {}
        ),
        id="out-dir-is-a-file",
    ),
    pytest.param(
        2, "cannot write output to",
        lambda t: (
            ["simulate", "--config", _config(t)],
            {"GRAPHBANDITS_OUT": _write(t / "f", b"") + "/x"},
        ),
        id="env-out-dir-under-a-file",
    ),
    pytest.param(
        2, "cannot write output to",
        lambda t: (
            ["sweep-alpha", "--config", _config(t), "--graphs", "cycle:3",
             "--out", str(t / "missing" / "x.csv")],
            {},
        ),
        id="sweep-out-in-missing-dir",
    ),
    pytest.param(
        2, "cannot read config",
        lambda t: (["bounds", "--config", _write(t / "c.yaml", b"\xff\xfe")], {}),
        id="config-not-utf8",
    ),
    pytest.param(
        3, "capability error",
        lambda t: (_simulate(t, "run", runs=10**11), {}),
        id="runs-beyond-memory",
    ),
    pytest.param(
        2, "run.runs",
        lambda t: (_simulate(t, "run", runs=1.5), {}),
        id="fractional-runs",
    ),
    pytest.param(
        2, "run.horizon",
        lambda t: (_simulate(t, "run", horizon=10.7), {}),
        id="fractional-horizon",
    ),
    pytest.param(
        2, "instance.graph.edges",
        lambda t: (
            _simulate(t, "instance", graph={"edges": [[0, 1.5]], "num_arms": 3}),
            {},
        ),
        id="fractional-edge-id",
    ),
    pytest.param(
        2, "instance.means",
        lambda t: (_simulate(t, "instance", means=[True, 0.5, 0.5]), {}),
        id="bool-mean",
    ),
    pytest.param(
        2, "alpha",
        lambda t: (["verify-lemma", "--alpha", "0", "--phases", "3"], {}),
        id="lemma-alpha-zero",
    ),
    pytest.param(
        2, "horizon",
        lambda t: (["phases", "--config", _config(t), "--horizon", "0"], {}),
        id="phases-horizon-zero",
    ),
    pytest.param(
        2, "weights must be finite",
        lambda t: (["mis", "--graph", "cycle:3", "--weights", "nan", "1", "1"], {}),
        id="mis-nan-weight",
    ),
    pytest.param(
        2, "edge probability",
        lambda t: (["mis", "--graph", "er:10,2,1"], {}),
        id="mis-edge-probability-two",
    ),
    pytest.param(
        2, "delta 1e-320 is too small",
        lambda t: (["bounds", "--config", _config(t), "--delta", "1e-320"], {}),
        id="bounds-delta-overflows",
    ),
    pytest.param(
        2, "delta 1e-320 is too small",
        lambda t: (_simulate(t, "policy", delta=1e-320), {}),
        id="config-delta-overflows",
    ),
    pytest.param(
        2, "horizon of 401 digits is beyond float range",
        lambda t: (["bounds", "--config", _config(t), "--horizon", str(10**400)], {}),
        id="bounds-horizon-past-float",
    ),
    pytest.param(
        2, "horizon of 401 digits is beyond float range",
        lambda t: (
            ["bounds", "--config", _config(t), "--horizon", str(10**400),
             "--delta", "0.1"],
            {},
        ),
        id="bounds-delta-horizon-past-float",
    ),
    pytest.param(
        2, "horizon of 401 digits is beyond float range",
        lambda t: (_simulate(t, "run", horizon=10**400), {}),
        id="config-horizon-past-float",
    ),
    *[
        pytest.param(
            2, "c.yaml: unreadable value",
            lambda t, section=section, field=field: (_long_integer(t, section, field), {}),
            id=f"config-{field}-past-decimal-limit",
        )
        for section, field in [("run", "horizon"), ("run", "seed"), ("mis", "exact_limit")]
    ],
    pytest.param(
        # the default delta 1e-160 is not the user's: the horizon is named
        2, "horizon 1e+160 is too large",
        lambda t: (["bounds", "--config", _config(t), "--horizon", str(10**160)], {}),
        id="bounds-horizon-overflows-default-delta",
    ),
    pytest.param(
        2, "at least 2 when no delta is given",
        lambda t: (["bounds", "--config", _config(t), "--horizon", "1"], {}),
        id="bounds-horizon-one",
    ),
    pytest.param(
        2, "the theorem bound overflows a float at horizon 1e+160 and H 6.67",
        lambda t: (
            ["bounds", "--config", _config(t), "--horizon", str(10**160),
             "--delta", "0.1"],
            {},
        ),
        id="bounds-theorem-overflows",
    ),
    pytest.param(
        2, "the lemma_original bound overflows a float at horizon 64 and H 1e+306",
        lambda t: (
            ["bounds", "--config", _write(t / "c.yaml", _TINY_GAP)], {}
        ),
        id="bounds-hardness-overflows",
    ),
    pytest.param(
        2, "the lemma_original bound overflows a float at horizon 64 and H 1e+306",
        lambda t: (
            ["simulate", "--config", _write(t / "c.yaml", _TINY_GAP),
             "--out", str(t / "out")],
            {},
        ),
        id="simulate-hardness-overflows",
    ),
    pytest.param(
        2, "at least 2 when no delta is given",
        lambda t: (["bounds", "--config", _config(t), "--horizon", "1", "--csv"], {}),
        id="bounds-csv-horizon-one",
    ),
    # a misspelt or unknown key used to be ignored, and its default taken
    *[
        pytest.param(
            2, f"unknown field: {name} ",
            lambda t, data=data: (
                ["simulate", "--config", _write(t / "c.yaml", data),
                 "--out", str(t / "out")],
                {},
            ),
            id=f"unknown-key-{name}",
        )
        for name, data in [
            ("run.run", config_dict(run={"horizon": 100, "run": 50})),
            ("mis.exact_limt", config_dict(mis={"exact_limt": 1})),
            ("extra", config_dict(extra={"runs": 5})),
            ("policy.detla", config_dict(policy={"name": "ucb-n", "detla": 0.1})),
            (
                "instance.graph.num_arm",
                config_dict(
                    instance={"means": [0.9, 0.6, 0.6],
                              "graph": {"edges": ["0-1"], "num_arm": 3}}
                ),
            ),
            (
                "instance.familly",
                config_dict(
                    instance={"means": [0.9, 0.6, 0.6], "graph": "cliques:2,1",
                              "familly": "bernoulli"}
                ),
            ),
        ]
    ],
    pytest.param(
        # yaml's own message spans several lines, with a caret under the mark
        2, "c.yaml: invalid YAML: expected ',' or ']', but got '<stream end>' "
        "at line 3, column 1",
        lambda t: (
            ["bounds", "--config",
             _write(t / "c.yaml", b"instance:\n  means: [0.9, 0.6\n")],
            {},
        ),
        id="config-truncated-yaml",
    ),
    pytest.param(
        # a control character: yaml names no mark, only a character offset
        2, "c.yaml: invalid YAML: unacceptable character #x0001: special "
        "characters are not allowed at line 2, column 20\n",
        lambda t: (
            ["bounds", "--config",
             _write(t / "c.yaml", b"instance:\n  means: [0.9, 0.5]\x01\n")],
            {},
        ),
        id="config-control-character",
    ),
]


@pytest.mark.parametrize("code, needle, build", _BAD_INPUTS)
def test_bad_input_exits_with_one_line(code, needle, build, tmp_path):
    argv, env = build(tmp_path)
    proc = run_cli_capped(*argv, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert needle in proc.stderr
