import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from phasefuse import cli, lapack, sdp
from phasefuse.cli import (
    CSV_HEADER,
    build_parser,
    emit_plot_script,
    main,
    render_csv,
    render_json,
    write_csv,
)
from phasefuse.montecarlo import (
    ExperimentConfig,
    PointResult,
    SENSOR_SWEEP,
    StrategyStats,
    SweepResult,
    run_sweep,
)


def tiny_result(points=1, strategies=("sdp", "all_ones")):
    cfg = ExperimentConfig(sweep=SENSOR_SWEEP, sweep_values=tuple(range(2, 2 + points)) or (2,),
                           fixed_count=2, trials=3)
    pts = []
    for k in range(points):
        stats = {
            s: StrategyStats(mean_variance=0.1 / (k + i + 1), std_err=0.01, failures=0)
            for i, s in enumerate(strategies)
        }
        pts.append(PointResult(sweep_value=2 + k, trials=3, strategy_stats=stats,
                               lower_bound_mean=0.05 / (k + 1), eq11=0.06, eq12=0.07))
    return SweepResult(points=pts, config=cfg)


# Flags of the sweeps that neither ``run`` nor ``oracle`` accepts.
SWEEP_ONLY_FLAGS = [
    ("--trials", "2"), ("--resample-per-trial", "false"), ("--output", "x.csv"),
    ("--format", "json"), ("--emit-plot-script", "plot.py"),
]


class TestParser:
    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.antennas == 4
        assert tuple(args.sensors) == tuple(range(2, 31, 2))
        assert args.trials == 300
        assert args.seed == 0
        assert args.fc_noise == 0.1
        assert args.dist_range == (2.0, 7.0)
        assert args.sensor_noise_range == (0.001, 0.01)
        assert args.resample_per_trial is True

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.sensors == 4
        assert tuple(args.antennas) == (1, 2, 4, 8, 16, 32, 64, 128)

    def test_malformed_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig1", "--dist-range", "oops"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig1", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand,flag,value", [
        (subcommand, flag, value)
        for subcommand in ("run", "oracle") for flag, value in SWEEP_ONLY_FLAGS
    ] + [("oracle", "--strategies", "sdp")])
    def test_flag_not_taken_exits_2(self, subcommand, flag, value):
        counts = ["--sensors", "2", "--antennas", "2"] if subcommand == "run" else []
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *counts, flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", ["fig1", "fig2"])
    @pytest.mark.parametrize("flag,value", SWEEP_ONLY_FLAGS + [("--strategies", "sdp")])
    def test_sweep_flags_accepted_by_sweeps(self, subcommand, flag, value):
        build_parser().parse_args([subcommand, flag, value])


class TestCsv:
    def test_header_only_for_empty_sweep(self):
        res = tiny_result(points=1)
        res.points = []
        text = render_csv(res)
        assert text == CSV_HEADER + "\n"

    def test_row_count(self):
        text = render_csv(tiny_result(points=1))
        assert len(text.splitlines()) == 3  # header + 2 strategies

    def test_round_trip_bit_exact(self):
        res = tiny_result(points=2)
        # make values non-trivial doubles
        res.points[0].strategy_stats["sdp"].mean_variance = 0.1 + 1e-17
        res.points[1].lower_bound_mean = np.pi / 59.0
        lines = render_csv(res).splitlines()
        header = lines[0].split(",")
        for line, ref in zip(lines[1:], [
            r for p in res.points for r in (
                (p, "sdp"), (p, "all_ones"))]):
            row = dict(zip(header, line.split(",")))
            point, label = ref
            assert float(row["mean_variance"]) \
                == point.strategy_stats[label].mean_variance
            assert float(row["lower_bound_mean"]) == point.lower_bound_mean

    def test_lf_newlines_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(tiny_result(), str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_absent_fields_empty(self):
        res = tiny_result()
        res.points[0].eq11 = None
        res.points[0].eq12 = None
        line = render_csv(res).splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert line[header.index("eq11")] == ""
        assert line[header.index("eq17")] == ""

    def test_json_mirror(self):
        res = tiny_result()
        rows = json.loads(render_json(res))
        assert set(rows[0].keys()) == set(CSV_HEADER.split(","))
        assert rows[0]["eq17"] is None


class TestPlotScript:
    def test_references_columns_and_is_deterministic(self, tmp_path):
        res = tiny_result()
        p1 = tmp_path / "plot1.py"
        p2 = tmp_path / "plot2.py"
        emit_plot_script(res, str(p1), "results.csv")
        emit_plot_script(res, str(p2), "results.csv")
        text = p1.read_text()
        assert p1.read_bytes() == p2.read_bytes()
        for col in ("mean_variance", "lower_bound_mean", "eq11", "eq17"):
            assert col in text
        assert "results.csv" in text


class TestGoldenOutput:
    """Every byte of the three renderings of ``tiny_result``, with a full
    precision double and an empty (None) eq17 cell."""

    @staticmethod
    def _result():
        res = tiny_result()
        res.points[0].strategy_stats["sdp"].mean_variance = 1.0 / 3.0
        res.points[0].lower_bound_mean = np.pi / 59.0
        return res

    def test_csv(self):
        assert render_csv(self._result()) == (
            "sweep_param,value,strategy,mean_variance,std_err,lower_bound_mean,"
            "eq11,eq12,eq17,trials,failures\n"
            "sensors,2,sdp,0.3333333333333333,0.01,0.05324733311169141,0.06,0.07,,3,0\n"
            "sensors,2,all_ones,0.05,0.01,0.05324733311169141,0.06,0.07,,3,0\n"
        )

    def test_json(self):
        row = (
            '  {{\n'
            '    "sweep_param": "sensors",\n'
            '    "value": 2,\n'
            '    "strategy": "{}",\n'
            '    "mean_variance": {},\n'
            '    "std_err": 0.01,\n'
            '    "lower_bound_mean": 0.05324733311169141,\n'
            '    "eq11": 0.06,\n'
            '    "eq12": 0.07,\n'
            '    "eq17": null,\n'
            '    "trials": 3,\n'
            '    "failures": 0\n'
            '  }}'
        )
        assert render_json(self._result()) == (
            "[\n" + row.format("sdp", "0.3333333333333333") + ",\n"
            + row.format("all_ones", "0.05") + "\n]\n"
        )

    @pytest.mark.parametrize("csv_path,png_path,sha256", [
        ("out/fig1.csv", "out/fig1.png",
         "1905440a16cc9bfd8bafee2ea35b44f1c1217441cfcaae01c0adaaa309c598ef"),
        # A dot in a directory name is not an extension.
        ("runs.v2/fig1", "runs.v2/fig1.png",
         "38b26af98071a91834cc93f3042d63de48cadf061313831f6321c73cc0fca698"),
    ])
    def test_plot_script(self, tmp_path, csv_path, png_path, sha256):
        path = tmp_path / "plot.py"
        emit_plot_script(self._result(), str(path), csv_path)
        raw = path.read_bytes()
        text = raw.decode()
        assert f"CSV_PATH = {csv_path or 'results.csv'!r}\n" in text
        assert "ax.set_xlabel('number of sensors N')\n" in text
        assert f"fig.savefig({png_path!r}, dpi=150)\n" in text
        assert hashlib.sha256(raw).hexdigest() == sha256


class TestCommands:
    def test_run_subcommand(self, capsys):
        rc = main(["run", "--sensors", "2", "--antennas", "3", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sdp" in out and "all_ones" in out and "closed_form_n2" in out

    def test_oracle_subcommand(self, capsys):
        rc = main(["oracle", "--sensors", "3", "--instances", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid" in out and "ratio" in out

    def test_selftest(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out

    def test_fig1_small_csv(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        rc = main(["fig1", "--sensors", "2", "3", "--trials", "2",
                   "--seed", "1", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5  # 2 points x 2 strategies

    def test_fig2_json(self, tmp_path):
        out = tmp_path / "fig2.json"
        rc = main(["fig2", "--antennas", "1", "2", "--trials", "2",
                   "--seed", "1", "--format", "json", "--output", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert rows[0]["sweep_param"] == "antennas"
        assert rows[0]["eq17"] is not None

    def test_output_io_failure_exits_1(self):
        rc = main(["fig1", "--sensors", "2", "--trials", "1",
                   "--output", "/nonexistent-dir/x.csv"])
        assert rc == 1

    @pytest.mark.parametrize("subcommand", [
        ["fig1", "--sensors", "2", "--trials", "1"],
        ["run", "--sensors", "2", "--antennas", "2"],
    ])
    @pytest.mark.parametrize("flag,value", [
        ("--fc-noise", "nan"), ("--fc-noise", "inf"),
        ("--alpha", "nan"), ("--alpha", "inf"),
        ("--dist-range", "nan,7"), ("--dist-range", "2,inf"),
        ("--sensor-noise-range", "nan,0.01"), ("--sensor-noise-range", "0.001,inf"),
    ])
    def test_non_finite_parameter_exits_1(self, subcommand, flag, value, capsys):
        assert main(subcommand + [flag, value]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_repeated_strategy_exits_1(self, capsys):
        argv = ["fig1", "--sensors", "6", "--trials", "3", "--strategies", "sdp,sdp"]
        assert main(argv) == 1
        assert "error: strategies must not repeat" in capsys.readouterr().err

    def test_repeated_strategy_in_run_exits_1_before_any_output(self, capsys):
        argv = ["run", "--sensors", "4", "--antennas", "2", "--strategies", "sdp,sdp"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: strategies must not repeat, got ['sdp', 'sdp']\n")

    @pytest.mark.parametrize("argv", [
        ["fig1", "--trials", "0"],
        ["fig1", "--sensors", "2", "0"],
        ["fig1", "--antennas", "0"],
        ["fig2", "--sensors", "0"],
        ["fig2", "--antennas", "0", "1"],
        ["run", "--sensors", "0", "--antennas", "2"],
        ["run", "--sensors", "2", "--antennas", "0"],
        ["oracle", "--instances", "0"],
        ["oracle", "--sensors", "0"],
        ["oracle", "--antennas", "0"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_count_below_one_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", [
        ["fig1", "--sensors", "2", "--trials", "1"],
        ["run", "--sensors", "2", "--antennas", "2"],
    ], ids=["fig1", "run"])
    @pytest.mark.parametrize("strategies,kind", [("sdp,bogus", "bogus"), ("sdp,", "")],
                             ids=["unknown", "empty"])
    def test_unknown_strategy_exits_2(self, subcommand, strategies, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            main(subcommand + ["--strategies", strategies])
        assert exc.value.code == 2
        assert f"unknown strategy kind {kind!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["fig1", "fig2"])
    def test_plot_script_for_json_exits_2(self, subcommand, tmp_path, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out, plot = tmp_path / "r.json", tmp_path / "p.py"
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--format", "json", "--output", str(out),
                  "--emit-plot-script", str(plot)])
        assert exc.value.code == 2
        assert "--emit-plot-script needs --format csv" in capsys.readouterr().err
        assert not out.exists() and not plot.exists()

    @pytest.mark.parametrize("subcommand", ["fig1", "fig2"])
    def test_plot_script_without_output_exits_2(self, subcommand, tmp_path, monkeypatch,
                                                capsys):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        plot = tmp_path / "p.py"
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--emit-plot-script", str(plot)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--emit-plot-script needs --output" in captured.err
        assert captured.out == ""
        assert not plot.exists()

    @pytest.mark.parametrize("subcommand", ["fig1", "fig2"])
    @pytest.mark.parametrize("plot", ["same.csv", "./same.csv", "sub/../same.csv"])
    def test_plot_script_naming_the_output_exits_2(self, subcommand, plot, tmp_path,
                                                   monkeypatch, capsys):
        # The script would overwrite the CSV that it reads.
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--output", "same.csv", "--emit-plot-script", plot])
        assert exc.value.code == 2
        assert "--emit-plot-script must name a file other than --output" \
            in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize("subcommand", [
        ["run", "--sensors", "2", "--antennas", "4"],      # matrix-inversion lemma
        ["fig1", "--sensors", "4", "--trials", "2"],       # M <= N: direct solve
    ], ids=["run", "fig1"])
    def test_overflowing_channel_gains_exit_1(self, subcommand, capsys):
        # d^-alpha = 1e200 is finite, but H^H H is not.
        assert main(subcommand + ["--dist-range", "1e-200,1e-199"]) == 1
        err = capsys.readouterr().err
        assert "error: B = H^H C^{-1} H overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", [
        ["fig1", "--sensors", "2", "--trials", "1"],
        ["fig2", "--antennas", "1", "--trials", "1"],
        ["run", "--sensors", "2", "--antennas", "2"],
        ["oracle", "--instances", "1"],
    ], ids=["fig1", "fig2", "run", "oracle"])
    def test_negative_seed_exits_2(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main(subcommand + ["--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected an integer >= 0, got '-1'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["fig1", "fig2"])
    def test_negative_alpha_exits_1_before_the_sweep(self, subcommand, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert main([subcommand, "--alpha", "-1"]) == 1
        assert "error: path_loss_exp must be nonnegative" \
            in capsys.readouterr().err

    def test_selftest_fails_on_a_wrong_lemma_branch(self, monkeypatch, capsys):
        # selftest's Fisher instances all have M > N, so the only square
        # right-hand side is the lemma branch's G (N x N); the SDP's
        # Cholesky solves take a vector.
        real, hits = lapack.cho_solve, []

        def wrong_square_solve(c, b):
            x = real(c, b)
            if b.ndim == 2 and b.shape[0] == b.shape[1]:
                hits.append(b.shape)
                return 1.01 * x
            return x

        monkeypatch.setattr(lapack, "cho_solve", wrong_square_solve)
        assert main(["selftest"]) == 1
        assert "[FAIL] matrix-inversion-lemma identity" in capsys.readouterr().out
        assert hits

    def test_selftest_fails_without_a_certified_single_antenna_solve(self, monkeypatch,
                                                                     capsys):
        # With the certificate gone the IPM solves the M = 1 instance, and its
        # factor is N x N, not the certified one column.
        monkeypatch.setattr(sdp, "_rank_one_certificate", lambda b, factor: None)
        assert main(["selftest"]) == 1
        assert "[FAIL] single-antenna co-phasing" in capsys.readouterr().out

    def test_oracle_beyond_grid_limit_exits_1(self, capsys):
        assert main(["oracle", "--sensors", "5", "--instances", "1"]) == 1
        assert capsys.readouterr() == ("", "error: strategy grid needs 1 <= N <= 4, got N = 5\n")

    @pytest.mark.parametrize("argv,message", [
        (["fig1", "--sensors", "4", "6", "--strategies", "grid"],
         "strategy grid needs 1 <= N <= 4, got N = 6"),
        (["fig1", "--sensors", "2", "3", "--strategies", "sdp,closed_form_n2"],
         "strategy closed_form_n2 needs N = 2, got N = 3"),
        (["fig2", "--sensors", "5", "--strategies", "grid"],
         "strategy grid needs 1 <= N <= 4, got N = 5"),
        (["run", "--sensors", "3", "--antennas", "2", "--strategies", "sdp,closed_form_n2"],
         "strategy closed_form_n2 needs N = 2, got N = 3"),
    ], ids=["grid", "closed_form_n2", "fig2-grid", "run"])
    def test_strategy_beyond_its_sensor_count_exits_1_before_any_output(
            self, argv, message, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_overflowing_gain_exits_1_without_a_warning(self):
        # (1e-200)^-2 = 1e400 overflows when the channel is drawn, before B.
        proc = subprocess.run(
            [sys.executable, "-m", "phasefuse.cli", "fig1", "--sensors", "4", "--trials",
             "1", "--dist-range", "1e-200,1e-199", "--alpha", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: channel gains d^-alpha overflow in floating point\n"

    def test_determinism_same_argv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["fig1", "--sensors", "2", "4", "--trials", "3", "--seed", "42"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_console_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phasefuse.cli", "run", "--sensors", "2",
             "--antennas", "2", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "variance" in proc.stdout
